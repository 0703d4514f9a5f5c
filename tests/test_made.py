"""The dissections the program makes without checking them are valid.

Each maker's output goes through the public constructor, which must
hand it back unchanged (see `made_reference.differences`).
"""

import pytest

from made_reference import (
    canonical,
    composed,
    differences,
    pooled,
    relabeled,
    superimposed,
    twisted,
)
from mosaic.polygon import Dissection


@pytest.mark.parametrize("made, sizes", [
    (pooled, range(3, 9)),
    (relabeled, range(3, 7)),
    (canonical, range(3, 9)),
    (twisted, range(4, 8)),
    (superimposed, range(5, 9)),
])
def test_made_dissections_pass_the_constructor_unchanged(made, sizes):
    for n in sizes:
        out = list(made(n))
        assert out, (made.__name__, n)
        assert list(differences(out)) == [], (made.__name__, n)


def test_compositions_pass_the_constructor_unchanged():
    # every operand pair with n1, n2 <= 6 and every choice of sides
    count, bad = 0, []
    for diss in composed(6, 10):
        count += 1
        bad += differences([diss])
    assert count == 115600
    assert bad == []


@pytest.mark.parametrize("made", [
    Dissection._made([1, 2, 3, 4], frozenset({(0, 2)})),              # labels a list
    Dissection._made((1, 2, 3, 4), {(0, 2)}),                         # a set
    Dissection._made((1, 2, 3, 4), frozenset({(2, 0)})),              # an unsorted pair
    Dissection._made((1, 2, 3, 4), frozenset({(0, 2), (1, 3)})),      # crossing
    Dissection._made((1, 2, 3, 4, 5), frozenset({(0, 2.0)})),         # a float vertex
    Dissection._made((1, 1, 3, 4), frozenset()),                      # a repeated label
])
def test_the_check_finds_a_badly_made_dissection(made):
    assert len(list(differences([made]))) == 1
