"""Twists against the window twist of the closure reference.

`twist` and `marked_twist` flip sides and diagonals in place
(`polygon._flip`), and a marked twist with side n on the flipped piece
then reflects the whole polygon.  The reference does neither: a twist
along (i, j) is `closure_reference._twist_window`, and a marked twist
turns the polygon so side n comes last (`rotate_infinity_last`), where
no window holds it, twists the window and turns the polygon back.

`differences` runs both on every diagonal of every dissection of the
n-gon.  For each diagonal it draws two seeded labelings, one with side n
on the window's positions i..j-1 and one with side n off them, and
twists each labeling along every diagonal.

Run as a script, `python tests/twist_reference.py N` compares them at
the n given and exits 1 on any difference.
"""

import random
import sys

from closure_reference import _move, _twist_window, rotate_infinity_last
from mosaic.moduli import marked_twist, twist
from mosaic.polygon import Dissection, enumerate_diagonal_sets


def labelings(rng, n, diags):
    """Two labelings per diagonal (i, j): side n on positions i..j-1, then off them."""
    out = []
    for i, j in diags:
        for spots in (range(i, j), [p for p in range(n) if not i <= p < j]):
            rest = list(range(1, n))
            rng.shuffle(rest)
            rest.insert(rng.choice(spots), n)
            out.append(tuple(rest))
    return out


def reference_marked_twist(labels, diags, d, n):
    """The window twist along d of the polygon turned so side n comes last."""
    r = (labels.index(n) + 1) % n
    turned, turned_diags = rotate_infinity_last(labels, diags, n)
    u, v = sorted(((d[0] - r) % n, (d[1] - r) % n))
    turned, turned_diags = _twist_window(turned, turned_diags, u, v)
    return turned[n - r:] + turned[:n - r], _move(turned_diags, lambda w: w + r, n)


def differences(n, seed=0):
    """(function, dissection, diagonal) for each twist that differs; and the count made."""
    rng, bad, made = random.Random(seed), [], 0
    for k in range(1, n - 2):
        for diags in enumerate_diagonal_sets(n, k):
            for labels in labelings(rng, n, diags):
                diss = Dissection(labels, frozenset(diags))
                for d in diags:
                    for function, want in (
                            (twist, _twist_window(labels, diags, *d)),
                            (marked_twist, reference_marked_twist(labels, diags, d, n))):
                        got = function(diss, d)
                        made += 1
                        if (got.labels, tuple(sorted(got.diagonals))) != want:
                            bad.append((function.__name__, diss, d))
    return bad, made


if __name__ == "__main__":
    n = int(sys.argv[1])
    bad, made = differences(n)
    print(f"twist and marked_twist at n = {n}: {made} made, {len(bad)} differ",
          *bad[:3], sep="\n  ")
    sys.exit(1 if bad else 0)
