"""A quasibraid presentation read off the marked polygon.

Generators are the diagonals of the reference n-gon.  Each diagonal
cuts off a run of sides away from the marked side n, its free part, and
acts on labels by reversing that run.  relations(n) reads no cell
complex: it reads each superimposable pair of diagonals through
conjugate_in, once per n.  Besides the involutions s s = 1, every such
pair gives one conjugation relation

  s_d s_a = s_{d(a)} s_d,

with d(a) the diagonal that d's marked twist makes of a.  The pair
commutes, and is listed as s_a s_b = s_b s_a, when neither diagonal's
twist moves the other.

The homomorphism phi sends each generator to its free-part reversal in
the symmetric group on 1..n-1.  check_phi evaluates both sides of every
relation under phi and compares them.  It proves phi onto without
listing the group: the span-2 diagonal (i-1, i+1) has free part
{i, i+1}, so its image is the adjacent transposition (i i+1), and
these n-2 transpositions generate S_{n-1} (Coxeter).

That one table is all the presentation: check_phi, export_presentation
and pair_of_pants read it, and a juxtaposition checks each relation it
carries, and each cross pair's commuting relation, by membership in the
target's table.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import factorial

from .errors import CheckReport, InvariantViolation, NonBijective, NotSI, RangeError
from .associahedron import reference_polygon
from .polygon import marked_twist, polygon_diagonals, superimpose


@dataclass(frozen=True)
class Generator:
    """One generator: a diagonal of the reference n-gon."""

    n: int
    diagonal: tuple

    @property
    def free_part(self):
        i, j = self.diagonal
        return tuple(range(i + 1, j + 1))

    def __repr__(self):
        return f"Generator({self.n}, {self.diagonal})"


def generators(n):
    """All n(n-3)/2 generators, ordered by diagonal."""
    if n < 4:
        raise RangeError(f"need n >= 4, got {n}")
    return [Generator(n, d) for d in polygon_diagonals(n)]


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..m}; images[x-1] is the image of x."""

    images: tuple

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise NonBijective(f"not a permutation of 1..{len(self.images)}: "
                               f"{self.images!r}")

    @classmethod
    def identity(cls, m):
        return cls(tuple(range(1, m + 1)))

    def apply(self, x):
        return self.images[x - 1]

    def __mul__(self, other):
        # left-to-right: (p * q)(x) = q(p(x))
        return Permutation(tuple(other.images[y - 1] for y in self.images))

    def inverse(self):
        out = [0] * len(self.images)
        for x, y in enumerate(self.images, start=1):
            out[y - 1] = x
        return Permutation(tuple(out))


def phi(g):
    """The image of a generator: reversal of its free-part run."""
    m = g.n - 1
    images = list(range(1, m + 1))
    run = g.free_part
    for t, x in enumerate(run):
        images[x - 1] = run[len(run) - 1 - t]
    return Permutation(tuple(images))


def phi_word(word, n):
    """Product of generator images, leftmost applied first."""
    out = Permutation.identity(n - 1)
    for g in word:
        out = out * phi(g)
    return out


def conjugate_in(d, a):
    """The generator conjugate to `a` inside `d`.

    Superimpose the two diagonals, twist along d keeping the marked
    side fixed, and delete d; the surviving diagonal names the result.
    When a is not inside d's free part the twist leaves it alone and
    the result is a itself.
    """
    if d.n != a.n:
        raise NotSI(f"generators live on different polygons: {d.n} vs {a.n}")
    pair = superimpose(reference_polygon(d.n, (d.diagonal,)),
                       reference_polygon(d.n, (a.diagonal,)))
    if pair is None:
        raise NotSI(f"diagonals {d.diagonal} and {a.diagonal} do not superimpose")
    twisted = marked_twist(pair, d.diagonal)
    rest = set(twisted.diagonals) - {d.diagonal}
    if len(rest) != 1:
        raise InvariantViolation(
            f"twisting {a.diagonal} in {d.diagonal} left {sorted(rest)}")
    return Generator(d.n, rest.pop())


@dataclass(frozen=True)
class Relation:
    """One defining relation; both sides are words of length <= 2."""

    kind: str                    # involution | commuting | conjugation
    left: tuple
    right: tuple


@lru_cache(maxsize=None)
def relations(n):
    """The defining relations as one tuple, made once per n, in a fixed order.

    Involutions come first, then one relation per superimposable pair
    a < b: the conjugation (a, b) = (b', a) when a's twist moves b to
    b', else (b, a) = (a', b) when b's twist moves a to a', else the
    commuting relation (a, b) = (b, a).  The conjugator must contain
    the diagonal it moves.
    """
    gens = generators(n)
    rels = [Relation("involution", (g, g), ()) for g in gens]
    for a, b in combinations(gens, 2):
        try:
            b_in_a = conjugate_in(a, b)
        except NotSI:
            continue
        if b_in_a != b:
            outer, inner, third = a, b, b_in_a
        else:
            a_in_b = conjugate_in(b, a)
            if a_in_b == a:
                rels.append(Relation("commuting", (a, b), (b, a)))
                continue
            outer, inner, third = b, a, a_in_b
        (oi, oj), (ii, ij) = outer.diagonal, inner.diagonal
        if not (oi <= ii and ij <= oj):
            raise InvariantViolation(
                f"noncommuting pair {a.diagonal}/{b.diagonal} is not nested")
        rels.append(Relation("conjugation", (outer, inner), (third, outer)))
    return tuple(rels)


@dataclass
class PhiReport(CheckReport):
    """Outcome of checking phi on every relation plus surjectivity."""

    n: int
    relations_checked: int = 0
    image_order: int = 0
    expected_order: int = 0

    def __str__(self):
        return (f"phi on J_{self.n - 1}: {self.relations_checked} relations, "
                f"image order {self.image_order}/{self.expected_order}: {self.verdict}")


def check_phi(n):
    """Verify every relation under phi and certify that phi is onto S_{n-1}.

    The certificate is that the images contain each adjacent
    transposition (i i+1), 1 <= i <= n-2.  On a pass the image order is
    (n-1)!; on a failure the first missing transposition is named and
    the image order stays 0, since no order was enumerated.
    """
    if not 4 <= n <= 9:
        raise RangeError(f"phi check supports 4 <= n <= 9, got {n}")
    report = PhiReport(n=n, expected_order=factorial(n - 1))
    for rel in relations(n):
        left = phi_word(rel.left, n)
        right = phi_word(rel.right, n)
        report.relations_checked += 1
        if left != right:
            report.failures.append(
                f"{rel.kind} relation {rel.left} = {rel.right} breaks under phi: "
                f"{left.images} vs {right.images}")
    images = {phi(g) for g in generators(n)}
    for i in range(1, n - 1):
        swap = list(range(1, n))
        swap[i - 1], swap[i] = i + 1, i
        if Permutation(tuple(swap)) not in images:
            report.failures.append(
                f"images miss the adjacent transposition ({i} {i + 1}), "
                f"so they are not certified to generate S_{n - 1}")
            return report
    report.image_order = report.expected_order
    return report


# ---------------------------------------------------------------------------
# juxtaposition of two polygons into a larger one


@dataclass
class PantsReport(CheckReport):
    """Outcome of checking one juxtaposition of two generator sets."""

    m: int
    n: int
    target: int
    relations_mapped: int = 0
    cross_pairs: int = 0

    def __str__(self):
        return (f"juxtaposition J_{self.m} x J_{self.n} -> J_{self.target - 1}: "
                f"{self.relations_mapped} relations carried, "
                f"{self.cross_pairs} cross pairs commute: {self.verdict}")


def pair_of_pants(m, n):
    """Embed the generator sets of J_m and J_n side by side in J_{m+n}.

    The first factor keeps labels 1..m, the second shifts by m; both
    maps keep generator order.  Every relation of a factor, carried
    through its map, must be a member of the target's relations, and
    every cross pair must commute there and under phi (their free parts
    are disjoint by construction).  Returns the two generator maps and
    the verification report.
    """
    if m < 3 or n < 3:
        raise RangeError(f"need m, n >= 3, got {m}, {n}")
    target = m + n + 1
    map_1 = {g: Generator(target, g.diagonal) for g in generators(m + 1)}
    map_2 = {g: Generator(target, (g.diagonal[0] + m, g.diagonal[1] + m))
             for g in generators(n + 1)}
    report = PantsReport(m=m, n=n, target=target)
    table = set(relations(target))
    for source, mapping in ((m + 1, map_1), (n + 1, map_2)):
        for rel in relations(source):
            report.relations_mapped += 1
            carried = Relation(rel.kind, tuple(mapping[g] for g in rel.left),
                               tuple(mapping[g] for g in rel.right))
            if carried not in table:
                report.failures.append(f"{rel.kind} relation {carried.left} = "
                                       f"{carried.right} lost in J_{target - 1}")
    for g1 in map_1.values():
        for g2 in map_2.values():
            report.cross_pairs += 1
            pair = (g1.diagonal, g2.diagonal)
            if Relation("commuting", (g1, g2), (g2, g1)) not in table:
                report.failures.append(f"cross pair {pair} has no commuting relation")
            p, q = phi(g1), phi(g2)
            if p * q != q * p:
                report.failures.append(f"cross pair {pair} fails to commute under phi")
    return map_1, map_2, report


def export_presentation(n):
    """Plain-text presentation, byte-stable for fixed n.

    Line 1 names the generators g1..gK in diagonal order; each further
    line is one relation `rel: <word> = <word>` with space-separated
    names and the empty word rendered as nothing.
    """
    gens = generators(n)
    names = {g: f"g{t + 1}" for t, g in enumerate(gens)}
    lines = ["generators: " + " ".join(names[g] for g in gens)]
    for rel in relations(n):
        left = " ".join(names[g] for g in rel.left)
        right = " ".join(names[g] for g in rel.right)
        lines.append(f"rel: {left} = {right}".rstrip())
    return "\n".join(lines) + "\n"
