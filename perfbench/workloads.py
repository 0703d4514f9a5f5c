"""The benchmark's workloads: seeded inputs, the timed call, the checks.

Each workload has three parts.  `setup` turns the seed into plain
inputs (tuples of ints) and builds any fixtures; `timed` is the section
whose wall time is reported and calls only the program; `check`
compares every output with an independent route (closed forms, a
brute-force oracle or a property written here) and records each
comparison as one checked operation.  An operation that raised counts as failed.

SCALES holds the sizes: "full" is what the benchmark measures, "tiny"
is for the harness self-tests.
"""

import contextlib
import io
import random
from collections import Counter
from math import comb

from mosaic import cli, moduli, polygon

SCALES = {
    "full": {"build_n": 8, "lookup_n": 7, "queries_per_codim": 400,
             "cells_per_regime": 400, "subsets_per_size": 3, "verify_n": 7},
    "tiny": {"build_n": 5, "lookup_n": 5, "queries_per_codim": 2,
             "cells_per_regime": 3, "subsets_per_size": 1, "verify_n": 5},
}

# Frozen cell and distinct incidence-pair counts of the projective
# complex, from enumeration at the seed commit.
BUILD_SIZES = {5: (57, 120), 8: (260190, 1439550)}

CRITERIA = 11


class Checks:
    """Counts checked operations and keeps each failure by name."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []

    def expect(self, operation, given, got, want):
        self.attempted += 1
        if isinstance(got, Exception) or got != want:
            self.failures.append({"workload": self.workload, "operation": operation,
                                  "input": repr(given), "got": repr(got),
                                  "want": repr(want)})


def _attempt(func, *args):
    try:
        return func(*args)
    except Exception as err:  # a raising operation is a failed operation
        return err


# ---------------------------------------------------------------------------
# build-n8


def build_setup(seed, scale, max_codim=None):
    # the input is fixed, so the seed is unused
    return {"n": SCALES[scale]["build_n"], "max_codim": max_codim}


def build_timed(state):
    return _attempt(moduli.build_complex, state["n"], "projective", state["max_codim"])


def build_check(state, complex_, checks):
    n, max_codim = state["n"], state["max_codim"]
    given = (n, "projective", max_codim)
    if isinstance(complex_, Exception):
        checks.expect("build_complex", given, complex_, "a complex")
        return
    depth = n - 3 if max_codim is None else max_codim
    checks.expect("f_vector", given, complex_.f_vector(),
                  moduli.closed_form_f_vector(n, "projective")[:depth + 1])
    if max_codim is not None:
        return
    cells, incidences = BUILD_SIZES[n]
    checks.expect("euler_characteristic", given, complex_.euler_characteristic(),
                  moduli.euler_closed_form(n))
    checks.expect("cells", given, len(complex_.cells), cells)
    checks.expect("incidences", given,
                  sum(len(level.pc_codes) for level in complex_.levels.values()), incidences)


# ---------------------------------------------------------------------------
# lookup-n7: plain-value inputs, brute-force oracles and properties


def random_dissection(rng, n, k):
    """Labels 1..n in random order and k diagonals of a random triangulation."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    triangulation = []
    stack = [list(range(n))]
    while stack:
        vs = stack.pop()
        if len(vs) < 4:
            continue
        apex = rng.randrange(1, len(vs) - 1)
        if apex > 1:
            triangulation.append((vs[0], vs[apex]))
        if apex < len(vs) - 2:
            triangulation.append((vs[apex], vs[-1]))
        stack.append(vs[:apex + 1])
        stack.append(vs[apex:])
    return tuple(labels), tuple(sorted(rng.sample(triangulation, k)))


def reversed_arc(labels, first, stop):
    """`labels` with the sides first..stop-1 (upward mod n) in reverse order."""
    n = len(labels)
    positions = [(first + s) % n for s in range((stop - first) % n)]
    out = list(labels)
    for p, q in zip(positions, reversed(positions)):
        out[p] = labels[q]
    return tuple(out)


def splits(labels, diags):
    """The labels each diagonal cuts off, as its side without the label n.

    A twist moves pieces of the polygon but never changes which labels a
    diagonal separates, and with the side labels these sets fix the
    diagonals."""
    n, everything = len(labels), frozenset(labels)
    out = set()
    for i, j in diags:
        side = frozenset(labels[i:j])
        out.add(everything - side if n in side else side)
    return out


def dihedral_image(labels, diags, rotation, reflect):
    """Move every position back by `rotation`, after an optional reflection."""
    n = len(labels)
    if reflect:
        labels = labels[::-1]
        diags = [(n - u, n - v) for u, v in diags]
    moved = [((u - rotation) % n, (v - rotation) % n) for u, v in diags]
    return (labels[rotation:] + labels[:rotation],
            tuple(sorted((min(u, v), max(u, v)) for u, v in moved)))


def dihedral_least(labels, diags):
    """Brute force: the least of all 2n dihedral images."""
    return min(dihedral_image(labels, diags, r, f)
               for r in range(len(labels)) for f in (False, True))


def lookup_setup(seed, scale):
    size = SCALES[scale]
    n = size["lookup_n"]
    rng = random.Random(seed)
    queries = []
    for k in range(n - 2):
        for _ in range(size["queries_per_codim"]):
            labels, diags = random_dissection(rng, n, k)
            queries.append({
                "labels": labels, "diags": diags,
                "twist": rng.choice(diags) if diags else None,
                "image": dihedral_image(labels, diags, rng.randrange(n), rng.random() < 0.5),
                "rotated": dihedral_image(labels, diags, rng.randrange(n), False),
            })
    projective = moduli.build_complex(n, "projective")
    cover = moduli.build_complex(n, "double-cover")
    cells = [(regime, rng.randrange(len(complex_.cells)))
             for regime, complex_ in (("projective", projective), ("double-cover", cover))
             for _ in range(size["cells_per_regime"])]
    # a divisor set S omits n, so S is a subset of 1..n-1 with
    # 2 <= |S| <= n-2; the same count at every size keeps the work per
    # seed level
    subsets = [tuple(sorted(rng.sample(range(1, n), s)))
               for s in range(2, n - 1) for _ in range(size["subsets_per_size"])]
    factors = {m: moduli.build_complex(m, "projective") for m in range(3, n)}
    return {"n": n, "queries": queries, "cells": cells, "subsets": subsets,
            "projective": projective, "double-cover": cover, "factors": factors}


def _query(q, projective, cover):
    Dissection = polygon.Dissection
    d = Dissection(q["labels"], frozenset(q["diags"]))
    out = {
        "projective": projective.cell_for(d),
        "double-cover": cover.cell_for(d),
        "projective image": projective.cell_for(
            Dissection(q["image"][0], frozenset(q["image"][1]))),
        "double-cover rotated": cover.cell_for(
            Dissection(q["rotated"][0], frozenset(q["rotated"][1]))),
        "dihedral_canonical": polygon.dihedral_canonical(d),
        "dual_tree": polygon.dual_tree(d).leaf_cycle(),
    }
    if q["twist"] is not None:
        out["twist"] = moduli.twist(d, q["twist"])
        out["projective twisted"] = projective.cell_for(out["twist"])
        out["marked_twist"] = moduli.marked_twist(d, q["twist"])
        out["double-cover marked"] = cover.cell_for(out["marked_twist"])
    return out


def lookup_timed(state):
    projective, cover = state["projective"], state["double-cover"]
    answers = [_attempt(_query, q, projective, cover) for q in state["queries"]]
    coboundaries = []
    for regime, index in state["cells"]:
        complex_ = state[regime]
        coboundaries.append(_attempt(complex_.coboundary_counts, complex_.cells[index]))
    factors = state["factors"]
    divisors = []
    for subset in state["subsets"]:
        pair = (factors[len(subset) + 1], factors[state["n"] - len(subset) + 1])
        divisors.append(_attempt(moduli.verify_divisor_factorization,
                                 projective, frozenset(subset), pair))
    covering = _attempt(moduli.covering_map, cover, projective)
    return answers, coboundaries, divisors, covering


def _encoding(diss):
    return diss.labels, tuple(sorted(diss.diagonals))


def _query_checks(q, out):
    """(operation, got, want) triples; `want` never comes from the program."""
    labels, diags = q["labels"], q["diags"]
    yield "cell_for projective codim", out["projective"].codim, len(diags)
    yield "cell_for double-cover codim", out["double-cover"].codim, len(diags)
    yield "cell_for projective dihedral invariance", out["projective image"], out["projective"]
    yield "cell_for double-cover rotation invariance", out["double-cover rotated"], \
        out["double-cover"]
    yield "dihedral_canonical", _encoding(out["dihedral_canonical"]), dihedral_least(labels, diags)
    yield "dual_tree leaf_cycle", out["dual_tree"], labels
    if q["twist"] is not None:
        # a twist reverses the sides of one piece and keeps every split;
        # the marked twist reverses the piece that avoids the side n
        i, j = q["twist"]
        arc = (j, i) if labels.index(len(labels)) in range(i, j) else (i, j)
        for name, arc in (("twist", (i, j)), ("marked_twist", arc)):
            got = out[name]
            yield f"{name} labels", got.labels, reversed_arc(labels, *arc)
            yield f"{name} splits", splits(got.labels, got.diagonals), splits(labels, diags)
        yield "cell_for projective twist invariance", out["projective twisted"], out["projective"]
        yield ("cell_for double-cover marked twist invariance", out["double-cover marked"],
               out["double-cover"])


def lookup_check(state, outputs, checks):
    answers, coboundaries, divisors, covering = outputs
    for q, out in zip(state["queries"], answers):
        given = (q["labels"], q["diags"])
        if isinstance(out, Exception):
            checks.expect("lookup query", given, out, "no exception")
            continue
        for operation, got, want in _query_checks(q, out):
            checks.expect(operation, given, got, want)

    for (regime, index), counts in zip(state["cells"], coboundaries):
        k = state[regime].cells[index].codim
        checks.expect(f"coboundary_counts {regime}", (regime, index), counts,
                      {t: (1 << t) * comb(k, t) for t in range(k + 1)})

    n = state["n"]
    for subset, report in zip(state["subsets"], divisors):
        m1, m2 = len(subset) + 1, n - len(subset) + 1
        product = sum(moduli.closed_form_f_vector(m1)) * sum(moduli.closed_form_f_vector(m2))
        got = report if isinstance(report, Exception) else (report.passed, report.cells_checked)
        checks.expect("verify_divisor_factorization", subset, got, (True, product))

    given = (n, "double-cover onto projective")
    got = covering
    if not isinstance(covering, Exception):
        fibers = Counter(covering.mapping)
        got = (covering.passed, len(covering.mapping), len(fibers), set(fibers.values()))
    checks.expect("covering_map", given, got,
                  (True, sum(moduli.closed_form_f_vector(n, "double-cover")),
                   sum(moduli.closed_form_f_vector(n, "projective")), {2}))


# ---------------------------------------------------------------------------
# verify-n7


def verify_setup(seed, scale):
    # the input is fixed, so the seed is unused
    return {"argv": ["verify", "--n-max", str(SCALES[scale]["verify_n"])]}


def verify_timed(state):
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = _attempt(cli.main, state["argv"])
    return code, printed.getvalue().splitlines()


def verify_check(state, outputs, checks):
    code, lines = outputs
    given = " ".join(state["argv"])
    checks.expect("exit code", given, code, 0)
    for number in range(1, CRITERIA + 1):
        line = next((line for line in lines if f"criterion {number:2d} " in line), None)
        passed = line is not None and line.startswith("[PASS]")
        checks.expect(f"criterion {number}", given, True if passed else line, True)
    checks.expect("[PASS] lines", given, sum(line.startswith("[PASS]") for line in lines),
                  CRITERIA)


WORKLOADS = {
    "build-n8": (build_setup, build_timed, build_check),
    "lookup-n7": (lookup_setup, lookup_timed, lookup_check),
    "verify-n7": (verify_setup, verify_timed, verify_check),
}
