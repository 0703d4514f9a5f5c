"""Command-line front end.

Exit codes: 0 on success, 2 when a displayed cross-check disagrees, a
verification fails or a structural invariant breaks (InvariantViolation),
64 for usage errors (bad flags, out-of-range arguments).  All output is
deterministic for fixed flags.
"""

import argparse
import json
import sys

import numpy as np

from . import acceptance, moduli, quasibraid
from .errors import InvariantViolation, MosaicError, RangeError
from .moduli import DOUBLE_COVER, PROJECTIVE
from .polygon import cayley_count, enumerate_diagonal_sets

USAGE = 64
MISMATCH = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE, f"{self.prog}: error: {message}\n")


def _label_set(text):
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated label list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty label set")
    repeated = next((x for i, x in enumerate(values) if x in values[:i]), None)
    if repeated is not None:
        raise argparse.ArgumentTypeError(f"label {repeated} is repeated in {text!r}")
    return frozenset(values)


def build_parser():
    parser = _Parser(prog="mosaic",
                     description="tessellations of labeled-polygon moduli")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("counts", help="cell counts and Euler characteristics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    _format_flags(p, ("table", "json"))
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("complex", help="emit one cell complex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=(PROJECTIVE, DOUBLE_COVER), default=PROJECTIVE)
    _format_flags(p, ("table", "json", "dot"))
    p.set_defaults(func=cmd_complex)

    p = sub.add_parser("divisor", help="check a divisor against its product model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", type=_label_set, required=True, dest="subset")
    p.set_defaults(func=cmd_divisor)

    p = sub.add_parser("quasibraid", help="generators, relations, phi, export")
    p.add_argument("action", choices=("gens", "relations", "phi", "export"))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_quasibraid)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--n-max", type=int, default=6, dest="n_max")
    p.set_defaults(func=cmd_verify)
    return parser


def _format_flags(p, choices):
    p.add_argument("--format", choices=choices, default="table")
    for name in choices:
        p.add_argument(f"--{name}", action="store_const", const=name,
                       dest="format", help=f"shorthand for --format {name}")


# ---------------------------------------------------------------------------
# counts


# the columns of counts, each (JSON key, table header, width); the built
# ones come last, only where the complexes are built
_COLUMNS = (("k", "k", 2), ("diagonal_sets", "sets", 8),
            ("diagonal_sets_counted", "counted", 8),
            ("projective_cells", "proj", 10), ("double_cover_cells", "double", 10))
_BUILT_COLUMNS = (("projective_cells_built", "proj built", 10),
                  ("double_cover_cells_built", "dbl built", 10))


def _built_counts(n, mode):
    # the f-vector and Euler characteristic; the complex is dropped on return
    complex_ = moduli.build_complex(n, mode)
    return complex_.f_vector(), complex_.euler_characteristic()


def cmd_counts(args):
    n = args.n
    if not 3 <= n <= 10:
        raise RangeError(f"counts supports 3 <= n <= 10, got {n}")
    if args.k is not None and not 0 <= args.k <= n - 3:
        raise RangeError(f"need 0 <= k <= {n - 3}, got {args.k}")
    ks = range(n - 2) if args.k is None else (args.k,)
    columns, built = _COLUMNS, []
    if n <= moduli._BUILD_LIMIT:
        columns += _BUILT_COLUMNS
        built = [_built_counts(n, mode) for mode in (PROJECTIVE, DOUBLE_COVER)]
    proj_formula = moduli.closed_form_f_vector(n, PROJECTIVE)
    cover_formula = moduli.closed_form_f_vector(n, DOUBLE_COVER)
    mismatches, rows = [], []
    for k in ks:
        counted = len(enumerate_diagonal_sets(n, k))
        if counted != cayley_count(n, k):
            mismatches.append(f"diagonal sets at k={k}")
        values = (k, cayley_count(n, k), counted, proj_formula[k], cover_formula[k],
                  *(f_vector[k] for f_vector, _ in built))
        rows.append(dict(zip((key for key, _, _ in columns), values, strict=True)))

    euler = {"proof_sum": moduli.euler_proof_sum(n),
             "closed_form": moduli.euler_closed_form(n)} if n >= 4 else {}
    if built and n >= 4:
        euler["enumerated"] = built[0][1]        # the projective complex's
    if euler and len(set(euler.values())) != 1:
        mismatches.append("Euler characteristic")

    if args.format == "json":
        payload = {"n": n, "rows": rows, "euler": euler,
                   "tiles": {"projective": proj_formula[0], "double-cover": cover_formula[0]},
                   "agree": not mismatches}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"n = {n}")
        for row in ({key: header for key, header, _ in columns}, *rows):
            print(" ".join(f"{row[key]:>{width}}" for key, _, width in columns))
        for name, value in euler.items():
            print(f"euler {name}: {value}")
    if mismatches:
        print("MISMATCH: " + "; ".join(mismatches), file=sys.stderr)
        return MISMATCH
    return 0


# ---------------------------------------------------------------------------
# complex


_CHUNK = 1 << 12        # list items turned into text at a time


def _pair_texts(complex_):
    # the incidence pairs' text, _CHUNK pairs at a time: grades are
    # contiguous in index order, so the levels' sorted codes (parent<<32 |
    # child), level after level, are in order
    for k in sorted(complex_.levels):
        codes = complex_.levels[k].pc_codes
        for lo in range(0, len(codes), _CHUNK):
            pairs = np.stack(np.divmod(codes[lo:lo + _CHUNK], 1 << 32), axis=1)
            yield ", ".join(["[%d, %d]"] * len(pairs)) % tuple(pairs.ravel().tolist())


def _cell_texts(complex_):
    # the cells' text, _CHUNK cells at a time, each filled into one format
    # from its index, its diagonal set's text (made once a grade) and labels
    labels = ", ".join(["%d"] * complex_.n)
    for k, first, rows, at, sets in complex_.decode(range(len(complex_.cells))):
        cell = (f'{{"codim": {k}, "id": %d, "representative": {{"diagonals": %s, '
                f'"labels": [{labels}]}}}}')
        texts = np.array([str(list(map(list, ds))) for ds in sets], dtype=object)[at, None]
        ids = np.arange(first, first + len(rows))[:, None]
        for lo in range(0, len(rows), _CHUNK):
            table = np.hstack([t[lo:lo + _CHUNK] for t in (ids, texts, rows)], dtype=object)
            yield ", ".join([cell] * len(table)) % tuple(table.ravel().tolist())


def write_json(complex_):
    """Print the complex's incidence pairs, cells, mode, n and tiles as JSON.

    The text is json.dumps with sort_keys of one dict holding them all and a
    newline, written _CHUNK list items at a time: no dict, nor Cell, is made,
    as the cells come from the label rows of ModuliComplex.decode.
    """
    write = sys.stdout.write
    for head, texts in (('{"boundary": [', _pair_texts(complex_)),
                        ('], "cells": [', _cell_texts(complex_))):
        write(head)
        for i, text in enumerate(texts):
            write(", " + text if i else text)
    tiles = ", ".join(map(str, range(*complex_.grade_range[complex_.codim_offset])))
    write(f'], "mode": {json.dumps(complex_.mode)}, "n": {complex_.n}, "tiles": [{tiles}]}}\n')


def render_dot(complex_):
    """The tile graph: one node per tile, one edge per facet, between its two tiles."""
    name = f"tiles_n{complex_.n}_{complex_.mode.replace('-', '_')}"
    lines = [f"graph {name} {{"]
    tiles = range(*complex_.grade_range[complex_.codim_offset])
    for _, first, labels, _, _ in complex_.decode(tiles):
        lines += [f'  t{i} [label="{" ".join(map(str, row))}"];'
                  for i, row in enumerate(labels.tolist(), first)]
    facets = complex_.levels.get(complex_.codim_offset + 1)     # none at n = 3
    if facets is not None:
        lines += [f"  t{u} -- t{v};  // facet {facet}"
                  for facet, (u, v) in enumerate(facets.parents.tolist(), facets.start)]
    return "\n".join(lines + ["}"])


def cmd_complex(args):
    complex_ = moduli.build_complex(args.n, args.mode)
    if args.format == "json":
        write_json(complex_)
    elif args.format == "dot":
        print(render_dot(complex_))
    else:
        f = complex_.f_vector()
        print(f"n = {complex_.n}, mode = {complex_.mode}")
        print(f"cells by codim: {f} (total {sum(f)})")
        print(f"tiles: {len(complex_.tiles())}")
        if complex_.n >= 4:
            print(f"euler: {complex_.euler_characteristic()}")
    return 0


# ---------------------------------------------------------------------------
# divisor


def cmd_divisor(args):
    if not 4 <= args.n <= moduli._BUILD_LIMIT:
        raise RangeError(f"divisor supports 4 <= n <= {moduli._BUILD_LIMIT}, got {args.n}")
    subset = moduli.normalize_divisor_subset(args.n, args.subset)
    complex_ = moduli.build_complex(args.n, PROJECTIVE)
    report = moduli.verify_divisor_factorization(complex_, subset)
    m1, m2 = report.factor_sizes
    print(f"divisor {sorted(report.subset)} of the {report.n}-gon complex")
    print(f"factors: {m1}-gon x {m2}-gon")
    print(f"cells by codim: {report.sub_f_vector} ({report.sub_f_vector[0]} top cells)")
    print(f"cells checked: {report.cells_checked}, "
          f"incidences checked: {report.incidences_checked}")
    if report.passed:
        print("PASS: subcomplex is isomorphic to the product")
        return 0
    for failure in report.failures:
        print(f"FAIL: {failure}")
    return MISMATCH


# ---------------------------------------------------------------------------
# quasibraid


def cmd_quasibraid(args):
    n = args.n
    if not 4 <= n <= 9:
        raise RangeError(f"quasibraid commands support 4 <= n <= 9, got {n}")
    if args.action == "gens":
        for t, g in enumerate(quasibraid.generators(n)):
            free = " ".join(str(x) for x in g.free_part)
            print(f"g{t + 1}: diagonal {g.diagonal} free part ({free})")
        return 0
    if args.action == "relations":
        gens = quasibraid.generators(n)
        names = {g: f"g{t + 1}" for t, g in enumerate(gens)}
        for rel in quasibraid.relations(n):
            left = " ".join(names[g] for g in rel.left)
            right = " ".join(names[g] for g in rel.right) or "1"
            print(f"{rel.kind}: {left} = {right}")
        return 0
    if args.action == "phi":
        report = quasibraid.check_phi(n)
        print(report)
        for failure in report.failures:
            print(f"FAIL: {failure}")
        return 0 if report.passed else MISMATCH
    sys.stdout.write(quasibraid.export_presentation(n))
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args):
    if args.n_max < 3:
        raise RangeError(f"verify supports --n-max >= 3, got {args.n_max}")
    if args.n_max > acceptance.N_MAX:
        raise RangeError(f"verify supports --n-max <= {acceptance.N_MAX}, got {args.n_max}")
    results = acceptance.run_all(args.n_max, emit=print)
    return 0 if all(r.passed for r in results) else MISMATCH


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MosaicError as err:
        print(f"error: {err}", file=sys.stderr)
        return MISMATCH if isinstance(err, InvariantViolation) else USAGE


if __name__ == "__main__":
    sys.exit(main())
