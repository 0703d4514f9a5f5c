"""The package's entry points (`python -m mosaic`, `__all__`) and its
library-wide rules."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mosaic
from mosaic import arrangement, associahedron, moduli, polygon
from mosaic.errors import MosaicError, RangeError
from test_cli import run_cli


SRC = Path(mosaic.__file__).resolve().parent


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = str(SRC.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    for module in ("mosaic", "mosaic.cli"):
        done = subprocess.run([sys.executable, "-m", module, "counts", "--n", "5"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == run_cli("counts", "--n", "5")
        assert done.returncode == 0


# guards against out-of-range input: the function, its arguments, and the
# exception type and message it raises
GUARDS = [
    (polygon.polygon_diagonals, (2,), RangeError, "need n >= 3, got 2"),
    (polygon.enumerate_diagonal_sets, (2, 0), RangeError, "need n >= 3, got 2"),
    (polygon.enumerate_diagonal_sets, (5, 3), RangeError,
     "need 0 <= k <= 2 for a 5-gon, got k=3"),
    (polygon.cayley_count, (2, 0), RangeError, "need n >= 3, got 2"),
    (polygon.cayley_count, (5, -1), RangeError, "need 0 <= k <= 2 for a 5-gon, got k=-1"),
    (moduli.build_complex, (5, moduli.PROJECTIVE, -1), RangeError,
     "max_codim must be >= 0, got -1"),
    (moduli.tile_count, (2,), RangeError, "need n >= 3, got 2"),
    (moduli.closed_form_f_vector, (2,), RangeError, "need n >= 3, got 2"),
    (moduli.euler_closed_form, (3,), RangeError, "need n >= 4, got 3"),
    (moduli.euler_proof_sum, (3,), RangeError, "need n >= 4, got 3"),
    (associahedron.face_lattice(5).faces_at, (3,), RangeError,
     "no faces of codim 3 in K for n=5"),
    (associahedron.facet_si_graph, (11,), RangeError,
     "facet graph supports 4 <= n <= 10, got 11"),
    (associahedron.g_hat_strata, (3,), RangeError, "need n >= 4, got 3"),
    (arrangement.Flat, (((1,), ()),), MosaicError, "empty block in flat"),
    (arrangement.flats, (10,), RangeError, "flat enumeration supports 4 <= n <= 9, got 10"),
    (arrangement.irreducible_cells, (3, 1), RangeError, "need n >= 4, got 3"),
    (arrangement.divisor_correspondence, (3,), RangeError, "need n >= 4, got 3"),
]


@pytest.mark.parametrize("func,args,error,message", [
    pytest.param(*guard, id=f"{guard[0].__qualname__}{guard[1]}") for guard in GUARDS])
def test_out_of_range_input_raises_a_named_error(func, args, error, message):
    with pytest.raises(error) as raised:
        func(*args)
    assert type(raised.value) is error and str(raised.value) == message


def test_library_raises_instead_of_asserting():
    # `python -O` strips assert statements, so invariant checks raise
    # InvariantViolation instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _imported(path):
    # the dotted parts of every module an import statement names
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.module or "").split(".") + [alias.name] for alias in node.names)


def test_the_modules_moduli_builds_on_import_nothing_from_it():
    # every move of a dissection lives in polygon, so only the front ends
    # (acceptance, cli, __init__) import moduli, which keeps the twists'
    # names for its callers
    for name in ("polygon", "operad", "associahedron", "quasibraid", "arrangement", "errors"):
        assert not [parts for parts in _imported(SRC / f"{name}.py") if "moduli" in parts], name
    assert moduli.twist is polygon.twist and moduli.marked_twist is polygon.marked_twist


PUBLIC = (
    "Cell CompositionPlan DOUBLE_COVER Dissection Face FaceLattice Flat Generator "
    "ModuliComplex MosaicError PROJECTIVE Permutation Relation build_complex "
    "cayley_count cell_class chamber_counts check_operad_axioms check_phi "
    "classify_surface compose_full compose_single conjugate_in covering_map "
    "dihedral_canonical divisor_correspondence divisor_subcomplex dual_tree "
    "enumerate_diagonal_sets euler_closed_form euler_proof_sum export_presentation "
    "face_factorization face_lattice facet_si_graph flats g_hat_strata generators "
    "hyperplanes irreducible_cells marked_twist pair_of_pants phi phi_word "
    "polygon_diagonals reference_polygon relabel relations si_condition superimpose "
    "twist verify_divisor_factorization").split()


def test_all_exports_the_public_names_and_no_submodules():
    assert mosaic.__all__ == sorted(PUBLIC)
    assert not [name for name in mosaic.__all__
                if isinstance(getattr(mosaic, name), types.ModuleType)]
