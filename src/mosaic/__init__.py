"""Tessellations of labeled-polygon moduli by associahedra.

The package enumerates dissections of labeled polygons, glues them
operadically, classifies them into twist cells, builds the resulting
graded complexes with full incidence data, and exposes the surrounding
structures: the associahedron face lattice, the coordinate-equality
arrangement, and the quasibraid presentation with its symmetric-group
homomorphism.
"""

from types import ModuleType as _ModuleType

from .errors import MosaicError
from .polygon import (
    Dissection,
    cayley_count,
    dihedral_canonical,
    dual_tree,
    enumerate_diagonal_sets,
    marked_twist,
    polygon_diagonals,
    si_condition,
    superimpose,
    twist,
)
from .operad import (
    CompositionPlan,
    check_operad_axioms,
    compose_full,
    compose_single,
    relabel,
)
from .moduli import (
    DOUBLE_COVER,
    PROJECTIVE,
    Cell,
    ModuliComplex,
    build_complex,
    cell_class,
    classify_surface,
    covering_map,
    divisor_subcomplex,
    euler_closed_form,
    euler_proof_sum,
    verify_divisor_factorization,
)
from .associahedron import (
    Face,
    FaceLattice,
    face_factorization,
    face_lattice,
    facet_si_graph,
    g_hat_strata,
    reference_polygon,
)
from .quasibraid import (
    Generator,
    Permutation,
    Relation,
    check_phi,
    conjugate_in,
    export_presentation,
    generators,
    pair_of_pants,
    phi,
    phi_word,
    relations,
)
from .arrangement import (
    Flat,
    chamber_counts,
    divisor_correspondence,
    flats,
    hyperplanes,
    irreducible_cells,
)

# the names imported above; the submodules they come from are not exports
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
__version__ = "0.1.0"
