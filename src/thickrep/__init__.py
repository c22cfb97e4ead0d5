"""Exact-arithmetic deciders for thickness and denseness of
finite-dimensional representations, with realizable-subspace certificates.
"""

from .fields import GF, QQ, Poly, Scalar, nth_roots, poly_factor_fp, scalar, scalar_arith
from .linalg import Matrix, Subspace, charpoly, det, kernel, rref, subspace_algebra
from .exterior import (
    WedgeVector,
    compound,
    derivation,
    is_decomposable,
    perp,
    realizable_search,
    wedge_of_vectors,
    wedge_product,
)
from .repcore import (
    Caps,
    GROUP,
    LIE,
    Decision,
    Representation,
    absolute_irreducibility,
    all_submodules,
    burnside_dim,
    commutant,
    decide_m_dense,
    exterior_rep,
    is_invariant,
    is_m_dense,
    is_m_thick_criterion,
    is_m_thick_definition,
    isotypic_decomposition,
    r_number_bounds,
    spin,
    verify_not_thick_certificate,
)
from .constructions import (
    BlockRepSpec,
    block_eigenvectors,
    block_rep,
    build_block_rep,
    companion_pair,
    e1_wedge_subspace,
    generic_diagonalizable,
    lie_generators,
)
from .symplectic import (
    SymplecticSpace,
    contraction_matrix,
    isotropic_transversal,
    ker_fm,
    ker_perp_realizability_check,
    lagrangian_complement,
    symplectic_normal_basis,
)
from .characters import (
    ClassFunction,
    decompose,
    distinct_parts_coeffs,
    exterior_square_char,
    gl2_wedge_identity,
    plethysm_component_count,
    sym_char,
)

__version__ = "0.1.0"
