"""Symbolic verification of affine Hecke algebra identities.

An exact engine for the affine Hecke algebra in Bernstein normal form, its
graded version over truncated power series, the Lusztig morphisms between
them, and the involution pipelines whose agreement is the point of the
package.  All arithmetic is exact (integers, rationals); completed-algebra
identities are checked modulo a chosen truncation degree.
"""

from .root_datum import (
    InvalidCartan,
    RootDatum,
    WeylElement,
    WeylTooLarge,
    apply,
    build_root_datum,
    cartan_matrix,
)
from .lattice_algebra import (
    GroupAlgebraElement,
    LaurentScalar,
    demazure_quotient,
    ga_mul,
    ga_substitute,
    mul_by_scriptG,
)
from .affine_hecke import (
    AsphElement,
    HeckeElement,
    asph_act_left,
    duality_map,
    h_mul,
    koszul_map,
    parity_map,
    ts_inverse,
)
from .formal_series import (
    FormalSeries,
    InsufficientPrecision,
    LinearForm,
    NonUnit,
    NonzeroConstantTerm,
    NotDivisible,
    diff,
    fs_div_linear,
    fs_exp,
    fs_inv,
    fs_negate_r,
    fs_weyl,
)
from .graded_hecke import (
    GradedAsphElement,
    GradedElement,
    conj_eB,
    fourier_map,
    g_asph_act,
    gh_mul,
    todd_eB,
)
from .lusztig import (
    lusztig_l,
    lusztig_r,
    pipeline_H,
    pipeline_K,
    transport,
    unit_factor,
)
from .verify import CheckReport, run_suites

__version__ = "0.1.0"
