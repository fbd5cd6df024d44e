"""harmonica: exact invariant exterior calculus on almost Hermitian Lie groups.

Computes Bott-Chern, Aeppli, Dolbeault, del- and Hodge-harmonic spaces of
invariant forms over Q(i), their primitive (Lefschetz) decompositions, and
verifies the associated decomposition and inclusion statements on built-in
and user-supplied structure equations.
"""

from .errors import (
    BidegreeOutOfRange,
    CrossCheckFailed,
    DegreeTooHigh,
    DepthExceeded,
    DimensionMismatch,
    ExponentTooLarge,
    HarmonicaError,
    NotAlmostKahler,
    NotHomogeneous,
    NotPrimitive,
    ParseError,
    SchemaError,
    SymbolicCoefficients,
    UndeclaredConjugate,
    UnknownSpec,
    ValidationError,
)
from .scalars import Coefficient, DerivationTable, Direction, GaussianRational
from .forms import Form, MultiIndex, basis_multiindices, format_form, parse_form
from .structure import (
    ManifoldSpec,
    OperatorKind,
    check_almost_kahler,
    check_integrability_relations,
    differential_component,
    exterior_d,
)
from .hermitian import (
    PrimitiveComponents,
    fundamental_form,
    hodge_star,
    is_primitive,
    j_on_forms,
    lefschetz_L,
    lefschetz_lambda,
    primitive_basis,
    primitive_decompose,
    volume_form,
    weil_star_primitive,
)
from .harmonic import (
    HarmonicKind,
    MembershipCertificate,
    SubspaceBasis,
    adjoint,
    harmonic_space,
    is_harmonic,
    laplacian_apply,
)
from .report import CheckItem, VerificationReport
from .theorems import (
    all_statements,
    check_aeppli_L_noninclusion,
    check_counterexamples_torus,
    verify_bc21_gap,
    verify_decomp_11,
    verify_decomp_n1n1,
    verify_edge_decomps,
    verify_lefschetz_d,
    verify_relations,
)
from .library import catalog, load_spec, load_spec_path, serialize_spec

__version__ = "0.1.0"
