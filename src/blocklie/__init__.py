"""Exact-arithmetic toolkit for Block type graded Lie algebras.

Modules:
    scalars        exact rationals and sparse multivariate polynomials
    engine         elements, bracket rules, grid identity tests, closures
    novikov        Witt-type Novikov products and their affinization
    block          the centrally extended two-parameter Block algebra
    hweight        quasifinite highest-weight classification
    intermediate   the three intermediate-series module families
    cli            batch job runner with deterministic reports
"""

from .block import (
    BlockParams,
    basis_bracket,
    block_bracket,
    block_bracket_rule,
    cocycle_jacobi_check,
    cocycle_value,
    delta_free_rule,
    laurent_realization_check,
    parabolic_degree_zero,
    triangular_part,
    virasoro_embedding_check,
)
from .engine import (
    CENTRAL,
    BracketRule,
    Closure,
    ClosureError,
    Element,
    Graded,
    InsufficientGridError,
    Verdict,
    Window,
    adjoint_chain,
    bracket_apply,
    grid_identity_check,
    membership,
    subalgebra_closure,
)
from .hweight import (
    ClassificationReport,
    CrossCheckReport,
    DeltaSeries,
    HorizonError,
    QuasiPolynomial,
    RecurrenceCertificate,
    SingularCandidate,
    UnrealizableError,
    Weight,
    classify_quasifinite,
    criteria_cross_check,
    delta_from_labels,
    detect_linear_recurrence,
    labels_from_quasipolynomial,
    qp_annihilator,
    singular_vector_solve,
)
from .intermediate import (
    IntermediateKind,
    ModuleVector,
    act,
    module_axiom_check,
)
from .novikov import (
    AffinizationParams,
    WittNovikovParams,
    affinize,
    block_sZ_reindex_check,
    novikov_axiom_check,
    perturbed_witt_rule,
    table_product_rule,
    theorem22_probe,
    witt_novikov_product,
    witt_product_rule,
)
from .scalars import Poly, PolyRing, SymbolTableError, format_rational, parse_rational

__version__ = "0.1.0"
