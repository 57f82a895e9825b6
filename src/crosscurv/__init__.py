"""Curvature algebra and stability certification for the rank-one model
spaces.

The package builds the curvature tensors of the four model families at a
single tangent space, verifies the algebraic identities the second-variation
analysis rests on (each identity is checked against an independent
brute-force evaluation, and failures are reported as findings rather than
patched), re-derives the displayed coefficient reductions in exact
arithmetic, and certifies stability of the resulting quadratic forms via
minimal eigenvalues and the conformal-direction polynomial.

Layout: ``tensors`` (frame-level multilinear algebra), ``division_algebras``
(exact multiplication tables), ``jacobi`` (cyclic eigensolver), ``models``
(validated model construction), ``ledger`` (exact symbolic reductions and
the identity catalog), ``hessian`` (quadratic forms and certificates),
``report``/``cli`` (deterministic documents and the command-line tool).
"""

from crosscurv.tensors import (
    CurvTensor4,
    Lambda2Operator,
    SymTensor2,
    check_tensor,
    compose_and_ricci,
    from_lambda2,
    k_pairing,
    kn_product,
    lambda2_pushforward,
    pair_vector,
    r_ring,
    random_curvature,
    random_curvature_lambda2,
    random_symtensor,
    ricci,
    rr_kn_pairing,
    tilde,
    to_lambda2,
)
from crosscurv.jacobi import JacobiConvergenceError, Spectrum, jacobi_eigs
from crosscurv.models import (
    CurvatureModel,
    FrameAudit,
    JStructure,
    ModelValidationError,
    NoSpectralDataError,
    build_j_structure,
    build_model,
    frame_rule_audit,
    model_constants,
    norm2_closed_claimed,
    norm2_closed_derived,
    reference_constants,
    reference_mu_over_lambda,
)
from crosscurv.ledger import (
    IdentityCheck,
    LedgerExpr,
    a4_variants,
    expand_theorem_conformal,
    expand_theorem_tt,
    identity_catalog,
    noncompact_chain,
    quadratic_completion_checks,
    verify_catalog,
    verify_identity_numeric,
)
from crosscurv.hessian import (
    QuadForm,
    SpectralCertificate,
    StabilityReport,
    UnsupportedExponentError,
    assemble_quadform,
    assemble_tt_remainder,
    conformal_value,
    hp_scale,
    min_eigen_tt,
    stability_verdict,
    tt_basis,
)
from crosscurv.report import ReportDocument

__version__ = "0.1.0"

# every name imported above, for ``from crosscurv import *``
__all__ = [name for name, value in globals().items()
           if getattr(value, "__module__", "").startswith("crosscurv.")]
__all__.append("__version__")
