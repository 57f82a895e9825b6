"""Curvature algebra and stability certification for the rank-one model
spaces.

The package builds the curvature tensors of the four model families at a
single tangent space, verifies the algebraic identities the second-variation
analysis rests on (each identity is checked against an independent
brute-force evaluation, and failures are reported as findings rather than
patched), re-derives the displayed coefficient reductions in exact
arithmetic, and certifies stability of the resulting quadratic forms via
minimal eigenvalues and the conformal-direction polynomial.

Layout: ``tensors`` (entry lists, the curvature checks and the random
draws at a tangent space; the dense contractions are the tests' oracle,
``tests/dense_oracle.py``), ``division_algebras`` (exact multiplication
tables), ``jacobi`` (cyclic eigensolver), ``models`` (validated model
construction), ``laurent`` (exact Laurent polynomials for the ledger),
``ledger`` (exact symbolic reductions and the identity catalog),
``hessian`` (quadratic forms and certificates), ``report``/``cli``
(deterministic documents and the command-line tool).
"""

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
    verify_catalog,
    verify_identity_numeric,
)
from crosscurv.hessian import (
    QuadForm,
    SpectralCertificate,
    StabilityReport,
    assemble_quadform,
    assemble_tt_remainder,
    conformal_value,
    hp_scale,
    min_eigen_tt,
    stability_verdict,
)
from crosscurv.report import ReportDocument

__version__ = "0.1.0"

# every name imported above, for ``from crosscurv import *``
__all__ = [name for name, value in globals().items()
           if getattr(value, "__module__", "").startswith("crosscurv.")]
__all__.append("__version__")
