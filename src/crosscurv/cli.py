"""Command-line front end.

Subcommands:

  model    build one model, print constants and frame-audit residuals
  verify   run the identity catalog on one model (exit 4 if a required
           identity fails)
  certify  spectral certification of the trace-free remainder plus the
           conformal value (exit 5 on eigensolver failure)
  ledger   symbolic coefficient reductions vs the reference displays
  report   everything above in one document

Flags: --space {sphere,cp,hp,op} --m INT --n INT (sphere only)
--sign {compact,noncompact} --c FLOAT (positive magnitude) --p FLOAT
--trials INT --seed INT --tol FLOAT --format {json,csv,text} --out PATH
--config PATH.

A config file holds key=value lines ('#' starts a comment); command-line
flags override file values; a non-finite --c, --p or --tol is a config
error.  Exit codes: 0 success, 2 config error, 3 model-validation failure,
4 required-identity failure, 5 numeric failure.
Reports with identical configs and seeds are byte-identical.

Input budget: a model whose estimated peak memory (``memory_estimate``)
exceeds ``MEMORY_BUDGET_BYTES`` (4 GiB, fixed) is refused as a config
error, exit 2, before anything is built.  The refusal sets in at dimension
n = 79 (``--space sphere --n 79``, ``--space hp --m 20``).
"""

from __future__ import annotations

import argparse
import math
import sys

from crosscurv.hessian import stability_verdict
from crosscurv.jacobi import JacobiConvergenceError
from crosscurv.ledger import (
    expand_theorem_conformal,
    expand_theorem_tt,
    identity_catalog,
    noncompact_chain,
    verify_identity_numeric,
)
from crosscurv.models import (
    ModelValidationError,
    build_model,
    model_constants,
    reference_constants,
)
from crosscurv.report import ReportDocument

__all__ = ["main", "build_parser", "ConfigError", "resolve_config"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_REQUIRED = 4
EXIT_NUMERIC = 5

SPACE_TO_FAMILY = {
    "sphere": "sphere",
    "cp": "complex",
    "hp": "quaternionic",
    "op": "octonionic",
}

DEFAULTS = {
    "space": None,
    "m": 2,
    "n": None,
    "sign": "compact",
    "c": 1.0,
    "p": 2.0,
    "trials": 16,
    "seed": 0,
    "tol": 1e-8,
    "format": "text",
    "out": None,
}

#: refuse models whose ``memory_estimate`` exceeds this many bytes
MEMORY_BUDGET_BYTES = 4 * 2**30

_TYPES = {
    "space": str, "m": int, "n": int, "sign": str, "c": float, "p": float,
    "trials": int, "seed": int, "tol": float, "format": str, "out": str,
}


class ConfigError(ValueError):
    pass


def memory_estimate(n: int) -> int:
    """Upper estimate, in bytes, of the peak memory of any command on a
    model of dimension n.

    Twelve float64 arrays of n^4 entries alive together: the curvature
    tensor R, the n^2 x n^2 term matrices with their einsum temporaries
    and accumulator, and the frame audit's index arrays (measured peaks at
    n = 16..40 hold 8 to 11 of them at once); one Rayleigh sampling batch
    of 20 000 vectors of the trace-free dimension n(n+1)/2 - 1; and
    128 MiB for the interpreter, numpy, sympy and the small arrays.
    """
    dim = n * (n + 1) // 2 - 1
    return 8 * (12 * n**4 + 20_000 * dim) + 128 * 2**20


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crosscurv",
        description="curvature-model construction, identity verification, "
                    "and stability certification",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("model", "build a model and print its constants"),
        ("verify", "run the identity catalog on a model"),
        ("certify", "certify stability of the quadratic remainder"),
        ("ledger", "symbolic coefficient reductions vs reference displays"),
        ("report", "full document: constants, findings, ledger, certificates"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--space", choices=sorted(SPACE_TO_FAMILY))
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--sign", choices=["compact", "noncompact"])
        p.add_argument("--c", type=float, default=None,
                       help="positive curvature-scale magnitude")
        p.add_argument("--p", type=float, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--format", choices=["json", "csv", "text"],
                       default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None,
                       help="key=value file; flags override it")
    return ap


def _read_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _TYPES[key](val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}"
                              ) from exc
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and flags; validate combinations."""
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(_read_config_file(args.config))
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    cfg["command"] = args.command

    if cfg["command"] != "ledger":
        if cfg["space"] is None:
            raise ConfigError("--space is required")
        if cfg["space"] not in SPACE_TO_FAMILY:
            raise ConfigError(f"unknown space {cfg['space']!r}")
        if cfg["space"] == "sphere":
            if cfg["n"] is None:
                raise ConfigError("--space sphere requires --n")
            if cfg["n"] < 3:
                raise ConfigError("sphere dimension must be at least 3")
        elif cfg["n"] is not None:
            raise ConfigError("--n applies to --space sphere only")
        if cfg["space"] == "cp" and cfg["m"] < 2:
            raise ConfigError("cp needs m >= 2")
        if cfg["space"] == "hp" and cfg["m"] < 1:
            raise ConfigError("hp needs m >= 1")
        if cfg["space"] == "op" and cfg["m"] != 2:
            raise ConfigError("op exists only for m = 2")
        n = reference_constants(SPACE_TO_FAMILY[cfg["space"]], cfg["m"],
                                cfg["n"])["n"]
        need = memory_estimate(n)
        if need > MEMORY_BUDGET_BYTES:
            raise ConfigError(
                f"a model of dimension {n} needs an estimated "
                f"{need / 2**30:.1f} GiB, above the "
                f"{MEMORY_BUDGET_BYTES / 2**30:g} GiB memory budget"
            )
    if cfg["sign"] not in ("compact", "noncompact"):
        raise ConfigError(f"unknown sign {cfg['sign']!r}")
    for key in ("c", "p", "tol"):
        if not math.isfinite(cfg[key]):
            raise ConfigError(f"--{key} must be finite, got {cfg[key]}")
    if cfg["c"] <= 0:
        raise ConfigError("--c is a positive magnitude; use --sign for "
                          "the non-compact dual")
    if cfg["p"] < 2:
        raise ConfigError("--p must be at least 2")
    if cfg["trials"] < 1:
        raise ConfigError("--trials must be positive")
    if cfg["tol"] <= 0:
        raise ConfigError("--tol must be positive")
    return cfg


def _config_echo(cfg: dict) -> dict:
    keys = ("command", "space", "m", "n", "sign", "c", "p", "trials",
            "seed", "tol", "format")
    return {k: cfg[k] for k in keys}


def _build_from_config(cfg: dict):
    family = SPACE_TO_FAMILY[cfg["space"]]
    c = cfg["c"] if cfg["sign"] == "compact" else -cfg["c"]
    return build_model(family, cfg["m"], c, n=cfg["n"])


def _constants_block(model) -> dict:
    block = model_constants(model)
    audit = model.audit
    block["frame_audit"] = {k: audit.residuals[k] for k in audit.gated}
    block["frame_audit_reported"] = {
        k: audit.residuals[k] for k in audit.reported
    }
    if audit.notes:
        block["frame_audit_notes"] = audit.notes
    return block


def _findings(model, cfg: dict) -> list:
    return [
        verify_identity_numeric(name, model, trials=cfg["trials"],
                                seed=cfg["seed"], tol=cfg["tol"])
        for name in identity_catalog()
    ]


def _ledger_rows() -> list:
    rows = []
    tt = expand_theorem_tt()
    for r in tt.comparisons:
        rows.append({"chain": "tt-compact", **r})
    for assembly in ("corrected", "printed"):
        conf = expand_theorem_conformal(assembly)
        for r in conf.comparisons:
            rows.append({"chain": f"conformal-{assembly}", **r})
    nc = noncompact_chain()
    for r in nc.comparisons:
        rows.append({"chain": "noncompact", **r})
    return rows


def _certification_block(model, cfg: dict) -> tuple[dict, dict]:
    rep = stability_verdict(model, p=cfg["p"], seed=cfg["seed"])
    cert = {
        "tt_min_eig": rep.tt_min_eig,
        "rayleigh_min": rep.rayleigh_min,
        "epsilon": rep.epsilon,
        "conformal_value": rep.conformal,
        "tt_verdict": rep.tt_verdict,
        "threshold_claim": rep.threshold_claim,
        "verdict_flags": rep.verdict_flags,
        "discrepancy_notes": rep.discrepancy_notes,
    }
    timing = {"jacobi_rotations": rep.rotations,
              "rayleigh_samples": rep.samples}
    return cert, timing


def _emit(doc: ReportDocument, cfg: dict) -> None:
    text = doc.render(cfg["format"])
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_model(cfg: dict) -> int:
    model = _build_from_config(cfg)
    doc = ReportDocument(config=_config_echo(cfg),
                         model_constants=_constants_block(model))
    _emit(doc, cfg)
    return EXIT_OK


def cmd_verify(cfg: dict) -> int:
    model = _build_from_config(cfg)
    findings = _findings(model, cfg)
    doc = ReportDocument(
        config=_config_echo(cfg),
        model_constants=_constants_block(model),
        lemma_findings=findings,
        timing={"identity_trials": cfg["trials"]},
    )
    _emit(doc, cfg)
    required_failed = any(
        f["tier"] == "required" and f["outcome"] == "FAIL" for f in findings
    )
    return EXIT_REQUIRED if required_failed else EXIT_OK


def cmd_certify(cfg: dict) -> int:
    model = _build_from_config(cfg)
    cert, timing = _certification_block(model, cfg)
    doc = ReportDocument(
        config=_config_echo(cfg),
        model_constants=_constants_block(model),
        certification=cert,
        timing=timing,
    )
    _emit(doc, cfg)
    if "rayleigh sample fell below the jacobi minimum" in cert["discrepancy_notes"]:
        sys.stderr.write("numeric inconsistency: rayleigh sample below "
                         "eigenvalue minimum\n")
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_ledger(cfg: dict) -> int:
    doc = ReportDocument(config=_config_echo(cfg),
                         ledger_comparisons=_ledger_rows())
    _emit(doc, cfg)
    return EXIT_OK


def cmd_report(cfg: dict) -> int:
    model = _build_from_config(cfg)
    findings = _findings(model, cfg)
    cert, timing = _certification_block(model, cfg)
    timing["identity_trials"] = cfg["trials"]
    doc = ReportDocument(
        config=_config_echo(cfg),
        model_constants=_constants_block(model),
        lemma_findings=findings,
        ledger_comparisons=_ledger_rows(),
        certification=cert,
        timing=timing,
    )
    _emit(doc, cfg)
    return EXIT_OK


COMMANDS = {
    "model": cmd_model,
    "verify": cmd_verify,
    "certify": cmd_certify,
    "ledger": cmd_ledger,
    "report": cmd_report,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    try:
        return COMMANDS[cfg["command"]](cfg)
    except ModelValidationError as exc:
        sys.stderr.write(f"model validation failed: {exc}\n")
        return EXIT_VALIDATION
    except JacobiConvergenceError as exc:
        sys.stderr.write(f"eigensolver failure: {exc}\n")
        return EXIT_NUMERIC
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
