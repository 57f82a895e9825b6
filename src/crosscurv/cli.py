"""Command-line front end.

Subcommands:

  model    build one model, print constants and frame-audit residuals
  verify   run the identity catalog on one model (exit 4 if a required
           identity fails)
  certify  spectral certification of the trace-free remainder plus the
           conformal value (exit 5 on eigensolver failure, or when the
           Rayleigh samples contradict the Jacobi minimum)
  ledger   symbolic coefficient reductions vs the reference displays
  report   everything above in one document; failed identities and an
           inconsistent certificate are recorded in it, not in the exit code

Flags (before or after the subcommand): --space {sphere,cp,hp,op} --m
INT --n INT (sphere only) --sign {compact,noncompact} --c FLOAT
(positive magnitude) --p FLOAT --trials INT --seed INT --tol FLOAT
--format {json,csv,text} --out PATH --config PATH.

A config file holds key=value lines ('#' starts a comment); command-line
flags override file values.  File values are checked like flags, against
the type and allowed values in ``OPTIONS``; a non-finite --c, --p or --tol
is a config error.  Exit codes: 0 success, 2 config error (also an --out
path that cannot be written; a missing or read-only directory, or a path
that is a directory, is refused before anything is built), 3
model-validation failure (also a scale |c| outside [1e-6, 1e6],
``models.SCALE_RANGE``), 4 required-identity failure, 5 numeric failure.
``exit_status`` decides 4 and 5 from the findings.  Reports with identical
configs and seeds are byte-identical.

Input budget: a model whose estimated peak memory for the command
(``memory_estimate``) exceeds ``MEMORY_BUDGET_BYTES`` (4 GiB, fixed) is
refused as a config error, exit 2, before anything is built.  ``model`` and
``certify`` hold a few MiB of nonzeros and O(n) structure arrays, far
inside the budget; they are refused from dimension n = 55109, above
``tensors.MAX_DIMENSION``, where the n^4 flat indices of R overflow int64
(``models.family_dimension``).
``verify`` and ``report`` also hold the identity catalog's pair-basis
matrices, each of n^4 / 4 entries, and are refused from n = 127
(``--space sphere --n 127``, ``--space hp --m 32``).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import math
import os
import sys

from crosscurv.hessian import (RAYLEIGH_CHUNK, _require_count, _require_real,
                               hp_scale, stability_verdict)
from crosscurv.jacobi import JacobiConvergenceError
from crosscurv.ledger import (
    expand_theorem_conformal,
    expand_theorem_tt,
    noncompact_chain,
    verify_catalog,
)
from crosscurv.models import (
    ModelValidationError,
    build_model,
    family_dimension,
    model_constants,
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

#: option -> (type, default, allowed values); argparse, the config file
#: and the config echo all read this one table
OPTIONS = {
    "space": (str, None, sorted(SPACE_TO_FAMILY)),
    "m": (int, 2, None),
    "n": (int, None, None),
    "sign": (str, "compact", ["compact", "noncompact"]),
    "c": (float, 1.0, None),
    "p": (float, 2.0, None),
    "trials": (int, 16, None),
    "seed": (int, 0, None),
    "tol": (float, 1e-8, None),
    "format": (str, "text", ["json", "csv", "text"]),
    "out": (str, None, None),
}
DEFAULTS = {key: default for key, (_, default, _) in OPTIONS.items()}

#: subcommand -> (help, the sections its document holds)
SUBCOMMANDS = {
    "model": ("build a model and print its constants", ("constants",)),
    "verify": ("run the identity catalog on a model",
               ("constants", "findings")),
    "certify": ("certify stability of the quadratic remainder",
                ("constants", "certificate")),
    "ledger": ("symbolic coefficient reductions vs reference displays",
               ("ledger",)),
    "report": ("full document: constants, findings, ledger, certificates",
               ("constants", "findings", "certificate", "ledger")),
}

#: refuse models whose ``memory_estimate`` exceeds this many bytes
MEMORY_BUDGET_BYTES = 4 * 2**30

#: ``memory_estimate``: the interpreter, numpy and small arrays
BASE_BYTES = 128 * 2**20
#: ``memory_estimate``: float64 words of the nonzero stages of the build
BUILD_WORDS = 2**18
#: ``memory_estimate``: float64 words per n of the structure operators
OPERATOR_WORDS = 32
#: ``memory_estimate``: float64 words of the form assembly
ASSEMBLY_WORDS = 2**19
#: ``memory_estimate``: float64 words per n^4 of the identity catalog
CATALOG_WORDS = 2


class ConfigError(ValueError):
    pass


def memory_estimate(command: str, n: int) -> int:
    """Upper estimate, in bytes, of the peak memory of ``command`` on a
    model of dimension n, charged for the stages the command runs, in
    float64 words:

    - every command that builds a model: ``BUILD_WORDS`` (2 MiB) for the
      nonzeros of R on lines 0..min(m, 4) - 1, and what the build, the
      frame audit and the gates hold beside them; and ``OPERATOR_WORDS`` n
      for the structure operators, tau signed permutations of the n
      coordinates, and the temporaries of their invariant check.  A
      ``model`` traced 0.58 MiB at hp4 and 0.85 MiB at op2, and about 27
      words per n from hp2048 (n = 8192, 1.8 MiB) to hp13777 (n = 55108,
      11.9 MiB);
    - ``certify`` and ``report``: ``ASSEMBLY_WORDS`` (4 MiB) for the
      assembly, which reads the nonzeros on lines 0..2 and holds the form
      C as one dense array on the places of lines 0 and 1, at most 136^2
      words, so that ``certify`` traced at most 0.12 MiB above ``model``
      from hp4 to hp13777 (2.2 MiB at op2); and what the
      sampling holds at once: three arrays of ``RAYLEIGH_CHUNK`` x 8 (a
      chunk of the form's draws, as wide as its widest block of at most
      tau + 1 <= 8 rows, its centred transpose and one block's product
      with its leading rows) and three chunk-long vectors;
    - ``verify`` and ``report``: ``CATALOG_WORDS`` n^4 for the identity
      catalog, which holds a few N x N pair-basis matrices of n^4 / 4
      entries (R's, a random draw, a product and its comparand and their
      temporaries), the index arrays of the 4-subsets the draw's Bianchi
      projection reads (six of n^4 / 24) and the K_PAIR and RR_KN entry
      lists (of order tau n^3).  A catalog call owns every table it reads,
      and ``tensors`` keeps nothing between calls: the catalog traced 1.7
      n^4 at n = 40, 56 and 64, and a whole ``verify``, model included,
      1.7 to 1.75 n^4 at n = 24..56;

    and ``BASE_BYTES`` for the interpreter, numpy and the small arrays.
    """
    words = BUILD_WORDS + OPERATOR_WORDS * n
    if command in ("certify", "report"):
        words += ASSEMBLY_WORDS + 3 * RAYLEIGH_CHUNK * (8 + 1)
    if command in ("verify", "report"):
        words += CATALOG_WORDS * n**4
    return 8 * words + BASE_BYTES


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crosscurv",
        description="curvature-model construction, identity verification, "
                    "and stability certification",
    )
    ap.add_argument("command", choices=SUBCOMMANDS, help="; ".join(
        f"{name}: {helptext}" for name, (helptext, _) in SUBCOMMANDS.items()))
    for key, (kind, _, allowed) in OPTIONS.items():
        ap.add_argument(f"--{key}", type=kind, choices=allowed,
                        help="positive curvature-scale magnitude"
                        if key == "c" else None)
    ap.add_argument("--config", default=None,
                    help="key=value file; flags override it")
    return ap


def _read_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = OPTIONS[key][0](val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}"
                              ) from exc
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and flags; validate combinations."""
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(_read_config_file(args.config))
    for key, (_, _, allowed) in OPTIONS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
        if allowed and cfg[key] is not None and cfg[key] not in allowed:
            raise ConfigError(f"unknown {key} {cfg[key]!r}")
    cfg["command"] = args.command

    if cfg["command"] != "ledger":
        if cfg["space"] is None:
            raise ConfigError("--space is required")
        try:
            n = family_dimension(SPACE_TO_FAMILY[cfg["space"]], cfg["m"],
                                 cfg["n"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        need = memory_estimate(cfg["command"], n)
        if need > MEMORY_BUDGET_BYTES:
            raise ConfigError(
                f"a model of dimension {n} needs an estimated "
                f"{need / 2**30:.1f} GiB, above the "
                f"{MEMORY_BUDGET_BYTES / 2**30:g} GiB memory budget"
            )
    if not math.isfinite(cfg["c"]):
        raise ConfigError(f"--c must be finite, got {cfg['c']}")
    if cfg["c"] <= 0:
        raise ConfigError("--c is a positive magnitude; use --sign for "
                          "the non-compact dual")
    try:
        hp_scale(cfg["p"], 1.0)
        _require_count("--trials", cfg["trials"])
        _require_count("--seed", cfg["seed"], least=0)
        _require_real("--tol", cfg["tol"], above=True)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg["out"]:
        folder = os.path.dirname(os.path.abspath(cfg["out"]))
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ConfigError(f"cannot write {cfg['out']}: {folder} is not "
                              "a writable directory")
        if os.path.isdir(cfg["out"]):
            raise ConfigError(f"cannot write {cfg['out']}: it is a directory")
    return cfg


def _constants_block(model) -> dict:
    block = model_constants(model)
    audit = model.audit
    # the audit reads R at c = sign(c); at c its residuals are |c| times those
    block["frame_audit"], block["frame_audit_reported"] = (
        {k: audit.residuals[k] * abs(model.c) for k in rules}
        for rules in (audit.gated, audit.reported))
    if audit.notes:
        block["frame_audit_notes"] = audit.notes
    return block


def _ledger_rows() -> list:
    chains = [("tt-compact", expand_theorem_tt()),
              *((f"conformal-{assembly}", expand_theorem_conformal(assembly))
                for assembly in ("corrected", "printed")),
              ("noncompact", noncompact_chain())]
    return [{"chain": name, **row}
            for name, chain in chains for row in chain.comparisons]


def _emit(doc: ReportDocument, cfg: dict) -> None:
    text = doc.render(cfg["format"])
    if not cfg["out"]:
        sys.stdout.write(text)
        return
    try:
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {cfg['out']}: {exc}") from exc


def exit_status(command: str, findings: list, consistent: bool) -> int:
    """Exit code of ``command`` from its findings: verify exits 4 when a
    required identity fails, certify exits 5 when its certificate is
    inconsistent; every other case, report included, exits 0."""
    if command == "verify" and any(
        f["tier"] == "required" and f["outcome"] == "FAIL" for f in findings
    ):
        return EXIT_REQUIRED
    if command == "certify" and not consistent:
        return EXIT_NUMERIC
    return EXIT_OK


def run(cfg: dict) -> int:
    """Compute the sections the subcommand prints, emit the document and
    return its exit status.
    """
    sections = SUBCOMMANDS[cfg["command"]][1]
    # the echo leaves out --out: a document is the same wherever it goes
    doc = ReportDocument(config={"command": cfg["command"], **{
        key: cfg[key] for key in OPTIONS if key != "out"}})
    consistent = True
    if "constants" in sections:
        c = cfg["c"] if cfg["sign"] == "compact" else -cfg["c"]
        model = build_model(SPACE_TO_FAMILY[cfg["space"]], cfg["m"], c,
                            n=cfg["n"])
        doc.model_constants = _constants_block(model)
    if "findings" in sections:
        doc.lemma_findings = verify_catalog(model, trials=cfg["trials"],
                                            seed=cfg["seed"], tol=cfg["tol"])
    if "certificate" in sections:
        rep = stability_verdict(model, p=cfg["p"], seed=cfg["seed"])
        consistent = rep.consistent
        doc.certification = {
            "tt_min_eig": rep.tt_min_eig,
            "rayleigh_min": rep.rayleigh_min,
            "epsilon": rep.epsilon,
            "conformal_value": rep.conformal,
            "tt_verdict": rep.tt_verdict,
            "threshold_claim": rep.threshold_claim,
            "verdict_flags": rep.verdict_flags,
            "discrepancy_notes": rep.discrepancy_notes,
        }
        doc.timing = {"jacobi_rotations": rep.rotations,
                      "rayleigh_samples": rep.samples}
    if "findings" in sections:  # listed after the certificate's counters
        doc.timing["identity_trials"] = cfg["trials"]
    if "ledger" in sections:
        doc.ledger_comparisons = _ledger_rows()
    _emit(doc, cfg)
    status = exit_status(cfg["command"], doc.lemma_findings, consistent)
    if status == EXIT_NUMERIC:
        sys.stderr.write("numeric inconsistency: rayleigh sample below "
                         "eigenvalue minimum\n")
    return status


def main(argv=None) -> int:
    """Run one subcommand on ``argv`` (``sys.argv[1:]`` when None) and
    return its exit status: 0 success, 2 config error, 3 model-validation
    failure, 4 required-identity failure (``verify``), 5 numeric failure.
    An argument argparse cannot parse raises ``SystemExit(2)``.

    ``main`` registers ``gc.freeze`` to run at interpreter exit, replacing
    any earlier registration, so it runs once per process however often
    ``main`` is called.  Finalization then skips the cyclic collections
    over the objects numpy and crosscurv hold, which free only memory the
    process is about to return; in a cold command they took about 20 ms.
    Nothing printed depends on them: the document is written before
    ``main`` returns, and the interpreter still flushes stdout at exit.
    A library caller of ``main`` keeps its collector as it was until its
    own exit.
    """
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    try:
        return run(resolve_config(args))
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except ModelValidationError as exc:
        sys.stderr.write(f"model validation failed: {exc}\n")
        return EXIT_VALIDATION
    except JacobiConvergenceError as exc:
        sys.stderr.write(f"eigensolver failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
