"""Deterministic result documents: JSON, CSV, and plain text.

The JSON emitter is hand-rolled so that reruns with identical inputs are
byte-identical: section order is fixed, floats are printed with one format
(%.17g, which round-trips doubles), exact rationals are emitted as "p/q"
strings, and the ledger's symbolic coefficients (``laurent.Laurent``) as
their string form, the expanded sum of monomials.  No timestamps or other
nondeterministic values belong in a document; timing is represented by
deterministic work counters (rotation counts, sample counts) instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from crosscurv.laurent import Laurent

__all__ = ["ReportDocument", "emit_value", "render_json", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1


def _format_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return f"{x:.17g}"


def emit_value(obj) -> str:
    """Serialize one value to canonical JSON text."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return str(obj.numerator)
        return json.dumps(f"{obj.numerator}/{obj.denominator}")
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, (str, Laurent)):
        return json.dumps(str(obj))
    if isinstance(obj, np.ndarray):
        return emit_value(obj.tolist())
    if isinstance(obj, dict):
        parts = [f"{json.dumps(str(k))}: {emit_value(v)}" for k, v in obj.items()]
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(emit_value(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def render_json(payload: dict) -> str:
    return emit_value(payload) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, Fraction):
        s = (str(v.numerator) if v.denominator == 1
             else f"{v.numerator}/{v.denominator}")
    elif isinstance(v, (float, np.floating)):
        s = f"{float(v):.17g}"
    elif v is None:
        s = "-"
    else:
        s = str(v)
    if any(ch in s for ch in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


@dataclass
class ReportDocument:
    """Ordered result document for one command invocation; the JSON
    sections follow the order of the fields."""

    config: dict = field(default_factory=dict)
    model_constants: dict = field(default_factory=dict)
    lemma_findings: list = field(default_factory=list)
    ledger_comparisons: list = field(default_factory=list)
    certification: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)

    def csv_rows(self) -> list:
        rows = [("kind", "id", "model", "value", "threshold", "outcome")]
        label = self.model_constants.get("label", self.config.get("space", "-"))
        for f in self.lemma_findings:
            rows.append(("identity", f["id"], f.get("model", label),
                         f["residual"], f.get("tol"), f["outcome"]))
        for r in self.ledger_comparisons:
            ident = f"{r.get('chain', 'tt')}:{r['term']}"
            rows.append(("comparison", ident, "-", r["computed"], r["claimed"],
                         "MATCH" if r["match"] else "MISMATCH"))
        cert = self.certification
        if cert:
            em = cert.get("tt_min_eig")
            if em is not None:
                rows.append(("certificate", "tt_min_eig", label, em, 0.0,
                             "POSITIVE" if em > 0 else "NONPOSITIVE"))
            eps = cert.get("epsilon")
            rows.append(("certificate", "epsilon", label, eps, None,
                         "STRICT" if eps is not None else "INCONCLUSIVE"))
            conf = cert.get("conformal_value") or {}
            for key in ("claimed", "computed"):
                if key in conf:
                    v = conf[key]
                    fv = float(v)
                    outcome = ("ZERO" if fv == 0
                               else "NONNEGATIVE" if fv > 0 else "NEGATIVE")
                    rows.append(("certificate", f"conformal_{key}", label,
                                 v, 0.0, outcome))
        return rows

    def to_text(self) -> str:
        lines = []
        cfg = self.config
        if cfg:
            head = " ".join(f"{k}={v}" for k, v in cfg.items() if v is not None)
            lines.append(f"# {head}")
        mc = self.model_constants
        if mc:
            lines.append(
                f"model {mc['label']}: n={mc['n']} tau={mc['tau']} c={mc['c']:g} "
                f"lambda={mc['lambda']:g} s={mc['s']:g} |R|^2={mc['R_norm2']:.17g}"
            )
            ratio = mc.get("ratio")
            if ratio is not None:
                lines.append(
                    f"  ratio |R|^2/lambda^2 = {_csv_cell(ratio)} "
                    f"(direct {mc['ratio_computed']:.17g})"
                )
            if mc.get("mu_over_lambda") is not None:
                lines.append(f"  mu/lambda = {_csv_cell(mc['mu_over_lambda'])}")
            elif mc.get("mu_note"):
                lines.append(f"  mu: unavailable ({mc['mu_note']})")
            for k in ("table_flag", "computed_flag"):
                if mc.get(k):
                    lines.append(f"  note: {mc[k]}")
            audit = mc.get("frame_audit")
            if audit:
                worst = max(audit.values())
                lines.append(f"  frame audit: {len(audit)} rules, "
                             f"max residual {worst:.3e}")
        for f in self.lemma_findings:
            lines.append(
                f"identity {f['id']:<28} {f['outcome']:<4} "
                f"residual={f['residual']:.3e} trials={f['trials']} "
                f"seed={f['seed']}"
            )
        for r in self.ledger_comparisons:
            tag = "MATCH" if r["match"] else "MISMATCH"
            lines.append(
                f"comparison {r.get('chain', 'tt')}:{r['term']:<16} {tag:<8} "
                f"claimed={_csv_cell(r['claimed'])} "
                f"computed={_csv_cell(r['computed'])}"
            )
        cert = self.certification
        if cert:
            if "tt_min_eig" in cert:
                lines.append(
                    f"certificate tt_min_eig={cert['tt_min_eig']:.17g} "
                    f"rayleigh_min={cert.get('rayleigh_min', float('nan')):.17g}"
                )
            if cert.get("epsilon") is not None:
                lines.append(f"certificate epsilon={cert['epsilon']:.17g}")
            conf = cert.get("conformal_value") or {}
            for key in ("claimed", "computed"):
                if key in conf:
                    lines.append(f"conformal[{key}] = {_csv_cell(conf[key])}")
            if conf.get("note"):
                lines.append(f"conformal: {conf['note']}")
            if cert.get("tt_verdict"):
                lines.append(f"verdict: {cert['tt_verdict']}")
            for fl in cert.get("verdict_flags", []):
                lines.append(f"flag: {fl}")
            for nt in cert.get("discrepancy_notes", []):
                lines.append(f"note: {nt}")
        if self.timing:
            work = " ".join(f"{k}={v}" for k, v in self.timing.items())
            lines.append(f"work: {work}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return render_json({"schema_version": SCHEMA_VERSION,
                                **{f.name: getattr(self, f.name)
                                   for f in fields(self)}})
        if fmt == "csv":
            return "\n".join(",".join(_csv_cell(c) for c in row)
                             for row in self.csv_rows()) + "\n"
        if fmt == "text":
            return self.to_text()
        raise ValueError(f"unknown format {fmt!r}")
