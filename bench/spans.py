"""In-memory spans recorded around calls into the crosscurv modules.

The tracer wraps public names of the package from outside: a name is
replaced in the namespace where its caller looks it up, so
``crosscurv.hessian.jacobi_eigs`` (called by the certificate code) and
``crosscurv.cli.frame_rule_audit`` (called by the command line) are wrapped
separately even though they are bindings of functions defined elsewhere.
Nothing in the library changes; ``Tracer.restore`` puts every original
binding back.

Each span records its name (``<layer>.<function>``), start, end, parent
span, operation id and optional counters.  A call of a wrapped name from
inside its own span (recursion, as in ``report.emit_value``) records no
span of its own.  Spans stay in memory until the
run writes them out.  A span's self time is its duration minus the part of
its interval covered by its children.
"""

from __future__ import annotations

import inspect
import sys
import time
import tracemalloc
from contextlib import contextmanager

#: modules whose namespaces are instrumented.  division_algebras runs inside
#: models.build_j_structure in well under a millisecond, so its time stays in
#: the models layer.
LAYERS = ("cli", "models", "tensors", "hessian", "jacobi", "ledger", "report")


def _rotations(spectrum):
    return {"rotations": int(spectrum.iterations)}


def _samples(cert):
    return {"samples": int(cert.samples)}


def _trials(finding):
    return {"trials": int(finding["trials"])}


def _bytes(text):
    return {"bytes": len(text.encode("utf-8"))}


#: work counters read from a wrapped call's result, by span name
COUNTERS = {
    "jacobi.jacobi_eigs": _rotations,
    "hessian.min_eigen_tt": _samples,
    "ledger.verify_identity_numeric": _trials,
    "report.render": _bytes,
}

#: spans that also record their tracemalloc peak (only while they run)
PEAK_SPANS = ("models.frame_rule_audit", "hessian.assemble_tt_remainder")


class Tracer:
    """Records nested spans; wraps and restores module bindings."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.op = None
        self._open: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; yields the span record."""
        rec = {"name": name, "op": self.op,
               "parent": self._open[-1] if self._open else None,
               "start": self.clock(), "end": None, "counters": {}}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = self.clock()
            self._open.pop()

    def wrapper(self, name: str, fn):
        """A callable that runs ``fn`` inside a span called ``name``."""
        counters = COUNTERS.get(name)
        peak = name in PEAK_SPANS

        def traced(*args, **kwargs):
            if self._open and self.spans[self._open[-1]]["name"] == name:
                return fn(*args, **kwargs)  # recursion stays in one span
            with self.span(name) as rec:
                started = peak and not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if started:
                        rec["counters"]["peak_mb"] = (
                            tracemalloc.get_traced_memory()[1] / 2**20)
                        tracemalloc.stop()
                if counters is not None:
                    rec["counters"].update(counters(result))
                return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrapper(name, original))
        self._patches.append((owner, attr, original))

    def instrument(self, package) -> int:
        """Wrap every public crosscurv name in every imported layer module.

        A public name is one listed in the ``__all__`` of the module that
        defines it.  Functions are wrapped wherever they are bound, their
        own module included, since intra-module calls such as
        ``build_model -> frame_rule_audit`` also cross a public name.
        Classes are wrapped only in other modules, where calling them is
        construction; exceptions are never wrapped, because ``except``
        clauses must still match them.  Returns the number of bindings
        wrapped.
        """
        modules = {layer: sys.modules[f"{package.__name__}.{layer}"]
                   for layer in LAYERS
                   if f"{package.__name__}.{layer}" in sys.modules}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                owner = getattr(obj, "__module__", "") or ""
                if not owner.startswith(package.__name__ + "."):
                    continue
                home = owner.split(".")[1]
                if home not in modules or attr not in modules[home].__all__:
                    continue
                if inspect.isclass(obj):
                    if home == layer or issubclass(obj, BaseException):
                        continue
                elif not inspect.isfunction(obj):
                    continue
                self.patch(module, attr, f"{home}.{attr}")
        if "report" in modules:
            self.patch(modules["report"].ReportDocument, "render",
                       "report.render")
        return len(self._patches)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Per-span duration minus the time its children cover."""
    children: dict[int, list] = {}
    for rec in spans:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(
                (rec["start"], rec["end"]))
    out = []
    for i, rec in enumerate(spans):
        kids = [(max(s, rec["start"]), min(e, rec["end"]))
                for s, e in children.get(i, [])]
        out.append(rec["end"] - rec["start"]
                   - covered([k for k in kids if k[1] > k[0]]))
    return out


def summarize(spans: list[dict], own: list[float]) -> dict:
    """Self time, call count and summed counters per span name, plus the
    maximum of every ``peak_mb`` counter; ``own`` is ``self_times(spans)``."""
    table: dict[str, dict] = {}
    for rec, seconds in zip(spans, own):
        row = table.setdefault(rec["name"], {"self_s": 0.0, "calls": 0})
        row["self_s"] += seconds
        row["calls"] += 1
        for key, value in rec["counters"].items():
            if key == "peak_mb":
                row[key] = max(row.get(key, 0.0), value)
            else:
                row[key] = row.get(key, 0) + value
    return table
