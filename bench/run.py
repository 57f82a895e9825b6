#!/usr/bin/env python3
"""crosscurv benchmark: one command, every output checked, every metric
printed by name and unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a source checkout: the program is imported from ``src/`` of
the checkout that holds this file.  The build step byte-compiles
``src/crosscurv`` in place, as an installed package would be; no process
the benchmark starts writes byte code anywhere else.  Without
``src/crosscurv`` the benchmark exits 2 and prints no result.

A run first sets up (build, one untimed cold import, then
``SETUP_IMPORTS`` timed cold imports of ``crosscurv`` for ``setup_s``, then
the workload's reference values or warm-up), then cycles through the
workload's operation list until ``--seconds`` have passed, always finishing
at least one whole cycle.  Operations run one at a time from this benchmark
process, never more than one program process at once; BLAS keeps its
default thread count, which is recorded.

Workloads (``WORKLOADS`` below; the seed chooses the inputs):

  cli-acceptance  closed loop with one client: cold ``crosscurv`` processes,
                  ``--format json``, on sphere5, cp2, cp3, hp2 and op2 (model,
                  verify, certify, report each), then ``ledger`` once.  The
                  seed sets each command's ``--seed``.
  hp-sweep        one warm process, imports paid in set-up: build_model then
                  stability_verdict on hp1..hp10 (n = 4..40), compact.  The
                  seed sets each verdict's sampling seed.
  dual-scale      one warm process: certify the non-compact duals of sphere8,
                  sphere16, sphere24, cp4, cp8, hp2, hp4, hp6 and op2, each at
                  c = -1 and at one magnitude of {1e-6, 1e-3, 1e3, 1e6}
                  assigned by a seeded shuffle that uses every magnitude.
                  Not listed in BENCHMARK.json, whose workloads must run
                  without failed operations: the certificates at large |c|
                  still fail the absolute 1e-6 Rayleigh/Jacobi check.  Run
                  it by name to count those failures.

End-to-end metrics (``--trace 0``), each one value per run:

  setup_s       median cold ``import crosscurv`` over SETUP_IMPORTS fresh
                interpreters
  wall_rel      time of the whole operation list, set-up excluded (the
                sum over operations of each one's median time), divided by
                the run's median probe time; see ``end_to_end``
  peak_rss_mb   highest peak RSS of any program process by the end of the
                first cycle: the cold command processes on cli-acceptance,
                this process on the warm workloads
  largest_op_rel  median over the samples of the workload's largest
                operations (the five cold ``report`` commands, hp10,
                hp6-dual at c = -1), divided by the median probe time

``--trace 1`` runs each operation once untraced and then once with every
public crosscurv name wrapped (see ``spans.py``; cli-acceptance traces each
command in its own cold process through ``cli_worker.py``) and prints the
per-layer metrics instead; ``PER_LAYER`` documents each one.  The ``_s``
metrics read from spans are self times: span duration minus the time
covered by child spans.  A layer a workload bypasses reads 0.

The last line of stdout is the JSON result; the lines before it repeat the
metrics and operations for a reader, and the full record (environment,
per-operation input properties and checks, spans) is written to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import gc
import glob
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_IMPORTS = 5
CHILD_TIMEOUT_S = 60
REL_TOL = 1e-9

#: minimal trace-free eigenvalues at c = 1 as printed in the README
README_TT_MIN = {"sphere5": 25.5, "cp2": -4.0, "cp3": 20.0, "hp2": 288.0,
                 "op2": -464.0}

#: label -> (family, m, n, CLI flags).  op2 comes first so that its
#: commands, the largest, are the ones a second partial cycle repeats.
MODELS = {
    "op2": ("octonionic", 2, None, ["--space", "op", "--m", "2"]),
    "sphere5": ("sphere", 0, 5, ["--space", "sphere", "--n", "5"]),
    "cp2": ("complex", 2, None, ["--space", "cp", "--m", "2"]),
    "cp3": ("complex", 3, None, ["--space", "cp", "--m", "3"]),
    "hp2": ("quaternionic", 2, None, ["--space", "hp", "--m", "2"]),
}
DUAL_MODELS = {
    "sphere8": ("sphere", 0, 8), "sphere16": ("sphere", 0, 16),
    "sphere24": ("sphere", 0, 24), "cp4": ("complex", 4, None),
    "cp8": ("complex", 8, None), "hp2": ("quaternionic", 2, None),
    "hp4": ("quaternionic", 4, None), "hp6": ("quaternionic", 6, None),
    "op2": ("octonionic", 2, None),
}
SCALE_GRID = (1e-6, 1e-3, 1e3, 1e6)
CLI_COMMANDS = ("model", "verify", "certify", "report")
EXPECTED_EXIT = {"model": 0, "verify": 4, "certify": 0, "report": 0,
                 "ledger": 0}
RAYLEIGH_NOTE = "rayleigh sample fell below the jacobi minimum"
CHAINS = ("ledger.expand_theorem_tt", "ledger.expand_theorem_conformal",
          "ledger.noncompact_chain")

END_TO_END = {
    "setup_s": "s", "wall_rel": "x", "peak_rss_mb": "MB",
    "largest_op_rel": "x",
}
#: a bare interpreter start, timed before every operation of a trace-0 run
PROBE_ARGS = ["-c", "pass"]

#: name -> (unit, meaning).  Spans are named <layer>.<function>.
PER_LAYER = {
    "cli.import_s": ("s", "cumulative import of crosscurv.cli, -X importtime"),
    "cli.sympy_import_s": ("s", "cumulative import of sympy, -X importtime"),
    "cli.sympy_loaded": ("count", "model/verify/certify processes that end "
                                  "with sympy in sys.modules"),
    "cli.s": ("s", "self time of cli names (argument handling, glue)"),
    "cli.model_cold_s": ("s", "median cold `model` process over the models"),
    "cli.verify_cold_s": ("s", "median cold `verify` process"),
    "cli.certify_cold_s": ("s", "median cold `certify` process"),
    "cli.report_cold_s": ("s", "median cold `report` process"),
    "cli.ledger_cold_s": ("s", "cold `ledger` process"),
    "models.s": ("s", "self time of the models layer"),
    "models.build_s": ("s", "self time of build_model"),
    "models.frame_audit_s": ("s", "self time of frame_rule_audit"),
    "models.frame_audit_calls": ("count", "frame_rule_audit calls"),
    "models.frame_audit_peak_mb": ("MB", "tracemalloc peak in one audit"),
    "tensors.s": ("s", "self time of the tensors layer"),
    "tensors.calls": ("count", "calls into tensors names"),
    "hessian.s": ("s", "self time of the hessian layer"),
    "hessian.term_matrix_s": ("s", "self time of term_matrix"),
    "hessian.term_matrix_calls": ("count", "term_matrix calls"),
    "hessian.assemble_s": ("s", "self time of assemble_tt_remainder, "
                                "assemble_quadform and tt_basis"),
    "hessian.assemble_peak_mb": ("MB", "tracemalloc peak in one "
                                       "assemble_tt_remainder"),
    "hessian.rayleigh_s": ("s", "self time of min_eigen_tt: Rayleigh "
                                "sampling plus refine"),
    "hessian.rayleigh_samples": ("count", "Rayleigh samples drawn"),
    "jacobi.s": ("s", "self time of jacobi_eigs"),
    "jacobi.calls": ("count", "jacobi_eigs calls"),
    "jacobi.rotations": ("count", "plane rotations over all calls"),
    "ledger.s": ("s", "self time of the ledger layer"),
    "ledger.catalog_s": ("s", "self time of verify_identity_numeric and "
                              "identity_catalog"),
    "ledger.catalog_trials": ("count", "identity trials run"),
    "ledger.chains_s": ("s", "self time of the three symbolic chains"),
    "ledger.chain_calls": ("count", "symbolic chain calls in one process, "
                                    "highest over processes"),
    "report.render_s": ("s", "self time of the report layer: document "
                              "construction and rendering"),
    "report.bytes": ("count", "bytes rendered"),
    "trace.wall_s": ("s", "traced wall time of the operation list"),
    "trace.untraced_wall_s": ("s", "untraced wall time of the same list"),
    "trace.overhead_s": ("s", "traced minus untraced wall"),
    "trace.remainder_s": ("s", "traced wall not covered by any span's self "
                               "time (interpreter start, imports, benchmark "
                               "loop)"),
    "trace.spans": ("count", "spans recorded"),
}


# ---------------------------------------------------------------------------
# environment and child processes
# ---------------------------------------------------------------------------

def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    base = Path(np.__file__).resolve().parent
    libs = glob.glob(str(base.parent / "numpy.libs" / "*openblas*"))
    libs += glob.glob(str(base / ".libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "numpy": metadata.version("numpy"),
        "sympy": metadata.version("sympy"),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: list) -> tuple[float, subprocess.CompletedProcess]:
    """Run one program process to completion; returns its wall time."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=child_env(),
                          cwd=str(ROOT), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc


def cold_import_times(count: int) -> list[float]:
    times = []
    for _ in range(count):
        seconds, proc = run_child(["-c", "import crosscurv"])
        if proc.returncode != 0:
            raise RuntimeError(f"cold import failed: {proc.stderr.strip()}")
        times.append(seconds)
    return times


def import_profile() -> dict:
    """Cumulative import seconds of crosscurv.cli and sympy, from one
    ``python -X importtime`` process."""
    _, proc = run_child(["-X", "importtime", "-c", "import crosscurv.cli"])
    out = {"cli.import_s": 0.0, "cli.sympy_import_s": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[2].strip()
        if not fields[1].strip().isdigit():
            continue
        cumulative = int(fields[1]) / 1e6
        if name == "crosscurv.cli":
            out["cli.import_s"] = cumulative
        elif name == "sympy" and out["cli.sympy_import_s"] == 0.0:
            out["cli.sympy_import_s"] = cumulative
    return out


def rel_close(value: float, reference: float) -> bool:
    return abs(value - reference) <= REL_TOL * abs(reference)


def form_properties(model, hessian) -> dict:
    """Input properties the later optimisations depend on, plus the
    numpy.linalg.eigh minimum of the trace-free form as an oracle."""
    qf = hessian.assemble_tt_remainder(model)
    R = model.R.entries
    return {"n": model.n, "dim": qf.dim,
            "nnz_share": int(np.count_nonzero(R)) / R.size,
            "eigh_min": float(np.linalg.eigh(qf.matrix)[0][0])}


def load_expected() -> dict:
    with open(BENCH / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------

def check_tt_min(value, references: dict) -> list:
    """references: source name -> expected minimal eigenvalue."""
    return [f"tt_min_eig {value!r} differs from {src} {ref!r}"
            for src, ref in references.items()
            if not isinstance(value, (int, float))
            or not rel_close(value, ref)]


def check_cli(command: str, label, exit_code: int, stdout: str,
              expected: dict, eigh_min=None) -> list:
    """Failures of one CLI command's exit code and JSON document."""
    fails = []
    if exit_code != EXPECTED_EXIT[command]:
        fails.append(f"exit {exit_code}, expected {EXPECTED_EXIT[command]}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return fails + ["stdout is not a JSON document"]
    if command != "ledger":
        consts = doc.get("model_constants", {})
        want = expected["models"][label]
        if consts.get("label") != label:
            fails.append(f"label {consts.get('label')!r}")
        for key in ("R_norm2", "lambda"):
            if not rel_close(consts.get(key, float("nan")), want[key]):
                fails.append(f"{key} {consts.get(key)!r} != {want[key]!r}")
    if command in ("verify", "report"):
        got = {f["id"]: f["outcome"] for f in doc.get("lemma_findings", [])}
        if got != expected["identities"][label]:
            fails.append(f"identity outcomes {got}")
    if command in ("certify", "report"):
        cert = doc.get("certification", {})
        refs = {"README": README_TT_MIN[label]}
        if eigh_min is not None:
            refs["eigh"] = eigh_min
        fails += check_tt_min(cert.get("tt_min_eig"), refs)
        if RAYLEIGH_NOTE in cert.get("discrepancy_notes", []):
            fails.append("certificate has the rayleigh-below-jacobi note")
    if command in ("ledger", "report"):
        got = {f"{r['chain']}:{r['term']}": r["match"]
               for r in doc.get("ledger_comparisons", [])}
        if got != expected["ledger"]:
            fails.append(f"ledger flags {got}")
    return fails


def check_verdict(rep, references: dict) -> list:
    fails = check_tt_min(rep.tt_min_eig, references)
    if RAYLEIGH_NOTE in rep.discrepancy_notes:
        fails.append("certificate has the rayleigh-below-jacobi note")
    return fails


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class CliAcceptance:
    """Cold command-line processes on the five acceptance models.

    Why: this is what a reader of the paper runs; it is dominated by
    interpreter and sympy import, the symbolic ledger chains, the identity
    catalog and rendering.  Bypasses: nothing large; every form has
    dimension <= 135, so the n^4 build and Rayleigh sampling stay small.
    A lazy-sympy or ledger change shows here and nowhere else.
    """

    name = "cli-acceptance"
    largest = tuple(f"report:{label}" for label in MODELS)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.ops = []
        for label, (_, _, _, flags) in MODELS.items():
            for command in CLI_COMMANDS:
                argv = [command, *flags, "--format", "json",
                        "--seed", str(rng.randrange(2**31))]
                self.ops.append({"id": f"{command}:{label}", "label": label,
                                 "command": command, "argv": argv})
        self.ops.append({"id": "ledger", "label": None, "command": "ledger",
                         "argv": ["ledger", "--format", "json"]})
        self.expected = load_expected()
        self.props: dict = {}

    def prepare(self) -> None:
        from crosscurv import hessian, models
        for label, (family, m, n, _) in MODELS.items():
            model = models.build_model(family, m, 1.0, n=n)
            self.props[label] = form_properties(model, hessian)

    def op_properties(self, op) -> dict:
        props = self.props.get(op["label"], {})
        return {k: v for k, v in props.items() if k != "eigh_min"}

    def run(self, op, traced_path=None) -> tuple[float, list, dict]:
        if traced_path is None:
            args = ["-c", "import sys; from crosscurv.cli import main; "
                          "sys.exit(main())", *op["argv"]]
        else:
            args = [str(BENCH / "cli_worker.py"), str(traced_path),
                    *op["argv"]]
        try:
            seconds, proc = run_child(args)
        except subprocess.TimeoutExpired:
            return CHILD_TIMEOUT_S, [f"no exit within {CHILD_TIMEOUT_S} s"], {}
        eigh_min = self.props.get(op["label"], {}).get("eigh_min")
        fails = check_cli(op["command"], op["label"], proc.returncode,
                          proc.stdout, self.expected, eigh_min)
        return seconds, fails, {}

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class WarmWorkload:
    """Operations run in this process.  crosscurv is imported in set-up,
    which also runs the first operation once, untimed, as a warm-up."""

    def prepare(self) -> None:
        from crosscurv import hessian, models
        self.hessian, self.models = hessian, models
        self.run(self.ops[0])

    def op_properties(self, op) -> dict:
        return self.props.get(op["id"], {})

    def run(self, op, traced_path=None) -> tuple[float, list, dict]:
        gc.collect()
        start = time.perf_counter()
        model = self.models.build_model(op["family"], op["m"], op["c"],
                                        n=op["n"])
        rep = self.hessian.stability_verdict(model, seed=op["seed"])
        seconds = time.perf_counter() - start
        if op["id"] not in self.props:
            R = model.R.entries
            self.props[op["id"]] = {
                "n": model.n, "dim": model.n * (model.n + 1) // 2 - 1,
                "nnz_share": int(np.count_nonzero(R)) / R.size}
        return seconds, self.check(op, rep), {"tt_min_eig": rep.tt_min_eig}

    @staticmethod
    def peak_rss_mb() -> float:
        return max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF,
                               resource.RUSAGE_CHILDREN)) / 1024


class HpSweep(WarmWorkload):
    """build_model then stability_verdict on hp1..hp10 in one warm process.

    Why: this is the n^4 and dim^2 wall, dominated by the frame audit, the
    term matrices, Rayleigh sampling (1e5 samples at dim 819) and Jacobi.
    Bypasses: sympy, the ledger, the identity catalog and report; imports
    are paid in set-up, so a cold-start change does not show here.
    """

    name = "hp-sweep"
    largest = ("hp10",)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.ops = [{"id": f"hp{m}", "family": "quaternionic", "m": m,
                     "n": None, "c": 1.0, "seed": rng.randrange(2**31)}
                    for m in range(1, 11)]
        self.recorded = load_expected()["hp_tt_min_eig"]
        self.props: dict = {}

    def check(self, op, rep) -> list:
        return check_verdict(rep, {"recorded": self.recorded[op["id"]]})


class DualScale(WarmWorkload):
    """Certificates of the non-compact duals at c = -1 and at one extreme
    magnitude each.

    Why: the same layers used differently: the non-compact coefficient set
    adds the O(n^6) RR_KN term, the sphere takes the tau = 0 paths with no
    structure operators, and extreme |c| exercises the consistency check.
    Bypasses: sympy, the ledger and report.  The absolute 1e-6
    Rayleigh/Jacobi comparison in min_eigen_tt fails at large |c|; those
    operations count as failed.
    """

    name = "dual-scale"
    largest = ("hp6-dual@-1",)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        grid = list(SCALE_GRID) * 2
        grid.append(rng.choice(SCALE_GRID))
        rng.shuffle(grid)
        self.ops = []
        for (label, (family, m, n)), mag in zip(DUAL_MODELS.items(), grid):
            for c in (-1.0, -mag):
                self.ops.append({
                    "id": f"{label}-dual@{c:g}", "label": label,
                    "family": family, "m": m, "n": n, "c": c,
                    "seed": rng.randrange(2**31)})
        self.recorded = load_expected()["dual_tt_min_eig"]
        self.props: dict = {}
        self.at_unit: dict = {}

    def check(self, op, rep) -> list:
        label = op["label"]
        if op["c"] == -1.0:
            self.at_unit[label] = rep.tt_min_eig
            refs = {"recorded": self.recorded[label]}
        else:
            refs = {"c^2 x value at c = -1": op["c"] ** 2
                    * self.at_unit[label]}
        return check_verdict(rep, refs)


WORKLOADS = {w.name: w for w in (CliAcceptance, HpSweep, DualScale)}


# ---------------------------------------------------------------------------
# running and measuring
# ---------------------------------------------------------------------------

def call(workload, op, traced_path=None) -> dict:
    seconds, fails, extra = workload.run(op, traced_path)
    return {"id": op["id"], "seconds": seconds, "failures": fails, **extra}


def measure(workload, seconds: float) -> tuple[list, float, list]:
    """Cycle through the operation list until ``seconds`` have passed,
    finishing at least one whole cycle.  Returns one record per call, the
    peak RSS after the first cycle and the probe times.

    The peak RSS is read after the first cycle because the allocator's
    high-water mark grows with the number of calls, which the deadline
    makes vary.  The probe, a bare interpreter start, runs before every
    call; see ``end_to_end`` for why."""
    ops, records, probes = workload.ops, [], []
    peak = None
    start = time.perf_counter()
    while len(records) < len(ops) or time.perf_counter() - start < seconds:
        probes.append(run_child(PROBE_ARGS)[0])
        records.append(call(workload, ops[len(records) % len(ops)]))
        if len(records) == len(ops):
            peak = workload.peak_rss_mb()
    return records, peak, probes


def by_op(records: list) -> dict:
    """Records grouped by operation id, in first-seen order."""
    groups: dict = {}
    for r in records:
        groups.setdefault(r["id"], []).append(r)
    return groups


def end_to_end(workload, records: list, peak: float, setup: list,
               probes: list) -> tuple[dict, dict]:
    """End-to-end metrics, and the same timings in plain seconds.

    On a shared two-vCPU virtual machine the speed drifts by 20 to 60
    percent over minutes, which no run short enough to repeat twenty times
    can average away.  Each timing is therefore divided by the median probe
    time of the same run: the program's cost in units of a bare interpreter
    start, which no change to crosscurv can move.  setup_s stays in
    seconds."""
    per_op = {k: statistics.median(r["seconds"] for r in v)
              for k, v in by_op(records).items()}
    probe = statistics.median(probes)
    largest = statistics.median(r["seconds"] for r in records
                                if r["id"] in workload.largest)
    seconds = {"wall_s": sum(per_op.values()), "largest_op_s": largest,
               "probe_s": probe}
    return {
        "setup_s": statistics.median(setup),
        "wall_rel": seconds["wall_s"] / probe,
        "peak_rss_mb": peak,
        "largest_op_rel": seconds["largest_op_s"] / probe,
    }, seconds


def load_worker_spans(workload, trace_dir: Path) -> tuple[list, list]:
    """Spans of every traced cold process, re-indexed into one list, and
    the per-process records."""
    spans_all, workers = [], []
    for i, op in enumerate(workload.ops):
        path = trace_dir / f"op{i:03d}.json"
        if not path.is_file():  # the command failed; its check says how
            continue
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        base = len(spans_all)
        for s in rec["spans"]:
            s["op"] = op["id"]
            if s["parent"] is not None:
                s["parent"] += base
            spans_all.append(s)
        workers.append({"op": op, "sympy_loaded": rec["sympy_loaded"]})
    return spans_all, workers


def per_layer(table: dict, spans_list: list) -> dict:
    """Per-layer metrics from a span summary (see ``PER_LAYER``)."""
    def total(names, key="self_s"):
        zero = 0.0 if key.endswith(("_s", "_mb")) else 0
        return sum((table.get(n, {}).get(key, zero) for n in names), zero)

    def layer(prefix, key="self_s"):
        return total([n for n in table if n.startswith(prefix + ".")], key)

    chains_per_op: dict = {}
    for s in spans_list:
        if s["name"] in CHAINS:
            chains_per_op[s["op"]] = chains_per_op.get(s["op"], 0) + 1
    return {
        "cli.s": layer("cli"),
        "models.s": layer("models"),
        "models.build_s": total(["models.build_model"]),
        "models.frame_audit_s": total(["models.frame_rule_audit"]),
        "models.frame_audit_calls": total(["models.frame_rule_audit"],
                                          "calls"),
        "models.frame_audit_peak_mb": total(["models.frame_rule_audit"],
                                            "peak_mb"),
        "tensors.s": layer("tensors"),
        "tensors.calls": layer("tensors", "calls"),
        "hessian.s": layer("hessian"),
        "hessian.term_matrix_s": total(["hessian.term_matrix"]),
        "hessian.term_matrix_calls": total(["hessian.term_matrix"], "calls"),
        "hessian.assemble_s": total(["hessian.assemble_tt_remainder",
                                     "hessian.assemble_quadform",
                                     "hessian.tt_basis"]),
        "hessian.assemble_peak_mb": total(["hessian.assemble_tt_remainder"],
                                          "peak_mb"),
        "hessian.rayleigh_s": total(["hessian.min_eigen_tt"]),
        "hessian.rayleigh_samples": total(["hessian.min_eigen_tt"],
                                          "samples"),
        "jacobi.s": layer("jacobi"),
        "jacobi.calls": layer("jacobi", "calls"),
        "jacobi.rotations": layer("jacobi", "rotations"),
        "ledger.s": layer("ledger"),
        "ledger.catalog_s": total(["ledger.verify_identity_numeric",
                                   "ledger.identity_catalog"]),
        "ledger.catalog_trials": total(["ledger.verify_identity_numeric"],
                                       "trials"),
        "ledger.chains_s": total(CHAINS),
        "ledger.chain_calls": max(chains_per_op.values(), default=0),
        "report.render_s": layer("report"),
        "report.bytes": total(["report.render"], "bytes"),
    }


def traced_run(workload) -> tuple[dict, list, list, dict]:
    """Each operation once untraced and then once traced, so that the
    tracing overhead compares calls made seconds apart.  Returns per-layer
    metrics, the records of both, the spans and the self-time breakdown of
    the first of the largest operations."""
    import crosscurv
    import spans as spanlib
    tracer = spanlib.Tracer()
    cold = isinstance(workload, CliAcceptance)
    trace_dir = OUT / "worker-spans"
    if cold:
        trace_dir.mkdir(parents=True, exist_ok=True)
        for stale in trace_dir.glob("op*.json"):
            stale.unlink()
    untraced, traced = [], []
    for i, op in enumerate(workload.ops):
        untraced.append(call(workload, op))
        tracer.op = op["id"]
        if cold:
            traced.append(call(workload, op, trace_dir / f"op{i:03d}.json"))
            continue
        tracer.instrument(crosscurv)
        try:
            traced.append(call(workload, op))
        finally:
            tracer.restore()
    if cold:
        spans_list, workers = load_worker_spans(workload, trace_dir)
        sympy_loaded = sum(w["sympy_loaded"] for w in workers
                           if w["op"]["command"] in ("model", "verify",
                                                     "certify"))
    else:
        spans_list, sympy_loaded = tracer.spans, 0
    own = spanlib.self_times(spans_list)
    table = spanlib.summarize(spans_list, own)
    metrics = per_layer(table, spans_list)
    wall = sum(r["seconds"] for r in traced)
    untraced_wall = sum(r["seconds"] for r in untraced)
    metrics.update({
        "cli.sympy_loaded": sympy_loaded,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.remainder_s": wall - sum(row["self_s"]
                                        for row in table.values()),
        "trace.spans": len(spans_list),
    })
    for command in CLI_COMMANDS + ("ledger",):
        times = [r["seconds"] for r in untraced
                 if cold and r["id"].split(":")[0] == command]
        metrics[f"cli.{command}_cold_s"] = (statistics.median(times)
                                           if times else 0.0)
    breakdown = op_breakdown(spans_list, own, workload.largest[0])
    return metrics, untraced + traced, spans_list, breakdown


def op_breakdown(spans_list: list, own: list, op_id: str) -> dict:
    """Self seconds per span name within one operation, largest first."""
    out: dict = {}
    for s, seconds in zip(spans_list, own):
        if s["op"] == op_id:
            out[s["name"]] = out.get(s["name"], 0.0) + seconds
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crosscurv" / "__init__.py").is_file():
        sys.stderr.write(f"no crosscurv sources under {SRC}; run the "
                         "benchmark from a source checkout\n")
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)

    workload = WORKLOADS[args.workload](args.seed)
    if not compileall.compile_dir(str(SRC / "crosscurv"), quiet=1):
        sys.stderr.write("byte-compiling src/crosscurv failed\n")
        return 2
    cold_import_times(1)  # brings the files into the page cache
    setup = cold_import_times(SETUP_IMPORTS)
    workload.prepare()
    env = environment()

    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "setup_import_s": setup}
    if args.trace:
        metrics, records, spans_list, breakdown = traced_run(workload)
        metrics.update(import_profile())
        metrics = {k: metrics[k] for k in PER_LAYER}
        units = {k: PER_LAYER[k][0] for k in PER_LAYER}
        record["largest_op_breakdown"] = breakdown
        record["spans"] = spans_list
    else:
        records, peak, probes = measure(workload, args.seconds)
        metrics, seconds = end_to_end(workload, records, peak, setup, probes)
        units = END_TO_END
        record.update({"probe_s": probes, "seconds_metrics": seconds,
                       "cycles": len(records) / len(workload.ops)})

    ops = {op["id"]: op for op in workload.ops}
    for r in records:
        r.update(workload.op_properties(ops[r["id"]]))
    failed = sum(1 for r in records if r["failures"])
    record.update({"operations": records, "metrics": metrics})
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"# {workload.name} seed={args.seed} environment: "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for op_id, group in by_op(records).items():
        fails = sorted({f for r in group for f in r["failures"]})
        status = "ok" if not fails else "FAILED " + "; ".join(fails)
        props = " ".join(f"{k}={group[0][k]:.4g}" for k in
                         ("n", "dim", "nnz_share") if k in group[0])
        median = statistics.median(r["seconds"] for r in group)
        print(f"# op {op_id:<22} {median:8.3f} s x{len(group)}  {props}  "
              f"{status}")
    if args.trace:
        for key, sec in list(record["largest_op_breakdown"].items())[:6]:
            print(f"# {workload.largest[0]} self {key:<34} {sec:8.3f} s")
    for key, value in metrics.items():
        print(f"# metric {key:<28} {value:.6g} {units[key]}")
    for key, value in record.get("seconds_metrics", {}).items():
        print(f"# in seconds {key:<24} {value:.6g} s")
    print(f"# failed_share = {failed} failed / {len(records)} attempted = "
          f"{failed / len(records):.4g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
