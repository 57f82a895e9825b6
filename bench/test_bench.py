"""Tests of the benchmark's own machinery.

    python3 -m pytest bench -q
"""

import contextlib
import io
import json
import sys
import types

import pytest

import run
import spans

sys.path.insert(0, str(run.SRC))


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 7]
    tracer = spans.Tracer(clock=fake_clock(0, 1, 2, 3, 4, 5, 7, 10))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    names = [s["name"] for s in tracer.spans]
    own = dict(zip(names, spans.self_times(tracer.spans)))
    assert own == {"root": 5, "a": 2, "b": 1, "c": 2}
    assert sum(own.values()) == 10
    assert [s["parent"] for s in tracer.spans] == [None, 0, 1, 0]
    table = spans.summarize(tracer.spans, spans.self_times(tracer.spans))
    assert table["root"] == {"self_s": 5, "calls": 1}


def test_covered_merges_overlapping_intervals():
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.covered([]) == 0


def test_wrapped_call_returns_result_and_restores_binding():
    def double(x):
        return 2 * x

    ns = types.SimpleNamespace(double=double)
    tracer = spans.Tracer()
    tracer.op = "op-1"
    tracer.patch(ns, "double", "demo.double")
    assert ns.double(21) == 42
    assert [(s["name"], s["op"]) for s in tracer.spans] == [
        ("demo.double", "op-1")]
    tracer.restore()
    assert ns.double is double


def test_recursive_call_records_one_span():
    tracer = spans.Tracer()

    def countdown(k):
        return 0 if k == 0 else 1 + ns.countdown(k - 1)

    ns = types.SimpleNamespace(countdown=countdown)
    tracer.patch(ns, "countdown", "demo.countdown")
    assert ns.countdown(5) == 5
    assert len(tracer.spans) == 1


def test_instrumented_library_returns_the_same_results():
    import crosscurv
    from crosscurv import hessian, models
    model = models.build_model("complex", 2, 1.0)
    plain = hessian.stability_verdict(model, seed=3)
    tracer = spans.Tracer()
    assert tracer.instrument(crosscurv) > 0
    try:
        traced = hessian.stability_verdict(models.build_model(
            "complex", 2, 1.0), seed=3)
    finally:
        tracer.restore()
    assert traced.tt_min_eig == plain.tt_min_eig
    assert traced.rotations == plain.rotations
    table = spans.summarize(tracer.spans, spans.self_times(tracer.spans))
    assert table["jacobi.jacobi_eigs"]["rotations"] >= plain.rotations
    assert table["hessian.min_eigen_tt"]["samples"] == plain.samples
    assert table["models.frame_rule_audit"]["calls"] == 1
    assert hessian.jacobi_eigs is crosscurv.jacobi.jacobi_eigs


def cli_doc(argv):
    from crosscurv import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def certify_cp2():
    return cli_doc(["certify", *run.MODELS["cp2"][3], "--format", "json"])


def test_correct_certificate_passes(certify_cp2):
    code, text = certify_cp2
    assert run.check_cli("certify", "cp2", code, text, run.load_expected(),
                         eigh_min=-4.0) == []


def test_wrong_eigenvalue_counts_as_failure(certify_cp2):
    code, text = certify_cp2
    doc = json.loads(text)
    doc["certification"]["tt_min_eig"] = -4.001
    fails = run.check_cli("certify", "cp2", code, json.dumps(doc),
                          run.load_expected(), eigh_min=-4.0)
    assert len(fails) == 2 and all("tt_min_eig" in f for f in fails)


def test_wrong_exit_code_and_flags_count_as_failures():
    code, text = cli_doc(["ledger", "--format", "json"])
    expected = run.load_expected()
    assert run.check_cli("ledger", None, code, text, expected) == []
    doc = json.loads(text)
    doc["ledger_comparisons"][0]["match"] = not doc[
        "ledger_comparisons"][0]["match"]
    fails = run.check_cli("ledger", None, 5, json.dumps(doc), expected)
    assert len(fails) == 2


def test_warm_workload_counts_a_wrong_eigenvalue():
    rep = types.SimpleNamespace(tt_min_eig=1704.5, discrepancy_notes=[])
    assert run.check_verdict(rep, {"recorded": 1704.0}) != []
    rep.tt_min_eig = 1704.0 * (1 + 1e-12)
    assert run.check_verdict(rep, {"recorded": 1704.0}) == []
    rep.discrepancy_notes = [run.RAYLEIGH_NOTE]
    assert run.check_verdict(rep, {"recorded": 1704.0}) != []


def test_dual_scale_uses_every_magnitude():
    for seed in range(20):
        ops = run.DualScale(seed).ops
        scaled = [-op["c"] for op in ops if op["c"] != -1.0]
        assert sorted(set(scaled)) == sorted(run.SCALE_GRID)
        assert len(scaled) == len(run.DUAL_MODELS)
    assert run.DualScale(4).ops == run.DualScale(4).ops
