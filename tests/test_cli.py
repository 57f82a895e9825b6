"""Command-line interface: exit codes, config resolution, output formats."""

import contextlib
import io
import json
from pathlib import Path

import pytest

import crosscurv.cli as cli
from crosscurv.jacobi import JacobiConvergenceError
from crosscurv.models import ModelValidationError
from crosscurv.report import render_json


def run(args):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(args))
    except SystemExit as e:
        code = e.code
    return code, out.getvalue(), err.getvalue()


FAST = ("--trials", "3", "--seed", "0")


def test_model_ok():
    code, out, _ = run(["model", "--space", "cp", "--m", "2"])
    assert code == 0
    assert "model cp2:" in out


def test_sphere_accepts_m_zero():
    code, out, _ = run(["certify", "--space", "sphere", "--m", "0",
                        "--p", "2", "--n", "5", *FAST,
                        "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["model_constants"]["label"] == "sphere5"


def test_verify_exits_required_failure():
    code, out, _ = run(["verify", "--space", "cp", "--m", "2", *FAST])
    assert code == 4


@pytest.mark.parametrize("space,m", [("cp", "2"), ("hp", "1"), ("op", "2")])
def test_verify_fails_on_every_projective_family(space, m):
    code, _, _ = run(["verify", "--space", space, "--m", m, *FAST])
    assert code == 4


def test_ledger_and_report_exit_clean():
    assert run(["ledger"])[0] == 0
    assert run(["report", "--space", "hp", "--m", "2", *FAST])[0] == 0


CONFIG_ERRORS = [
    ["model", "--space", "sphere"],                      # missing --n
    ["model", "--space", "cp", "--m", "0"],              # cp needs m >= 2
    ["model", "--space", "cp", "--m", "2", "--n", "6"],  # --n is sphere-only
    ["model", "--space", "op", "--m", "3"],              # op is m = 2 only
    ["model", "--space", "cp", "--m", "2", "--c", "-1"],
    ["certify", "--space", "cp", "--m", "2", "--p", "1"],
    ["model", "--config", "/nonexistent/path.cfg"],
    ["model", "--space", "cp", "--m", "2", "--format", "xml"],
    ["bogus"],
    ["model", "--space", "hp", "--m", "1", "--c", "nan"],
    ["model", "--space", "hp", "--m", "1", "--c", "inf"],
    ["certify", "--space", "cp", "--m", "2", "--p", "nan"],
    ["certify", "--space", "cp", "--m", "2", "--p", "inf"],
    ["verify", "--space", "cp", "--m", "2", "--tol", "nan"],
]


@pytest.mark.parametrize("args", CONFIG_ERRORS,
                         ids=[" ".join(a) for a in CONFIG_ERRORS])
def test_config_errors_exit_2(args):
    code, _, err = run(args)
    assert code == 2


def test_validation_gate_exits_3(monkeypatch):
    def boom(*a, **k):
        raise ModelValidationError("synthetic gate failure")
    monkeypatch.setattr(cli, "build_model", boom)
    code, _, err = run(["model", "--space", "cp", "--m", "2"])
    assert code == 3
    assert "validation" in err


@pytest.mark.parametrize("command", ["certify", "report"])
def test_eigensolver_failure_exits_5(monkeypatch, command):
    def boom(*a, **k):
        raise JacobiConvergenceError("synthetic divergence")
    monkeypatch.setattr(cli, "stability_verdict", boom)
    code, _, err = run([command, "--space", "cp", "--m", "2", *FAST])
    assert code == 5
    assert "eigensolver" in err


def test_certify_at_large_scale_exits_0():
    code, out, err = run(["certify", "--space", "hp", "--m", "2",
                          "--c", "1e4", *FAST, "--format", "json"])
    assert code == 0, err
    notes = json.loads(out)["certification"]["discrepancy_notes"]
    assert not any("rayleigh" in note for note in notes)


def test_model_command_audits_once(monkeypatch):
    import crosscurv.models as models
    audit = models.frame_rule_audit
    calls = []

    def counted(model):
        calls.append(model.label)
        return audit(model)

    monkeypatch.setattr(models, "frame_rule_audit", counted)
    monkeypatch.setattr(cli, "frame_rule_audit", counted, raising=False)
    code, out, _ = run(["model", "--space", "hp", "--m", "2",
                        "--format", "json"])
    assert code == 0
    assert calls == ["hp2"]
    assert json.loads(out)["model_constants"]["frame_audit"]


def test_config_file_merge_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("space=hp\nm=2\ntrials=3\nseed=4\n")
    code, out, _ = run(["model", "--config", str(cfg)])
    assert code == 0
    assert "model hp2:" in out
    # a flag beats the file for the same key
    code, out, _ = run(["model", "--config", str(cfg), "--m", "1"])
    assert code == 0
    assert "model hp1:" in out


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("space=cp\nm=2\nwibble=1\n")
    code, _, err = run(["model", "--config", str(cfg)])
    assert code == 2


def test_out_flag_writes_same_bytes(tmp_path):
    target = tmp_path / "doc.json"
    args = ["certify", "--space", "cp", "--m", "2", *FAST, "--format", "json"]
    _, stdout_doc, _ = run(args)
    code, piped, _ = run([*args, "--out", str(target)])
    assert code == 0
    assert target.read_text() == stdout_doc


def test_csv_schema():
    code, out, _ = run(["verify", "--space", "cp", "--m", "2", *FAST,
                        "--format", "csv"])
    lines = out.strip().splitlines()
    assert lines[0] == "kind,id,model,value,threshold,outcome"
    assert len(lines) > 8
    for row in lines[1:]:
        assert row.split(",")[-1] in ("PASS", "FAIL", "MATCH", "MISMATCH",
                                      "INFO")


def test_verify_rerun_is_byte_identical():
    args = ["verify", "--space", "hp", "--m", "2", "--trials", "5",
            "--seed", "1", "--format", "json"]
    assert run(args)[1] == run(args)[1]


def test_certify_rerun_is_byte_identical():
    args = ["certify", "--space", "cp", "--m", "2", *FAST,
            "--format", "json"]
    assert run(args)[1] == run(args)[1]


def test_json_document_round_trips():
    code, out, _ = run(["certify", "--space", "cp", "--m", "2", *FAST,
                        "--format", "json"])
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert render_json(doc) == out


def test_json_floats_carry_17_significant_digits():
    code, out, _ = run(["certify", "--space", "cp", "--m", "2", *FAST,
                        "--format", "json"])
    doc = json.loads(out)
    eig = doc["certification"]["tt_min_eig"]
    # repr round-trip precision: the parsed value reproduces its source text
    assert float(repr(eig)) == eig


def test_space_map_and_defaults():
    assert cli.SPACE_TO_FAMILY == {"cp": "complex", "hp": "quaternionic",
                                   "op": "octonionic", "sphere": "sphere"}
    assert cli.DEFAULTS["p"] == 2.0
    assert cli.DEFAULTS["seed"] == 0


def test_memory_budget_refuses_before_building(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("build_model called for a refused model")

    monkeypatch.setattr(cli, "build_model", no_build)
    code, out, err = run(["model", "--space", "sphere", "--n", "400"])
    assert code == 2
    assert out == ""
    assert "dimension 400" in err and "GiB" in err


def test_memory_budget_admits_every_benchmarked_size():
    # hp10 (n = 40) is the largest model the tests and the benchmark build
    assert cli.memory_estimate(40) <= cli.MEMORY_BUDGET_BYTES
    assert cli.memory_estimate(78) <= cli.MEMORY_BUDGET_BYTES
    assert cli.memory_estimate(79) > cli.MEMORY_BUDGET_BYTES


@pytest.mark.parametrize("args,n", [(["--space", "hp", "--m", "4"], 16),
                                    (["--space", "sphere", "--n", "24"], 24)])
def test_memory_estimate_bounds_traced_peak(args, n):
    import tracemalloc

    tracemalloc.start()
    try:
        code, _, _ = run(["certify", *args, *FAST])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= cli.memory_estimate(n)


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("command", ["model", "certify"])
@pytest.mark.parametrize("name,args", [
    ("op2", ["--space", "op", "--m", "2"]),
    ("hp2_dual", ["--space", "hp", "--m", "2", "--sign", "noncompact"]),
])
def test_numeric_documents_are_pinned(command, name, args):
    code, out, err = run([command, *args, "--format", "json", "--seed", "3"])
    assert code == 0, err
    golden = (GOLDEN / f"{command}_{name}.json").read_text(encoding="utf-8")
    assert out == golden
