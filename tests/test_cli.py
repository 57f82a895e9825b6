"""Command-line interface: exit codes, config resolution, output formats."""

import atexit
import contextlib
import gc
import io
import json
from pathlib import Path

import pytest

import crosscurv.cli as cli
from crosscurv import hessian, tensors
from crosscurv.jacobi import JacobiConvergenceError
from crosscurv.models import ModelValidationError
from crosscurv.report import ReportDocument, render_json


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


def test_main_registers_one_exit_freeze_and_keeps_the_collector(monkeypatch):
    # a registry with atexit's semantics: unregister drops every copy
    registered = []

    def unregister(func):
        registered[:] = [f for f in registered if f != func]

    monkeypatch.setattr(atexit, "register", registered.append)
    monkeypatch.setattr(atexit, "unregister", unregister)
    enabled = gc.isenabled()
    codes = [run(argv)[0] for argv in (["model", "--space", "cp", "--m", "2"],
                                       ["model", "--space", "sphere"],
                                       ["bogus"])]
    assert codes == [0, 2, 2]
    assert gc.isenabled() == enabled
    assert gc.get_freeze_count() == 0
    assert registered == [gc.freeze]


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
    ["verify", "--space", "cp", "--m", "2", "--tol", "0"],
    ["verify", "--space", "cp", "--m", "2", "--trials", "0"],
    ["certify", "--space", "hp", "--m", "1", "--seed", "-1"],
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


def _inconsistent_certificates(monkeypatch):
    import dataclasses

    certify = hessian.min_eigen_tt

    def inconsistent(*args, **kwargs):
        return dataclasses.replace(certify(*args, **kwargs), consistent=False)

    monkeypatch.setattr(hessian, "min_eigen_tt", inconsistent)


RAYLEIGH_NOTE = "rayleigh sample fell below the jacobi minimum"


def test_inconsistent_certificate_exits_5_after_the_document(monkeypatch):
    _inconsistent_certificates(monkeypatch)
    code, out, err = run(["certify", "--space", "cp", "--m", "2", *FAST,
                          "--format", "json"])
    assert code == 5
    assert err == ("numeric inconsistency: rayleigh sample below "
                   "eigenvalue minimum\n")
    assert RAYLEIGH_NOTE in json.loads(out)["certification"][
        "discrepancy_notes"]


def test_report_records_an_inconsistent_certificate(monkeypatch):
    _inconsistent_certificates(monkeypatch)
    code, out, err = run(["report", "--space", "cp", "--m", "2", *FAST,
                          "--format", "json"])
    assert code == 0, err
    assert RAYLEIGH_NOTE in json.loads(out)["certification"][
        "discrepancy_notes"]


def test_certify_at_large_scale_exits_0():
    code, out, err = run(["certify", "--space", "hp", "--m", "2",
                          "--c", "1e4", *FAST, "--format", "json"])
    assert code == 0, err
    notes = json.loads(out)["certification"]["discrepancy_notes"]
    assert not any("rayleigh" in note for note in notes)


@pytest.mark.parametrize("p", ["42", "44"])
def test_epsilon_beyond_the_double_range_reads_inf(p):
    # (p/2) |R|^(p-2) eig_min overflows at p = 42 and |R|^(p-2) alone at
    # p = 44; both print inf and exit 0
    code, out, err = run(["certify", "--space", "hp", "--m", "2", "--c", "1e6",
                          "--p", p, *FAST, "--format", "json"])
    assert code == 0, err
    cert = json.loads(out)["certification"]
    assert cert["epsilon"] == "inf"
    assert cert["tt_verdict"] == "stable-strict"


def test_sphere_conformal_direction_is_neutral_off_integral_scale():
    # q(mu_1) is exactly 0 on the round sphere (Obata's equality case); at
    # c = 0.3 it is evaluated from the exact value of the float c
    code, out, err = run(["certify", "--space", "sphere", "--n", "9",
                          "--c", "0.3", *FAST, "--format", "text"])
    assert code == 0, err
    assert "flag: conformal direction exactly neutral" in out
    assert "conformal direction negative" not in out


def test_verify_outcomes_do_not_depend_on_the_scale():
    # at c = 1e-6 an absolute floor used to pass compose-self-structure,
    # norm-closed-form and kn-pairing-reduction, which fail at c = 1
    docs = {}
    for c in ("1", "1e-6"):
        code, out, _ = run(["verify", "--space", "hp", "--m", "2", "--c", c,
                            "--seed", "7", "--trials", "4", "--format", "json"])
        assert code == 4
        docs[c] = {f["id"]: f["outcome"]
                   for f in json.loads(out)["lemma_findings"]}
    assert docs["1e-6"] == docs["1"]
    for lemma in ("compose-self-structure", "norm-closed-form",
                  "kn-pairing-reduction"):
        assert docs["1e-6"][lemma] == "FAIL"


@pytest.mark.parametrize("args", [
    ["model", "--space", "hp", "--m", "2", "--c", "1e-200"],
    ["certify", "--space", "hp", "--m", "2", "--c", "1e76", *FAST],
], ids=["model-1e-200", "certify-1e76"])
def test_scale_outside_the_certified_range_exits_3(args):
    code, out, err = run(args)
    assert code == 3
    assert err.startswith("model validation failed")
    assert "Traceback" not in err and out == ""


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


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"space=hp\xff\n")
    code, out, err = run(["model", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert err.startswith(f"config error: config file {cfg} is not UTF-8")
    assert "Traceback" not in err


def test_config_file_with_a_byte_order_mark_reads_as_without(tmp_path):
    # a UTF-8 file that begins with the byte-order mark, as some editors
    # write it, gives the document of the same file without the mark
    text = b"space=hp\nm=2\nformat=json\n"
    docs = []
    for name, data in (("plain.cfg", text),
                       ("bom.cfg", b"\xef\xbb\xbf" + text)):
        cfg = tmp_path / name
        cfg.write_bytes(data)
        code, out, err = run(["model", "--config", str(cfg)])
        assert code == 0 and err == ""
        docs.append(out)
    assert docs[0] == docs[1]


def test_options_may_come_before_the_command():
    args = ["--space", "cp", "--m", "2", "--format", "json"]
    assert run(["model", *args]) == run([*args, "model"])


def test_help_lists_each_command():
    code, out, _ = run(["--help"])
    assert code == 0
    flat = " ".join(out.split())
    for name, (helptext, _) in cli.SUBCOMMANDS.items():
        assert f"{name}: {helptext}" in flat


@pytest.mark.parametrize("command,text", [
    ("model", "space=cp\nm=2\nformat=xml\n"),
    ("ledger", "space=xx\n"),
    ("ledger", "sign=both\n"),
], ids=["format", "ledger-space", "ledger-sign"])
def test_config_file_values_are_checked_like_flags(tmp_path, command, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code, out, err = run([command, "--config", str(cfg)])
    assert code == 2
    assert err.startswith("config error: unknown ") and out == ""


def test_negative_seed_in_a_file_is_refused_before_building(tmp_path,
                                                            monkeypatch):
    def boom(*a, **k):
        raise AssertionError("built a model for a refused seed")
    monkeypatch.setattr(cli, "build_model", boom)
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("space=hp\nm=1\nseed=-1\n")
    code, out, err = run(["verify", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert err.startswith("config error: --seed")


def test_out_flag_writes_same_bytes(tmp_path):
    target = tmp_path / "doc.json"
    args = ["certify", "--space", "cp", "--m", "2", *FAST, "--format", "json"]
    _, stdout_doc, _ = run(args)
    code, piped, _ = run([*args, "--out", str(target)])
    assert code == 0
    assert target.read_text() == stdout_doc


@pytest.mark.parametrize("via", ["flag", "config"])
def test_unwritable_out_exits_2(tmp_path, via):
    target = tmp_path / "missing" / "doc.json"
    args = ["model", "--space", "cp", "--m", "2"]
    if via == "flag":
        args += ["--out", str(target)]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out={target}\n")
        args += ["--config", str(cfg)]
    code, out, err = run(args)
    assert code == 2
    assert err.startswith(f"config error: cannot write {target}")
    assert "Traceback" not in err and out == ""
    assert not target.exists()


@pytest.mark.parametrize("path", ["missing/doc.json", "."],
                         ids=["missing-folder", "directory"])
def test_unwritable_out_is_refused_before_building(tmp_path, monkeypatch,
                                                   path):
    # a missing directory, or an existing directory as the path itself
    def no_build(*args, **kwargs):
        raise AssertionError("build_model called for an unwritable --out")

    monkeypatch.setattr(cli, "build_model", no_build)
    target = tmp_path / path
    code, out, err = run(["report", "--space", "hp", "--m", "3",
                          "--out", str(target)])
    assert code == 2 and out == ""
    assert err.startswith(f"config error: cannot write {target}")


def test_rayleigh_refinement_converges_at_small_scale():
    # the stop rules of the refinement scale with the form, so at
    # c = 1e-6 it ends as close to the Jacobi minimum as at c = 1
    code, out, _ = run(["certify", "--space", "op", "--m", "2", "--c", "1e-6",
                        "--seed", "7", "--format", "json"])
    assert code == 0
    cert = json.loads(out)["certification"]
    gap = abs(cert["rayleigh_min"] - cert["tt_min_eig"])
    assert gap <= 1e-12 * abs(cert["tt_min_eig"])


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


def test_render_refuses_an_unknown_format():
    with pytest.raises(ValueError, match="xml"):
        ReportDocument().render("xml")


def test_json_sections_are_the_fields_in_order():
    # an attribute set on a document is not a section
    doc = ReportDocument(timing={"samples": 1})
    doc.extra = "not a section"
    assert list(json.loads(doc.render("json"))) == [
        "schema_version", "config", "model_constants", "lemma_findings",
        "ledger_comparisons", "certification", "timing"]


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
    for command, n in (("report", "200"), ("verify", "400")):
        code, out, err = run([command, "--space", "sphere", "--n", n])
        assert code == 2
        assert out == ""
        assert f"dimension {n}" in err and "GiB" in err


#: the first dimension each command refuses
REFUSAL = {"model": 55109, "certify": 55109, "verify": 127, "report": 127}


def test_memory_budget_admits_every_benchmarked_size():
    # hp10 (n = 40) is the largest model the tests and the benchmark
    # build; only verify and report hold n^4 arrays, so they are refused
    # by the budget, at a far smaller dimension than model and certify,
    # which stay inside it up to the int64 index limit
    assert tensors.MAX_DIMENSION**4 <= 2**63 - 1 < (tensors.MAX_DIMENSION
                                                    + 1)**4
    for command, n in REFUSAL.items():
        assert cli.memory_estimate(command, 40) <= cli.MEMORY_BUDGET_BYTES
        assert cli.memory_estimate(command, n - 1) <= cli.MEMORY_BUDGET_BYTES
        assert ((cli.memory_estimate(command, n) > cli.MEMORY_BUDGET_BYTES)
                == (n <= tensors.MAX_DIMENSION))


def test_dimension_above_the_index_limit_exits_2():
    # from n = 55109 the n^4 flat indices of R overflow int64: a config
    # error, where the build would die in numpy
    code, out, err = run(["certify", "--space", "sphere", "--n", "55109"])
    assert code == 2
    assert "55108" in err and "int64" in err
    assert "Traceback" not in err and out == ""


def test_memory_budget_follows_the_command(monkeypatch):
    # one dimension below its refusal point a command reaches the build
    # (patched to refuse, exit 3); at the point it is refused, exit 2
    def refuse(*args, **kwargs):
        raise ModelValidationError("not built")

    monkeypatch.setattr(cli, "build_model", refuse)
    for command, n in REFUSAL.items():
        for dim, want in ((n - 1, 3), (n, 2)):
            code, _, err = run([command, "--space", "sphere", "--n",
                                str(dim)])
            assert code == want, (command, dim, err)


EVERY_COMMAND = ("model", "certify", "verify", "report")


@pytest.mark.parametrize("args,n,commands", [
    (["--space", "hp", "--m", "4"], 16, EVERY_COMMAND),
    (["--space", "sphere", "--n", "24"], 24, EVERY_COMMAND),
    # verify and report are refused at this size
    (["--space", "hp", "--m", "2048"], 8192, ("model", "certify")),
    # op2 has the largest form on lines 0 and 1: 107 small-form places
    (["--space", "op", "--m", "2"], 16, EVERY_COMMAND)])
def test_memory_estimate_bounds_traced_peak(args, n, commands):
    # the arrays alone: the estimate less its allowance for the
    # interpreter, after one untraced run for the one-time allocations;
    # nothing is kept between runs, so the traced run builds every table
    # as a fresh process does.  The estimate charges the catalog alone;
    # the O(n) stages it leaves to BASE_BYTES are held here to the
    # allowance they had, in float64 words: 2^18 for the build, the audit
    # and the gates and 32 n for the structure operators, and for the form
    # 2^19 for the assembly and three RAYLEIGH_CHUNK x (8 + 1) sample
    # arrays
    import tracemalloc

    for command in commands:
        words = 2**18 + 32 * n
        if command in ("certify", "report"):
            words += 2**19 + 3 * hessian.RAYLEIGH_CHUNK * (8 + 1)
        argv = [command, *args, *FAST]
        run(argv)
        tracemalloc.start()
        try:
            code, _, _ = run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == (4 if command == "verify" else 0)
        assert peak <= (8 * words + cli.memory_estimate(command, n)
                        - cli.BASE_BYTES), command


GOLDEN = Path(__file__).resolve().parent / "golden"


#: every document a command renders: (command, format, id)
EVERY_DOCUMENT = [*((c, "json", c) for c in ("model", "certify", "verify",
                                             "report")),
                  ("report", "text", "report-text"),
                  ("report", "csv", "report-csv")]


# op2 and hp2-dual pin every document; hp5 and cp4-dual, with m >= 3
# lines, pin the json certificate and report
@pytest.mark.parametrize("command,fmt,name,args", [
    *(pytest.param(command, fmt, name, args, id=f"{name}-args{k}-{tag}")
      for k, (name, args) in enumerate([
          ("op2", ["--space", "op", "--m", "2"]),
          ("hp2_dual", ["--space", "hp", "--m", "2", "--sign", "noncompact"]),
      ])
      for command, fmt, tag in EVERY_DOCUMENT),
    *(pytest.param(command, "json", name, args, id=f"{name}-{command}")
      for name, args in [
          ("hp5", ["--space", "hp", "--m", "5"]),
          ("cp4_dual", ["--space", "cp", "--m", "4", "--sign", "noncompact"]),
      ]
      for command in ("certify", "report")),
    # off c = +-1: op2 at c = 0.3 and hp2-dual at |c| = 1e6 pin the json
    # document of every command
    *(pytest.param(command, "json", name, args, id=f"{name}-{command}")
      for name, args in [
          ("op2_c0.3", ["--space", "op", "--m", "2", "--c", "0.3"]),
          ("hp2_dual_c1e6", ["--space", "hp", "--m", "2", "--sign",
                             "noncompact", "--c", "1e6"]),
      ]
      for command in ("model", "certify", "verify", "report")),
])
def test_numeric_documents_are_pinned(command, fmt, name, args):
    code, out, err = run([command, *args, "--format", fmt, "--seed", "3"])
    # verify exits 4 on every model: the required tier holds false displays
    assert code == (4 if command == "verify" else 0), err
    suffix = {"text": "txt"}.get(fmt, fmt)
    golden = (GOLDEN / f"{command}_{name}.{suffix}").read_text(encoding="utf-8")
    assert out == golden
