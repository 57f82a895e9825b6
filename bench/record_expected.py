"""Record the reference outcomes that bench/run.py checks against.

    PYTHONPATH=src python3 bench/record_expected.py

Run it at the commit whose results the benchmark pins; it rewrites
bench/expected.json.  Identity PASS/FAIL outcomes, ledger MATCH/MISMATCH
flags and model constants come from the command line's JSON documents;
minimal trace-free eigenvalues come from stability_verdict and are checked
against numpy.linalg.eigh on the same form before they are recorded.
"""

import contextlib
import io
import json

import run
from crosscurv import cli, hessian, models


def cli_doc(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv)
    return json.loads(buf.getvalue())


def certified_min(family, m, c, n=None):
    model = models.build_model(family, m, c, n=n)
    value = hessian.stability_verdict(model).tt_min_eig
    oracle = run.form_properties(model, hessian)["eigh_min"]
    if not run.rel_close(value, oracle):
        raise SystemExit(f"{model.label}: jacobi {value} vs eigh {oracle}")
    return value


def main():
    out = {"models": {}, "identities": {}}
    for label, (_, _, _, flags) in run.MODELS.items():
        doc = cli_doc(["verify", *flags, "--format", "json"])
        out["models"][label] = {k: doc["model_constants"][k]
                                for k in ("R_norm2", "lambda")}
        out["identities"][label] = {f["id"]: f["outcome"]
                                    for f in doc["lemma_findings"]}
    doc = cli_doc(["ledger", "--format", "json"])
    out["ledger"] = {f"{r['chain']}:{r['term']}": r["match"]
                     for r in doc["ledger_comparisons"]}
    out["hp_tt_min_eig"] = {f"hp{m}": certified_min("quaternionic", m, 1.0)
                            for m in range(1, 11)}
    out["dual_tt_min_eig"] = {label: certified_min(family, m, -1.0, n)
                              for label, (family, m, n)
                              in run.DUAL_MODELS.items()}
    with open(run.BENCH / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
