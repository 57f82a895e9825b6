"""Run one crosscurv command in a fresh process with spans recorded.

    python3 bench/cli_worker.py SPANS_JSON ARG...

Equivalent to ``crosscurv ARG...`` except that every public crosscurv name
is wrapped by ``spans.Tracer`` before ``crosscurv.cli.main`` runs.  The
command's document goes to stdout as usual; the spans, the exit code and
whether sympy ended up loaded are written to SPANS_JSON.  The process exits
with the command's exit code.
"""

import json
import sys

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    import crosscurv.cli
    tracer.instrument(crosscurv)
    code = crosscurv.cli.main(argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "sympy_loaded": "sympy" in sys.modules,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
