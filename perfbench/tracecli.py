"""Run one command-line verb in a fresh process with the tracer installed.

    python3 perfbench/tracecli.py <trace json> <verb> [args...]

Stdout, stderr and the exit status are the command line's own.  The trace
file receives the import time of commonality.cli, the verb's run time, the
spans and their summary.
"""
import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import commonality.cli as cli
    startup = perf_counter() - t0

    import tracer as tracing

    t = tracing.Tracer()
    t.install()
    t0 = perf_counter()
    try:
        code = t.span("cli.main", cli.main, argv)
    finally:
        verb_s = perf_counter() - t0
        t.uninstall()
        sys.stdout.flush()
        with open(path, "w") as fh:
            json.dump({"startup_s": startup, "verb": argv[0], "verb_s": verb_s,
                       "spans": t.spans, "summary": t.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
