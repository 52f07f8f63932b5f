"""Self-check of the benchmark's output checks.

    python3 perfbench/run.py --self-check

For every workload, one op of each kind runs through the same `attempt`
path the timed loop uses and must pass its check.  Then its output is
corrupted as a wrong program would corrupt it, and the check must report an
error; an op that raises must be reported too.  Exit status 0 means every
check passed what it should and caught what it should.
"""
from __future__ import annotations

import dataclasses
import re
from fractions import Fraction

import workloads
from commonality.certificate import EXPRESSION_KEYS


def _bump_first_digit(text):
    return re.sub(r"\d", lambda m: str((int(m.group()) + 1) % 10), text, count=1)


def corrupt(kind, out):
    """The output of one op with one value made wrong."""
    if kind == "catalog":
        return out[0] + 1e-6, out[1]
    if kind == "tree":
        rep, th, mh = out
        return dataclasses.replace(rep, phi=rep.phi + 1), th, mh
    if kind == "pendant":
        rep, glued, tg, mg = out
        return rep, glued, tg - 1.0, mg
    if kind.startswith("float:"):
        reports, vals = out
        vals = vals.copy()
        vals[EXPRESSION_KEYS.index("vA")] += 1e-3
        return reports, vals
    if kind.startswith("exact:"):
        reports, va, vb = out
        return reports, va + Fraction(1, 10 ** 6), vb
    if kind.startswith("cli:"):
        code, stdout, stderr = out
        return code, _bump_first_digit(stdout), stderr
    raise KeyError(kind)


def main(root, attempt) -> int:
    """attempt is the timed loop's run-and-check function."""
    bad = []
    for name in workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name](1, root)
        wl.setup()
        seen = set()
        for op in wl.round(0):
            if op.kind in seen:
                continue
            seen.add(op.kind)
            outputs = []

            def run_and_keep(op=op):
                outputs.append(op.run())
                return outputs[-1]

            _, problems = attempt(workloads.Op(op.kind, op.label, run_and_keep, op.check))
            if problems:
                bad.append(f"{name}/{op.kind}: correct output rejected: {problems[:2]}")
                continue
            wrong = workloads.Op(op.kind, op.label, lambda: corrupt(op.kind, outputs[0]),
                                 op.check)
            _, problems = attempt(wrong)
            if not problems:
                bad.append(f"{name}/{op.kind}: corrupted output passed its check")
                continue
            print(f"ok\t{name}\t{op.kind}\tcaught: {problems[0][:100]}")
    if not attempt(workloads.Op("raise", "raise", lambda: 1 // 0, lambda out: []))[1]:
        bad.append("an op that raised was not reported")
    for line in bad:
        print("FAIL\t" + line)
    print("self-check " + ("failed" if bad else "passed"))
    return 1 if bad else 0
