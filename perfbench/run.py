"""Benchmark of the commonality toolkit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the package is imported from
./src.  Ops run in a closed loop: one client in one process, each op
starting when the previous one has finished and its output has been checked.
The runner executes whole rounds of a workload's op mix, at least the
workload's MIN_ROUNDS, until the timed seconds reach --seconds.

--trace 0 reports the end-to-end metrics:
    setup_s      median of three set-ups (import, seeded inputs, warm-up
                 pass of each op kind), each in a fresh process, taken
                 between rounds and spread over the run
    op_p50_s     median op latency
    op_tail_s    latency at the workload's fixed tail percentile; the
                 percentile, sample count and samples beyond it are printed
                 above the result line
    ops_per_s    ops per timed second
    peak_rss_mb  peak resident memory of this process, or of the largest op
                 process for cli-verbs
Times are in reference seconds (perfbench/calibrate.py): each op's latency
is scaled by the time of a fixed reference loop timed just before and after
it, which cancels the host's drifting speed; the statistics are taken over
the scaled latencies.  The wall-clock figures are printed above the result
line and kept in the run record.
--trace 1 runs the same rounds untraced, then traced, and reports the
per-layer metrics of perfbench/tracer.py plus the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  error_rate (failed / attempted) is printed above it.  Spans
and a run record go to perfbench/out/.
"""
from __future__ import annotations

import os

# one thread per BLAS/OpenMP pool, set before numpy is first imported;
# child processes inherit it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def attempt(op, tracer=None, index=-1):
    """Run and check one op.  Returns (latency seconds, problems).  An op
    that raises counts as failed and never stops the run."""
    t0 = perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            tracer.op = index
            out = tracer.span("bench.op", op.run)
    except Exception as exc:  # noqa: BLE001 - a failing op is a measured outcome
        return perf_counter() - t0, [f"{op.label}: raised {type(exc).__name__}: {exc}"]
    latency = perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    try:
        problems = op.check(out)
    except Exception as exc:  # noqa: BLE001
        problems = [f"{op.label}: check raised {type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.active = True
    return latency, problems


def run_rounds(wl, seconds=None, rounds=None, tracer=None, between=None, cal=None):
    """Whole rounds, at least wl.MIN_ROUNDS, until the timed seconds reach
    `seconds`; or exactly `rounds` rounds.  `between(timed seconds so far)`
    is called after each round and `cal.tick()` after each op, both outside
    the timed interval."""
    latencies, starts, kinds, problems, round_s = [], [], [], [], []
    failed = 0
    while (len(round_s) < rounds) if rounds is not None else (
            len(round_s) < wl.MIN_ROUNDS or sum(round_s) < seconds):
        start = len(latencies)
        for op in wl.round(len(round_s)):
            starts.append(perf_counter())
            latency, bad = attempt(op, tracer, len(latencies))
            latencies.append(latency)
            kinds.append(op.kind)
            if cal is not None:
                cal.tick()
            if bad:
                failed += 1
                problems.extend(bad)
        round_s.append(sum(latencies[start:]))
        if between is not None:
            between(sum(round_s))
    return {"rounds": len(round_s), "round_s": round_s, "latencies": latencies,
            "starts": starts, "kinds": kinds, "failed": failed, "problems": problems}


def tail(latencies, percentile):
    """(value, samples beyond it) at the workload's fixed tail percentile,
    interpolating between order statistics."""
    xs = sorted(latencies)
    pos = (len(xs) - 1) * percentile / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return value, sum(1 for x in xs if x > value)


def setup_in_child(workload, seed):
    """One set-up in a fresh process, in reference seconds: the child times
    the reference loop right after its set-up."""
    import calibrate

    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--setup-only"], cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["setup_s"] * calibrate.REFERENCE_S / sample["loop_s"]


def timed_run(wl, args, setup_s):
    setups = []

    def sample_setup(timed):
        # one sample after the first round, the rest spread over the run
        while len(setups) < min(SETUP_SAMPLES, SETUP_SAMPLES * timed / args.seconds):
            setups.append(setup_in_child(args.workload, args.seed))

    import calibrate

    cal = calibrate.Calibrator()
    res = run_rounds(wl, seconds=args.seconds, between=sample_setup, cal=cal)
    sample_setup(args.seconds)
    rss = wl.peak_rss_mb()
    wall_lat = res["latencies"]
    lat = [x * cal.scale_at(t) for x, t in zip(wall_lat, res["starts"])]
    tail_value, beyond = tail(lat, wl.TAIL_PERCENTILE)
    timed = sum(lat)
    wall = {
        "setup_s": statistics.median(s for s, _ in setups),
        "op_p50_s": statistics.median(wall_lat),
        "op_tail_s": tail(wall_lat, wl.TAIL_PERCENTILE)[0],
        "ops_per_s": len(wall_lat) / sum(wall_lat),
    }
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_value,
        "ops_per_s": len(lat) / timed,
        "peak_rss_mb": rss,
    }
    record = {
        "rounds": res["rounds"], "round_s": res["round_s"], "samples": len(lat),
        "timed_s": sum(wall_lat), "reference_timed_s": timed, "wall_clock": wall,
        "reference_loop_s": cal.samples, "reference_loop_at": cal.at,
        "op_starts": res["starts"], "op_wall_s": wall_lat, "op_kinds": res["kinds"],
        "tail_percentile": wl.TAIL_PERCENTILE, "tail_beyond": beyond,
        "setup_samples": setups, "setup_in_process_s": setup_s,
        "p50_by_kind": {k: statistics.median(x for x, kk in zip(lat, res["kinds"]) if kk == k)
                        for k in dict.fromkeys(res["kinds"])},
    }
    print(f"{args.workload} seed {args.seed}: {len(lat)} ops in {res['rounds']} rounds, "
          f"{sum(wall_lat):.3f} timed s")
    print(f"op_tail_s is the p{wl.TAIL_PERCENTILE:g} latency over {len(lat)} samples, "
          f"{beyond} beyond it")
    print(f"reference loop {cal.loop_s() * 1e3:.3f} ms (median of {len(cal.samples)}); "
          f"wall-clock figures: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    return res, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, record


def traced_run(wl, args):
    import tracer as tracing

    os.makedirs(OUT, exist_ok=True)
    half = args.seconds / 2.0
    plain = run_rounds(wl, seconds=half)
    t = tracing.Tracer()
    t.install()
    wl.trace_dir = OUT
    try:
        traced = run_rounds(wl, rounds=plain["rounds"], tracer=t)
    finally:
        t.uninstall()
    summaries = [t.summary()]
    cli_samples = []
    spans = [span + [0] for span in t.spans]
    # traced CLI children: child n ran op n; their clocks are their own
    for proc, path in enumerate(wl.trace_files, start=1):
        if not os.path.exists(path):
            print(f"not traced: CLI op {proc - 1} wrote no trace")
            continue
        with open(path) as fh:
            child = json.load(fh)
        os.remove(path)
        summaries.append(child["summary"])
        cli_samples.append({k: child[k] for k in ("startup_s", "verb", "verb_s")})
        base = len(spans)
        spans.extend([name, start, end, parent + base if parent >= 0 else -1, proc - 1, proc]
                     for name, start, end, parent, _ in child["spans"])
    t.spans = spans
    phase = {"ops": len(traced["latencies"]), "spans": len(t.spans),
             "untraced_s": sum(plain["latencies"]), "traced_s": sum(traced["latencies"])}
    merged = tracing.merge(summaries)
    metrics, notes = tracing.per_layer_metrics(merged, cli_samples, phase)
    t.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"),
           {"workload": args.workload, "seed": args.seed})
    print(f"{args.workload} seed {args.seed}: {plain['rounds']} rounds untraced in "
          f"{phase['untraced_s']:.3f} s, traced in {phase['traced_s']:.3f} s "
          f"({len(t.spans)} spans)")
    for reason in merged["missing"].values():
        print("not traced: " + reason)
    if notes:
        print("no samples in this workload (reported as 0): " + ", ".join(notes))
    both = {"latencies": plain["latencies"] + traced["latencies"],
            "failed": plain["failed"] + traced["failed"],
            "problems": plain["problems"] + traced["problems"]}
    return both, metrics, {"rounds": plain["rounds"], "phase": phase}


def main(argv=None) -> int:
    t_start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["suite-sweep", "kernel-certify", "cli-verbs"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-check", action="store_true",
                        help="prove every op kind's output check passes and can fail")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "commonality", "__init__.py")):
        print(f"error: no package source at {os.path.relpath(SRC)}/commonality; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import commonality

    if not os.path.abspath(commonality.__file__).startswith(SRC + os.sep):
        print(f"error: commonality imported from {commonality.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.self_check:
        import selfcheck

        return selfcheck.main(ROOT, attempt)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    wl.setup()
    setup_s = perf_counter() - t_start
    import calibrate  # after the set-up, which imports numpy itself

    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "loop_s": calibrate.loop_s_now()}))
        return 0

    if args.trace:
        res, metrics, record = traced_run(wl, args)
    else:
        res, metrics, record = timed_run(wl, args, setup_s)
    attempted = len(res["latencies"])
    failed = res["failed"]
    for problem in res["problems"][:20]:
        print("check failed: " + problem)
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for name, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name}\t{value}\t{m['unit']}")

    os.makedirs(OUT, exist_ok=True)
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "problems": res["problems"], "metrics": metrics,
    })
    with open(os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
