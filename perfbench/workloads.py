"""The three benchmark workloads.

A workload turns its seed into rounds of ops.  A round is a fixed mix of op
kinds, and the runner only executes whole rounds, so every run measures the
same mix whatever its length.  An op calls the program through its public
functions or its command line and returns the raw output; the op's check
turns that output into a list of problems, empty when the output is right.
Checks run outside the timed interval.
"""
from __future__ import annotations

import os
import random
import resource
import signal
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

TOL = 1e-9
CHILD_TIMEOUT = 150  # seconds before a command-line op is killed


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


def derive(*keys) -> int:
    """A 31-bit seed derived from the run seed and op coordinates."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0] >> 1)


class Workload:
    """Seeded rounds of ops; subclasses define setup() and round(r)."""

    name = ""
    TAIL_PERCENTILE = None   # fixed per workload, see each subclass
    # two rounds keep at least two samples of every op kind, so the median and
    # the tail percentile sit on the same op kinds in every run
    MIN_ROUNDS = 2
    trace_dir = None         # where traced child processes write their spans
    trace_files = ()

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root

    def peak_rss_mb(self):
        """Peak resident memory of this process."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _chain_problems(label, t_first, t_second, m_vals, e, phi, exponent, floors):
    """t >= t_K3^phi / t_K2^exponent in both colours, and m >= 2^(1-e)."""
    problems = []
    for colour, t_vals in (("first", t_first), ("second", t_second)):
        t3, t2 = floors[colour]
        slack = float((t_vals - t3 ** phi / t2 ** exponent).min())
        if not slack >= -TOL:
            problems.append(f"{label}: chain slack {slack:.3g} in {colour} colour")
    slack = float((m_vals - 2.0 ** (1 - e)).min())
    if not slack >= -TOL:
        problems.append(f"{label}: m below 2^(1-e) by {-slack:.3g}")
    return problems


def _decomposition_problems(label, rep, g):
    phi, kappa = g.e - g.n + 1, 2 * g.e - 3 * g.n + 3
    if rep is None:
        return [f"{label}: triangle tree not recognized"]
    if (rep.phi, rep.kappa) != (phi, kappa):
        return [f"{label}: phi={rep.phi} kappa={rep.kappa}, want {phi} and {kappa}"]
    return []


class SuiteSweep(Workload):
    """One op checks one graph against a seeded suite of float kernels."""

    name = "suite-sweep"
    SUITE_SIZE = 1000
    TREES = 24
    PENDANTS = 12
    # 77 ops a round and at least two rounds: p85 keeps twenty samples beyond
    TAIL_PERCENTILE = 85

    def setup(self):
        from commonality import density, graphons, graphs

        self.suite = graphons.random_suite(self.SUITE_SIZE, self.seed)
        self.catalog = [(n, g) for n, g in graphs.catalog_all() if g.e <= 12]
        self.floors = {}
        for colour in ("first", "second"):
            pair = []
            for name in ("k3", "k2"):
                t = density.t_hom_many(graphs.catalog(name), self.suite)
                if colour == "second":
                    t = density.m_many(graphs.catalog(name), self.suite) - t
                pair.append(t)
            self.floors[colour] = tuple(pair)
        # warm-up: every op of round 0 against a few kernels fills the
        # canonical-form and even-expansion caches for every catalog graph
        small = {c: (t3[:12], t2[:12]) for c, (t3, t2) in self.floors.items()}
        for op in self._round(0, self.suite[:12], small):
            op.run()

    def round(self, r):
        return self._round(r, self.suite, self.floors)

    def _round(self, r, suite, floors):
        from commonality import decomposition, density, graphs

        rng = random.Random(derive(self.seed, r))
        ops = []
        for name, g in self.catalog:
            def run(g=g):
                return density.expansion_value_many(g, suite), density.m_many(g, suite)

            def check(out, name=name):
                gap = float(np.abs(out[0] - out[1]).max())
                return [] if gap <= TOL else [f"{name}: expansion gap {gap:.3g}"]

            ops.append(Op("catalog", name, run, check))

        # bag counts are stratified (every size 1..12 equally often in a round)
        # so rounds differ in shape, not in size
        for i in range(self.TREES):
            h = decomposition.random_triangle_tree(rng, 1 + i % 12)
            label = f"tree{r}.{i}"

            def run(h=h):
                rep = decomposition.find_triangle_decomposition(h)
                return rep, density.t_hom_many(h, suite), density.m_many(h, suite)

            def check(out, h=h, label=label):
                rep, th, mh = out
                problems = _decomposition_problems(label, rep, h)
                phi, kappa = h.e - h.n + 1, 2 * h.e - 3 * h.n + 3
                return problems + _chain_problems(label, th, mh - th, mh, h.e, phi, kappa,
                                                  floors)

            ops.append(Op("tree", label, run, check))

        for i in range(self.PENDANTS):
            base = decomposition.random_triangle_tree(rng, 2 + i % 4, max_vertices=11)
            kappa = 2 * base.e - 3 * base.n + 3
            t_edges = rng.randrange(kappa + 1)
            tree = graphs.Graph(t_edges + 1, [(j, rng.randrange(j)) for j in range(1, t_edges + 1)])
            u, v = rng.randrange(tree.n), rng.randrange(base.n)
            label = f"pendant{r}.{i}"

            def run(base=base, tree=tree, u=u, v=v):
                rep = decomposition.find_triangle_decomposition(base)
                glued = graphs.pendant_attach(tree, u, base, v)
                return rep, glued, density.t_hom_many(glued, suite), density.m_many(glued, suite)

            def check(out, base=base, tree=tree, label=label):
                rep, glued, tg, mg = out
                problems = _decomposition_problems(label, rep, base)
                phi, kappa = base.e - base.n + 1, 2 * base.e - 3 * base.n + 3
                if glued.e != base.e + tree.e:
                    problems.append(f"{label}: glued graph has {glued.e} edges")
                return problems + _chain_problems(label, tg, mg - tg, mg, glued.e, phi,
                                                  kappa - tree.e, floors)

            ops.append(Op("pendant", label, run, check))
        return ops


class KernelCertify(Workload):
    """One op fully verifies one kernel: five float kernels (2, 2, 3, 3 and
    4 parts) for every rational two-part kernel."""

    name = "kernel-certify"
    DENOMINATOR = 12
    # Latencies rise with the parts: the two k=2, the two k=3, k=4, then the
    # exact op.  So the median, rank 3R of 6R, sits in the middle of the k=3
    # block, not on the edge between two kinds; the exact sixth of the ops
    # forms the tail, and p92 sits in its middle with ten samples beyond it
    # from twenty rounds on.
    TAIL_PERCENTILE = 92
    MIN_ROUNDS = 20

    def setup(self):
        from commonality import certificate

        cert = certificate.load_certificate()
        self.weights_a = np.array([float(x) for x in cert.weights_a])
        self.weights_b = np.array([float(x) for x in cert.weights_b])
        self.keys = certificate.EXPRESSION_KEYS
        # warm-up: one float and one rational op fill the partition-class and
        # coefficient-vector caches
        ops = self.round(0)
        for op in (ops[0], ops[-1]):
            op.run()

    def _rational_kernel(self, rng):
        from commonality.graphons import StepGraphon

        d = self.DENOMINATOR

        def frac():
            return Fraction(int(rng.integers(1, d)), d)

        a, b, c = frac(), frac(), frac()
        wt = frac()
        return StepGraphon([[a, b], [b, c]], [wt, 1 - wt])

    def round(self, r):
        from commonality import certificate, graphons, inequalities

        rng = np.random.default_rng([self.seed, r])
        ops = []
        pos_a, pos_b = self.keys.index("vA"), self.keys.index("vB")
        keep_a = [j for j in range(16) if j != 15]
        keep_b = [j for j in range(16) if j != 14]
        for i, k in enumerate((2, 2, 3, 3, 4)):
            w = graphons.random_graphon(k, rng)
            label = f"float{r}.{i}.k{k}"

            def run(w=w):
                return (inequalities.standard_battery(w),
                        certificate.evaluate_all_expressions(w))

            def check(out, label=label):
                reports, vals = out
                problems = [f"{label}: {rep.name} fails" for rep in reports if not rep.holds]
                floor = float(vals[:16].min())
                if not floor >= -TOL:
                    problems.append(f"{label}: column floor {floor:.3g}")
                for key, pos, keep, wts in (("a", pos_a, keep_a, self.weights_a),
                                            ("b", pos_b, keep_b, self.weights_b)):
                    gap = abs(float(vals[keep] @ wts) - float(vals[pos]))
                    if not gap <= 1e-8:
                        problems.append(f"{label}: x_{key}.cols - v_{key} = {gap:.3g}")
                return problems

            ops.append(Op(f"float:k{k}", label, run, check))

        w = self._rational_kernel(rng)
        label = f"exact{r}"

        def run(w=w):
            return (inequalities.standard_battery(w),
                    certificate.evaluate_expression("vA", w, exact=True),
                    certificate.evaluate_expression("vB", w, exact=True))

        def check(out, w=w, label=label):
            reports, va, vb = out
            problems = [f"{label}: {rep.name} fails" for rep in reports if not rep.holds]
            for key, val in (("vA", va), ("vB", vb)):
                if not isinstance(val, Fraction):
                    problems.append(f"{label}: {key} is {type(val).__name__}, not exact")
                    continue
                if val < 0:
                    problems.append(f"{label}: {key} = {val} is negative")
                approx = certificate.evaluate_expression(key, w, exact=False)
                if not abs(float(val) - approx) <= TOL:
                    problems.append(f"{label}: exact {key} {float(val)!r} vs float {approx!r}")
            return problems

        ops.append(Op("exact:k2", label, run, check))
        return ops


def _rows(stdout):
    return dict(ln.split("\t", 1) for ln in stdout.splitlines() if "\t" in ln)


class CliVerbs(Workload):
    """One op is one fresh `python -m commonality.cli` process."""

    name = "cli-verbs"
    # a round is 12 light ops, inequalities and four heavy verbs (ramsey k3 7,
    # ramsey k4 7, verify-certificate, minimize, in rising latency); p86 sits
    # inside the second of the heavy verbs, ranks [14R, 15R) of 17R, for any
    # number of rounds R >= 4, with ten samples beyond it in four rounds
    TAIL_PERCENTILE = 86
    MIN_ROUNDS = 4

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.out_dir = os.path.join(root, "perfbench", "out")
        self.trace_files = []
        self._reference = {}
        self._peak_child_kib = 0

    def peak_rss_mb(self):
        """Peak resident memory of the largest op process."""
        return self._peak_child_kib / 1024.0

    def _run_child(self, argv):
        """Run one op process to completion: (exit code, stdout, stderr).
        Output goes through files so that the process can be reaped with
        os.wait4, which also gives its peak memory."""
        os.makedirs(self.out_dir, exist_ok=True)
        paths = [os.path.join(self.out_dir, f"child.{name}") for name in ("out", "err")]
        with open(paths[0], "w+") as out, open(paths[1], "w+") as err:
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err)
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(CHILD_TIMEOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self._peak_child_kib = max(self._peak_child_kib, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read(), err.read()

    def setup(self):
        from commonality import graphs

        self.catalog_rows = [f"{n}\t{graphs.catalog(n).n}\t{graphs.catalog(n).e}"
                             for n in graphs.catalog_names()]
        # warm-up: one process, so byte-compiled modules exist before timing
        subprocess.run(self._argv(["catalog"], None), cwd=self.root, env=self.env,
                       capture_output=True, timeout=120, check=True)

    def _argv(self, args, trace_file):
        if trace_file is None:
            return [sys.executable, "-m", "commonality.cli"] + args
        tracecli = os.path.join(self.root, "perfbench", "tracecli.py")
        return [sys.executable, tracecli, trace_file] + args

    def reference(self, key, compute):
        """A value from the library called in-process, computed once."""
        if key not in self._reference:
            self._reference[key] = compute()
        return self._reference[key]

    def round(self, r):
        from commonality import density, graphons, graphs, inequalities, search

        s = derive(self.seed, r)
        k3plus = graphs.catalog("k3plus")

        def tsv(x):
            return "%.12g" % float(x)

        def expect_lines(lines):
            return lambda out: [] if out.strip().splitlines() == lines else [
                f"output {out.strip().splitlines()[:3]!r}..., want {lines[:3]!r}..."]

        def expect_rows(rows):
            def check(out):
                got = _rows(out)
                return [f"{k}={got.get(k)!r}, want {v!r}" for k, v in rows.items()
                        if got.get(k) != v]
            return check

        def expand_check(out):
            rows = _rows(out)
            w = graphons.random_graphon(3, np.random.default_rng(s))
            want = tsv(density.m(graphs.catalog("bull"), w))
            problems = [] if rows.get("m") == want else [f"m={rows.get('m')!r}, want {want!r}"]
            if not abs(float(rows.get("gap", "nan"))) <= TOL:
                problems.append(f"gap={rows.get('gap')!r}")
            return problems

        def inequalities_check(out):
            per_kernel = self.reference(
                "battery", lambda: len(inequalities.standard_battery(graphons.half())))
            want = {"checked": str(per_kernel * (12 + len(graphons.corner_graphons()))),
                    "violations": "0"}
            return expect_rows(want)(out)

        def minimize_check(out):
            rows = _rows(out)
            problems = expect_rows({"verdict": "below-target", "target-exact": "1/8"})(out)
            kernel = "\n".join(ln for ln in out.splitlines() if "\t" not in ln)
            value = float(rows.get("value", "nan"))
            again = float(density.m(k3plus, graphons.parse_graphon(kernel)))
            if not abs(again - value) <= TOL:
                problems.append(f"kernel re-evaluates to {again!r}, reported {value!r}")
            return problems

        def k4_check(out):
            copies = self.reference(
                "k4-7", lambda: search.exact_ramsey_multiplicity(graphs.catalog("k4"), 7))
            return expect_rows({"copies": str(copies)})(out)

        light = [
            ("catalog", ["catalog"], expect_lines(self.catalog_rows)),
            ("m", ["m", "k3", "--graphon", "half"], expect_lines(["0.25"])),
            ("density", ["density", "c4", "--graphon", "half", "--exact"],
             expect_lines(["1/16"])),
            ("tritree", ["tritree", "jst"], expect_lines(["triangle-tree phi=3 kappa=0"])),
            ("expand-check", ["expand-check", "bull", "--graphon", f"random:3:{s}"],
             expand_check),
            ("ramsey", ["ramsey", "k3", "6"],
             expect_rows({"copies": "12", "normalized": "0.1"})),
        ]
        heavy = [
            ("inequalities", ["inequalities", "--suite", "12", "--seed", str(s)],
             inequalities_check),
            ("verify-certificate", ["verify-certificate", "--seed", str(s)],
             expect_rows({"verdict": "ok", "rank-a": "15", "rank-b": "15",
                          "derivation": "ok", "suite": "64 graphons"})),
            ("minimize", ["minimize", "k3plus", "--parts", "2", "--restarts", "32",
                          "--seed", str(s)], minimize_check),
            ("ramsey", ["ramsey", "k3", "7"],
             expect_rows({"copies": "24", "normalized": tsv(Fraction(4, 35))})),
            ("ramsey", ["ramsey", "k4", "7"], k4_check),
        ]
        # the light verbs run twice, so that the median falls inside their
        # cluster of latencies rather than on its top edge
        specs = light + heavy + light
        ops = []
        for i, (verb, args, check_out) in enumerate(specs):
            label = " ".join(args)

            def run(args=args, i=i):
                trace_file = None
                if self.trace_dir is not None:
                    trace_file = os.path.join(self.trace_dir,
                                              f"cli-{len(self.trace_files)}-{r}-{i}.json")
                    self.trace_files.append(trace_file)
                return self._run_child(self._argv(args, trace_file))

            def check(out, check_out=check_out, label=label):
                code, stdout, stderr = out
                if code != 0:
                    return [f"{label}: exit {code}: {stderr.strip()[-300:]}"]
                return [f"{label}: {p}" for p in check_out(stdout)]

            ops.append(Op(f"cli:{verb}", label, run, check))
        return ops


WORKLOADS = {
    "suite-sweep": SuiteSweep,
    "kernel-certify": KernelCertify,
    "cli-verbs": CliVerbs,
}
