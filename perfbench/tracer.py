"""Span tracing installed from outside the program.

The tracer replaces chosen functions of the `commonality` package with
timing wrappers.  A function is replaced at every module that holds it
(the defining module and every `from ... import` site), so calls between
modules are seen too.  Each call becomes one span: name, start, end, the
index of the enclosing span, and the benchmark op it belongs to.  Spans stay
in memory and are written out once, when the run ends.

Private names (`density._t_batch`, `search._m_value_gradient`,
`search._descend`) are wrapped only to count work; when one of them no
longer exists, the metrics that need it read null with the reason.
"""
from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import statistics
from collections import Counter
from time import perf_counter

CLI_VERBS = ("catalog", "m", "density", "tritree", "expand-check", "inequalities",
             "verify-certificate", "minimize", "ramsey")

# every per-layer metric the traced run reports, with its unit
PER_LAYER = [
    ("graphs.canonical_form.calls", "count"),
    ("graphs.canonical_form.miss_ratio", "ratio"),
    ("graphs.even_expansion.s", "s"),
    ("graphs.even_expansion.terms", "count"),
    ("graphons.kernels_built", "count"),
    ("graphons.build_s", "s"),
    ("density.t_batch.small.calls", "count"),
    ("density.t_batch.small.s", "s"),
    ("density.t_batch.large.calls", "count"),
    ("density.t_batch.large.s", "s"),
    ("density.t_batch.kernel_evals", "count"),
    ("density.t_batch.ops_computed", "count"),
    ("density.pack_s", "s"),
    ("density.exact.calls", "count"),
    ("density.exact.s", "s"),
    ("decomposition.recognize.calls", "count"),
    ("decomposition.recognize.s", "s"),
    ("decomposition.recognize.hit_ratio", "ratio"),
    ("inequalities.battery.s", "s"),
    ("inequalities.reports", "count"),
    ("inequalities.na_ratio", "ratio"),
    ("exactlinalg.calls", "count"),
    ("exactlinalg.s", "s"),
    ("certificate.derivation.s", "s"),
    ("certificate.linalg.s", "s"),
    ("certificate.crossval.s", "s"),
    ("certificate.pattern_vector.calls", "count"),
    ("certificate.pattern_vector.s", "s"),
    ("certificate.exact_eval.s", "s"),
    ("search.minimize.s", "s"),
    ("search.grad_evals", "count"),
    ("search.grad_eval_us", "us"),
    ("search.accept_ratio", "ratio"),
    ("search.ramsey.s", "s"),
    ("cli.startup_s", "s"),
] + [(f"cli.verb_s.{verb}", "s") for verb in CLI_VERBS] + [
    (f"self_s.{layer}", "s") for layer in
    ("bench", "cli", "graphs", "graphons", "density", "decomposition", "inequalities",
     "exactlinalg", "certificate", "search")
] + [
    ("trace.ops", "count"),
    ("trace.spans", "count"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.traced_over_untraced", "ratio"),
]

DENSITY_PACKERS = ("density.m_many", "density.t_hom_many", "density.t_signed_many",
                   "density.expansion_value_many")
DENSITY_EXACT = ("density.t_hom.exact", "density.t_signed.exact", "density.t_induced.exact",
                 "density.induced_pattern_vector_exact")
EXACTLINALG = ("exactlinalg.rank", "exactlinalg.solve_unique", "exactlinalg.mat_vec")

SMALL_BATCH = 64


class Tracer:
    """Spans and counters for one process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.counters = Counter()
        self.missing = {}        # wrapped name -> why its metrics are unavailable
        self.op = -1
        self.active = False
        self._stack = []
        self._undo = []
        self._light = {}         # name -> [calls, seconds] of calls summed, not spanned
        self._light_depth = 0
        self._light_outer = 0.0  # seconds of light calls not inside another one
        self._light_child = Counter()   # span index -> seconds of light calls in it
        self._union_sizes = {}
        self._cache_fn = None
        self._cache_start = None

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, perf_counter(), 0.0, parent, self.op]
        self.spans.append(rec)
        self._stack.append(idx)
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def wrap(self, fn, name, hook=None, label=None):
        """Timing wrapper around fn.  name may be a callable of (args, kwargs);
        hook(args, kwargs, result) records counts after the call.  label names
        the wrapped function: it is the span name when name cannot be worked
        out, and a failing hook is recorded under it instead of raising."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = name
            if callable(name):
                try:
                    span_name = name(args, kwargs)
                except Exception:  # noqa: BLE001 - the program changed shape
                    span_name = label
            rec = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if hook is not None and label not in tracer.missing:
                try:
                    hook(args, kwargs, result)
                except Exception as exc:  # noqa: BLE001
                    tracer.missing[label] = f"{label} changed shape: {exc!r}"
            return result

        return wrapper

    def wrap_light(self, fn, name):
        """Timing wrapper that keeps no span per call, for functions called
        hundreds of thousands of times: calls and seconds are summed, and the
        seconds still leave the enclosing span's self time."""
        tracer = self
        totals = self._light.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outer = tracer._light_depth == 0
            tracer._light_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._light_depth -= 1
                totals[0] += 1
                totals[1] += dt
                if outer:
                    tracer._light_outer += dt
                    if tracer._stack:
                        tracer._light_child[tracer._stack[-1]] += dt

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the benchmark-facing functions of every commonality module."""
        import commonality

        mods = {info.name: importlib.import_module(f"commonality.{info.name}")
                for info in pkgutil.iter_modules(commonality.__path__)}
        counters = self.counters

        def replace(mod_name, attr, name, hook=None):
            label = f"{mod_name}.{attr}"
            orig = getattr(mods[mod_name], attr, None)
            if orig is None:
                self.missing[label] = f"{label} no longer exists"
                return
            wrapper = self.wrap(orig, name, hook, label)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))

        def exact_tag(base):
            return lambda args, kwargs: base + (".exact" if args[1].exact else "")

        # graphs
        canonical = getattr(mods["graphs"], "canonical_form", None)
        if hasattr(canonical, "cache_info"):
            self._cache_fn = canonical
            self._cache_start = canonical.cache_info()
        else:
            self.missing["graphs.canonical_form.cache_info"] = (
                "graphs.canonical_form has no cache_info")
        replace("graphs", "canonical_form", "graphs.canonical_form")

        def expansion_terms(args, kwargs, result):
            counters["even_expansion.terms"] += len(result)

        replace("graphs", "even_expansion", "graphs.even_expansion", expansion_terms)

        # graphons: every kernel construction goes through __init__, and
        # one_minus and signed build the derived kernels; a sweep builds
        # hundreds of thousands, so these calls are summed, not spanned
        cls = mods["graphons"].StepGraphon
        for attr, name in (("__init__", "graphons.StepGraphon"),
                           ("one_minus", "graphons.one_minus"), ("signed", "graphons.signed")):
            orig = vars(cls)[attr]
            setattr(cls, attr, self.wrap_light(orig, name))
            self._undo.append((cls, attr, orig))

        # density
        for attr in ("t_hom", "t_signed", "t_induced"):
            replace("density", attr, exact_tag(f"density.{attr}"))
        for attr in ("m", "m_many", "t_hom_many", "t_signed_many", "expansion_value",
                     "expansion_value_many", "induced_pattern_vector",
                     "induced_pattern_vector_exact"):
            replace("density", attr, f"density.{attr}")

        def batch_name(args, kwargs):
            size = "small" if args[1].shape[0] <= SMALL_BATCH else "large"
            return f"density._t_batch.{size}"

        def batch_work(args, kwargs, result):
            g, V = args[0], args[1]
            B, k = V.shape[0], V.shape[1]
            counters["t_batch.kernel_evals"] += B
            if "density.elimination_order" in self.missing:
                return
            sizes = self._union_sizes.get(g)
            if sizes is None:
                sizes = self._union_sizes[g] = _union_sizes(mods["density"].elimination_order, g)
            counters["t_batch.ops_computed"] += B * sum(k ** s for s in sizes)

        replace("density", "_t_batch", batch_name, batch_work)
        if getattr(mods["density"], "elimination_order", None) is None:
            self.missing["density.elimination_order"] = (
                "density.elimination_order no longer exists")

        # decomposition
        def recognized(args, kwargs, result):
            counters["recognize.hits"] += result is not None

        replace("decomposition", "find_triangle_decomposition",
                "decomposition.find_triangle_decomposition", recognized)

        # inequalities
        def reports(args, kwargs, result):
            counters["battery.reports"] += len(result)
            counters["battery.na"] += sum(1 for r in result if not r.applicable)

        replace("inequalities", "standard_battery", "inequalities.standard_battery", reports)

        # exactlinalg
        for attr in ("rank", "solve_unique", "mat_vec"):
            replace("exactlinalg", attr, f"exactlinalg.{attr}")

        # certificate
        for attr in ("check_derivation", "verify_linear_algebra", "cross_validate_columns",
                     "evaluate_all_expressions", "conclude_commonality", "load_certificate"):
            replace("certificate", attr, f"certificate.{attr}")

        def eval_name(args, kwargs):
            exact = kwargs.get("exact", args[2] if len(args) > 2 else None)
            return "certificate.evaluate_expression" + (".exact" if exact else "")

        replace("certificate", "evaluate_expression", eval_name)

        # search
        replace("search", "minimize_m", "search.minimize_m")
        replace("search", "exact_ramsey_multiplicity", "search.exact_ramsey_multiplicity")
        replace("search", "_m_value_gradient", "search._m_value_gradient")

        def accepted(args, kwargs, result):
            counters["descend.accepted"] += result[3] - 1

        replace("search", "_descend", "search._descend", accepted)
        self.active = True

    def uninstall(self):
        self.active = False
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    # -- aggregation -------------------------------------------------------

    def summary(self):
        """Per-name calls, total and self seconds, plus counters.  Summaries of
        several processes merge by adding (see merge)."""
        calls, total, own = Counter(), Counter(), Counter()
        child = [self._light_child[i] for i in range(len(self.spans))]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        for name, (n, seconds) in self._light.items():
            calls[name] += n
            total[name] += seconds
        # light calls are all kernel builds and call nothing spanned
        own["graphons.builds"] += self._light_outer
        counters = Counter(self.counters)
        if self._cache_fn is not None:
            info = self._cache_fn.cache_info()
            counters["canonical.hits"] += info.hits - self._cache_start.hits
            counters["canonical.misses"] += info.misses - self._cache_start.misses
        return {"calls": dict(calls), "total": dict(total), "self": dict(own),
                "counters": dict(counters), "missing": dict(self.missing)}

    def dump(self, path, extra=None):
        """Write the spans as JSON, one per line, times in microseconds from
        the first span of their process."""
        origin = {}
        for span in self.spans:
            origin.setdefault(span[5], span[1])
        head = dict(extra or {}, fields=["name", "start_us", "end_us", "parent", "op", "proc"])
        with open(path, "w") as fh:
            fh.write(json.dumps(head)[:-1] + ', "spans": [\n')
            for i, (name, start, end, parent, op, proc) in enumerate(self.spans):
                row = [name, round((start - origin[proc]) * 1e6),
                       round((end - origin[proc]) * 1e6), parent, op, proc]
                fh.write(("," if i else "") + json.dumps(row) + "\n")
            fh.write("]}\n")


def _union_sizes(elimination_order, g):
    """Factor sizes the elimination engine builds for g: for each eliminated
    vertex, the number of variables joined before summing it out."""
    order, _ = elimination_order(g)
    factors = [frozenset(e) for e in g.sorted_edges()]
    sizes = []
    for v in order:
        involved = [f for f in factors if v in f]
        factors = [f for f in factors if v not in f]
        union = frozenset().union(*involved)
        sizes.append(len(union))
        rest = union - {v}
        if rest:
            factors.append(rest)
    return sizes


def merge(summaries):
    out = {"calls": Counter(), "total": Counter(), "self": Counter(), "counters": Counter(),
           "missing": {}}
    for s in summaries:
        for key in ("calls", "total", "self", "counters"):
            out[key].update(s[key])
        out["missing"].update(s["missing"])
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(s, cli_samples, phase):
    """The per-layer metric dict from a merged summary.

    cli_samples: list of {"startup_s", "verb", "verb_s"} from traced CLI
    children; phase: {"ops", "spans", "untraced_s", "traced_s"}.
    Returns (metrics, notes) where notes name the metrics with no samples.
    """
    calls, total, own, c = s["calls"], s["total"], s["self"], s["counters"]
    missing = s["missing"]
    notes = []

    def tot(*names):
        return sum(total.get(n, 0.0) for n in names)

    def cnt(*names):
        return sum(calls.get(n, 0) for n in names)

    values = {
        "graphs.canonical_form.calls": cnt("graphs.canonical_form"),
        "graphs.canonical_form.miss_ratio": _ratio(
            c.get("canonical.misses", 0),
            c.get("canonical.hits", 0) + c.get("canonical.misses", 0)),
        "graphs.even_expansion.s": tot("graphs.even_expansion"),
        "graphs.even_expansion.terms": c.get("even_expansion.terms", 0),
        "graphons.kernels_built": cnt("graphons.StepGraphon"),
        "graphons.build_s": own.get("graphons.builds", 0.0),
        "density.t_batch.small.calls": cnt("density._t_batch.small"),
        "density.t_batch.small.s": tot("density._t_batch.small"),
        "density.t_batch.large.calls": cnt("density._t_batch.large"),
        "density.t_batch.large.s": tot("density._t_batch.large"),
        "density.t_batch.kernel_evals": c.get("t_batch.kernel_evals", 0),
        "density.t_batch.ops_computed": c.get("t_batch.ops_computed", 0),
        "density.pack_s": sum(own.get(n, 0.0) for n in DENSITY_PACKERS),
        "density.exact.calls": cnt(*DENSITY_EXACT),
        "density.exact.s": tot(*DENSITY_EXACT),
        "decomposition.recognize.calls": cnt("decomposition.find_triangle_decomposition"),
        "decomposition.recognize.s": tot("decomposition.find_triangle_decomposition"),
        "decomposition.recognize.hit_ratio": _ratio(
            c.get("recognize.hits", 0), cnt("decomposition.find_triangle_decomposition")),
        "inequalities.battery.s": tot("inequalities.standard_battery"),
        "inequalities.reports": c.get("battery.reports", 0),
        "inequalities.na_ratio": _ratio(c.get("battery.na", 0), c.get("battery.reports", 0)),
        "exactlinalg.calls": cnt(*EXACTLINALG),
        "exactlinalg.s": tot(*EXACTLINALG),
        "certificate.derivation.s": tot("certificate.check_derivation"),
        "certificate.linalg.s": tot("certificate.verify_linear_algebra"),
        "certificate.crossval.s": tot("certificate.cross_validate_columns"),
        "certificate.pattern_vector.calls": cnt("density.induced_pattern_vector"),
        "certificate.pattern_vector.s": tot("density.induced_pattern_vector"),
        "certificate.exact_eval.s": tot("certificate.evaluate_expression.exact"),
        "search.minimize.s": tot("search.minimize_m"),
        "search.grad_evals": cnt("search._m_value_gradient"),
        "search.grad_eval_us": 1e6 * _ratio(tot("search._m_value_gradient"),
                                            cnt("search._m_value_gradient")),
        "search.accept_ratio": _ratio(c.get("descend.accepted", 0),
                                      cnt("search._m_value_gradient")),
        "search.ramsey.s": tot("search.exact_ramsey_multiplicity"),
        "cli.startup_s": (statistics.median(x["startup_s"] for x in cli_samples)
                          if cli_samples else 0.0),
    }
    for verb in CLI_VERBS:
        times = [x["verb_s"] for x in cli_samples if x["verb"] == verb]
        values[f"cli.verb_s.{verb}"] = statistics.median(times) if times else 0.0
    for layer in ("bench", "cli", "graphs", "graphons", "density", "decomposition",
                  "inequalities", "exactlinalg", "certificate", "search"):
        values[f"self_s.{layer}"] = sum(v for n, v in own.items()
                                        if n.split(".", 1)[0] == layer)
    values["trace.ops"] = phase["ops"]
    values["trace.spans"] = phase["spans"]
    values["trace.untraced_s"] = phase["untraced_s"]
    values["trace.traced_s"] = phase["traced_s"]
    values["trace.traced_over_untraced"] = _ratio(phase["traced_s"], phase["untraced_s"])

    # metrics resting on a private boundary that is gone read null
    needs = {
        "density._t_batch": ("density.t_batch.small.calls", "density.t_batch.small.s",
                             "density.t_batch.large.calls", "density.t_batch.large.s",
                             "density.t_batch.kernel_evals", "density.t_batch.ops_computed",
                             "density.pack_s"),
        "density.elimination_order": ("density.t_batch.ops_computed",),
        "search._m_value_gradient": ("search.grad_evals", "search.grad_eval_us",
                                     "search.accept_ratio"),
        "search._descend": ("search.accept_ratio",),
        "graphs.canonical_form.cache_info": ("graphs.canonical_form.miss_ratio",),
    }
    nulls = {}
    for private, names in needs.items():
        if private in missing:
            for n in names:
                nulls[n] = missing[private]

    zero_based = {
        "graphs.canonical_form.miss_ratio": c.get("canonical.hits", 0) + c.get(
            "canonical.misses", 0),
        "decomposition.recognize.hit_ratio": cnt("decomposition.find_triangle_decomposition"),
        "inequalities.na_ratio": c.get("battery.reports", 0),
        "search.grad_eval_us": cnt("search._m_value_gradient"),
        "search.accept_ratio": cnt("search._m_value_gradient"),
        "cli.startup_s": len(cli_samples),
    }
    for verb in CLI_VERBS:
        zero_based[f"cli.verb_s.{verb}"] = sum(1 for x in cli_samples if x["verb"] == verb)
    for n, base in zero_based.items():
        if not base and n not in nulls:
            notes.append(n)

    metrics = {}
    for name, unit in PER_LAYER:
        if name in nulls:
            metrics[name] = {"value": None, "unit": unit, "reason": nulls[name]}
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    return metrics, notes
