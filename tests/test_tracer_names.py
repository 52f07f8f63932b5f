"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name, some of them private.  When one goes, a traced benchmark run still
exits 0 but reports the metrics resting on it as null; this test fails
instead."""
import importlib.util
import os

from commonality.graphs import catalog
from commonality.graphons import half
from commonality.density import m_many
from commonality.search import MinimizeConfig, minimize_m

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_metrics_are_never_null():
    tracer = load_tracer()
    t = tracer.Tracer()
    try:
        t.install()
        # one call through each counting hook, so a hook that no longer fits
        # the result it reads is recorded as missing too
        m_many(catalog("k3"), [half()])
        minimize_m(catalog("k3"), MinimizeConfig(parts=2, restarts=1, max_iter=3))
        # the batched path, with weight gradients, under the same wrappers
        minimize_m(catalog("k3plus"), MinimizeConfig(parts=2, restarts=3, max_iter=20,
                                                     optimize_weights=True))
    finally:
        t.uninstall()
    phase = {"ops": 0, "spans": 0, "untraced_s": 0.0, "traced_s": 0.0}
    metrics, _ = tracer.per_layer_metrics(tracer.merge([t.summary()]), [], phase)
    nulls = {name: v["reason"] for name, v in metrics.items() if v["value"] is None}
    assert not nulls
    assert type(t.counters["descend.accepted"]) is int
