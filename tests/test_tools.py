"""The layer-timing script in tools/ keeps running: one quick pass gives
every figure it prints."""
import importlib.util
import json
import os

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tools", "layer_times.py")


def test_layer_times_runs():
    spec = importlib.util.spec_from_file_location("layer_times", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    times = json.loads(json.dumps(mod.layer_times(repeat=1, number=1)))
    assert times["suite_size"] == 1000
    for key in ("pack_miss_us", "pack_hit_us", "cache_key_us", "table_hit_us"):
        assert times[key] > 0, key
    sweep = times["catalog_sweep"]
    assert sweep["graphs"] > 0 and sweep["ms"] > 0
    # the graphs share subgraph classes, so the table serves some requests
    # without a contraction
    assert 0 < sweep["contractions"] < sweep["requests"]
    # fresh graphs between two catalog passes evict none of its entries
    assert sweep["warm_contractions"] == 0 and sweep["fresh_contractions"] > 0
    assert sweep["currsize"] == sweep["contractions"] + sweep["fresh_contractions"]
    assert sweep["warm_ms"] > 0
    assert sorted(times["battery_ms"]) == ["exact:k2", "float:k2", "float:k3", "float:k4"]
    assert all(ms > 0 for ms in times["battery_ms"].values())
    assert sorted(times["t_batch_us"]) == sorted(mod.GRAPHS)
    for by_size in times["t_batch_us"].values():
        assert sorted(by_size, key=int) == [str(B) for B in mod.BATCH_SIZES]
        assert all(t > 0 for t in by_size.values())
