"""Time the batched density layer piece by piece and print one JSON object.

    PYTHONPATH=src python tools/layer_times.py

Every figure is the median of timeit repeats, in microseconds per call, on
a seeded suite of float kernels with 2, 3 and 4 parts (perfbench's
suite-sweep suite at seed 1):

- pack_miss_us: density._packed on a cold cache, 1000 kernels;
- pack_hit_us: the same call with the pack cached, key included;
- cache_key_us: building and hashing the tuple that keys the cache;
- table_hit_us: reading one density the pack's table already holds;
- t_batch_us: density._t_batch on three graphs at batch sizes 1, 32 and
  1000, with 3-part kernels in the batch-last layout the pack holds;
- catalog_sweep: expansion_value_many then m_many on every catalog graph
  with at most 12 edges, starting from an empty density table: the table
  requests, the contractions they cost and the milliseconds (a median).
  Then t_hom_many and m_many on 36 fresh triangle trees, as a suite-sweep
  round reads them, and the catalog pass again: fresh_contractions and
  warm_contractions count the contractions of each, currsize the table's
  entries after them, and warm_ms times a catalog pass on the table the
  pass before it filled (a median);
- battery_ms: inequalities.standard_battery on one fresh kernel, so every
  density is a table miss, in milliseconds: the median over seeded float
  kernels with 2, 3 and 4 parts and over 2-part kernels with entries in
  twelfths on the exact route.
"""
from __future__ import annotations

import json
import random
import statistics
import timeit
from fractions import Fraction

import numpy as np

from commonality import decomposition, density, graphons, graphs, inequalities

SUITE_SIZE = 1000
FRESH_TREES = 36
BATCH_SIZES = (1, 32, 1000)
GRAPHS = ("k3", "c5", "k4")


def _median_us(fn, number, repeat):
    return round(statistics.median(timeit.repeat(fn, number=number, repeat=repeat))
                 / number * 1e6, 2)


def layer_times(repeat=15, number=20):
    suite = graphons.random_suite(SUITE_SIZE, 1)

    def miss():
        density._packed.cache_clear()
        density._packed(tuple(suite))

    times = {
        "suite_size": SUITE_SIZE,
        "pack_miss_us": _median_us(miss, 1, repeat),
        "cache_key_us": _median_us(lambda: hash(tuple(suite)), number, repeat),
    }
    pack = density._packed(tuple(suite))
    times["pack_hit_us"] = _median_us(lambda: density._packed(tuple(suite)), number, repeat)
    k3 = graphs.catalog("k3")
    pack.density(k3, "w")
    times["table_hit_us"] = _median_us(lambda: pack.density(k3, "w"), number, repeat)
    # (mu, colours) of one 3-part group per batch size
    batches = {B: density._packed(tuple(graphons.random_suite(B, 2, ks=(3,)))).groups[0][1:3]
               for B in BATCH_SIZES}
    times["t_batch_us"] = {
        name: {str(B): _median_us(lambda g=graphs.catalog(name), V=colours["w"], mu=mu:
                                  density._t_batch(g, V, mu), number, repeat)
               for B, (mu, colours) in batches.items()}
        for name in GRAPHS}
    times["catalog_sweep"] = catalog_sweep(suite, repeat)
    times["battery_ms"] = battery_ms(repeat)
    return times


def catalog_sweep(suite, repeat):
    catalog = [g for _, g in graphs.catalog_all() if g.e <= 12]
    table = density._packed(tuple(suite)).density

    def sweep():
        for g in catalog:
            density.expansion_value_many(g, suite)
            density.m_many(g, suite)

    rng = random.Random(1)
    trees = [decomposition.random_triangle_tree(rng, 1 + i % 12) for i in range(FRESH_TREES)]
    table.cache_clear()
    sweep()
    cold = table.cache_info()
    for h in trees:
        density.t_hom_many(h, suite)
        density.m_many(h, suite)
    after_fresh = table.cache_info()
    sweep()
    warm = table.cache_info()
    seconds = timeit.repeat(sweep, setup=table.cache_clear, number=1, repeat=repeat)
    warm_seconds = timeit.repeat(sweep, number=1, repeat=repeat)
    return {"graphs": len(catalog), "requests": cold.hits + cold.misses,
            "contractions": cold.misses, "ms": round(statistics.median(seconds) * 1e3, 2),
            "fresh_contractions": after_fresh.misses - cold.misses,
            "warm_contractions": warm.misses - after_fresh.misses, "currsize": warm.currsize,
            "warm_ms": round(statistics.median(warm_seconds) * 1e3, 2)}


def _twelfths_kernel(rng):
    a, b, c, wt = (Fraction(int(x), 12) for x in rng.integers(1, 12, 4))
    return graphons.StepGraphon([[a, b], [b, c]], [wt, 1 - wt])


def battery_ms(repeat):
    rng = np.random.default_rng(3)
    makers = {f"float:k{k}": lambda k=k: graphons.random_graphon(k, rng) for k in (2, 3, 4)}
    makers["exact:k2"] = lambda: _twelfths_kernel(rng)
    out = {}
    for label, make in makers.items():
        kernels = [make() for _ in range(repeat)]
        seconds = [timeit.timeit(lambda w=w: inequalities.standard_battery(w), number=1)
                   for w in kernels]
        out[label] = round(statistics.median(seconds) * 1e3, 3)
    return out


if __name__ == "__main__":
    print(json.dumps(layer_times(), indent=1))
