"""Time the batched density layer piece by piece and print one JSON object.

    PYTHONPATH=src python tools/layer_times.py

Every figure is the median of timeit repeats, in microseconds per call, on
a seeded suite of float kernels with 2, 3 and 4 parts (perfbench's
suite-sweep suite at seed 1):

- pack_miss_us: density._packed on a cold cache, 1000 kernels;
- pack_hit_us: the same call with the pack cached, key included;
- cache_key_us: building and hashing the density._Suite that keys the
  cache, as every *_many call does;
- plan_us: density._plan on a cold cache, for a fresh triangle tree with
  12 bags;
- plans_per_fresh_graph: the plans compiled (density._plan misses) when
  t_hom_many reads one fresh triangle tree over the 1000 kernels, which
  have three part counts;
- table_hit_us: reading one entry the pack's table already holds, the
  densities of k3 in w and 1 - w;
- t_batch_us: density._t_batch on three graphs at batch sizes 1, 32 and
  1000, on the signed batch of a pack of 3-part kernels, B kernels in the
  batch-last layout the pack holds;
- tree_t_batch_us: density._t_batch on the triangle tree with 12 bags that
  plan_us compiles, over the pair batch (w and 1 - w) of each part count of
  the 1000-kernel suite, keyed by the part count k = 2, 3 and 4 (about
  666 kernels each);
- tree_routes: the steps of that tree's plan per route: scalar (weights
  summed to one number a kernel), then one np.einsum over one, two, or
  three or more factors (one, two, three+);
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
  twelfths on the exact route;
- certificate_ms: the two pattern routes of the five-point certificate, in
  milliseconds.  class_totals is certificate.class_density_totals on one
  fresh kernel (its cache never hits), the median over seeded float
  kernels with 2, 3 and 4 parts and, exactly, over 2-part kernels with
  entries in twelfths; pattern_vectors is certificate.pattern_vectors on
  the 64-kernel suite of verify-certificate's default run (60 seeded
  kernels and the four corners) with the pack cache cleared before each
  call (a median);
- ramsey_ms: search.exact_ramsey_multiplicity(k3, n) at n = 6, 7 and 8,
  in milliseconds, each run with the caches of graphs.graph_classes and
  graphs.canonical_form cleared first, so that it includes building the
  classes on n - 1 points (the median of up to three runs).
"""
from __future__ import annotations

import json
import random
import statistics
import timeit
from fractions import Fraction

import numpy as np

from commonality import (certificate, decomposition, density, graphons, graphs, inequalities,
                         search)

SUITE_SIZE = 1000
FRESH_TREES = 36
BATCH_SIZES = (1, 32, 1000)
GRAPHS = ("k3", "c5", "k4")
RAMSEY_POINTS = (6, 7, 8)


def _median_us(fn, number, repeat):
    return round(statistics.median(timeit.repeat(fn, number=number, repeat=repeat))
                 / number * 1e6, 2)


def layer_times(repeat=15, number=20):
    suite = graphons.random_suite(SUITE_SIZE, 1)

    def miss():
        density._packed.cache_clear()
        density._packed(density._Suite(suite))

    times = {
        "suite_size": SUITE_SIZE,
        "pack_miss_us": _median_us(miss, 1, repeat),
        "cache_key_us": _median_us(lambda: hash(density._Suite(suite)), number, repeat),
    }
    pack = density._packed(density._Suite(suite))
    times["pack_hit_us"] = _median_us(lambda: density._packed(density._Suite(suite)), number,
                                      repeat)
    times.update(plan_times(suite, repeat))
    k3 = graphs.catalog("k3")
    pack.density(k3, False)
    times["table_hit_us"] = _median_us(lambda: pack.density(k3, False), number, repeat)
    # the signed batch (V, mu, pos) of one 3-part group of B kernels, per batch size
    batches = {B: density._packed(density._Suite(graphons.random_suite(B, 2, ks=(3,))))
               .groups[0][0][True] for B in BATCH_SIZES}
    times["t_batch_us"] = {
        name: {str(B): _median_us(lambda g=graphs.catalog(name), V=V, mu=mu:
                                  density._t_batch(g, V, mu), number, repeat)
               for B, (V, mu, _) in batches.items()}
        for name in GRAPHS}
    times.update(tree_times(pack, number, repeat))
    times["catalog_sweep"] = catalog_sweep(suite, repeat)
    times["battery_ms"] = battery_ms(repeat)
    times["certificate_ms"] = certificate_ms(repeat)
    times["ramsey_ms"] = ramsey_ms(min(repeat, 3))
    return times


def plan_times(suite, repeat):
    rng = random.Random(2)
    tree = decomposition.random_triangle_tree(rng, 12)
    seconds = timeit.repeat(lambda: density._plan(tree), setup=density._plan.cache_clear,
                            number=1, repeat=repeat)
    fresh = decomposition.random_triangle_tree(rng, 12)
    misses = density._plan.cache_info().misses
    density.t_hom_many(fresh, suite)
    return {"plan_us": round(statistics.median(seconds) * 1e6, 2),
            "plans_per_fresh_graph": density._plan.cache_info().misses - misses}


def tree_times(pack, number, repeat):
    # the tree plan_times compiles, the first drawn from random.Random(2)
    tree = decomposition.random_triangle_tree(random.Random(2), 12)
    us = {}
    for batches, _ in pack.groups:
        V, mu, _ = batches[False]
        us[str(mu.shape[1])] = _median_us(lambda: density._t_batch(tree, V, mu), number, repeat)
    names = ("scalar", "one", "two", "three+")
    routes = dict.fromkeys(names, 0)
    for _, factors, _, _ in density._plan(tree).steps:
        routes[names[min(len(factors), 3)]] += 1
    return {"tree_t_batch_us": dict(sorted(us.items())), "tree_routes": routes}


def catalog_sweep(suite, repeat):
    catalog = [g for _, g in graphs.catalog_all() if g.e <= 12]
    table = density._packed(density._Suite(suite)).density

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


def _per_fresh_kernel_ms(fn, repeat, seed):
    # the median of fn on seeded kernels it has not seen, float at 2, 3 and
    # 4 parts and exact at 2, so no per-kernel cache is read
    rng = np.random.default_rng(seed)
    makers = {f"float:k{k}": lambda k=k: graphons.random_graphon(k, rng) for k in (2, 3, 4)}
    makers["exact:k2"] = lambda: _twelfths_kernel(rng)
    out = {}
    for label, make in makers.items():
        kernels = [make() for _ in range(repeat)]
        seconds = [timeit.timeit(lambda w=w: fn(w), number=1) for w in kernels]
        out[label] = round(statistics.median(seconds) * 1e3, 3)
    return out


def battery_ms(repeat):
    return _per_fresh_kernel_ms(inequalities.standard_battery, repeat, 3)


def certificate_ms(repeat):
    suite = graphons.random_suite(60, 2026) + graphons.corner_graphons()
    seconds = timeit.repeat(lambda: certificate.pattern_vectors(suite),
                            setup=density._packed.cache_clear, number=1, repeat=repeat)
    return {"class_totals": _per_fresh_kernel_ms(certificate.class_density_totals, repeat, 4),
            "pattern_vectors": round(statistics.median(seconds) * 1e3, 3)}


def ramsey_ms(repeat):
    k3 = graphs.catalog("k3")

    def cold(n):
        graphs.graph_classes.cache_clear()
        graphs.canonical_form.cache_clear()
        search.exact_ramsey_multiplicity(k3, n)

    return {str(n): round(statistics.median(
                timeit.repeat(lambda: cold(n), number=1, repeat=repeat)) * 1e3, 1)
            for n in RAMSEY_POINTS}


if __name__ == "__main__":
    print(json.dumps(layer_times(), indent=1))
