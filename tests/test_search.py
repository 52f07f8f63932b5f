"""Optimizer and finite-multiplicity tests.

Frozen constants: the two-part grid floor for the tailed triangle comes from
the full grid scan; the Ramsey multiplicities at n = 8 were computed by a
route that grew every red graph class on 8 points edge by edge.  Triangle
counts are checked against Goodman's closed form and the rest at n <= 6
against full colouring enumeration (tests/oracles.py).
"""
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import commonality.search as search
from commonality.density import m
from commonality.graphs import Graph, catalog
from commonality.graphons import StepGraphon, block_graphon, constant_graphon, half, random_graphon
from commonality.search import (
    MinimizeConfig,
    _descend,
    _m_value_gradient,
    _start_matrix,
    exact_ramsey_multiplicity,
    estimate_ramsey_constant,
    gradient_m,
    grid_minimum_two_parts,
    minimize_m,
)
from oracles import ramsey_brute, t_value_gradient_brute

# grid_minimum_two_parts(k3plus, resolution=32), frozen 2026-08
GRID32_K3PLUS = 0.12149429321289062


# ---------------------------------------------------------------------------
# gradient

def test_gradient_trivial_cases():
    assert np.abs(gradient_m(catalog("k2"), constant_graphon(0.3, 1))).max() == 0.0
    assert np.abs(gradient_m(catalog("k3"), constant_graphon(0.5, 2))).max() == 0.0


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(41)
    names = ["k2", "k3", "k1,2", "p4", "c4", "c5", "diamond", "k3plus", "chair", "bull", "k4"]
    worst = 0.0
    for trial in range(20):
        h = catalog(names[trial % len(names)])
        k = 2 + trial % 3
        # keep entries away from the box edges so the central stencil stays feasible
        raw = random_graphon(k, rng)
        V = 0.05 + 0.9 * np.array(raw.values)
        V = (V + V.T) / 2
        w = StepGraphon(V.tolist(), list(raw.weights))
        grad = gradient_m(h, w)
        d = 1e-5
        for p in range(k):
            for q in range(p, k):
                vp, vm = V.copy(), V.copy()
                vp[p, q] = vp[q, p] = vp[p, q] + d
                vm[p, q] = vm[q, p] = vm[p, q] - d
                fd = (m(h, StepGraphon(vp.tolist(), list(raw.weights)))
                      - m(h, StepGraphon(vm.tolist(), list(raw.weights)))) / (2 * d)
                worst = max(worst, abs(fd - grad[p, q]))
    assert worst <= 1e-6


def test_gradient_is_symmetric():
    rng = np.random.default_rng(5)
    g = gradient_m(catalog("bull"), random_graphon(3, rng))
    assert np.array_equal(g, g.T)


def test_reverse_mode_matches_assignment_enumeration():
    # m = t(V) + t(1 - V), so the brute partials combine as value sum,
    # kernel gradient difference and weight gradient sum
    rng = np.random.default_rng(29)
    graphs = [catalog(name) for name in ("k3plus", "diamond", "jst", "bull", "c5", "k4",
                                         "beachball:2")]
    graphs += [Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3)]), Graph(3)]
    worst = np.zeros(3)
    for h in graphs:
        for k in range(1, 5):
            raw = rng.random((5, k, k))
            V = (raw + raw.transpose(0, 2, 1)) / 2
            mu = rng.random((5, k)) + 0.1
            mu /= mu.sum(axis=1, keepdims=True)
            val, grad, gmu = _m_value_gradient(h, V, mu, True)
            for b in range(5):
                t1, g1, w1 = t_value_gradient_brute(h, V[b], mu[b])
                t2, g2, w2 = t_value_gradient_brute(h, 1.0 - V[b], mu[b])
                gap = (w1 + w2) - gmu[b]
                worst = np.maximum(worst, [abs(t1 + t2 - val[b]),
                                           np.abs(g1 - g2 - grad[b]).max(),
                                           np.abs(gap - gap.mean()).max()])
    assert worst.max() <= 1e-12, worst


def test_gradient_six_parts_on_eight_vertices():
    # beachball:3 at 6 parts is 6^8 assignments; the plan never enumerates them
    h = catalog("beachball:3")
    rng = np.random.default_rng(17)
    raw = random_graphon(6, rng)
    V = 0.05 + 0.9 * np.array(raw.values)
    V = (V + V.T) / 2
    weights = list(raw.weights)
    grad = gradient_m(h, StepGraphon(V.tolist(), weights))
    assert np.abs(grad).max() > 0
    d = 1e-5
    for p in range(6):
        for q in range(p, 6):
            vp, vm = V.copy(), V.copy()
            vp[p, q] = vp[q, p] = vp[p, q] + d
            vm[p, q] = vm[q, p] = vm[p, q] - d
            fd = (m(h, StepGraphon(vp.tolist(), weights))
                  - m(h, StepGraphon(vm.tolist(), weights))) / (2 * d)
            assert abs(fd - grad[p, q]) <= 1e-6, (p, q)


# ---------------------------------------------------------------------------
# minimizer

def test_config_validation():
    with pytest.raises(ValueError):
        MinimizeConfig(parts=0)
    with pytest.raises(ValueError):
        MinimizeConfig(restarts=0)


def test_minimize_refuses_too_many_parts_before_allocating():
    # 600^3 float entries are over the cap; the 16 starts of 600 x 600 would
    # take about 46 MB before the contraction refused them
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too large"):
            minimize_m(catalog("k3"), MinimizeConfig(parts=600))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_minimize_triangle_hits_quarter():
    res = minimize_m(catalog("k3"), MinimizeConfig(parts=3, restarts=32))
    assert abs(res.value - 0.25) <= 1e-5
    assert res.target == Fraction(1, 4)
    assert res.verdict == "at-target"


def test_minimize_four_cycle_hits_eighth():
    res = minimize_m(catalog("c4"), MinimizeConfig(parts=3, restarts=32))
    assert abs(res.value - 0.125) <= 1e-5
    assert res.verdict == "at-target"


def test_minimize_never_beats_half_start():
    for name in ("k3", "diamond", "k3plus"):
        h = catalog(name)
        res = minimize_m(h, MinimizeConfig(parts=2, restarts=4, max_iter=120))
        assert res.value <= float(Fraction(2) ** (1 - h.e)) + 1e-12


def test_minimize_common_spot_checks_stay_on_target():
    # graphs whose minimum is the random-colouring value; descent must not
    # report a spurious dip
    for name, parts in (("diamond", 3), ("jst", 2), ("beachball:2", 2)):
        h = catalog(name)
        res = minimize_m(h, MinimizeConfig(parts=parts, restarts=32))
        assert res.verdict == "at-target", (name, res.value)


def test_grid_floor_for_tailed_triangle_dips_below_eighth():
    val, w = grid_minimum_two_parts(catalog("k3plus"), resolution=32)
    assert val == pytest.approx(GRID32_K3PLUS, abs=1e-12)
    assert val < 0.125
    assert w.k == 2


def test_minimize_finds_tailed_triangle_witness():
    # grid scan above is the optimizer-free floor; the optimizer must reach
    # below the commonality target on its own
    res = minimize_m(catalog("k3plus"), MinimizeConfig(parts=2, restarts=32))
    assert res.verdict == "below-target"
    assert res.value < 0.125 - 1e-4
    assert res.value <= GRID32_K3PLUS + 1e-3


def test_minimize_seeded_runs_repeat():
    cfg = MinimizeConfig(parts=2, restarts=6, max_iter=80)
    a = minimize_m(catalog("k3plus"), cfg)
    b = minimize_m(catalog("k3plus"), cfg)
    assert a.value == b.value
    assert a.restart_index == b.restart_index
    assert a.graphon == b.graphon


def test_minimize_weight_optimization_helps_two_parts():
    plain = minimize_m(catalog("k3plus"), MinimizeConfig(parts=2, restarts=16))
    tuned = minimize_m(catalog("k3plus"), MinimizeConfig(parts=2, restarts=16, optimize_weights=True))
    assert tuned.value <= plain.value + 1e-9
    assert abs(sum(tuned.graphon.weights) - 1) <= 1e-9


def test_batched_descent_picks_the_single_start_winner():
    # all starts descending as one batch must end where each start run alone
    # ends, and pick the lowest (value, index) among those runs
    for name, parts, weights in (("k3plus", 2, False), ("k3plus", 2, True),
                                 ("diamond", 3, False), ("bull", 5, False)):
        h = catalog(name)
        cfg = MinimizeConfig(parts=parts, restarts=8, max_iter=120, optimize_weights=weights)
        starts = np.stack([_start_matrix(parts, r, np.random.default_rng((cfg.seed, r)))
                           for r in range(cfg.restarts)])
        mu0 = np.full((cfg.restarts, parts), 1.0 / parts)
        val, V, mu, trace, r = _descend(h, starts, mu0, cfg)
        alone = [_descend(h, starts[i:i + 1], mu0[i:i + 1], cfg) for i in range(cfg.restarts)]
        best = min(range(cfg.restarts), key=lambda i: (alone[i][0], i))
        bval, bV, bmu, btrace, _ = alone[best]
        assert (val, trace, r) == (bval, btrace, best), name
        assert np.array_equal(V, bV) and np.array_equal(mu, bmu), name
        assert type(trace) is int and type(r) is int


def test_every_restart_is_evaluated_max_iter_times(monkeypatch):
    # no step can shrink below MIN_STEP within 7 evaluations, so each call
    # covers all 4 restarts and the 7th is the last
    rows = []
    real = search._m_value_gradient

    def counted(h, V, mu, with_weights):
        rows.append(len(V))
        return real(h, V, mu, with_weights)

    monkeypatch.setattr(search, "_m_value_gradient", counted)
    minimize_m(catalog("k3plus"), MinimizeConfig(parts=2, restarts=4, max_iter=7))
    assert rows == [4] * 7


def test_minimize_result_tsv_shape():
    res = minimize_m(catalog("k3"), MinimizeConfig(parts=2, restarts=2, max_iter=40))
    rows = [ln.split("\t") for ln in res.tsv().strip().splitlines()]
    assert [r[0] for r in rows] == ["value", "target", "target-exact", "verdict",
                                    "trace-length", "restart"]
    assert rows[2][1] == "1/4"


# ---------------------------------------------------------------------------
# finite Ramsey multiplicity

def test_triangle_multiplicities():
    # Goodman: the fewest monochromatic triangles in a 2-colouring of K_n is
    # C(n,3) - floor((n/2) * floor(((n-1)/2)^2)); each is 6 labelled copies
    k3 = catalog("k3")
    for n in range(3, 9):
        goodman = math.comb(n, 3) - n * ((n - 1) ** 2 // 4) // 2
        assert exact_ramsey_multiplicity(k3, n) == 6 * goodman, n


def test_eight_point_multiplicities():
    for name, count in (("c4", 80), ("k4", 0), ("k3plus", 48), ("c5", 0)):
        assert exact_ramsey_multiplicity(catalog(name), 8) == count, name


def test_edge_multiplicity_is_twice_the_pairs():
    k2 = catalog("k2")
    for n in (2, 3, 5, 6):
        assert exact_ramsey_multiplicity(k2, n) == n * (n - 1)


def test_multiplicities_match_full_colouring_enumeration():
    for name in ("k2", "k3", "p3", "c4", "k3plus", "k4", "bull"):
        h = catalog(name)
        for n in range(h.n, 7):
            assert exact_ramsey_multiplicity(h, n) == ramsey_brute(h, n), (name, n)


def test_multiplicity_edge_cases():
    assert exact_ramsey_multiplicity(catalog("k4"), 3) == 0  # more vertices than points
    with pytest.raises(ValueError):
        exact_ramsey_multiplicity(catalog("k3"), 9)
    with pytest.raises(ValueError):
        exact_ramsey_multiplicity(catalog("k3"), 0)


def test_normalized_ratio():
    k3 = catalog("k3")
    assert estimate_ramsey_constant(k3, 6) == Fraction(1, 10)
    assert estimate_ramsey_constant(k3, 7) == Fraction(4, 35)
    assert estimate_ramsey_constant(catalog("k2"), 5) == 1
    with pytest.raises(ValueError):
        estimate_ramsey_constant(k3, 2)


# ---------------------------------------------------------------------------
# block kernels against colouring counts

def _mono_map_density(h: Graph, red: Graph) -> Fraction:
    """All-maps count: every edge red, or every edge not-red (collapsed
    endpoints land on the diagonal, which only the not-red side allows)."""
    n = red.n
    hits = 0
    for mp in itertools.product(range(n), repeat=h.n):
        if all(red.has_edge(mp[u], mp[v]) for u, v in h.edges):
            hits += 1
        if all(not red.has_edge(mp[u], mp[v]) for u, v in h.edges):
            hits += 1
    return Fraction(hits, n ** h.n)


def test_block_kernel_reproduces_colouring_homomorphism_counts():
    reds = [catalog("c5"), Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
            Graph(4, [(0, 1), (2, 3)])]
    for red in reds:
        w = block_graphon(red)
        for name in ("k2", "k1,2", "k3", "c4"):
            h = catalog(name)
            assert m(h, w) == _mono_map_density(h, red), (red, name)


def test_half_kernel_multiplicity_analogue():
    # at the half kernel m is exactly the random-colouring value the finite
    # counts normalize towards
    assert m(catalog("k3"), half()) == Fraction(1, 4)
    assert estimate_ramsey_constant(catalog("k3"), 7) < Fraction(1, 4)
