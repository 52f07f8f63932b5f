"""Release gate: the ten headline checks, one test each, tolerances pinned.

Everything sweeps the same seeded suite of one thousand random kernels on
two to four parts (plus the adversarial corners where exact invariants are
claimed), so a red line here points at the module named in the test, not at
kernel generation.  Budgets are wall-clock ceilings on a cold run.
"""
import math
import random
from fractions import Fraction
from time import monotonic

import numpy as np
import pytest

from commonality.certificate import (
    cross_validate_columns,
    load_certificate,
    verify_linear_algebra,
)
from commonality.decomposition import find_triangle_decomposition, random_triangle_tree
from commonality.density import expansion_value_many, m_many, t_hom_many, t_signed_many
from commonality.graphs import are_isomorphic, catalog, catalog_all, pendant_attach
from commonality.graphons import corner_graphons, random_suite
from commonality.inequalities import (
    beachball_h,
    beachball_p,
    beachball_p_positive_on_grid,
    beachball_p_shifted,
)
from commonality.search import (
    MinimizeConfig,
    exact_ramsey_multiplicity,
    grid_minimum_two_parts,
    gradient_m,
    minimize_m,
)
from commonality.graphons import StepGraphon, random_graphon
from commonality.density import m as m_single

SEED = 20260822
SUITE_SIZE = 1000


@pytest.fixture(scope="module")
def suite():
    return random_suite(SUITE_SIZE, SEED)


@pytest.fixture(scope="module")
def comp_suite(suite):
    return [w.one_minus() for w in suite]


@pytest.fixture(scope="module")
def trees():
    rng = random.Random(SEED)
    return [random_triangle_tree(rng, 1 + rng.randrange(12)) for _ in range(200)]


def test_criterion_01_expansion_identity_across_catalog(suite):
    t0 = monotonic()
    checked = 0
    for name, g in catalog_all():
        if g.e > 12:
            continue
        gap = np.abs(expansion_value_many(g, suite) - m_many(g, suite)).max()
        assert gap <= 1e-9, (name, float(gap))
        checked += 1
    assert checked >= 30
    assert monotonic() - t0 < 120


def test_criterion_02_triangle_cherry_identity(suite):
    mk3 = m_many(catalog("k3"), suite)
    mch = m_many(catalog("k1,2"), suite)
    assert np.abs(mk3 - (1.5 * mch - 0.5)).max() <= 1e-12


def test_criterion_03_triangle_tree_recognizer(trees):
    t0 = monotonic()
    for h in trees:
        rep = find_triangle_decomposition(h)
        assert rep is not None, h
        assert len(rep.decomposition.bags) == rep.phi == h.e - h.n + 1
        assert rep.edge_intersection_count == rep.kappa == 2 * h.e - 3 * h.n + 3
    for name in ("k2,2,2", "c5", "k4"):
        assert find_triangle_decomposition(catalog(name)) is None, name
    assert monotonic() - t0 < 60


def test_criterion_04_triangle_tree_chain_bounds(trees, suite, comp_suite):
    t3 = t_hom_many(catalog("k3"), suite)
    t2 = t_hom_many(catalog("k2"), suite)
    for h in trees:
        phi, kappa = h.e - h.n + 1, 2 * h.e - 3 * h.n + 3
        th = t_hom_many(h, suite)
        assert (th - t3 ** phi / t2 ** kappa).min() >= -1e-9, h
        mh = th + t_hom_many(h, comp_suite)
        assert (mh - float(Fraction(2) ** (1 - h.e))).min() >= -1e-9, h


def test_criterion_05_pendant_tree_chain_bounds(suite, comp_suite):
    t3 = {False: t_hom_many(catalog("k3"), suite),
          True: t_hom_many(catalog("k3"), comp_suite)}
    t2 = {False: t_hom_many(catalog("k2"), suite),
          True: t_hom_many(catalog("k2"), comp_suite)}

    def sweep(base, tree, u, v):
        phi, kappa = base.e - base.n + 1, 2 * base.e - 3 * base.n + 3
        assert tree.e <= kappa
        glued = pendant_attach(tree, u, base, v)
        for flip, kernels in ((False, suite), (True, comp_suite)):
            tg = t_hom_many(glued, kernels)
            bound = t3[flip] ** phi / t2[flip] ** (kappa - tree.e)
            assert (tg - bound).min() >= -1e-9
        mg = t_hom_many(glued, suite) + t_hom_many(glued, comp_suite)
        assert (mg - float(Fraction(2) ** (1 - glued.e))).min() >= -1e-9
        return glued

    diamond, k2 = catalog("diamond"), catalog("k2")
    assert are_isomorphic(sweep(diamond, k2, 0, 2), catalog("h1"))
    assert are_isomorphic(sweep(diamond, k2, 0, 0), catalog("h2"))

    rng = random.Random(SEED + 1)
    for _ in range(50):
        base = random_triangle_tree(rng, 2 + rng.randrange(4), max_vertices=11)
        kappa = 2 * base.e - 3 * base.n + 3
        t_edges = rng.randrange(kappa + 1)
        from commonality.graphs import Graph
        tree = Graph(t_edges + 1, [(i, rng.randrange(i)) for i in range(1, t_edges + 1)])
        sweep(base, tree, rng.randrange(tree.n), rng.randrange(base.n))


def test_criterion_06_diamond_ratio_and_signed_cauchy_schwarz(suite):
    md = m_many(catalog("diamond"), suite)
    mc4 = m_many(catalog("c4"), suite)
    for c in (1 / 7, (3 - math.sqrt(5)) / 4):
        assert ((md - 1 / 16) - c * (mc4 - 1 / 8)).min() >= -1e-9
    signed = [w.signed() for w in suite]
    star = t_signed_many(catalog("k1,2"), signed)
    c4s = t_signed_many(catalog("c4"), signed)
    tail = t_signed_many(catalog("k3plus"), signed)
    assert star.min() >= -1e-9
    assert c4s.min() >= -1e-9
    assert (star * c4s - tail ** 2).min() >= -1e-9


def test_criterion_07_doubled_wheel_algebra():
    assert beachball_h(2, Fraction(1, 7), Fraction(1, 4)) == Fraction(1, 2048)
    xs = [Fraction(1, 4) + Fraction(i, 64) for i in range(241)]
    for k in range(2, 11):
        assert all(beachball_p(k, x) == beachball_p_shifted(k, x) for x in xs)
        assert beachball_p_positive_on_grid(k)


def test_criterion_08_certificate_verification(suite):
    t0 = monotonic()
    cert = load_certificate()
    lin = verify_linear_algebra(cert)
    assert lin.rank_a == 15 and lin.rank_b == 15
    assert lin.weights_match_a and lin.weights_match_b
    assert lin.nonnegative_a and lin.nonnegative_b
    assert lin.product_match_a and lin.product_match_b
    cv = cross_validate_columns(cert, count=100, seed=SEED)
    assert cv.route_gap <= 1e-8 and cv.direct_gap <= 1e-8 and cv.ok
    floors = corner_graphons()
    assert (m_many(catalog("h3"), suite + floors)
            - float(Fraction(2) ** -5)).min() >= -1e-9
    assert (m_many(catalog("h4"), suite + floors)
            - float(Fraction(2) ** -6)).min() >= -1e-9
    assert monotonic() - t0 < 60


def test_criterion_09_optimizer_and_witness_search():
    # analytic gradient against the central stencil, entries kept interior
    # so the stencil stays inside the value box
    rng = np.random.default_rng(SEED)
    pool = ["k2", "k3", "k1,2", "p4", "c4", "c5", "diamond", "k3plus", "chair",
            "bull", "k4", "h1", "h3"]
    worst = 0.0
    for trial in range(50):
        h = catalog(pool[trial % len(pool)])
        k = 2 + trial % 3
        raw = random_graphon(k, rng)
        V = 0.05 + 0.9 * np.array(raw.values)
        V = (V + V.T) / 2
        grad = gradient_m(h, StepGraphon(V.tolist(), list(raw.weights)))
        d = 1e-5
        for p in range(k):
            for q in range(p, k):
                vp, vm = V.copy(), V.copy()
                vp[p, q] = vp[q, p] = vp[p, q] + d
                vm[p, q] = vm[q, p] = vm[p, q] - d
                fd = (m_single(h, StepGraphon(vp.tolist(), list(raw.weights)))
                      - m_single(h, StepGraphon(vm.tolist(), list(raw.weights)))) / (2 * d)
                worst = max(worst, abs(fd - grad[p, q]))
    assert worst <= 1e-6

    res = minimize_m(catalog("k3"), MinimizeConfig(parts=3, restarts=32, seed=SEED))
    assert abs(res.value - 0.25) <= 1e-5
    res = minimize_m(catalog("c4"), MinimizeConfig(parts=3, restarts=32, seed=SEED))
    assert abs(res.value - 0.125) <= 1e-5

    # optimizer-free floor first, then the optimizer with escalating parts
    grid_val, _ = grid_minimum_two_parts(catalog("k3plus"), resolution=64)
    assert grid_val < 0.125
    best = math.inf
    for parts in (2, 3, 4):
        res = minimize_m(catalog("k3plus"), MinimizeConfig(parts=parts, restarts=32, seed=SEED))
        best = min(best, res.value)
        if best < 0.125 - 1e-6:
            break
    assert best < 0.125


def test_criterion_10_finite_ramsey_counts():
    t0 = monotonic()
    k3 = catalog("k3")
    assert exact_ramsey_multiplicity(k3, 5) == 0
    assert exact_ramsey_multiplicity(k3, 6) == 12
    assert monotonic() - t0 < 10
