import math
from fractions import Fraction

import pytest

from commonality.graphs import catalog
from commonality.graphons import StepGraphon, half, random_suite, corner_graphons
from commonality.density import m
from commonality.inequalities import (
    beachball_h,
    beachball_p,
    beachball_p_positive_on_grid,
    beachball_p_shifted,
    check_addtree_bound,
    check_apex_chain,
    check_apex_lemma,
    check_beachball_chain,
    check_diamond_lemma,
    check_goodman,
    check_holder,
    check_jtree_bound,
    check_k3plus_cs,
    check_tritree_chain,
    format_reports,
    standard_battery,
)

RATIONAL_W = StepGraphon(
    [[Fraction(1, 3), Fraction(2, 3)], [Fraction(2, 3), Fraction(1, 5)]],
    [Fraction(1, 4), Fraction(3, 4)],
)

SMALL_SUITE = random_suite(20, seed=1400)


def test_goodman_exact():
    r = check_goodman(half())
    assert r.holds and r.identity and r.slack == 0
    r = check_goodman(RATIONAL_W)
    assert r.holds and r.slack == 0


def test_goodman_float_suite():
    for w in SMALL_SUITE:
        r = check_goodman(w)
        assert r.holds
        assert abs(r.slack) <= 1e-12


def test_holder_diamond_tight_at_half():
    r = check_holder(catalog("diamond"), catalog("k3"), catalog("k2"), 2, 2, half())
    assert r.holds and r.applicable
    assert r.slack == 0
    assert r.lhs == Fraction(1, 16)


def test_holder_rejects_bad_exponents():
    with pytest.raises(ValueError):
        check_holder(catalog("k3"), catalog("k2"), catalog("k2"), 3, 2, half())


def test_holder_not_applicable_when_hypothesis_fails():
    r = check_holder(catalog("k3"), catalog("k2"), catalog("k2"), 1, 1, half())
    assert not r.applicable
    assert r.holds  # vacuous
    assert "hypothesis" in r.detail


def test_jtree_jst_tight_at_half():
    r = check_jtree_bound(catalog("jst"), half())
    assert r.holds and r.applicable
    assert r.lhs == Fraction(1, 512) and r.slack == 0
    r = check_jtree_bound(catalog("c5"), half())
    assert not r.applicable


def test_jtree_on_zero_kernel():
    zero = corner_graphons()[0]
    r = check_jtree_bound(catalog("diamond"), zero)
    assert r.holds


def test_tritree_chain():
    for name in ("jst", "diamond", "k1,1,3", "k1,1,4"):
        for w in SMALL_SUITE[:6]:
            reports = check_tritree_chain(catalog(name), w)
            assert all(r.holds for r in reports), (name, [r.tsv_row() for r in reports])
    reports = check_tritree_chain(catalog("jst"), half())
    final = [r for r in reports if r.name.endswith("common")][0]
    assert final.lhs == Fraction(1, 256) and final.slack == 0


def test_addtree():
    d = catalog("diamond")
    k2 = catalog("k2")
    for w in SMALL_SUITE[:6]:
        for v in (2, 0):
            reports = check_addtree_bound(k2, 0, d, v, w)
            assert len(reports) == 3
            assert all(r.holds and r.applicable for r in reports)
    reports = check_addtree_bound(k2, 0, d, 2, half())
    common = [r for r in reports if r.name == "addtree:common"][0]
    assert common.lhs == Fraction(1, 32) and common.slack == 0


def test_addtree_budget_exceeded_is_na():
    reports = check_addtree_bound(catalog("p3"), 0, catalog("diamond"), 0, half())
    assert len(reports) == 1 and not reports[0].applicable
    reports = check_addtree_bound(catalog("k2"), 0, catalog("jst"), 0, half())
    assert not reports[0].applicable  # kappa of the three-triangle chain is 0


def test_diamond_lemma():
    r = check_diamond_lemma(half(), Fraction(1, 7))
    assert r.holds and r.slack == 0
    r = check_diamond_lemma(half(), Fraction(19, 100))
    assert r.holds
    cmax = (3 - math.sqrt(5)) / 4
    for w in SMALL_SUITE:
        assert check_diamond_lemma(w, 1.0 / 7).holds
        assert check_diamond_lemma(w, cmax).holds
    with pytest.raises(ValueError):
        check_diamond_lemma(half(), Fraction(1, 5))
    with pytest.raises(ValueError):
        check_diamond_lemma(SMALL_SUITE[0], 0.21)


def test_k3plus_cs():
    for w in SMALL_SUITE:
        reports = check_k3plus_cs(w)
        assert all(r.holds for r in reports)
        assert all(r.witness is w for r in reports)
    reports = check_k3plus_cs(half())
    assert all(r.holds for r in reports)
    assert all(r.slack == 0 for r in reports)


def test_beachball_h_frozen_value():
    got = beachball_h(2, Fraction(1, 7), Fraction(1, 4))
    assert got == Fraction(1, 2048)
    assert got == Fraction(2) ** -11


def test_beachball_h_preconditions():
    with pytest.raises(ValueError):
        beachball_h(2, Fraction(1, 7), Fraction(1, 5))


def test_beachball_p_raw_equals_shifted():
    xs = [Fraction(1, 4), Fraction(3, 8), Fraction(7, 5), Fraction(4), Fraction(13, 64)]
    for k in range(2, 11):
        for x in xs:
            assert beachball_p(k, x) == beachball_p_shifted(k, x)


def test_beachball_p_positive():
    for k in (2, 5, 10):
        assert beachball_p_positive_on_grid(k)


def test_beachball_chain_tight_at_half():
    reports = check_beachball_chain(2, half())
    ratio = [r for r in reports if r.name.endswith("ratio")][0]
    assert ratio.lhs == Fraction(1, 2048) and ratio.slack == 0
    curve = [r for r in reports if r.name.endswith("curve")][0]
    assert abs(curve.slack) < 1e-15
    for w in SMALL_SUITE[:8]:
        assert all(r.holds for r in check_beachball_chain(2, w))
        assert all(r.holds for r in check_beachball_chain(3, w))


def test_apex_lemma():
    from commonality.graphs import connected_bipartite_up_to_5

    for h in connected_bipartite_up_to_5():
        r = check_apex_lemma(h, half())
        assert r.holds and r.slack == 0
        for w in SMALL_SUITE[:6]:
            assert check_apex_lemma(h, w).holds
    with pytest.raises(ValueError):
        check_apex_lemma(catalog("k3"), half())


def test_apex_chain():
    reports = check_apex_chain(catalog("c4"), 2, half())
    final = [r for r in reports if r.name.endswith("final")][0]
    assert final.lhs == Fraction(1, 2048) and final.slack == 0
    for w in SMALL_SUITE[:6]:
        assert all(r.holds for r in check_apex_chain(catalog("c4"), 2, w))
        assert all(r.holds for r in check_apex_chain(catalog("k2,3"), 1, w))
        assert all(r.holds for r in check_apex_chain(catalog("k2"), 3, w))


def test_standard_battery():
    reports = standard_battery(half())
    assert all(r.holds for r in reports)
    assert all(r.applicable for r in reports)
    for w in SMALL_SUITE[:4]:
        assert all(r.holds for r in standard_battery(w))


def test_format_reports():
    text = format_reports(standard_battery(half()))
    lines = text.strip().splitlines()
    assert lines[0] == "name\tholds\tslack\tlhs\trhs"
    assert all(len(ln.split("\t")) == 5 for ln in lines)
    assert all(ln.split("\t")[1] in ("true", "false", "na") for ln in lines[1:])
