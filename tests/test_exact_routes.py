"""Exact routes against independent oracles: densities through the
elimination engine against assignment enumeration, certificate values from
class totals against the full 1024-pattern sum, and the certificate
identity as exact Fraction equalities."""
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import commonality
from commonality.certificate import (
    EXPRESSION_KEYS,
    TARGET_COLUMNS,
    coefficient_vector,
    evaluate_expression,
    load_certificate,
)
from commonality import density
from commonality.density import (
    expansion_value,
    expansion_value_many,
    m,
    m_many,
    t_complement,
    t_hom,
    t_signed,
)
from commonality.graphs import Graph, catalog, catalog_all
from commonality.graphons import StepGraphon, corner_graphons, half
from oracles import enumerated_density, induced_pattern_vector_exact
from strategies import EXACT, as_float, rational_kernels, seeded_rational_kernel, small_graphs


@EXACT
@given(rational_kernels(), small_graphs())
@example(half(), Graph(0))
@example(half(), Graph(4))
@example(half(), Graph(5, [(1, 3)]))
def test_exact_densities_match_enumeration(w, g):
    got = t_hom(g, w)
    assert type(got) is Fraction
    assert got == enumerated_density(g, w.values, w.weights)
    u = w.signed()
    got = t_signed(g, u)
    assert type(got) is Fraction
    assert got == enumerated_density(g, u.values, u.weights)


@EXACT
@given(rational_kernels(min_parts=2, min_raw=1), small_graphs())
@example(StepGraphon([[Fraction(1, 2), Fraction(1, 5)], [Fraction(1, 5), 1]],
                     [Fraction(1, 3), Fraction(2, 3)]),
         Graph(5, [(0, 1), (1, 2)]))
@example(StepGraphon([[Fraction(3, 97), Fraction(50, 101), 1],
                      [Fraction(50, 101), Fraction(96, 97), 0],
                      [1, 0, Fraction(1, 2)]],
                     [Fraction(1, 97), Fraction(1, 101), 1 - Fraction(1, 97) - Fraction(1, 101)]),
         Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3)]))
def test_complement_route_matches_enumeration(w, g):
    # at least two positive weights, so the weight denominators' lcm E
    # exceeds 1 and a wrong power of E (isolated vertices counted) shows
    tbar = t_complement(g, w)
    assert type(tbar) is Fraction
    assert tbar == t_hom(g, w.one_minus())
    assert m(g, w) == t_hom(g, w) + tbar
    wbar = w.one_minus()
    assert tbar == enumerated_density(g, wbar.values, wbar.weights)
    assert m(g, w) == enumerated_density(g, w.values, w.weights) + tbar


@settings(EXACT, max_examples=4)
@given(rational_kernels())
def test_class_total_route_matches_pattern_sum(w):
    tau = induced_pattern_vector_exact(w)
    for key in EXPRESSION_KEYS:
        want = sum(c * t for c, t in zip(coefficient_vector(key), tau))
        assert evaluate_expression(key, w, exact=True) == want, key


@EXACT
@given(rational_kernels(), small_graphs())
def test_float_and_exact_routes_agree(w, g):
    wf = as_float(w)
    assert abs(t_hom(g, wf) - float(t_hom(g, w))) <= 1e-9
    assert abs(t_signed(g, wf.signed()) - float(t_signed(g, w.signed()))) <= 1e-9
    for key in EXPRESSION_KEYS:
        exact = evaluate_expression(key, w, exact=True)
        assert abs(evaluate_expression(key, wf, exact=False) - float(exact)) <= 1e-9, key


def test_density_cache_keeps_exact_and_float_apart():
    # Fraction(1, 2) == 0.5 and both hash alike, so a cache keyed on the
    # kernel's tuples alone would hand one route's result to the other
    exact, flt = half(), StepGraphon([[0.5]])
    for order in ((exact, flt), (flt, exact)):
        density._kernel.cache_clear()
        for w in order:
            for g in (catalog("k3"), catalog("c4")):
                want = Fraction if w.exact else float
                got = [t_hom(g, w), t_signed(g, w.signed()), m(g, w), t_complement(g, w)]
                assert [type(x) for x in got] == [want] * 4
                assert got == [Fraction(1, 8) if g.e == 3 else Fraction(1, 16),
                               0, 2 * Fraction(1, 2) ** g.e, Fraction(1, 2) ** g.e]


SMALL_CATALOG = [name for name, g in catalog_all() if g.e <= 8]


@EXACT
@given(rational_kernels(), st.sampled_from(SMALL_CATALOG))
def test_expansion_value_equals_m(w, name):
    g = catalog(name)
    want = m(g, w)
    assert expansion_value(g, w) == want
    wf = as_float(w)
    assert abs(expansion_value(g, wf) - float(want)) <= 1e-12
    assert abs(m(g, wf) - float(want)) <= 1e-12


@EXACT
@given(rational_kernels(), small_graphs())
def test_expansion_value_equals_m_on_small_graphs(w, g):
    # the identity is a fact about every graph, so it is drawn over labelled
    # graphs with isolated vertices and several components as well; the
    # packed float route is checked on the same draw
    want = m(g, w)
    assert expansion_value(g, w) == want
    batch = [as_float(w), as_float(w.one_minus()), w]
    got = expansion_value_many(g, batch)
    assert np.max(np.abs(got - m_many(g, batch))) <= 1e-12
    assert abs(got[0] - float(want)) <= 1e-12


def test_certificate_identity_exact():
    # x_A . (F_j)_{j != 16} == F_vA and x_B . (F_j)_{j != 15} == F_vB as
    # Fraction equalities, with every column nonnegative
    cert = load_certificate()
    keep_a, keep_b = TARGET_COLUMNS["vA"], TARGET_COLUMNS["vB"]
    pos_a = EXPRESSION_KEYS.index("vA")
    pos_b = EXPRESSION_KEYS.index("vB")
    rng = random.Random(1906)
    kernels = [seeded_rational_kernel(k, rng) for k in (1, 2, 3, 4, 5) for _ in range(2)]
    for w in kernels + corner_graphons():
        vals = [evaluate_expression(key, w, exact=True) for key in EXPRESSION_KEYS]
        assert all(type(v) is Fraction for v in vals)
        assert all(v >= 0 for v in vals[:16])
        assert sum(x * vals[j] for x, j in zip(cert.weights_a, keep_a)) == vals[pos_a]
        assert sum(x * vals[j] for x, j in zip(cert.weights_b, keep_b)) == vals[pos_b]


def test_exact_guards_raise_value_error_under_optimize():
    # every size, exactness and configuration guard, every precondition of
    # the inequality battery, and every input check on graphs, decompositions
    # and exact matrices must survive python -O, which strips assert
    # statements
    script = "\n".join([
        "import random",
        "from fractions import Fraction",
        "from commonality.certificate import evaluate_expression",
        "from commonality.decomposition import (extend_with_pendant_tree,",
        "    find_triangle_decomposition, random_triangle_tree)",
        "from commonality.density import t_hom",
        "from commonality.exactlinalg import mat_vec, rank",
        "from commonality.graphs import (Graph, apex_add, catalog, even_expansion,",
        "    pendant_attach, relabel)",
        "from commonality.graphons import StepGraphon, constant_graphon, half",
        "from commonality.inequalities import (beachball_h, check_apex_chain,",
        "    check_beachball_chain, check_diamond_lemma, check_holder)",
        "from commonality.search import MinimizeConfig, grid_minimum_two_parts",
        "k2, k3 = catalog('k2'), catalog('k3')",
        "dia = catalog('diamond')",
        "tree = find_triangle_decomposition(dia).decomposition",
        "cases = [lambda: evaluate_expression(1, StepGraphon([[0.5]], [1.0]), exact=True),",
        "         lambda: t_hom(catalog('k5'), constant_graphon(Fraction(1, 2), k=40)),",
        "         lambda: MinimizeConfig(parts=0),",
        "         lambda: MinimizeConfig(restarts=0),",
        "         lambda: MinimizeConfig(max_iter=0),",
        "         lambda: grid_minimum_two_parts(catalog('k3'), resolution=0),",
        "         lambda: check_holder(k3, k2, k2, 3, 2, half()),",
        "         lambda: check_diamond_lemma(half(), Fraction(1, 5)),",
        "         lambda: check_diamond_lemma(half(), 0.21),",
        "         lambda: beachball_h(0, Fraction(1, 7), Fraction(1, 4)),",
        "         lambda: beachball_h(2, Fraction(1, 7), Fraction(1, 5)),",
        "         lambda: beachball_h(2, 0, Fraction(1, 4)),",
        "         lambda: check_beachball_chain(1, half()),",
        "         lambda: check_apex_chain(catalog('c4'), 0, half()),",
        "         lambda: Graph(17),",
        "         lambda: Graph(3, [(0, 3)]),",
        "         lambda: relabel(k3, [0, 0, 1]),",
        "         lambda: apex_add(k3, 14),",
        "         lambda: pendant_attach(k3, 0, dia, 0),",
        "         lambda: pendant_attach(k2, 2, dia, 0),",
        "         lambda: pendant_attach(catalog('p14'), 0, dia, 0),",
        "         lambda: even_expansion(catalog('k7')),",
        "         lambda: random_triangle_tree(random.Random(0), 0),",
        "         lambda: random_triangle_tree(random.Random(0), 15),",
        "         lambda: extend_with_pendant_tree(dia, tree, catalog('c4'), 0, 0),",
        "         lambda: rank([[1, 2], [1]]),",
        "         lambda: mat_vec([[1, 2]], [1])]",
        "for case in cases:",
        "    try:",
        "        case()",
        "    except ValueError:",
        "        print('ValueError')",
        "    else:",
        "        print('returned')",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(commonality.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 27

