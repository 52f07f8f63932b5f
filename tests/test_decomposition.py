import random

import pytest

from commonality.graphs import Graph, catalog, graph_classes, pendant_attach, relabel
from commonality.decomposition import (
    TreeDecomposition,
    extend_with_pendant_tree,
    find_triangle_decomposition,
    format_decomposition,
    is_j_decomposition,
    parse_decomposition,
    random_triangle_tree,
    validate,
    validate_diagnostics,
)
from oracles import is_triangle_tree


def test_single_triangle():
    rep = find_triangle_decomposition(catalog("k3"))
    assert rep is not None
    assert (rep.phi, rep.kappa) == (1, 0)
    assert rep.decomposition.bags == ((0, 1, 2),)
    assert rep.decomposition.tree_edges == ()
    assert validate(catalog("k3"), rep.decomposition)


def test_jst():
    g = catalog("jst")
    rep = find_triangle_decomposition(g)
    assert rep is not None
    assert (rep.phi, rep.kappa) == (3, 0)
    assert rep.edge_intersection_count == 0
    assert validate(g, rep.decomposition)
    assert is_j_decomposition(g, rep.decomposition, catalog("k3"))


def test_diamond_and_books():
    rep = find_triangle_decomposition(catalog("diamond"))
    assert (rep.phi, rep.kappa) == (2, 1)
    # k leaves joined to one edge: phi = k triangles, all sharing that edge
    for a in (3, 4, 5):
        g = catalog(f"k1,1,{a}")
        rep = find_triangle_decomposition(g)
        assert rep is not None
        assert (rep.phi, rep.kappa) == (a, a - 1)
        assert validate(g, rep.decomposition)
        assert is_j_decomposition(g, rep.decomposition, catalog("k3"))


def test_required_rejections():
    assert find_triangle_decomposition(catalog("k2,2,2")) is None
    assert find_triangle_decomposition(catalog("c5")) is None
    assert find_triangle_decomposition(catalog("k4")) is None
    assert find_triangle_decomposition(catalog("k5")) is None
    assert find_triangle_decomposition(catalog("c6")) is None
    assert find_triangle_decomposition(catalog("p4")) is None
    # these two have a triangle-tree's vertex and edge counts but edges in
    # no triangle
    assert find_triangle_decomposition(catalog("h3")) is None
    assert find_triangle_decomposition(catalog("h4")) is None


def test_bowtie():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    rep = find_triangle_decomposition(g)
    assert rep is not None
    assert (rep.phi, rep.kappa) == (2, 0)


def test_random_triangle_trees_recognized():
    # the flipped case relabels each tree and toggles one vertex pair, which
    # may or may not leave a triangle-tree
    for seed, flip in ((4242, False), (2718, True)):
        rng = random.Random(seed)
        accepted = 0
        for _ in range(40):
            bags = rng.randrange(1, 13)
            g = random_triangle_tree(rng, bags)
            assert g.n <= 16
            if flip:
                g = relabel(g, rng.sample(range(g.n), g.n))
                u, v = sorted(rng.sample(range(g.n), 2))
                g = Graph(g.n, set(g.edges) ^ {(u, v)})
            rep = find_triangle_decomposition(g)
            assert (rep is not None) == is_triangle_tree(g)
            if rep is None:
                continue
            accepted += 1
            assert rep.phi == g.e - g.n + 1
            assert flip or rep.phi == bags
            assert rep.kappa == 2 * g.e - 3 * g.n + 3
            assert len(rep.decomposition.bags) == rep.phi
            assert rep.edge_intersection_count == rep.kappa
            assert validate(g, rep.decomposition)
            assert is_j_decomposition(g, rep.decomposition, catalog("k3"))
        assert 0 < accepted < 40 if flip else accepted == 40


def test_agrees_with_gluing_orders_up_to_seven_vertices():
    graphs = [g for n in range(1, 8) for g in graph_classes(n)]
    assert len(graphs) == 1252
    accepted = 0
    for g in graphs:
        rep = find_triangle_decomposition(g)
        assert (rep is not None) == is_triangle_tree(g), g
        accepted += rep is not None
    assert accepted == 34


def test_sixteen_vertex_tree_recognized():
    g = random_triangle_tree(random.Random(108), 11)
    assert (g.n, g.e) == (16, 26)
    rep = find_triangle_decomposition(g)
    assert (rep.phi, rep.kappa) == (11, 7)
    assert validate(g, rep.decomposition)
    assert is_j_decomposition(g, rep.decomposition, catalog("k3"))


def test_validate_diagnostics():
    g = catalog("jst")
    rep = find_triangle_decomposition(g)
    d = rep.decomposition
    assert validate_diagnostics(g, d) == []

    missing_bag = TreeDecomposition(d.bags[:-1], d.tree_edges[:-1])
    probs = validate_diagnostics(g, missing_bag)
    assert probs and any("no bag" in p for p in probs)

    bad_tree = TreeDecomposition(d.bags, ((0, 1), (0, 1)))
    probs = validate_diagnostics(g, bad_tree)
    assert any("duplicate" in p or "disconnected" in p for p in probs)

    # separating the two bags holding vertex 1 breaks the subtree condition
    dd = TreeDecomposition(((0, 1, 2), (1, 3, 4), (2, 5, 6), (3, 5, 7)),
                           ((0, 3), (1, 3), (2, 3)))
    g2 = Graph(8, list(g.edges) + [(3, 7), (5, 7), (3, 5)])
    probs = validate_diagnostics(g2, dd)
    assert any("subtree" in p for p in probs)


def test_decomposition_without_bags_is_invalid():
    empty = TreeDecomposition((), ())
    for g in (Graph(0), catalog("k3")):
        assert validate_diagnostics(g, empty) == ["decomposition has no bags"]
        assert not validate(g, empty)
        with pytest.raises(ValueError, match="no bags"):
            is_j_decomposition(g, empty, catalog("k3"))
        with pytest.raises(ValueError, match="no bags"):
            extend_with_pendant_tree(g, empty, catalog("k2"), 0, 0)


def test_is_j_decomposition_rejects_wrong_bags():
    g = catalog("diamond")
    d = TreeDecomposition(((0, 1, 2), (0, 1, 3)), ((0, 1),))
    assert validate(g, d)
    assert is_j_decomposition(g, d, catalog("k3"))
    assert not is_j_decomposition(g, d, catalog("p3"))
    with pytest.raises(ValueError):
        is_j_decomposition(g, TreeDecomposition(((0, 1, 2),), ()), catalog("k3"))


def test_parse_format_roundtrip():
    g = catalog("jst")
    d = find_triangle_decomposition(g).decomposition
    assert parse_decomposition(format_decomposition(d)) == d
    with pytest.raises(ValueError):
        parse_decomposition("")
    with pytest.raises(ValueError):
        parse_decomposition("2\n0 1 2\n")


def test_extend_with_pendant_tree_path():
    h = catalog("diamond")
    d = find_triangle_decomposition(h).decomposition
    t = catalog("p3")
    glued, d2 = extend_with_pendant_tree(h, d, t, 0, 2)
    assert glued == pendant_attach(t, 0, h, 2)
    assert len(d2.bags) == len(d.bags) + t.e
    assert len(d2.tree_edges) == len(d.tree_edges) + t.e
    assert validate(glued, d2)
    # each new bag is one tree edge
    for bag in d2.bags[len(d.bags):]:
        assert len(bag) == 2 and glued.has_edge(*bag)


def test_extend_with_pendant_tree_star_center():
    h = catalog("jst")
    d = find_triangle_decomposition(h).decomposition
    t = catalog("k1,3")  # attach at the centre, which is not a leaf
    assert t.degree(0) == 3
    glued, d2 = extend_with_pendant_tree(h, d, t, 0, 4)
    assert glued == pendant_attach(t, 0, h, 4)
    assert validate(glued, d2)
    assert len(d2.bags) == len(d.bags) + 3


def test_extend_single_edge_at_leaf():
    h = catalog("k1,1,3")
    d = find_triangle_decomposition(h).decomposition
    t = catalog("k2")
    for v in range(h.n):
        glued, d2 = extend_with_pendant_tree(h, d, t, 0, v)
        assert validate(glued, d2)
        glued, d2 = extend_with_pendant_tree(h, d, t, 1, v)
        assert validate(glued, d2)


def test_extend_random_pairs():
    rng = random.Random(99)
    for _ in range(12):
        g = random_triangle_tree(rng, rng.randrange(2, 7))
        d = find_triangle_decomposition(g).decomposition
        tn = rng.randrange(2, 5)
        t = Graph(tn, [(rng.randrange(i), i) for i in range(1, tn)])
        if g.n + tn - 1 > 16:
            continue
        u = rng.randrange(tn)
        v = rng.randrange(g.n)
        glued, d2 = extend_with_pendant_tree(g, d, t, u, v)
        assert glued == pendant_attach(t, u, g, v)
        assert validate(glued, d2)
        assert len(d2.bags) == len(d.bags) + t.e


def test_extend_rejects_bad_inputs():
    h = catalog("diamond")
    d = find_triangle_decomposition(h).decomposition
    with pytest.raises(ValueError):
        extend_with_pendant_tree(h, d, catalog("c4"), 0, 0)
    with pytest.raises(ValueError):
        extend_with_pendant_tree(h, TreeDecomposition(((0, 1, 2),), ()), catalog("k2"), 0, 0)
    # non-triangle bags are refused even if the decomposition axioms hold
    c4 = catalog("c4")
    dc4 = TreeDecomposition(((0, 1, 2, 3),), ())
    assert validate(c4, dc4)
    with pytest.raises(ValueError):
        extend_with_pendant_tree(c4, dc4, catalog("k2"), 0, 0)
