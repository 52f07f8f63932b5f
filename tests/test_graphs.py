import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commonality.graphs import (
    Graph,
    apex_add,
    are_isomorphic,
    canonical_form,
    catalog,
    catalog_all,
    catalog_names,
    complement,
    connected_bipartite_up_to_5,
    disjoint_union,
    drop_isolated,
    even_expansion,
    format_graph,
    graph_classes,
    induced_subgraph,
    is_bipartite,
    is_connected,
    is_tree,
    parse_graph,
    pendant_attach,
    relabel,
)
from oracles import canonical_brute, graph_classes_brute
from strategies import EXACT, small_graphs


def test_basic_counts():
    assert (catalog("k3").n, catalog("k3").e) == (3, 3)
    assert (catalog("k5").n, catalog("k5").e) == (5, 10)
    assert (catalog("c4").n, catalog("c4").e) == (4, 4)
    assert (catalog("p5").n, catalog("p5").e) == (5, 4)
    assert (catalog("k1,2").n, catalog("k1,2").e) == (3, 2)
    assert (catalog("k2,3").n, catalog("k2,3").e) == (5, 6)
    assert (catalog("k2,2,2").n, catalog("k2,2,2").e) == (6, 12)
    assert (catalog("diamond").n, catalog("diamond").e) == (4, 5)
    assert (catalog("k3plus").n, catalog("k3plus").e) == (4, 4)
    assert (catalog("jst").n, catalog("jst").e) == (7, 9)
    assert (catalog("h1").e, catalog("h2").e, catalog("h3").e, catalog("h4").e) == (6, 6, 6, 7)
    for name in ("h1", "h2", "h3", "h4"):
        assert catalog(name).n == 5


def test_catalog_aliases():
    assert are_isomorphic(catalog("diamond"), catalog("k1,1,2"))
    assert are_isomorphic(catalog("d:1"), catalog("diamond"))
    assert are_isomorphic(catalog("beachball:2"), catalog("k2,2,2"))
    assert are_isomorphic(catalog("c4"), catalog("k2,2"))
    assert are_isomorphic(catalog("p3"), catalog("k1,2"))
    assert are_isomorphic(catalog("c3"), catalog("k3"))


def test_catalog_d_k_and_beachball_sizes():
    # path plus two apexes: v = k+3, e = 3k+2
    for k in range(1, 5):
        g = catalog(f"d:{k}")
        assert (g.n, g.e) == (k + 3, 3 * k + 2)
    # doubled wheel over an even cycle: v = 2k+2, e = 6k
    for k in range(2, 5):
        g = catalog(f"beachball:{k}")
        assert (g.n, g.e) == (2 * k + 2, 6 * k)


def test_unknown_name():
    with pytest.raises(KeyError):
        catalog("frobnitz")


def test_parse_format_roundtrip():
    for name in ("k4", "jst", "h3", "p2"):
        g = catalog(name)
        assert parse_graph(format_graph(g)) == g
    g = parse_graph("3\n0 1\n1 2\n")
    assert g == Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        parse_graph("2\n0 2\n")
    with pytest.raises(ValueError):
        parse_graph("")


@EXACT
@given(small_graphs(max_n=16))
def test_parse_format_roundtrip_property(g):
    assert parse_graph(format_graph(g)) == g


def test_parsers_share_prelude_messages():
    from commonality.decomposition import parse_decomposition
    from commonality.graphons import parse_graphon

    for parse, what, count in ((parse_graph, "graph", "vertex count"),
                               (parse_graphon, "kernel", "part count"),
                               (parse_decomposition, "decomposition", "bag count")):
        with pytest.raises(ValueError) as exc:
            parse("  \n# only a comment\n\n")
        assert str(exc.value) == f"empty {what} description"
        with pytest.raises(ValueError) as exc:
            parse("# header\n  two \n0 1\n")
        assert str(exc.value) == f"bad {count} line: 'two'"


def test_predicates():
    assert is_connected(catalog("jst"))
    assert not is_connected(disjoint_union(catalog("k2"), catalog("k2")))
    assert is_tree(catalog("p5"))
    assert is_tree(catalog("k1,3"))
    assert not is_tree(catalog("c4"))
    assert is_bipartite(catalog("c6"))
    assert not is_bipartite(catalog("c5"))
    assert is_bipartite(catalog("k2,3"))


def test_complement_involution():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(1, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph(n, edges)
        assert complement(complement(g)) == g
        assert g.e + complement(g).e == n * (n - 1) // 2


def test_complements_of_named_graphs():
    # the house is the complement of the 5-path
    assert are_isomorphic(complement(catalog("h3")), catalog("p5"))
    assert are_isomorphic(complement(catalog("c5")), catalog("c5"))
    assert are_isomorphic(complement(catalog("k5")), Graph(5))


def test_canonical_is_invariant_and_idempotent():
    rng = random.Random(20260822)
    for _ in range(60):
        n = rng.randrange(2, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        cg = canonical_form(g)
        assert canonical_form(cg) == cg
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == cg


def test_canonical_separates_nonisomorphic():
    # both 2-regular on 6 vertices, so degree refinement alone cannot split them
    a = catalog("c6")
    b = disjoint_union(catalog("k3"), catalog("k3"))
    assert canonical_form(a) != canonical_form(b)
    c = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert canonical_form(catalog("c5")) != canonical_form(c)


def test_five_vertex_classes():
    # all graphs on 5 labelled vertices fall into 34 isomorphism classes,
    # exactly 2 of which are self-complementary (the 5-cycle and the bull)
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    classes = set()
    self_comp = set()
    for bits in range(1 << 10):
        g = Graph(5, [pairs[i] for i in range(10) if bits >> i & 1])
        cg = canonical_form(g)
        classes.add(cg)
        if canonical_form(complement(g)) == cg:
            self_comp.add(cg)
    assert len(classes) == 34
    assert len(self_comp) == 2
    bull = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
    assert canonical_form(catalog("c5")) in self_comp
    assert canonical_form(bull) in self_comp


def test_induced_and_drop_isolated():
    g = catalog("jst")
    assert are_isomorphic(induced_subgraph(g, [0, 1, 2]), catalog("k3"))
    assert are_isomorphic(induced_subgraph(g, [1, 3, 4]), catalog("k3"))
    assert induced_subgraph(g, [3, 5]).e == 0
    h = Graph(5, [(1, 3)])
    assert drop_isolated(h) == Graph(2, [(0, 1)])
    assert drop_isolated(Graph(4)) == Graph(0)


def test_even_expansion_triangle():
    ex = even_expansion(catalog("k3"))
    assert ex[Graph(0)] == 1
    assert ex[canonical_form(catalog("k1,2"))] == 3
    assert len(ex) == 2
    assert sum(ex.values()) == 4


def test_even_expansion_c4():
    ex = even_expansion(catalog("c4"))
    two_k2 = disjoint_union(catalog("k2"), catalog("k2"))
    assert ex[Graph(0)] == 1
    assert ex[canonical_form(two_k2)] == 2
    assert ex[canonical_form(catalog("k1,2"))] == 4
    assert ex[canonical_form(catalog("c4"))] == 1
    assert len(ex) == 4
    assert sum(ex.values()) == 8


def test_even_expansion_diamond():
    ex = even_expansion(catalog("diamond"))
    two_k2 = disjoint_union(catalog("k2"), catalog("k2"))
    assert ex[Graph(0)] == 1
    assert ex[canonical_form(two_k2)] == 2
    assert ex[canonical_form(catalog("k1,2"))] == 8
    assert ex[canonical_form(catalog("k3plus"))] == 4
    assert ex[canonical_form(catalog("c4"))] == 1
    assert len(ex) == 5
    assert sum(ex.values()) == 16
    # built once in (vertex count, edge count, edge list) order
    assert list(ex) == sorted(ex, key=lambda g: (g.n, g.e, g.sorted_edges()))


def test_even_expansion_total_is_half_the_subsets():
    for name in ("k2", "k1,2", "k4", "c5", "h1", "h4", "k2,3", "c7"):
        g = catalog(name)
        assert sum(even_expansion(g).values()) == 2 ** (g.e - 1)
        assert even_expansion(g)[Graph(0)] == 1


def test_apex_add():
    g = apex_add(catalog("c4"), 2)
    assert (g.n, g.e) == (6, 12)
    assert are_isomorphic(g, catalog("k2,2,2"))
    # apex vertices are pairwise non-adjacent
    assert not g.has_edge(4, 5)
    h = apex_add(catalog("k2"), 1)
    assert are_isomorphic(h, catalog("k3"))
    assert apex_add(catalog("p4"), 0) == catalog("p4")


def test_pendant_attach():
    k2 = catalog("k2")
    d = catalog("diamond")
    # vertices 2 and 3 of the stored diamond have degree 2, vertices 0 and 1 degree 3
    assert d.degree(2) == 2 and d.degree(0) == 3
    assert are_isomorphic(pendant_attach(k2, 0, d, 2), catalog("h1"))
    assert are_isomorphic(pendant_attach(k2, 0, d, 0), catalog("h2"))
    p3 = catalog("p3")
    g = pendant_attach(p3, 0, d, 2)
    assert (g.n, g.e) == (6, 7)
    with pytest.raises(ValueError):
        pendant_attach(catalog("c3"), 0, d, 0)


def test_pendant_edge_and_vertex_counts():
    rng = random.Random(5)
    for _ in range(20):
        tn = rng.randrange(2, 6)
        # random labelled tree via a growth process
        tedges = [(rng.randrange(i), i) for i in range(1, tn)]
        t = Graph(tn, tedges)
        h = catalog("c5")
        u = rng.randrange(tn)
        v = rng.randrange(h.n)
        g = pendant_attach(t, u, h, v)
        assert g.n == t.n + h.n - 1
        assert g.e == t.e + h.e


def test_connected_bipartite_up_to_5():
    got = connected_bipartite_up_to_5()
    assert len(got) == 10
    expected = ["k2", "k1,2", "k1,3", "p4", "c4", "k1,4", "chair", "p5", "k2,3-e", "k2,3"]
    # the battery reports the apex checks in this order
    assert got == tuple(canonical_form(catalog(n)) for n in expected)


def test_graph_classes_count_every_graph_once():
    # OEIS A000088; canonical_brute keys the classes without canonical_form
    for n, count in enumerate((1, 1, 2, 4, 11, 34, 156, 1044)):
        classes = graph_classes(n)
        assert len(classes) == len(set(classes)) == count, n
        assert all(canonical_form(g) == g for g in classes), n
        if n <= 6:
            assert len({canonical_brute(g) for g in classes}) == count, n


def test_graph_classes_match_every_labelled_graph():
    for n in range(6):
        assert set(graph_classes(n)) == graph_classes_brute(n), n


def test_cached_enumerations_reject_mutation():
    for cached in (graph_classes(4), connected_bipartite_up_to_5()):
        assert isinstance(cached, tuple)
        with pytest.raises(AttributeError):
            cached.pop()
    ex = even_expansion(catalog("c4"))
    with pytest.raises(TypeError):
        ex[Graph(0)] = 2
    with pytest.raises(AttributeError):
        ex.pop(Graph(0))
    assert ex[Graph(0)] == 1 and len(connected_bipartite_up_to_5()) == 10


def test_catalog_all_within_caps():
    for name, g in catalog_all():
        assert 1 <= g.n <= 16, name
    assert len(catalog_names()) == len(set(catalog_names()))


def test_canonical_handles_larger_graphs():
    # 12-vertex circulant relabelled at random still canonicalizes consistently
    n = 12
    base = Graph(n, [(i, (i + d) % n) for i in range(n) for d in (1, 3)])
    rng = random.Random(99)
    perm = list(range(n))
    rng.shuffle(perm)
    assert canonical_form(relabel(base, perm)) == canonical_form(base)


@st.composite
def graph_pairs(draw):
    # a graph on 4 to 7 vertices and a relabelling of it, after which up to
    # two degree-preserving switches (uv, xy -> ux, vy) follow, so the pair is
    # isomorphic or at least shares its degree sequence
    n = draw(st.integers(4, 7))
    pairs = list(itertools.combinations(range(n), 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    a = Graph(n, [p for p, bit in zip(pairs, bits) if bit])
    b = relabel(a, draw(st.permutations(range(n))))
    for _ in range(draw(st.integers(0, 2))):
        arcs = list(b.edges) + [(v, u) for u, v in b.edges]
        switches = [(u, v, x, y) for (u, v), (x, y) in itertools.permutations(arcs, 2)
                    if len({u, v, x, y}) == 4 and not b.has_edge(u, x) and not b.has_edge(v, y)]
        if not switches:
            break
        u, v, x, y = draw(st.sampled_from(switches))
        kept = [e for e in b.edges if set(e) not in ({u, v}, {x, y})]
        b = Graph(n, kept + [(u, x), (v, y)])
    return a, b


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(graph_pairs())
@example((catalog("c6"), disjoint_union(catalog("k3"), catalog("k3"))))
@example((catalog("c5"), complement(catalog("c5"))))
def test_canonical_form_matches_brute_oracle(pair):
    a, b = pair
    assert (canonical_form(a) == canonical_form(b)) == (canonical_brute(a) == canonical_brute(b))
    assert canonical_brute(canonical_form(a)) == canonical_brute(a)
