import gc
import itertools
import random
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from commonality.decomposition import random_triangle_tree
from commonality.graphs import Graph, catalog, catalog_all, complement, even_expansion
from commonality.graphons import (
    StepGraphon,
    block_graphon,
    constant_graphon,
    corner_graphons,
    half,
    random_suite,
)
from commonality import density
from commonality.inequalities import standard_battery
from commonality.search import gradient_m
from commonality.density import (
    COLOURS,
    PAIRS5,
    _packed,
    _t_batch,
    elimination_order,
    expansion_value,
    expansion_value_many,
    induced_pattern_vector,
    integer_kernel,
    m,
    m_many,
    t_complement,
    t_hom,
    t_hom_many,
    t_signed,
    t_signed_many,
)
from oracles import enumerated_density, induced_pattern_vector_exact, t_induced
from strategies import seeded_rational_kernel

RATIONAL_W = StepGraphon(
    [[Fraction(1, 3), Fraction(2, 3)], [Fraction(2, 3), Fraction(1, 5)]],
    [Fraction(1, 4), Fraction(3, 4)],
)


def brute_hom_count(h: Graph, g: Graph) -> int:
    # reference oracle: count all adjacency-preserving vertex maps directly
    count = 0
    for assign in itertools.product(range(g.n), repeat=h.n):
        if all(g.has_edge(assign[u], assign[v]) for u, v in h.edges):
            count += 1
    return count


def test_t_hom_at_half():
    assert t_hom(catalog("k3"), half()) == Fraction(1, 8)
    assert t_hom(catalog("c4"), half()) == Fraction(1, 16)
    assert t_hom(catalog("p3"), half()) == Fraction(1, 4)
    assert t_hom(Graph(3), half()) == 1
    assert t_hom(Graph(0), half()) == 1


def test_m_at_half_is_two_to_one_minus_e():
    for name in ("k2", "k3", "c4", "c5", "diamond", "k3plus", "h1", "h2", "h3",
                 "h4", "jst", "k2,2,2", "d:2"):
        g = catalog(name)
        assert m(g, half()) == Fraction(2) ** (1 - g.e), name


def test_t_hom_against_block_counts():
    import random

    rng = random.Random(31)
    for _ in range(25):
        gn = rng.randrange(2, 6)
        g = Graph(gn, [(u, v) for u in range(gn) for v in range(u + 1, gn)
                       if rng.random() < 0.5])
        hname = rng.choice(["k2", "p3", "k3", "c4", "k1,3"])
        h = catalog(hname)
        want = Fraction(brute_hom_count(h, g), g.n ** h.n)
        assert t_hom(h, block_graphon(g)) == want


def test_t_hom_bipartite_block():
    w = block_graphon(Graph(2, [(0, 1)]))
    assert t_hom(catalog("k3"), w) == 0
    assert t_hom(catalog("c4"), w) == Fraction(1, 8)
    wbar = w.one_minus()
    assert t_hom(catalog("k3"), wbar) == Fraction(1, 4)


def test_float_matches_exact():
    wf = StepGraphon([[float(x) for x in row] for row in RATIONAL_W.values],
                     [float(x) for x in RATIONAL_W.weights])
    for name in ("k3", "c4", "c5", "diamond", "jst"):
        g = catalog(name)
        assert abs(t_hom(g, wf) - float(t_hom(g, RATIONAL_W))) < 1e-12
        assert abs(m(g, wf) - float(m(g, RATIONAL_W))) < 1e-12


def test_t_signed():
    u = half().signed()
    assert t_signed(Graph(0), u) == 1
    assert t_signed(Graph(3), u) == 1
    assert t_signed(catalog("k2"), u) == 0
    ru = RATIONAL_W.signed()
    # a single edge integrates the signed kernel
    s = Fraction(0)
    for i in range(2):
        for j in range(2):
            s += ru.weights[i] * ru.weights[j] * ru.values[i][j]
    assert t_signed(catalog("k2"), ru) == s


def test_expansion_value_exact():
    for name in ("k2", "k3", "c4", "diamond", "c5", "h1"):
        g = catalog(name)
        assert expansion_value(g, half()) == m(g, half()), name
        assert expansion_value(g, RATIONAL_W) == m(g, RATIONAL_W), name


def test_expansion_value_float_suite():
    suite = random_suite(24, seed=77)
    for name in ("k3", "c4", "diamond", "h2"):
        g = catalog(name)
        ev = expansion_value_many(g, suite)
        mv = m_many(g, suite)
        assert np.max(np.abs(ev - mv)) < 1e-9, name
        for i in (0, 7):
            assert abs(expansion_value(g, suite[i]) - m(g, suite[i])) < 1e-9


def test_many_matches_single():
    # part counts 1..4 shuffled together, then the exact corner kernels: the
    # batched outputs must come back in input order, and each graph runs at
    # every part count in turn
    floats = random_suite(24, seed=3, ks=(1, 2, 3, 4))
    random.Random(3).shuffle(floats)
    suite = floats + corner_graphons()
    for name in ("c5", "k3", "k4", "jst"):
        g = catalog(name)
        ts = t_hom_many(g, suite)
        ms = m_many(g, suite)
        xs = expansion_value_many(g, suite)
        for i, w in enumerate(suite):
            assert abs(ts[i] - t_hom(g, w)) < 1e-12
            assert abs(ms[i] - m(g, w)) < 1e-12
            assert abs(xs[i] - expansion_value(g, w)) < 1e-12
        # the flip and the signing on packed arrays equal the kernel-object route
        n = len(floats)
        flipped = t_hom_many(g, floats) + t_hom_many(g, [w.one_minus() for w in floats])
        assert np.array_equal(ms[:n], flipped)
        signed = [w.signed() for w in floats]
        total = np.zeros(n)
        for f, c in even_expansion(g).items():
            total += float(c) * t_signed_many(f, signed)
        assert np.array_equal(xs[:n], float(Fraction(2) ** (1 - g.e)) * total)


def _many(g, suite):
    return (t_hom_many(g, suite), m_many(g, suite), expansion_value_many(g, suite),
            t_signed_many(g, [w.signed() for w in suite]))


def test_suite_pack_is_cached_and_read_without_copies():
    suite = random_suite(30, seed=8, ks=(1, 2, 3, 4)) + corner_graphons()
    first = _many(catalog("jst"), suite)
    hits = _packed.cache_info().hits
    again = _many(catalog("jst"), suite)
    # three calls on the suite itself hit its pack; the signed list is
    # rebuilt, but its kernels are equal, so it hits too
    assert _packed.cache_info().hits == hits + 4
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    for idxs, mu, colours, den in _packed(tuple(suite)).groups:
        # a suite packs float kernels, the corners included
        assert den is None and all(a.dtype == np.float64 for a in colours.values())
        assert sorted(colours) == sorted(COLOURS)
        arrays = (idxs, mu) + tuple(colours.values())
        assert not any(a.flags.writeable for a in arrays)
        # each view _t_batch turns back into batch-last is contiguous
        for a in arrays[1:]:
            assert len(a) == len(idxs) and np.moveaxis(a, 0, -1).flags.c_contiguous


def _shuffled_suite(seed):
    floats = random_suite(24, seed=seed, ks=(1, 2, 3, 4))
    random.Random(seed).shuffle(floats)
    return floats + corner_graphons()


def _per_group(g, suite, colour):
    """The density of g in one colour of the suite, one _t_batch call per
    part count on kernels stacked batch-first from the kernel objects."""
    out = np.empty(len(suite))
    for k in {w.k for w in suite}:
        idxs = [i for i, w in enumerate(suite) if w.k == k]
        V = np.array([suite[i].values for i in idxs], dtype=np.float64)
        mu = np.array([suite[i].weights for i in idxs], dtype=np.float64)
        V = {"w": V, "1-w": 1.0 - V, "2w-1": 2.0 * V - 1.0}[colour]
        out[idxs] = _t_batch(g, V, mu)
    return out


def test_density_table_cold_and_warm_match_per_group_contractions():
    suite = _shuffled_suite(31)
    for name in ("k3", "c5", "k4", "jst", "k3plus"):
        g = catalog(name)
        ref = {c: _per_group(g, suite, c) for c in COLOURS}
        _packed.cache_clear()
        pack = _packed(tuple(suite))
        cold = {c: pack.density(g, c) for c in COLOURS}
        assert pack.density.cache_info().misses == len(COLOURS)
        warm = {c: pack.density(g, c) for c in COLOURS}
        assert pack.density.cache_info().hits == len(COLOURS)
        for c in COLOURS:
            assert np.array_equal(cold[c], ref[c]) and warm[c] is cold[c], (name, c)
        assert np.array_equal(t_hom_many(g, suite), ref["w"])
        assert np.array_equal(m_many(g, suite), ref["w"] + ref["1-w"])
        total = np.zeros(len(suite))
        for f, c in even_expansion(g).items():
            total += float(c) * _per_group(f, suite, "2w-1")
        expected = float(Fraction(2) ** (1 - g.e)) * total
        # on a cold table, then on a warm one
        _packed.cache_clear()
        assert np.array_equal(expansion_value_many(g, suite), expected), name
        assert np.array_equal(expansion_value_many(g, suite), expected), name


def test_expansion_reads_shared_subgraph_classes_from_the_table(monkeypatch):
    suite = _shuffled_suite(32)
    groups = len({w.k for w in suite})
    first, second = catalog("diamond"), catalog("k3plus")
    shared = set(even_expansion(first).terms) & set(even_expansion(second).terms)
    assert len(shared) >= 3
    _packed.cache_clear()
    expansion_value_many(first, suite)
    contracted = []

    def counting(g, V, mu):
        contracted.append(g)
        return _t_batch(g, V, mu)

    monkeypatch.setattr(density, "_t_batch", counting)
    expansion_value_many(second, suite)
    fresh = set(even_expansion(second).terms) - shared
    assert Counter(contracted) == {f: groups for f in fresh}
    # m_many after t_hom_many contracts only the complement
    t_hom_many(second, suite)
    del contracted[:]
    m_many(second, suite)
    assert len(contracted) == groups


def test_a_sweep_round_keeps_the_catalog_in_the_table(monkeypatch):
    # a suite-sweep round: the catalog's expansions and m, then fresh
    # triangle trees read once.  The table must still hold every catalog
    # entry when the next round reads it: a table smaller than the round's
    # ~217 entries evicts each before its reuse and recontracts it.
    suite = random_suite(1000, seed=21)
    graphs = [g for _, g in catalog_all() if g.e <= 12]
    rng = random.Random(21)
    trees = [random_triangle_tree(rng, 1 + i % 12) for i in range(36)]
    _packed.cache_clear()
    table = _packed(tuple(suite)).density

    def sweep():
        return [(expansion_value_many(g, suite), m_many(g, suite)) for g in graphs]

    first = sweep()
    for h in trees:
        t_hom_many(h, suite)
        m_many(h, suite)
    contracted = []

    def counting(g, V, mu):
        contracted.append(g)
        return _t_batch(g, V, mu)

    monkeypatch.setattr(density, "_t_batch", counting)
    misses = table.cache_info().misses
    second = sweep()
    assert contracted == [] and table.cache_info().misses == misses
    monkeypatch.undo()
    # bit for bit what a cold table gives, graph by graph
    for g, warm, kept in zip(graphs, second, first):
        table.cache_clear()
        cold = (expansion_value_many(g, suite), m_many(g, suite))
        for a, b, c in zip(warm, kept, cold):
            assert np.array_equal(a, c) and np.array_equal(b, c), g


def test_writing_a_returned_array_leaves_the_table_alone():
    suite = _shuffled_suite(33)
    g = catalog("c5")
    before = t_hom_many(g, suite)
    for out in (t_hom_many(g, suite), m_many(g, suite), expansion_value_many(g, suite),
                t_signed_many(g, suite)):
        out[:] = -7.0
    assert np.array_equal(t_hom_many(g, suite), before)
    entry = _packed(tuple(suite)).density(g, "w")
    assert not entry.flags.writeable
    with pytest.raises(ValueError):
        entry[0] = 0.0


def test_evicting_a_pack_frees_its_densities():
    suite = _shuffled_suite(34)
    m_many(catalog("k3"), suite)
    pack = _packed(tuple(suite))
    refs = [weakref.ref(pack), weakref.ref(pack.density(catalog("k3"), "w"))]
    del pack
    _packed.cache_clear()
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_many_after_the_suite_list_changes_in_place():
    suite = random_suite(20, seed=11, ks=(1, 2, 3, 4)) + corner_graphons()
    g = catalog("diamond")
    _many(g, suite)
    rng = random.Random(11)
    for change in ("shuffle", "replace", "append"):
        if change == "shuffle":
            rng.shuffle(suite)
        elif change == "replace":
            suite[3] = random_suite(1, seed=12, ks=(3,))[0]
        else:
            suite.append(half().one_minus())
        ts, ms, xs, ss = _many(g, suite)
        for i, w in enumerate(suite):
            assert abs(ts[i] - t_hom(g, w)) < 1e-12, change
            assert abs(ms[i] - m(g, w)) < 1e-12, change
            assert abs(xs[i] - expansion_value(g, w)) < 1e-12, change
            assert abs(ss[i] - t_signed(g, w.signed())) < 1e-12, change


def test_one_kernel_is_the_pack_of_w_and_its_complement():
    # an exact kernel packs over its own common denominators: the colours
    # are P, D - P and 2P - D in Python integers, one row per kernel of the
    # suite (w, 1 - w), and each density divides by that kernel's D^e E^v
    wbar = RATIONAL_W.one_minus()
    (idxs, mu, colours, (D, E)), = density._kernel(RATIONAL_W, True).groups
    ints = [integer_kernel(x.values, x.weights) for x in (RATIONAL_W, wbar)]
    assert list(idxs) == [0, 1] and list(D) == [ints[0][2], ints[1][2]]
    assert list(E) == [ints[0][3], ints[1][3]]
    for i, (P, q, _, _) in enumerate(ints):
        assert np.array_equal(colours["w"][i], P) and np.array_equal(mu[i], q)
        assert np.array_equal(colours["1-w"][i], D[i] - P)
        assert np.array_equal(colours["2w-1"][i], 2 * P - D[i])
    assert all(type(x) is int for a in colours.values() for x in a.ravel())
    signed = RATIONAL_W.signed()
    for name in ("k3", "c4", "k3plus"):
        g = catalog(name)
        want = [enumerated_density(g, x.values, x.weights) for x in (RATIONAL_W, wbar, signed)]
        assert [t_hom(g, RATIONAL_W), t_complement(g, RATIONAL_W), t_signed(g, signed)] == want
        assert m(g, RATIONAL_W) == want[0] + want[1]
        assert density._kernel(RATIONAL_W, True).density(g, "2w-1")[0] == want[2]
    # a float kernel is the same suite of two in float64
    wf = random_suite(1, seed=40, ks=(3,))[0]
    (_, _, colours, den), = density._kernel(wf, False).groups
    assert den is None and len(colours["w"]) == 2
    assert np.array_equal(colours["w"][1], np.array(wf.one_minus().values))


def test_battery_contracts_each_request_once(monkeypatch):
    # a battery's density requests on one kernel are 30 contractions of the
    # batch (w, 1 - w) and 3 of the signed kernel 2w - 1
    sizes = []

    def counting(g, V, mu):
        sizes.append(len(V))
        return _t_batch(g, V, mu)

    monkeypatch.setattr(density, "_t_batch", counting)
    for w in (random_suite(1, seed=41, ks=(3,))[0], RATIONAL_W):
        density._kernel.cache_clear()
        del sizes[:]
        standard_battery(w)
        assert (len(sizes), sum(sizes)) == (33, 63), w.exact


def test_expansion_value_contracts_the_signed_kernel_alone(monkeypatch):
    # the expansion reads t_F(2w - 1) only, so each subgraph class is one
    # contraction of a batch of one, not of the pair (2w - 1, 1 - 2w)
    sizes = []

    def counting(g, V, mu):
        sizes.append(len(V))
        return _t_batch(g, V, mu)

    monkeypatch.setattr(density, "_t_batch", counting)
    g = catalog("beachball:2")
    for w in (random_suite(1, seed=42, ks=(4,))[0], RATIONAL_W):
        density._kernel.cache_clear()
        del sizes[:]
        expansion_value(g, w)
        assert sizes and set(sizes) == {1}, w.exact
        assert len(sizes) == len(even_expansion(g)), w.exact


def test_numpy_integer_fractions_stay_exact():
    # Fraction(np.int64(5), 12) keeps an int64 numerator, which overflowed
    # the integer contraction without an error
    def kernel(num):
        v = [[Fraction(num(5), 12), Fraction(num(7), 12)],
             [Fraction(num(7), 12), Fraction(num(1), 12)]]
        return StepGraphon(v, [Fraction(num(5), 12), Fraction(num(7), 12)])

    g = catalog("beachball:3")
    w = kernel(np.int64)
    assert all(type(x.numerator) is int and type(x.denominator) is int
               for x in itertools.chain(w.weights, *w.values))
    density._kernel.cache_clear()
    got = t_hom(g, w), m(g, w), [r.tsv_row() for r in standard_battery(w)]
    density._kernel.cache_clear()
    plain = kernel(int)
    assert got == (t_hom(g, plain), m(g, plain), [r.tsv_row() for r in standard_battery(plain)])
    assert got[0] > 0


def test_float_evaluations_have_a_size_cap():
    # 5^16 float64 entries per kernel: a ValueError naming the part count
    # and width, before any array is allocated, on every float route
    g, w = catalog("k16"), random_suite(1, seed=42, ks=(5,))[0]
    for call in (lambda: t_hom(g, w), lambda: m_many(g, [w]), lambda: gradient_m(g, w)):
        with pytest.raises(ValueError, match="float evaluation too large: 5 parts"):
            call()
    with pytest.raises(ValueError, match="exact evaluation too large"):
        t_hom(catalog("k9"), block_graphon(catalog("k5")))
    # the cap itself passes: 4^12 = 2^24 entries at 4 parts and width 11
    assert density._capped_plan(catalog("k12"), 4, False)


def test_elimination_order_widths():
    assert elimination_order(catalog("p5"))[1] == 1
    assert elimination_order(catalog("c5"))[1] == 2
    assert elimination_order(catalog("k4"))[1] == 3
    assert elimination_order(catalog("jst"))[1] == 2
    order, _ = elimination_order(catalog("c4"))
    assert sorted(order) == [0, 1, 2, 3]


def test_induced_partition_of_unity():
    w = random_suite(1, seed=11)[0]
    total = 0.0
    pairs = [(0, 1), (0, 2), (1, 2)]
    for bits in range(8):
        g = Graph(3, [pairs[i] for i in range(3) if bits >> i & 1])
        total += t_induced(g, w)
    assert abs(total - 1) < 1e-12
    total_exact = sum(
        t_induced(Graph(3, [pairs[i] for i in range(3) if bits >> i & 1]), RATIONAL_W)
        for bits in range(8)
    )
    assert total_exact == 1


def test_induced_at_half():
    assert t_induced(catalog("c5"), half()) == Fraction(1, 1024)
    c5 = catalog("c5")
    assert t_induced(c5, half()) + t_induced(complement(c5), half()) == Fraction(1, 512)
    assert t_induced(catalog("k3"), half()) == Fraction(1, 8)


def test_pattern_vector():
    suite = random_suite(3, seed=21)
    for w in suite:
        vec = induced_pattern_vector(w)
        assert vec.shape == (1024,)
        assert abs(vec.sum() - 1) < 1e-10
        # spot check a couple of masks against the direct induced density
        for mask in (0, 5, 1023, 341):
            g = Graph(5, [PAIRS5[p] for p in range(10) if mask >> p & 1])
            assert abs(vec[mask] - t_induced(g, w)) < 1e-12
    vec_half = induced_pattern_vector(half())
    assert np.allclose(vec_half, 1.0 / 1024)


def test_pattern_vector_exact_matches_float():
    vec = induced_pattern_vector_exact(RATIONAL_W)
    assert sum(vec) == 1
    wf = StepGraphon([[float(x) for x in row] for row in RATIONAL_W.values],
                     [float(x) for x in RATIONAL_W.weights])
    fvec = induced_pattern_vector(wf)
    assert max(abs(float(a) - b) for a, b in zip(vec, fvec)) < 1e-12


def test_m_on_complement_pair():
    # swapping the kernel for its complement swaps the two colour classes
    suite = random_suite(6, seed=8)
    g = catalog("h3")
    for w in suite:
        assert abs(m(g, w) - m(g, w.one_minus())) < 1e-12
        assert abs(t_hom(g, w) - t_hom(complement(complement(g)), w)) < 1e-15


def test_constant_graphon_powers():
    w = constant_graphon(Fraction(1, 3))
    assert t_hom(catalog("k3"), w) == Fraction(1, 27)
    assert m(catalog("k3"), w) == Fraction(1, 27) + Fraction(8, 27)


LAYOUT_GRAPHS = [
    Graph(0),
    Graph(4),  # isolated vertices only
    Graph(5, [(1, 2), (2, 3), (1, 3)]),  # a triangle and two isolated vertices
    Graph(6, [(0, 1), (2, 3), (3, 4), (2, 4)]),  # an edge, a triangle, a lone vertex
    catalog("c4"),
    catalog("k4"),
]


def _layouts(V, mu):
    """The same batch as C-ordered, Fortran-ordered, transposed and strided
    arrays (the kernels are symmetric, so the transpose holds the same
    values)."""
    B, k = mu.shape
    yield V, mu
    yield np.asfortranarray(V), np.asfortranarray(mu)
    yield V.transpose(0, 2, 1), mu
    wide_V = np.zeros((2 * B, k, k + 1), dtype=V.dtype)
    wide_V[::2, :, :k] = V
    wide_mu = np.zeros((B, 2 * k), dtype=mu.dtype)
    wide_mu[:, ::2] = mu
    yield wide_V[::2, :, :k], wide_mu[:, ::2]


def test_t_batch_layouts_rows_and_single_rows():
    # _t_batch copies its batch into the batch-last layout: any memory
    # layout of the same batch gives the same bits, every row matches
    # assignment enumeration, and a row alone agrees with its row in the
    # batch (summation order may differ by batch size, within 4 ulp)
    rng = random.Random(15)
    for k in range(1, 6):
        pool = [seeded_rational_kernel(k, rng) for _ in range(4)]
        want = {(gi, p): enumerated_density(g, w.values, w.weights)
                for gi, g in enumerate(LAYOUT_GRAPHS) for p, w in enumerate(pool)}
        ints = [integer_kernel(w.values, w.weights) for w in pool]
        for B in (1, 2, 3, 333):
            picks = [rng.randrange(len(pool)) for _ in range(B)]
            V_frac = np.array([pool[p].values for p in picks], dtype=object)
            mu_frac = np.array([pool[p].weights for p in picks], dtype=object)
            V, mu = V_frac.astype(np.float64), mu_frac.astype(np.float64)
            V_int = np.array([ints[p][0] for p in picks])
            mu_int = np.array([ints[p][1] for p in picks])
            for gi, g in enumerate(LAYOUT_GRAPHS):
                rows = [want[gi, p] for p in picks]
                got = _t_batch(g, V, mu)
                assert got.shape == (B,) and got.dtype == np.float64
                for Vl, mul in _layouts(V, mu):
                    assert np.array_equal(_t_batch(g, Vl, mul), got), (k, B, gi)
                assert np.max(np.abs(got - np.array(rows, dtype=np.float64))) <= 1e-12
                for i in range(B):
                    alone = _t_batch(g, V[i:i + 1], mu[i:i + 1])[0]
                    assert abs(alone - got[i]) <= 4 * np.spacing(abs(got[i])), (k, B, gi, i)
                # exact batches: common-denominator integers at every size,
                # Fraction entries on the small ones
                active = sum(1 for v in range(g.n) if g.adj[v])
                scale = [ints[p][2] ** g.e * ints[p][3] ** active for p in picks]
                for Vl, mul in _layouts(V_int, mu_int):
                    t = _t_batch(g, Vl, mul)
                    assert [Fraction(x, d) for x, d in zip(t, scale)] == rows, (k, B, gi)
                if B > 3:
                    continue
                for Vl, mul in _layouts(V_frac, mu_frac):
                    t = _t_batch(g, Vl, mul)
                    assert list(t) == rows, (k, B, gi)
                    assert all(type(x) is Fraction for x in t) or not g.e
