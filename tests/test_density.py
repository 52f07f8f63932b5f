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
    _Suite,
    _packed,
    _t_batch,
    elimination_order,
    expansion_value,
    expansion_value_many,
    integer_kernel,
    m,
    m_many,
    t_complement,
    t_hom,
    t_hom_many,
    t_signed,
    t_signed_many,
)
from oracles import elimination_order as elimination_order_sets
from oracles import enumerated_density, t_induced
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
    n = len(suite)
    for ((pair, pair_mu, pair_pos), (signed, mu, idxs)), den in _packed(_Suite(suite)).groups:
        # a suite packs float kernels, the corners included, as the pair
        # batch (w, 1 - w) of twice the group and the signed batch 2w - 1;
        # the pair's rows land in the first and the second row of an entry
        B = len(idxs)
        assert den is None and pair.dtype == signed.dtype == np.float64
        assert len(pair) == len(pair_mu) == 2 * B and len(signed) == len(mu) == B
        assert np.array_equal(pair_pos, np.concatenate((idxs, idxs + n)))
        assert np.array_equal(pair_mu, np.concatenate((mu, mu)))
        assert np.array_equal(pair[B:], 1.0 - pair[:B])
        assert np.array_equal(signed, 2.0 * pair[:B] - 1.0)
        assert all(np.array_equal(pair[j], suite[i].values) for j, i in enumerate(idxs))
        arrays = (idxs, pair_pos, pair, pair_mu, signed, mu)
        assert not any(a.flags.writeable for a in arrays)
        # each view _t_batch turns back into batch-last is contiguous
        for a in arrays[2:]:
            assert np.moveaxis(a, 0, -1).flags.c_contiguous


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
        ref = {c: _per_group(g, suite, c) for c in ("w", "1-w", "2w-1")}
        _packed.cache_clear()
        pack = _packed(_Suite(suite))
        cold = {signed: pack.density(g, signed) for signed in (False, True)}
        assert pack.density.cache_info().misses == 2
        warm = {signed: pack.density(g, signed) for signed in (False, True)}
        assert pack.density.cache_info().hits == 2
        # the pair entry's rows are w and 1 - w, the signed entry's 2w - 1
        assert cold[False].shape == (2, len(suite)) and cold[True].shape == (1, len(suite))
        rows = {"w": cold[False][0], "1-w": cold[False][1], "2w-1": cold[True][0]}
        for c, row in rows.items():
            assert np.array_equal(row, ref[c]), (name, c)
        assert all(warm[signed] is cold[signed] for signed in (False, True)), name
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
    shared = set(even_expansion(first)) & set(even_expansion(second))
    assert len(shared) >= 3
    _packed.cache_clear()
    expansion_value_many(first, suite)
    contracted = []

    def counting(g, V, mu):
        contracted.append(g)
        return _t_batch(g, V, mu)

    monkeypatch.setattr(density, "_t_batch", counting)
    expansion_value_many(second, suite)
    fresh = set(even_expansion(second)) - shared
    assert Counter(contracted) == {f: groups for f in fresh}
    # m_many after t_hom_many contracts nothing: the complement is the
    # second row of the same entry
    t_hom_many(second, suite)
    del contracted[:]
    m_many(second, suite)
    assert contracted == []


def test_a_sweep_round_keeps_the_catalog_in_the_table(monkeypatch):
    # a suite-sweep round: the catalog's expansions and m, then fresh
    # triangle trees read once.  The table must still hold every catalog
    # entry when the next round reads it: a table smaller than the round's
    # ~146 entries evicts each before its reuse and recontracts it.
    suite = random_suite(1000, seed=21)
    graphs = [g for _, g in catalog_all() if g.e <= 12]
    rng = random.Random(21)
    trees = [random_triangle_tree(rng, 1 + i % 12) for i in range(36)]
    _packed.cache_clear()
    table = _packed(_Suite(suite)).density

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
    entry = _packed(_Suite(suite)).density(g, False)
    assert not entry.flags.writeable
    with pytest.raises(ValueError):
        entry[0] = 0.0


def test_evicting_a_pack_frees_its_densities():
    suite = _shuffled_suite(34)
    m_many(catalog("k3"), suite)
    pack = _packed(_Suite(suite))
    refs = [weakref.ref(pack), weakref.ref(pack.density(catalog("k3"), False))]
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


def test_one_plan_serves_every_part_count():
    # a fresh graph over a suite with 1 to 5 parts compiles one plan, and
    # reads the same values as a contraction per part count
    suite = random_suite(15, seed=41, ks=(1, 2, 3, 4, 5))
    h = random_triangle_tree(random.Random(41), 9)
    density._plan.cache_clear()
    got = t_hom_many(h, suite)
    assert density._plan.cache_info().misses == 1
    assert np.array_equal(got, _per_group(h, suite, "w"))


def test_a_repeat_read_hashes_two_kernels(monkeypatch):
    suite = random_suite(1000, seed=42)
    g = catalog("k3")
    first = m_many(g, suite)
    hashed = []
    plain = StepGraphon.__hash__

    def counting(w):
        hashed.append(w)
        return plain(w)

    monkeypatch.setattr(StepGraphon, "__hash__", counting)
    again = m_many(g, suite)
    assert len(hashed) <= 2
    assert np.array_equal(again, first)


def test_a_suite_key_compares_every_kernel():
    suite = random_suite(50, seed=43, ks=(2, 3))
    g = catalog("c5")
    before = t_hom_many(g, suite)
    pack = _packed(_Suite(suite))
    # a new list of equal kernels reads the same pack
    equal = [StepGraphon(w.values, w.weights) for w in suite]
    assert equal[7] is not suite[7] and _packed(_Suite(equal)) is pack
    # a middle kernel replaced in place keeps the hash, which covers only
    # the ends, and still makes a fresh pack with the new kernel's value
    w = random_suite(1, seed=44, ks=(4,))[0]
    suite[25] = w
    assert hash(_Suite(suite)) == hash(_Suite(equal))
    after = t_hom_many(g, suite)
    assert _packed(_Suite(suite)) is not pack
    assert abs(after[25] - t_hom(g, w)) < 1e-12 and after[25] != before[25]
    assert np.array_equal(np.delete(after, 25), np.delete(before, 25))


def test_one_kernel_is_the_pack_of_w_and_its_complement():
    # an exact kernel is a pack of one over its own common denominators:
    # the pair batch holds P and D - P, the signed batch 2P - D, all in
    # Python integers, and each density divides by the kernel's D^e E^v,
    # which 1 - w shares
    wbar = RATIONAL_W.one_minus()
    pack = density._kernel(RATIONAL_W, True)
    (((pair, pair_mu, pos), (signed_V, mu, idxs)), (D, E)), = pack.groups
    P, q, d, e = integer_kernel(RATIONAL_W.values, RATIONAL_W.weights)
    assert list(idxs) == [0] and list(pos) == [0, 1] and list(D) == [d] and list(E) == [e]
    assert integer_kernel(wbar.values, wbar.weights)[2:] == (d, e)
    assert np.array_equal(pair[0], P) and np.array_equal(pair[1], d - P)
    assert np.array_equal(signed_V[0], 2 * P - d)
    assert np.array_equal(mu[0], q) and np.array_equal(pair_mu, [q, q])
    assert all(type(x) is int for a in (pair, pair_mu, signed_V, mu) for x in a.ravel())
    signed = RATIONAL_W.signed()
    for name in ("k3", "c4", "k3plus"):
        g = catalog(name)
        want = [enumerated_density(g, x.values, x.weights) for x in (RATIONAL_W, wbar, signed)]
        assert [t_hom(g, RATIONAL_W), t_complement(g, RATIONAL_W), t_signed(g, signed)] == want
        assert m(g, RATIONAL_W) == want[0] + want[1]
        assert pack.density(g, False).tolist() == [[want[0]], [want[1]]]
        assert pack.density(g, True).tolist() == [[want[2]]]
        # the integer contraction over D^e E^v, with v the eliminated vertices
        scale = d ** g.e * e ** len(density._plan(g).steps)
        assert want[0] * scale == density._t_batch(g, pair, pair_mu)[0]
    # a float kernel is the same pack of one in float64
    wf = random_suite(1, seed=40, ks=(3,))[0]
    (((pair, _, _), (signed_V, _, _)), den), = density._kernel(wf, False).groups
    assert den is None and len(pair) == 2 and len(signed_V) == 1
    assert np.array_equal(pair[1], np.array(wf.one_minus().values))
    assert np.array_equal(signed_V[0], np.array(wf.signed().values))


def test_battery_contracts_each_request_once(monkeypatch):
    # a battery's density requests on one kernel are 30 contractions of the
    # batch (w, 1 - w) and 3 of the signed batch 2w - 1 of the same pack
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
    # contraction of the signed batch of w's pack, a batch of one
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


def test_a_fresh_graph_is_one_contraction_per_group(monkeypatch):
    # t_hom_many then m_many on a fresh graph contract each part-count
    # group once: w and 1 - w are one batch
    suite = _shuffled_suite(35)
    h = random_triangle_tree(random.Random(35), 7)
    _packed.cache_clear()
    contracted = []

    def counting(g, V, mu):
        contracted.append((g, len(V)))
        return _t_batch(g, V, mu)

    monkeypatch.setattr(density, "_t_batch", counting)
    t_hom_many(h, suite)
    m_many(h, suite)
    groups = Counter(w.k for w in suite).values()
    assert all(g is h for g, _ in contracted)
    assert sorted(B for _, B in contracted) == sorted(2 * B for B in groups)


def test_single_kernel_reads_build_no_kernel(monkeypatch):
    # m, t_complement, expansion_value and the battery read w's own pack:
    # neither 1 - w nor 2w - 1 is built as a kernel object
    def refuse(self):
        raise AssertionError("a derived kernel was built")

    def reads(w):
        return ([(m(g, w), t_complement(g, w), expansion_value(g, w))
                 for g in (catalog("k3"), catalog("k3plus"))],
                [r.tsv_row() for r in standard_battery(w)])

    kernels = (random_suite(1, seed=36, ks=(3,))[0], RATIONAL_W)
    want = {w: reads(w) for w in kernels}
    monkeypatch.setattr(StepGraphon, "one_minus", refuse)
    monkeypatch.setattr(StepGraphon, "signed", refuse)
    for w in kernels:
        density._kernel.cache_clear()
        assert reads(w) == want[w], w.exact


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


def test_elimination_order_matches_the_set_based_oracle():
    rng = random.Random(24)
    graphs = [g for _, g in catalog_all()]
    graphs += [random_triangle_tree(rng, 1 + i % 12) for i in range(300)]
    for n in range(11):
        for p in (0.2, 0.5, 0.8):
            graphs += [Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                                 if rng.random() < p]) for _ in range(10)]
    for g in graphs:
        assert elimination_order(g) == elimination_order_sets(g), g


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


def _factored_graphs():
    # seeded random graphs of elimination widths 1-4, four of each, every
    # one with isolated vertices at random labels
    rng = random.Random(26)
    by_width = {width: [] for width in range(1, 5)}
    while any(len(gs) < 4 for gs in by_width.values()):
        active = rng.randint(2, 6)
        n = active + rng.randint(1, 2)
        labels = rng.sample(range(n), active)
        p = rng.random()
        g = Graph(n, [(labels[a], labels[b]) for a in range(active)
                      for b in range(a + 1, active) if rng.random() < p])
        gs = by_width.get(elimination_order(g)[1])
        if g.e and gs is not None and len(gs) < 4:
            gs.append(g)
    return [g for gs in by_width.values() for g in gs]


def _route(step):
    # the route of one factored step: its weights summed to a scalar, or the
    # weights and one, two, or three or more factors contracted by einsum;
    # no einsum takes more than three operands, so each merge of two of them
    # leaves one fewer for the last
    alone, factors, merges, subscripts = step
    if not factors:
        return "scalar"
    assert subscripts.count(",") == min(len(factors), 2)
    assert len(merges) == max(len(factors) - 2, 0)
    return ("one", "two", "three+")[min(len(factors), 3) - 1]


def test_factored_steps_match_enumeration():
    # every route of a factored step, on exact Fraction and integer batches
    # and on floats, against assignment enumeration
    rng = random.Random(27)
    routes = Counter()
    for g in _factored_graphs():
        steps = density._plan(g).steps
        active = sum(1 for v in range(g.n) if g.adj[v])
        assert len(steps) == active < g.n
        routes.update(_route(s) for s in steps)
        # slots over the eliminated vertex alone, in a step with factors
        routes["alone"] += sum(1 for s in steps if s[0] and s[1])
        # a scalar step has no factor: only such slots and the weights
        assert all(s[0] for s in steps if not s[1])
        for k in (1, 2, 3):
            pool = [seeded_rational_kernel(k, rng) for _ in range(3)]
            want = [enumerated_density(g, w.values, w.weights) for w in pool]
            V = np.array([w.values for w in pool], dtype=object)
            mu = np.array([w.weights for w in pool], dtype=object)
            assert list(_t_batch(g, V, mu)) == want, (g, k)
            P, q, D, E = zip(*(integer_kernel(w.values, w.weights) for w in pool))
            t = _t_batch(g, np.array(P), np.array(q))
            assert [Fraction(x, d ** g.e * e ** active)
                    for x, d, e in zip(t, D, E)] == want, (g, k)
            t = _t_batch(g, V.astype(np.float64), mu.astype(np.float64))
            assert t.dtype == np.float64
            assert np.max(np.abs(t - np.array(want, dtype=np.float64))) <= 1e-12, (g, k)
    assert {"scalar", "one", "two", "three+", "alone"} <= set(routes), routes


def test_triangle_tree_steps_contract_at_most_two_factors():
    # a width-2 triangle tree never builds the product of all of a step's
    # inputs: every step has at most two factors
    tree = random_triangle_tree(random.Random(26), 12)
    plan = density._plan(tree)
    assert plan.width == 2
    routes = Counter(_route(s) for s in plan.steps)
    assert "three+" not in routes and routes["two"] > 0, routes
