"""Densities of small graphs in step kernels.

Homomorphism densities are evaluated by variable elimination: each edge is a
factor on two vertex variables, vertices are summed out in a low-fill order,
and everything is vectorized over a batch of kernels with the same part
count.  Each (graph, part count) is compiled once into a cached plan of
elimination steps, with the batch as the last axis of every array: a
contraction reads its (B, k, k) batch as a contiguous (k, k, B) array, so
every broadcast product and every sum runs its innermost loop over the B
kernels rather than over a vertex axis of length k.  Every density is a
read of one density table on a pack.  A pack holds each part-count group
of its kernels already in that layout, in three colours: w, 1 - w and
2w - 1.  Its table contracts the density of one graph in one colour once
per group, stores it read-only and reads it after that.
A suite is packed once, as float64, and cached by value, keyed on its
kernels, which hash and compare by their entries.  t_hom_many, m_many,
t_signed_many and expansion_value_many are reads of its table, so m_many
after t_hom_many contracts only 1 - w, and the expansions of a sweep
contract each subgraph class they share once, in every round.  A round of
perfbench's suite-sweep requests about 217 distinct entries: 153 for the
catalog graphs with at most 12 edges (their "2w-1" subgraph classes, w
and 1 - w), each read again one round later, and about 64 for fresh
triangle trees and pendant gluings, read in one op only.  The table keeps
512 entries, more than twice that reuse distance, so a steady round
contracts only its fresh graphs; at 8 KB an entry on a 1000-kernel suite
that is at most 4 MB a pack.  The table lives with its pack: _packed's
four entries bound its memory at 16 MB, and evicting a pack frees its
densities.  Reusing one suite list across the *_many calls packs it once,
and no kernel objects are built.
A single kernel is the pack of the suite (w, 1 - w), so t_hom,
t_complement and m read one contraction of a batch of two; a signed
kernel is the pack of (u,) for t_signed, and expansion_value reads the
pack of 2w - 1 the same way, one contraction of a batch of one per
subgraph class.  Float kernels contract in float64.  Exact kernels
contract in Python integers over each kernel's common denominators,
values p/D and weights q/E, and divide once at the end, so a density
costs k^(width+1) integer operations per eliminated vertex and one gcd.
The last eight single-kernel packs are cached, so a battery that asks for
the same density of one kernel many times contracts it once.  A
contraction whose widest array would hold more than 2^20 integers or
2^24 floats per kernel is refused with a ValueError.
The plan also runs backwards on float batches: each step's vector-Jacobian
product gives the gradients of its inputs and of the part weights, so the
minimizer's partials need no enumeration of assignments either.  That walk
reads the plan with the batch axis first, so that its sums over several
vertex axes run over contiguous memory whatever the batch size, and a
restart of the minimizer's batched descent gives the same bits as a start
on its own.
The 1024 labelled 5-point pattern densities come from one enumerator,
pattern_sums, over a list of assignments of parts to the five points: all
k^5 for induced_pattern_vector, the sorted ones with multinomial counts
for the certificate's class totals, in float64 or in integers.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache, partial, reduce

import numpy as np

from .graphs import Graph, even_expansion
from .graphons import SignedStepGraphon, StepGraphon

# pair order for 5-point patterns: bit p of a mask is the pair PAIRS5[p]
PAIRS5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]



def elimination_order(g: Graph):
    """Min-degree-with-fill elimination order over non-isolated vertices.
    Returns (order, width) where width is the largest neighbourhood summed over."""
    nbr = {v: {u for u in range(g.n) if g.has_edge(u, v)} for v in range(g.n) if g.adj[v]}
    order = []
    width = 0
    while nbr:
        v = min(nbr, key=lambda x: (len(nbr[x]), x))
        live = nbr.pop(v)
        width = max(width, len(live))
        for a in live:
            nbr[a].discard(v)
            nbr[a] |= live - {a}
        order.append(v)
    return order, width


@lru_cache(maxsize=512)
def _plan(g: Graph, k: int):
    """Compiled elimination of g at k parts, as (steps, width).

    Factor slots start as one per sorted edge (each the (k, k, B) kernel);
    every eliminated vertex is one step (inputs, weight_shape, axis, scalar),
    where inputs are (slot, broadcast shape) pairs in slot order and each
    shape ends with -1 for the batch, so the innermost loop of every
    broadcast product and every sum runs over the kernels, not over a
    vertex axis of length k.  A step multiplies its inputs, sums the vertex
    out against the weights and either appends the result as a new slot or,
    when no variable is left, multiplies it into the result.  width is
    elimination_order's, for the size guards.  512 entries keep the
    plans of a sweep's catalog graphs at every part count while fresh
    graphs pass through."""
    order, width = elimination_order(g)
    slot_vars = g.sorted_edges()
    live = set(range(len(slot_vars)))
    steps = []
    for v in order:
        involved = sorted(i for i in live if v in slot_vars[i])
        live.difference_update(involved)
        union = tuple(sorted(set().union(*(slot_vars[i] for i in involved))))
        inputs = tuple((i, tuple(k if t in slot_vars[i] else 1 for t in union) + (-1,))
                       for i in involved)
        axis = union.index(v)
        weight_shape = tuple(k if t == v else 1 for t in union) + (-1,)
        rest = tuple(u for u in union if u != v)
        if rest:
            live.add(len(slot_vars))
            slot_vars.append(rest)
        steps.append((inputs, weight_shape, axis, not rest))
    return tuple(steps), width


def _t_batch(g: Graph, V: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Homomorphism density of g in a batch of kernels.
    V is (B, k, k), mu is (B, k); returns (B,) in V's dtype, so object arrays
    of Fractions contract exactly.  Both are read in the plan's batch-last
    layout, V as a contiguous (k, k, B) and mu as (k, B): a batch given as
    the transposed view of such arrays is read without a copy, any other
    layout is copied into it once.  Isolated vertices contribute factor 1
    since each weight vector sums to 1."""
    B, k = mu.shape
    acc = np.ones(B, dtype=V.dtype)
    if not g.edges:
        return acc
    steps, _ = _plan(g, k)
    V = np.ascontiguousarray(V.transpose(1, 2, 0))
    mu = np.ascontiguousarray(mu.T)
    slots = [V] * g.e
    for inputs, weight_shape, axis, scalar in steps:
        (i, shape), *more = inputs
        joint = slots[i].reshape(shape)
        slots[i] = None
        for i, shape in more:
            joint = joint * slots[i].reshape(shape)
            slots[i] = None
        # a product of two or more inputs is a fresh array and takes the
        # weights in place; a lone input is a view of V or of a slot
        joint = np.multiply(joint, mu.reshape(weight_shape), out=joint if more else None)
        joint = joint.sum(axis=axis)
        if scalar:
            acc = acc * joint
        else:
            slots.append(joint)
    return acc


def _t_batch_grad(g: Graph, V: np.ndarray, mu: np.ndarray, with_weights: bool):
    """_t_batch on float kernels, then the same plan run backwards.
    Returns (value (B,), dV (B, k, k), dmu (B, k)).  dV treats every matrix
    entry as its own variable; dmu stays zero unless with_weights, and
    leaves out isolated vertices, which are not in the plan.

    This walk keeps the batch first: it reads each plan step with the batch
    axis moved to the front.  Its sums run over several vertex axes at once,
    and numpy orders such a sum differently over contiguous and over
    strided axes.  With the batch first the summed axes are contiguous
    whatever B is; with the batch last they would be contiguous only for a
    batch of one, and the minimizer's batched descent would no longer
    reproduce a single start bit for bit."""
    B, k = mu.shape
    dmu = np.zeros((B, k))
    if not g.edges:
        return np.ones(B), np.zeros((B, k, k)), dmu
    steps = [(tuple((i, (-1,) + shape[:-1]) for i, shape in inputs), (-1,) + weight_shape[:-1],
              axis + 1, scalar)
             for inputs, weight_shape, axis, scalar in _capped_plan(g, k, False)]
    slots = [V] * g.e
    tape, scalars = [], []
    for inputs, weight_shape, axis, scalar in steps:
        xs = [slots[i].reshape(shape) for i, shape in inputs]
        joint = reduce(np.multiply, xs)
        weight = mu.reshape(weight_shape)
        tape.append((xs, joint, weight, len(scalars) if scalar else len(slots)))
        (scalars if scalar else slots).append((joint * weight).sum(axis=axis))
    # each slot feeds exactly one step, so backwards every slot's gradient
    # is complete before the step that produced it is reached
    grads = [None] * len(slots)
    for (inputs, _, axis, scalar), (xs, joint, weight, out) in zip(steps[::-1], tape[::-1]):
        if scalar:
            up = reduce(np.multiply, scalars[:out] + scalars[out + 1:], np.ones(B))
        else:
            up = grads[out]
        up = np.expand_dims(up, axis)
        if with_weights:
            dw = up * joint
            dmu += dw.sum(axis=tuple(a for a in range(1, dw.ndim) if a != axis))
        for j, (i, shape) in enumerate(inputs):
            d = reduce(np.multiply, xs[:j] + xs[j + 1:], up * weight)
            reduced = tuple(a for a in range(1, d.ndim) if shape[a] == 1)
            grads[i] = d.sum(axis=reduced, keepdims=True).reshape(slots[i].shape)
    return reduce(np.multiply, scalars, np.ones(B)), sum(grads[:g.e]), dmu


def _m_batch(g: Graph, V: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Monochromatic density of g in a batch of float kernels.  1 - V keeps
    V's memory layout, so a batch-last view stays one for both calls."""
    return _t_batch(g, V, mu) + _t_batch(g, 1.0 - V, mu)


# the colours a pack holds each group in, and the keys of its density table
COLOURS = ("w", "1-w", "2w-1")

# Caps on the widest array one kernel's contraction builds, k^(width+1)
# entries.  Exact entries are Python integers; float ones are float64, and
# 2^24 of them are 128 MB, past which numpy would fail with a memory error
# rather than name the graph and part count as bad input.
_EXACT_CAP = 1 << 20
_FLOAT_CAP = 1 << 24


def _capped_plan(g: Graph, k: int, exact: bool):
    """The steps of _plan(g, k), or ValueError when k^(width+1) is over the
    exact or the float cap."""
    steps, width = _plan(g, k)
    if k ** (width + 1) > (_EXACT_CAP if exact else _FLOAT_CAP):
        raise ValueError("%s evaluation too large: %d parts at elimination width %d"
                         % ("exact" if exact else "float", k, width))
    return steps


def _contract(groups, n, exact, g, colour):
    """The (n,) density of g in one colour of a pack, one _t_batch call per
    part-count group, returned read-only.  An exact group contracts integers
    and divides each kernel's entry by its D^e E^v once, v counting the
    vertices the plan eliminates (isolated ones contribute 1)."""
    out = np.empty(n, dtype=object if exact else np.float64)
    for idxs, mu, colours, den in groups:
        steps = _capped_plan(g, mu.shape[1], exact)
        t = _t_batch(g, colours[colour], mu)
        if exact:
            D, E = den
            t = [Fraction(x, d ** g.e * e ** len(steps)) for x, d, e in zip(t, D, E)]
        out[idxs] = t
    out.flags.writeable = False
    return out


class _Pack:
    """Kernels grouped by part count and packed once, with their density table.

    groups is a tuple of (idxs, mu, colours, den) per part count: idxs (B,)
    the group's positions in the suite, mu (B, k) the weights and colours a
    dict from each of COLOURS to the (B, k, k) kernels w, 1 - w and 2w - 1,
    all read-only transposed views of contiguous batch-last arrays, so
    _t_batch reads them without a copy.  Float packs hold float64 and den
    None.  Exact packs put each kernel over its own common denominators
    (integer_kernel): the colours are P, D - P and 2P - D, the weights q,
    and den the (B,) object arrays (D, E).  density(g, colour) is the table:
    an LRU cache of read-only (n,) arrays, each contracted once per group.
    A suite-sweep round asks for about 217 distinct entries and reads each
    catalog entry again one round later, after all the others; 512 entries
    keep those reads hits, at most 512 x 8 KB = 4 MB on a 1000-kernel float
    suite.  The packs of one kernel hold the 33 entries of an inequality
    battery, two numbers or one each.
    The cache closes over the groups, not over the pack, so dropping the
    pack frees its densities at once."""

    def __init__(self, kernels: tuple, exact: bool = False):
        by_k = {}
        for i, w in enumerate(kernels):
            by_k.setdefault(w.k, []).append(i)
        flat = itertools.chain.from_iterable
        groups = []
        for k, members in by_k.items():
            B = len(members)
            group = [kernels[i] for i in members]
            if exact:
                P, q, D, E = zip(*(integer_kernel(w.values, w.weights) for w in group))
                V, mu, one = np.array(P), np.array(q), np.array(D, dtype=object)
                den = (one, np.array(E, dtype=object))
            else:
                V = np.fromiter(flat(flat(w.values for w in group)), np.float64, B * k * k)
                mu = np.fromiter(flat(w.weights for w in group), np.float64, B * k)
                one, den = 1.0, None
            V = np.ascontiguousarray(V.reshape(B, k, k).transpose(1, 2, 0))
            mu = np.ascontiguousarray(mu.reshape(B, k).T)
            idxs = np.array(members)
            colours = (V, one - V, 2 * V - one)
            for a in (idxs, mu) + colours:
                a.flags.writeable = False
            views = {c: a.transpose(2, 0, 1) for c, a in zip(COLOURS, colours)}
            groups.append((idxs, mu.T, views, den))
        self.groups = tuple(groups)
        self.density = lru_cache(maxsize=512)(
            partial(_contract, self.groups, len(kernels), exact))


@lru_cache(maxsize=4)
def _packed(kernels: tuple) -> _Pack:
    """The float _Pack of a suite, cached by value: kernels hash and compare
    by their entries, so a list changed in place makes a new key and no
    stale pack is read.  Four entries hold the suites a sweep or a
    certificate check reuses, and bound the density tables kept alive with
    them: 16 MB for four 1000-kernel suites."""
    return _Pack(kernels)


@lru_cache(maxsize=8)
def _kernel(w: StepGraphon, exact: bool) -> _Pack:
    """The pack of one kernel: a [0, 1] kernel as the suite (w, 1 - w), so
    t_hom, t_complement and m read one contraction of a batch of two, and
    a signed kernel as (w,).  exact is part of the key because Fraction(1,
    2) and 0.5 compare and hash equal.  Eight entries hold the two packs an
    inequality battery reads, w and its signed kernel, for four kernels."""
    return _Pack((w,) if isinstance(w, SignedStepGraphon) else (w, w.one_minus()), exact)


def integer_kernel(values, weights):
    """An exact kernel over common denominators: (P, q, D, E), where D and E
    are the lcms of the value and weight denominators and P = values * D,
    q = weights * E are Python-int object arrays."""
    D = math.lcm(*(x.denominator for row in values for x in row))
    E = math.lcm(*(x.denominator for x in weights))
    P = np.array([[x.numerator * (D // x.denominator) for x in row] for row in values],
                 dtype=object)
    q = np.array([x.numerator * (E // x.denominator) for x in weights], dtype=object)
    return P, q, D, E


def t_hom(g: Graph, w: StepGraphon):
    """Homomorphism density t_g(w).  Exact kernels give Fraction results."""
    return _kernel(w, w.exact).density(g, "w").item(0)


def t_complement(g: Graph, w: StepGraphon):
    """t_g(1 - w), from the same contraction as t_hom."""
    return _kernel(w, w.exact).density(g, "w").item(1)


def t_signed(g: Graph, u: SignedStepGraphon):
    """Same contraction against a [-1,1]-valued kernel; empty graph gives 1."""
    return _kernel(u, u.exact).density(g, "w").item(0)


def t_hom_many(g: Graph, graphons) -> np.ndarray:
    return _packed(tuple(graphons)).density(g, "w").copy()


def t_signed_many(g: Graph, signed_graphons) -> np.ndarray:
    return t_hom_many(g, signed_graphons)


def m(g: Graph, w: StepGraphon):
    """Monochromatic density: t_g(w) + t_g(1 - w)."""
    t, tbar = _kernel(w, w.exact).density(g, "w").tolist()
    return t + tbar


def m_many(g: Graph, graphons) -> np.ndarray:
    pack = _packed(tuple(graphons))
    return pack.density(g, "w") + pack.density(g, "1-w")


def expansion_value(g: Graph, w: StepGraphon):
    """m(g, w) recomputed through the even-subset expansion of g against the
    signed kernel 2w - 1, read from its own pack: w's pack would contract
    1 - 2w beside it, which the expansion does not read.  Equals m(g, w)
    exactly for exact kernels."""
    u = w.signed()
    scale = Fraction(2) ** (1 - g.e)
    return scale * sum(c * t_signed(f, u) for f, c in even_expansion(g).items())


def expansion_value_many(g: Graph, graphons) -> np.ndarray:
    pack = _packed(tuple(graphons))
    total = np.zeros(len(graphons))
    for f, c in even_expansion(g).items():
        total += float(c) * pack.density(f, "2w-1")
    return float(Fraction(2) ** (1 - g.e)) * total


def pattern_sums(V, mu, idx, counts, den) -> np.ndarray:
    """The 1024 labelled 5-point pattern products summed over the (5, N)
    assignments idx, each weighted by counts (N,) or a scalar, indexed by
    pair bitmask over PAIRS5, in V's dtype.  Pair ij is black with factor
    x = V[a_i, a_j] and white with den - x: den is 1 for float kernels and
    D for integer ones.  The low five pairs and the high five are built
    as two (N, 32) arrays, joined by one product over the assignments:
    entry (hi, lo) is mask 32 hi + lo."""
    weight = counts * mu[idx].prod(axis=0)
    halves = []
    for pairs in (PAIRS5[:5], PAIRS5[5:]):
        acc = np.ones((idx.shape[1], 1), dtype=V.dtype)
        for i, j in pairs:
            x = V[idx[i], idx[j]][:, None]
            acc = np.concatenate([acc * (den - x), acc * x], axis=1)
        halves.append(acc)
    lo, hi = halves
    return (hi.T @ (weight[:, None] * lo)).reshape(1 << 10)


def induced_pattern_vector(w: StepGraphon) -> np.ndarray:
    """Induced densities of all 1024 labelled 5-point patterns, indexed by
    pair bitmask over PAIRS5.  The entries sum to 1.  Every one of the k^5
    assignments is enumerated, so the certificate keeps this only as the
    independent route of its cross-validation."""
    V, mu = w.as_arrays()
    k = w.k
    if k > 8:
        raise ValueError("pattern vector capped at 8 parts, got %d" % k)
    return pattern_sums(V, mu, np.indices((k,) * 5).reshape(5, -1), 1, 1.0)
