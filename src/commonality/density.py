"""Densities of small graphs in step kernels.

Homomorphism densities are evaluated by variable elimination: each edge is a
factor on two vertex variables, vertices are summed out in a low-fill order,
and everything is vectorized over a batch of kernels with the same part
count.  Each graph is compiled once, for every part count, into a cached
plan of elimination steps, with the batch as the last axis of every array: a
contraction reads its (B, k, k) batch as a contiguous (k, k, B) array, so
every product and every sum runs its innermost loop over the B kernels
rather than over a vertex axis of length k.  Each step is compiled into
factors: the inputs that hold only the eliminated vertex scale the
weights, the inputs that hold the same variables are multiplied at their
own size, and np.einsum contracts the weights and the factors, three
operands at most to a call, so no step of a triangle tree, whose steps
have at most two factors, builds the k^(width+1) B product of all its
inputs.  A batch of one kernel and a batch of 1000 take the same route,
in float64 and on exact object arrays alike.  Every density is a read of
one density table on a pack.  A pack holds each part-count group
of its kernels already in that layout, as two batches: w and 1 - w side
by side, and 2w - 1.  Its table contracts each batch once per graph and
group, stores the result read-only and reads it after that: one entry
holds t_g(w) and t_g(1 - w), the signed one t_g(2w - 1).
A suite is packed once, as float64, and cached by value, keyed on its
kernels, which compare by their entries; the key hashes only the suite's
length and end kernels, so a repeat read costs neither a pack nor a hash
of every kernel.  t_hom_many, m_many, t_signed_many and
expansion_value_many are reads of its table, so m_many after t_hom_many
contracts nothing, and the expansions of a sweep contract each subgraph
class they share once, in every round.  A round of perfbench's
suite-sweep requests about 146 distinct entries: 116 for the catalog
graphs with at most 12 edges (their signed subgraph classes and their
own pair entries), each read again one round later, and about 30 for
fresh triangle trees and pendant gluings, read in one op only.  The
table keeps 512 entries, more than three times that reuse distance, so a
steady round contracts only its fresh graphs; at 16 KB an entry on a
1000-kernel suite that is at most 8 MB a pack.  The table lives with its
pack: _packed's four entries bound its memory at 32 MB, and evicting a
pack frees its densities.  Reusing one suite list across the *_many
calls packs it once, and no kernel objects are built.
A single kernel is a pack of one like any other, so t_hom, t_complement
and m read one contraction of its pair batch, and expansion_value and
the battery's k3plus-cs check one contraction of its signed batch per
graph; no 1 - w or 2w - 1 kernel is built.  Float kernels contract in
float64.  Exact kernels contract in Python integers over each kernel's
common denominators, values p/D and weights q/E, and divide once at the
end, so a density costs at most k^(width+1) integer operations per
eliminated vertex and one gcd.
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
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect
from fractions import Fraction
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .graphs import MAX_VERTICES, Graph, even_expansion
from .graphons import SignedStepGraphon, StepGraphon


def _eliminations(g: Graph):
    """Min-degree-with-fill elimination over non-isolated vertices: yields
    each eliminated vertex with its neighbours at that point, ascending.
    Neighbourhoods are bitmasks, as in g.adj.  A vertex's rank is its degree
    and then its label, so the least rank is the lowest vertex of least
    degree."""
    nbr = {v: a for v, a in enumerate(g.adj) if a}
    rank = {v: a.bit_count() << 8 | v for v, a in nbr.items()}
    while rank:
        v = min(rank.values()) & 255
        del rank[v]
        live = nbr.pop(v)
        bit = 1 << v
        nbrs = []
        rest = live
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            # a and v are in a's neighbourhood or in live, each exactly once
            nbr[a] = fill = (nbr[a] | live) ^ low ^ bit
            rank[a] = fill.bit_count() << 8 | a
            nbrs.append(a)
            rest ^= low
        yield v, nbrs


def elimination_order(g: Graph):
    """Min-degree-with-fill elimination order over non-isolated vertices.
    Returns (order, width) where width is the largest neighbourhood summed
    over."""
    order, width = [], 0
    for v, nbrs in _eliminations(g):
        order.append(v)
        width = max(width, len(nbrs))
    return order, width


class _Plan(NamedTuple):
    """A compiled elimination of one graph; see _plan."""
    steps: tuple
    grad_steps: tuple
    width: int


# the einsum letter of each variable of a step, by its place among the
# step's sorted variables; z is the batch
_LETTERS = "abcdefghijklmnopqrstuvwxy"[:MAX_VERTICES]


@lru_cache(maxsize=512)
def _plan(g: Graph) -> _Plan:
    """Compiled elimination of g, for every part count.

    Factor slots start as one per sorted edge (each the kernel); every
    eliminated vertex is one step, which multiplies the slots that hold it,
    sums the vertex out against the weights and either appends the result
    as a new slot or, when no variable is left, multiplies it into the
    result.  Every array holds its variables' axes in sorted order, then
    the batch.

    steps are the batch-last walk of _t_batch, each step compiled into
    factors: (alone, factors, merges, subscripts).  alone are the slots
    that hold only the eliminated vertex; they are multiplied into the
    (k, B) weights.  The other slots are grouped by the variables they
    hold, and each group is one factor, a tuple of slots multiplied at
    their own size k^|vars| B; factors are in the order of their first
    slots.  The weights and the factors are the operands of np.einsum, the
    a-th variable of the step its a-th letter and z the batch, and the
    weights stay an operand of their own: folding them into a factor would
    cost a pass and a temporary array more.  numpy contracts three operands
    or fewer with its fast loops and more with a much slower general one,
    so each of merges multiplies the first two operands into one, without
    summing, until three are left; subscripts contracts those.  A graph of
    width 2 or less has slots of at most two variables, so each of its
    steps has at most two factors and no merge.  A step with no
    factor leaves no variable: its weights are summed to one number a
    kernel.  The batch is the last axis throughout, so the innermost loop
    of every product and every sum runs over the kernels, not over a vertex
    axis of length k.

    grad_steps are the same steps batch first and unfactored, as
    _t_batch_grad reads them: (inputs, weight_idx, axis, scalar,
    weight_axes), with inputs (slot, index, reduced) in slot order, where
    index is an index tuple over the step's sorted variables, reduced are
    the axes an input's gradient is summed over and weight_axes those the
    weights' gradient is; inputs that hold the same variables of their
    step share these tuples.  width is elimination_order's, for the size
    guards.  The variables of a step are the eliminated vertex and its
    neighbours at that point, as _eliminations yields them, and each vertex
    keeps the live slots that hold it in slot order, so compiling costs
    about the size of the plan.  512 entries, one a graph, keep the
    plans of a sweep's catalog graphs and their subgraph classes while
    fresh graphs pass through."""
    slot_vars = g.sorted_edges()
    holders = [[] for _ in range(g.n)]
    for i, (a, b) in enumerate(slot_vars):
        holders[a].append(i)
        holders[b].append(i)
    patterns = {}

    def reads(held):
        # the batch-first index tuple, the summed axes and the einsum letters
        # of one pattern of held variables (one bool per variable of a step,
        # whose a-th variable is the a-th letter), built once per plan
        axes = tuple([slice(None) if h else None for h in held])
        patterns[held] = read = (
            (...,) + axes, tuple([a for a, h in enumerate(held, 1) if not h]),
            "".join([_LETTERS[a] for a, h in enumerate(held) if h]) + "z")
        return read

    steps, grad_steps, width = [], [], 0
    for v, rest in _eliminations(g):
        # between them, the slots that hold v hold v and its neighbours
        width = max(width, len(rest))
        axis = bisect(rest, v)
        union = rest[:axis] + [v] + rest[axis:]
        first, groups = [], {}
        for i in holders[v]:
            held = slot_vars[i]
            key = tuple([t in held for t in union])
            first_idx, reduced, _ = patterns.get(key) or reads(key)
            first.append((i, first_idx, reduced))
            groups[key] = groups.get(key, ()) + (i,)
            for t in held:
                if t != v:
                    holders[t].remove(i)
        key = tuple([t == v for t in union])
        weight_first, weight_axes, _ = patterns.get(key) or reads(key)
        alone = groups.pop(key, ())
        factors, merges, subscripts = (), (), None
        if rest:
            rest = tuple(rest)
            for t in rest:
                holders[t].append(len(slot_vars))
            slot_vars.append(rest)
            factors = tuple(groups.values())
            operands = [_LETTERS[axis] + "z"] + [patterns[p][2] for p in groups]
            while len(operands) > 3:
                # letters sort as the step's variables do, and z last
                a, b = operands[:2]
                operands[:2] = ["".join(sorted(set(a + b)))]
                merges += ("%s,%s->%s" % (a, b, operands[0]),)
            subscripts = (",".join(operands) + "->" + _LETTERS[:axis]
                          + _LETTERS[axis + 1:len(union)] + "z")
        steps.append((alone, factors, merges, subscripts))
        grad_steps.append((tuple(first), weight_first, axis + 1, not rest, weight_axes))
    return _Plan(tuple(steps), tuple(grad_steps), width)


def _t_batch(g: Graph, V: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Homomorphism density of g in a batch of kernels.
    V is (B, k, k), mu is (B, k); returns (B,) in V's dtype, so object arrays
    of Fractions or Python integers contract exactly.  Both are read in the
    plan's batch-last layout, V as a contiguous (k, k, B) and mu as (k, B):
    a batch given as the transposed view of such arrays is read without a
    copy, any other layout is copied into it once.  Each step runs its
    compiled factors (see _plan): the slots over the eliminated vertex alone
    scale the weights, each factor is the product of its slots at its own
    size, and np.einsum contracts the weights and the factors, three
    operands at most to a call, so no step of a graph of width 2 or less
    builds the k^(width+1) B product of all its inputs.  B = 1 and B = 1000
    take the same route.  Isolated vertices contribute factor 1 since each
    weight vector sums to 1."""
    B = mu.shape[0]
    acc = np.ones(B, dtype=V.dtype)
    if not g.edges:
        return acc
    V = np.ascontiguousarray(V.transpose(1, 2, 0))
    mu = np.ascontiguousarray(mu.T)
    slots = [V] * g.e
    for alone, factors, merges, subscripts in _plan(g).steps:
        weights = mu
        for i in alone:
            weights = weights * slots[i]
            slots[i] = None
        if not factors:
            acc = acc * weights.sum(axis=0)
            continue
        xs = [weights]
        for held in factors:
            x = None
            for i in held:
                x = slots[i] if x is None else x * slots[i]
                slots[i] = None
            xs.append(x)
        for merge in merges:
            xs[:2] = [np.einsum(merge, *xs[:2])]
        slots.append(np.einsum(subscripts, *xs))
    return acc


def _t_batch_grad(g: Graph, V: np.ndarray, mu: np.ndarray, with_weights: bool):
    """_t_batch on float kernels, then the same plan run backwards.
    Returns (value (B,), dV (B, k, k), dmu (B, k)).  dV treats every matrix
    entry as its own variable; dmu stays zero unless with_weights, and
    leaves out isolated vertices, which are not in the plan.

    This walk keeps the batch first: it reads the plan's grad_steps, each
    step with the batch axis in front.  Its sums run over several vertex
    axes at once, and numpy orders such a sum differently over contiguous
    and over strided axes.  With the batch first the summed axes are
    contiguous whatever B is; with the batch last they would be contiguous
    only for a batch of one, and the minimizer's batched descent would no
    longer reproduce a single start bit for bit."""
    B, k = mu.shape
    dmu = np.zeros((B, k))
    if not g.edges:
        return np.ones(B), np.zeros((B, k, k)), dmu
    steps = _capped_plan(g, k, False).grad_steps
    slots = [V] * g.e
    tape, scalars = [], []
    for inputs, weight_idx, axis, scalar, _ in steps:
        xs = [slots[i][idx] for i, idx, _ in inputs]
        joint = reduce(np.multiply, xs)
        weight = mu[weight_idx]
        tape.append((xs, joint, weight, len(scalars) if scalar else len(slots)))
        (scalars if scalar else slots).append((joint * weight).sum(axis=axis))
    # each slot feeds exactly one step, so backwards every slot's gradient
    # is complete before the step that produced it is reached
    grads = [None] * len(slots)
    for step, (xs, joint, weight, out) in zip(steps[::-1], tape[::-1]):
        inputs, _, axis, scalar, weight_axes = step
        if scalar:
            up = reduce(np.multiply, scalars[:out] + scalars[out + 1:], np.ones(B))
        else:
            up = grads[out]
        up = np.expand_dims(up, axis)
        if with_weights:
            dmu += (up * joint).sum(axis=weight_axes)
        for j, (i, _, reduced) in enumerate(inputs):
            d = reduce(np.multiply, xs[:j] + xs[j + 1:], up * weight)
            grads[i] = d.sum(axis=reduced)
    return reduce(np.multiply, scalars, np.ones(B)), sum(grads[:g.e]), dmu


def _m_batch(g: Graph, V: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Monochromatic density of g in a batch of float kernels.  1 - V keeps
    V's memory layout, so a batch-last view stays one for both calls."""
    return _t_batch(g, V, mu) + _t_batch(g, 1.0 - V, mu)


# Caps on the widest array one kernel's contraction builds, k^(width+1)
# entries.  Exact entries are Python integers; float ones are float64, and
# 2^24 of them are 128 MB, past which numpy would fail with a memory error
# rather than name the graph and part count as bad input.
_EXACT_CAP = 1 << 20
_FLOAT_CAP = 1 << 24


def _capped_plan(g: Graph, k: int, exact: bool) -> _Plan:
    """_plan(g), or ValueError when k^(width+1) is over the exact or the
    float cap."""
    plan = _plan(g)
    if k ** (plan.width + 1) > (_EXACT_CAP if exact else _FLOAT_CAP):
        raise ValueError("%s evaluation too large: %d parts at elimination width %d"
                         % ("exact" if exact else "float", k, plan.width))
    return plan


def _contract(groups, n, exact, g, signed):
    """The densities of g in a pack, one _t_batch call per part-count group,
    returned read-only: a (2, n) array whose rows are t_g(w) and t_g(1 - w),
    or with signed a (1, n) array of t_g(2w - 1).  An exact group contracts
    integers and divides each entry by its kernel's D^e E^v once, v counting
    the vertices the plan eliminates (isolated ones contribute 1); w and
    1 - w share D and E, so one divisor a kernel serves both rows."""
    rows = 1 if signed else 2
    out = np.empty(rows * n, dtype=object if exact else np.float64)
    for batches, den in groups:
        V, mu, pos = batches[signed]
        steps = _capped_plan(g, mu.shape[1], exact).steps
        t = _t_batch(g, V, mu)
        if exact:
            scales = [d ** g.e * e ** len(steps) for d, e in zip(*den)]
            t = [Fraction(x, s) for x, s in zip(t, scales * rows)]
        out[pos] = t
    out.flags.writeable = False
    return out.reshape(rows, n)


class _Pack:
    """Kernels grouped by part count and packed once, with their density table.

    groups is a tuple of (batches, den) per part count of B kernels.
    batches holds two (V, mu, pos) batches: the pair batch of the 2B
    kernels w and then 1 - w, weights repeated, and the signed batch of the
    B kernels 2w - 1.  V (batch, k, k) and mu (batch, k) are read-only
    transposed views of contiguous batch-last arrays, so _t_batch reads
    them without a copy, and pos places the batch in a flat table entry:
    the group's positions in the pack, plus n for 1 - w.  Float packs hold
    float64 and den None.  Exact packs put each kernel over its own common
    denominators (integer_kernel): the batches hold P, D - P and 2P - D,
    the weights q, and den the (B,) tuples (D, E) of Python ints.
    density(g, signed) is the table: an LRU cache of _contract's read-only
    arrays, batches[signed] contracted once per group.  A suite-sweep round
    asks for about 146 distinct entries and reads each catalog entry again
    one round later, after all the others; 512 entries keep those reads
    hits, at most 512 x 16 KB = 8 MB on a 1000-kernel float suite.  The
    pack of one kernel holds the 30 pair entries and the 3 signed entries
    of an inequality battery.
    The cache closes over the groups, not over the pack, so dropping the
    pack frees its densities at once."""

    def __init__(self, kernels: tuple, exact: bool = False):
        n = len(kernels)
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
                V, mu, one, den = np.array(P), np.array(q), np.array(D, dtype=object), (D, E)
            else:
                V = np.fromiter(flat(flat(w.values for w in group)), np.float64, B * k * k)
                mu = np.fromiter(flat(w.weights for w in group), np.float64, B * k)
                one, den = 1.0, None
            V = np.ascontiguousarray(V.reshape(B, k, k).transpose(1, 2, 0))
            mu = np.ascontiguousarray(mu.reshape(B, k).T)
            idxs = np.array(members)
            batches = ((np.concatenate((V, one - V), 2), np.concatenate((mu, mu), 1),
                        np.concatenate((idxs, idxs + n))), (2 * V - one, mu, idxs))
            for a in batches[0] + batches[1]:
                a.flags.writeable = False
            groups.append((tuple((a.transpose(2, 0, 1), b.T, p) for a, b, p in batches), den))
        self.groups = groups = tuple(groups)
        self.density = lru_cache(maxsize=512)(
            lambda g, signed: _contract(groups, n, exact, g, signed))


class _Suite(tuple):
    """A suite of kernels as the key of _packed.  It compares by value like
    any tuple, and tuple equality tries identity before __eq__, so a suite
    compared with the key it was packed under is one C-level pass over the
    same kernel objects.  Its hash covers only the length and the first and
    last kernels: equal suites have equal ends, so the hash is consistent
    with equality, and a lookup hashes two kernels rather than all of them."""

    __slots__ = ()

    def __hash__(self):
        return hash((len(self),) + self[:1] + self[-1:])


@lru_cache(maxsize=4)
def _packed(kernels: _Suite) -> _Pack:
    """The float _Pack of a suite, cached by value under its _Suite key:
    every reader of a suite's pack builds that key, so no suite is packed
    twice.  Kernels compare by their entries, so a list changed in place,
    even away from its ends, makes a key equal to no earlier one and no
    stale pack is read, and a new list of equal kernels reads the same
    pack.  Four entries hold the suites a sweep or a certificate check
    reuses, and bound the density tables kept alive with them: 32 MB for
    four 1000-kernel suites."""
    return _Pack(kernels)


@lru_cache(maxsize=8)
def _kernel(w: StepGraphon, exact: bool) -> _Pack:
    """The pack of one kernel, a pack of one like a suite's: t_hom,
    t_complement and m read its pair entry, one contraction of the batch
    (w, 1 - w), and expansion_value and the battery's k3plus-cs check its
    signed entries.  exact is part of the key because Fraction(1, 2) and 0.5
    compare and hash equal.  Eight entries hold the packs of the last eight
    kernels read; an inequality battery reads only w's."""
    return _Pack((w,), exact)


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
    return _kernel(w, w.exact).density(g, False).item(0)


def t_complement(g: Graph, w: StepGraphon):
    """t_g(1 - w), from the same contraction as t_hom."""
    return _kernel(w, w.exact).density(g, False).item(1)


def t_signed(g: Graph, u: SignedStepGraphon):
    """t_hom against a [-1,1]-valued kernel, read from u's own pack; empty
    graph gives 1."""
    return _kernel(u, u.exact).density(g, False).item(0)


def _signed_entry(g: Graph, w: StepGraphon):
    """t_g(2w - 1), read from the signed entry of w's own pack: no 2w - 1
    kernel is built.  expansion_value and inequalities.check_k3plus_cs read
    it; t_signed is the public read of a signed kernel's own density."""
    return _kernel(w, w.exact).density(g, True).item(0)


def t_hom_many(g: Graph, graphons) -> np.ndarray:
    return _packed(_Suite(graphons)).density(g, False)[0].copy()


def t_signed_many(g: Graph, signed_graphons) -> np.ndarray:
    return t_hom_many(g, signed_graphons)


def m(g: Graph, w: StepGraphon):
    """Monochromatic density: t_g(w) + t_g(1 - w)."""
    (t,), (tbar,) = _kernel(w, w.exact).density(g, False).tolist()
    return t + tbar


def m_many(g: Graph, graphons) -> np.ndarray:
    t, tbar = _packed(_Suite(graphons)).density(g, False)
    return t + tbar


def expansion_value(g: Graph, w: StepGraphon):
    """m(g, w) recomputed through the even-subset expansion of g against the
    signed kernel 2w - 1, read from the signed entries of w's own pack.
    Equals m(g, w) exactly for exact kernels."""
    scale = Fraction(2) ** (1 - g.e)
    return scale * sum(c * _signed_entry(f, w) for f, c in even_expansion(g).items())


def expansion_value_many(g: Graph, graphons) -> np.ndarray:
    pack = _packed(_Suite(graphons))
    total = np.zeros(len(graphons))
    for f, c in even_expansion(g).items():
        total += float(c) * pack.density(f, True)[0]
    return float(Fraction(2) ** (1 - g.e)) * total
