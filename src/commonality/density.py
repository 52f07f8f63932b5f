"""Densities of small graphs in step kernels.

Homomorphism densities are evaluated by variable elimination: each edge is a
factor on two vertex variables, vertices are summed out in a low-fill order,
and everything is vectorized over a batch of kernels with the same part
count.  Exact (Fraction) kernels run through the same elimination as a batch
of one in object arrays, so an exact density costs k^(width+1) Fraction
operations per eliminated vertex rather than one term per assignment.
Induced densities still enumerate assignments directly and are meant for
small part counts.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .graphs import Graph, complement, even_expansion
from .graphons import SignedStepGraphon, StepGraphon

# pair order for 5-point patterns: bit p of a mask is the pair PAIRS5[p]
PAIRS5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]

_EXACT_ASSIGNMENT_CAP = 1 << 20


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


def _align(arr, vars_, target, k):
    # vars_ and target are sorted tuples with vars_ a subset of target;
    # inserting singleton axes keeps the memory order consistent
    shape = [arr.shape[0]] + [k if t in vars_ else 1 for t in target]
    return arr.reshape(shape)


def _t_batch(g: Graph, V: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Homomorphism density of g in a batch of kernels.
    V is (B, k, k), mu is (B, k); returns (B,) in V's dtype, so object arrays
    of Fractions contract exactly.  Isolated vertices contribute factor 1
    since each weight vector sums to 1."""
    B, k = mu.shape
    acc = np.ones(B, dtype=V.dtype)
    if not g.edges:
        return acc
    factors = [((u, v), V) for u, v in g.sorted_edges()]
    order, _ = elimination_order(g)
    for v in order:
        involved = [(vs, a) for vs, a in factors if v in vs]
        factors = [(vs, a) for vs, a in factors if v not in vs]
        union = tuple(sorted(set().union(*(vs for vs, _ in involved))))
        joint = _align(involved[0][1], involved[0][0], union, k)
        for vs, a in involved[1:]:
            joint = joint * _align(a, vs, union, k)
        axis = 1 + union.index(v)
        mshape = [B] + [k if i == axis else 1 for i in range(1, len(union) + 1)]
        joint = (joint * mu.reshape(mshape)).sum(axis=axis)
        rest = tuple(u for u in union if u != v)
        if rest:
            factors.append((rest, joint))
        else:
            acc = acc * joint.reshape(B)
    for _, a in factors:
        acc = acc * a.reshape(B)
    return acc


def _stack(graphons):
    V = np.stack([np.array(w.values, dtype=np.float64) for w in graphons])
    mu = np.stack([np.array(w.weights, dtype=np.float64) for w in graphons])
    return V, mu


def _group_eval(g: Graph, graphons) -> np.ndarray:
    out = np.empty(len(graphons))
    by_k = {}
    for i, w in enumerate(graphons):
        by_k.setdefault(w.k, []).append(i)
    for k, idxs in by_k.items():
        V, mu = _stack([graphons[i] for i in idxs])
        out[idxs] = _t_batch(g, V, mu)
    return out


def _t_exact(g: Graph, values, weights, k: int) -> Fraction:
    if not g.edges:
        return Fraction(1)
    _, width = elimination_order(g)
    if k ** (width + 1) > _EXACT_ASSIGNMENT_CAP:
        raise ValueError("exact evaluation too large: %d parts at elimination width %d"
                         % (k, width))
    V = np.array([values], dtype=object)
    mu = np.array([weights], dtype=object)
    return Fraction(_t_batch(g, V, mu)[0])


def t_hom(g: Graph, w: StepGraphon):
    """Homomorphism density t_g(w).  Exact kernels give Fraction results."""
    if w.exact:
        return _t_exact(g, w.values, w.weights, w.k)
    V, mu = w.as_arrays()
    return float(_t_batch(g, V[None], mu[None])[0])


def t_signed(g: Graph, u: SignedStepGraphon):
    """Same contraction against a [-1,1]-valued kernel; empty graph gives 1."""
    if u.exact:
        return _t_exact(g, u.values, u.weights, u.k)
    V, mu = u.as_arrays()
    return float(_t_batch(g, V[None], mu[None])[0])


def t_hom_many(g: Graph, graphons) -> np.ndarray:
    return _group_eval(g, graphons)


def t_signed_many(g: Graph, signed_graphons) -> np.ndarray:
    return _group_eval(g, signed_graphons)


def m(g: Graph, w: StepGraphon):
    """Monochromatic density: t_g(w) + t_g(1 - w)."""
    return t_hom(g, w) + t_hom(g, w.one_minus())


def m_many(g: Graph, graphons) -> np.ndarray:
    return _group_eval(g, graphons) + _group_eval(g, [w.one_minus() for w in graphons])


def expansion_value(g: Graph, w: StepGraphon):
    """m(g, w) recomputed through the even-subset expansion of g against the
    signed kernel 2w - 1.  Equals m(g, w) exactly for exact kernels."""
    u = w.signed()
    ex = even_expansion(g)
    scale = Fraction(2) ** (1 - g.e)
    if w.exact:
        total = Fraction(0)
        for f, c in ex.items():
            total += c * t_signed(f, u)
        return scale * total
    total = 0.0
    for f, c in ex.items():
        total += float(c) * t_signed(f, u)
    return float(scale) * total


def expansion_value_many(g: Graph, graphons) -> np.ndarray:
    signed = [w.signed() for w in graphons]
    ex = even_expansion(g)
    scale = float(Fraction(2) ** (1 - g.e))
    total = np.zeros(len(graphons))
    for f, c in ex.items():
        total += float(c) * _group_eval(f, signed)
    return scale * total


def t_induced(g: Graph, w: StepGraphon):
    """Density of g as an induced subgraph pattern on labelled samples."""
    n, k = g.n, w.k
    if n == 0:
        return Fraction(1) if w.exact else 1.0
    exact = w.exact
    assert k ** n <= _EXACT_ASSIGNMENT_CAP, "induced evaluation too large"
    one = Fraction(1) if exact else 1.0
    total = Fraction(0) if exact else 0.0
    for assign in itertools.product(range(k), repeat=n):
        term = one
        for u in range(n):
            for v in range(u + 1, n):
                x = w.values[assign[u]][assign[v]]
                term = term * (x if g.has_edge(u, v) else one - x)
                if not term:
                    break
            if not term:
                break
        if term:
            weight = one
            for i in assign:
                weight *= w.weights[i]
            total += term * weight
    return total


def symmetrized_induced(g: Graph, w: StepGraphon):
    """t_induced of g plus t_induced of its complement."""
    return t_induced(g, w) + t_induced(complement(g), w)


def induced_pattern_vector(w: StepGraphon) -> np.ndarray:
    """Induced densities of all 1024 labelled 5-point patterns, indexed by
    pair bitmask over PAIRS5.  The entries sum to 1."""
    V, mu = w.as_arrays()
    k = w.k
    assert k <= 8, "pattern vector capped at 8 parts"
    idx = np.indices((k,) * 5).reshape(5, -1)
    weight = mu[idx].prod(axis=0)
    acc = np.ones((idx.shape[1], 1))
    for i, j in PAIRS5:
        vij = V[idx[i], idx[j]][:, None]
        acc = np.concatenate([acc * (1.0 - vij), acc * vij], axis=1)
    return weight @ acc


def induced_pattern_vector_exact(w: StepGraphon):
    """Exact Fraction version of induced_pattern_vector; small k only."""
    assert w.exact, "exact pattern vector needs an exact kernel"
    k = w.k
    assert k ** 5 <= 4096, "exact pattern vector capped at small part counts"
    out = [Fraction(0)] * 1024
    for assign in itertools.product(range(k), repeat=5):
        weight = Fraction(1)
        for i in assign:
            weight *= w.weights[i]
        if not weight:
            continue
        vals = [Fraction(1)]
        for i, j in PAIRS5:
            x = w.values[assign[i]][assign[j]]
            vals = [a * (1 - x) for a in vals] + [a * x for a in vals]
        for mask in range(1024):
            out[mask] += weight * vals[mask]
    return out
