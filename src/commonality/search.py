"""Witness search: numeric minimization of the monochromatic density over
step kernels, plus exact Ramsey multiplicities on very few points.

The optimizer is projected gradient descent with backtracking, restarted
from several deterministic starts; it can only certify upper bounds on the
minimum, never the minimum itself.  A brute grid scan over two-part kernels
is kept alongside as an optimizer-free cross-check.  Finite multiplicities
count monochromatic labelled copies (injective vertex maps) over all
2-colourings of the complete graph, exactly, walking every red graph class
on n - 1 points with every neighbourhood of the last point.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .density import _m_batch
from .graphs import Graph, canonical_form
from .graphons import StepGraphon

# |value - 2^(1-e)| below this counts as sitting on the commonality target
VERDICT_BAND = 1e-5

_GRAD_ASSIGNMENT_CAP = 1 << 20


# ---------------------------------------------------------------------------
# analytic gradient

def _t_value_gradient(h: Graph, V: np.ndarray, mu: np.ndarray, with_weights: bool):
    """t_h and its partials for one float kernel, by brute enumeration.

    Off-diagonal entries (p,q) and (q,p) are one variable; the returned
    matrix carries that single partial in both positions.  The weight
    gradient ignores isolated vertices (their uniform contribution projects
    out on the simplex anyway).
    """
    k = len(mu)
    active = [v for v in range(h.n) if h.adj[v]]
    if not active:
        return 1.0, np.zeros((k, k)), np.zeros(k)
    if k ** len(active) > _GRAD_ASSIGNMENT_CAP:
        raise ValueError("gradient enumeration too large: %d parts on %d vertices"
                         % (k, len(active)))
    pos = {v: i for i, v in enumerate(active)}
    edges = [(pos[u], pos[v]) for u, v in h.sorted_edges()]
    e = len(edges)
    idx = np.indices((k,) * len(active)).reshape(len(active), -1)
    n_assign = idx.shape[1]
    weight = mu[idx].prod(axis=0)

    F = np.empty((e, n_assign))
    for i, (a, b) in enumerate(edges):
        F[i] = V[idx[a], idx[b]]
    # prefix/suffix products give every leave-one-out product in O(e)
    pre = np.ones((e + 1, n_assign))
    for i in range(e):
        pre[i + 1] = pre[i] * F[i]
    suf = np.ones((e + 1, n_assign))
    for i in range(e - 1, -1, -1):
        suf[i] = suf[i + 1] * F[i]
    full = pre[e]
    value = float((weight * full).sum())

    G = np.zeros((k, k))
    for i, (a, b) in enumerate(edges):
        contrib = weight * (pre[i] * suf[i + 1])
        p = np.minimum(idx[a], idx[b])
        q = np.maximum(idx[a], idx[b])
        np.add.at(G, (p, q), contrib)
    G = G + np.triu(G, 1).T

    gmu = np.zeros(k)
    if with_weights:
        v_act = len(active)
        M = mu[idx]
        wpre = np.ones((v_act + 1, n_assign))
        for s in range(v_act):
            wpre[s + 1] = wpre[s] * M[s]
        wsuf = np.ones((v_act + 1, n_assign))
        for s in range(v_act - 1, -1, -1):
            wsuf[s] = wsuf[s + 1] * M[s]
        for s in range(v_act):
            np.add.at(gmu, idx[s], full * (wpre[s] * wsuf[s + 1]))
    return value, G, gmu


def _m_value_gradient(h: Graph, V: np.ndarray, mu: np.ndarray, with_weights: bool):
    t1, g1, w1 = _t_value_gradient(h, V, mu, with_weights)
    t2, g2, w2 = _t_value_gradient(h, 1.0 - V, mu, with_weights)
    return t1 + t2, g1 - g2, w1 + w2


def gradient_m(h: Graph, w: StepGraphon) -> np.ndarray:
    """Partials of m_h with respect to the kernel entries.

    Entry (p,q) of the result is d m / d x_pq where x_pq is the single
    variable behind both matrix positions; finite differences must perturb
    the two positions together to match.
    """
    V, mu = w.as_arrays()
    _, grad, _ = _m_value_gradient(h, V, mu, False)
    return grad


# ---------------------------------------------------------------------------
# projected gradient descent

@dataclass
class MinimizeConfig:
    parts: int = 3
    restarts: int = 16
    max_iter: int = 400
    step0: float = 0.25
    step_grow: float = 1.3
    step_shrink: float = 0.5
    min_step: float = 1e-12
    seed: int = 2026
    optimize_weights: bool = False
    box: tuple = (0.0, 1.0)

    def __post_init__(self):
        if self.parts < 1:
            raise ValueError("need at least one part")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_iter < 1:
            raise ValueError("need at least one evaluation per restart")
        lo, hi = self.box
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError("projection box must sit inside [0,1]")


@dataclass
class MinimizeResult:
    graphon: StepGraphon
    value: float
    target: Fraction          # 2^(1-e), the commonality floor
    verdict: str              # at-target | above-target | below-target
    trace_length: int
    restart_index: int

    def tsv(self) -> str:
        rows = [
            ("value", "%.12g" % self.value),
            ("target", "%.12g" % float(self.target)),
            ("target-exact", str(self.target)),
            ("verdict", self.verdict),
            ("trace-length", str(self.trace_length)),
            ("restart", str(self.restart_index)),
        ]
        return "\n".join("\t".join(r) for r in rows) + "\n"


def _project_simplex(y: np.ndarray) -> np.ndarray:
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(y) + 1) > css)[0][-1]
    return np.maximum(y - css[rho] / (rho + 1), 0.0)


def _symmetric(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2


def _start_matrix(k: int, r: int, rng: np.random.Generator) -> np.ndarray:
    # rotate through the fixed starts, then fall back to uniform random;
    # restart 0 is always the half kernel so its value is always reachable
    if r == 0:
        return np.full((k, k), 0.5)
    if r == 1:
        return np.clip(0.5 + np.abs(_symmetric(rng.uniform(-0.2, 0.2, (k, k)))), 0.0, 1.0)
    if r == 2:
        return np.clip(0.5 - np.abs(_symmetric(rng.uniform(-0.2, 0.2, (k, k)))), 0.0, 1.0)
    if r == 3:
        return np.eye(k)
    if r == 4:
        return 1.0 - np.eye(k)
    return _symmetric(rng.uniform(0.0, 1.0, (k, k)))


def _descend(h: Graph, V: np.ndarray, mu: np.ndarray, cfg: MinimizeConfig):
    lo, hi = cfg.box
    val, grad, gmu = _m_value_gradient(h, V, mu, cfg.optimize_weights)
    step = cfg.step0
    trace = 1
    evals = 1
    while evals < cfg.max_iter and step >= cfg.min_step:
        cand_v = np.clip(V - step * grad, lo, hi)
        cand_mu = _project_simplex(mu - step * gmu) if cfg.optimize_weights else mu
        cval, cgrad, cgmu = _m_value_gradient(h, cand_v, cand_mu, cfg.optimize_weights)
        evals += 1
        if cval < val - 1e-15:
            V, mu, val, grad, gmu = cand_v, cand_mu, cval, cgrad, cgmu
            step = min(step * cfg.step_grow, 1.0)
            trace += 1
        else:
            step *= cfg.step_shrink
    return val, V, mu, trace


def minimize_m(h: Graph, cfg: MinimizeConfig | None = None) -> MinimizeResult:
    """Multistart projected gradient descent on m_h over step kernels.

    Deterministic given the config: each restart carries its own generator
    keyed by (seed, restart).  The reported value can only overestimate the
    true minimum, and never exceeds m at the half kernel.
    """
    cfg = cfg or MinimizeConfig()
    target = Fraction(2) ** (1 - h.e)
    mu0 = np.full(cfg.parts, 1.0 / cfg.parts)

    def run(r):
        rng = np.random.default_rng((cfg.seed, r))
        val, V, mu, trace = _descend(h, _start_matrix(cfg.parts, r, rng), mu0.copy(), cfg)
        return val, r, V, mu, trace

    val, r, V, mu, trace = min((run(r) for r in range(cfg.restarts)),
                               key=lambda t: (t[0], t[1]))

    tf = float(target)
    if val < tf - VERDICT_BAND:
        verdict = "below-target"
    elif val <= tf + VERDICT_BAND:
        verdict = "at-target"
    else:
        verdict = "above-target"
    return MinimizeResult(StepGraphon(V.tolist(), mu.tolist()), val, target, verdict, trace, r)


def grid_minimum_two_parts(h: Graph, resolution: int = 64):
    """Brute scan of two-part kernels with values and weight on a uniform grid.

    No calculus, no starts, no step sizes: an independent floor estimate used
    to sanity-check the optimizer.  Returns (best value, best kernel).
    """
    if resolution < 1:
        raise ValueError("grid resolution must be at least 1")
    steps = resolution + 1
    vals = np.linspace(0.0, 1.0, steps)
    aa, bb, cc = np.meshgrid(vals, vals, vals, indexing="ij")
    V = np.empty((steps ** 3, 2, 2))
    V[:, 0, 0] = aa.ravel()
    V[:, 0, 1] = bb.ravel()
    V[:, 1, 0] = bb.ravel()
    V[:, 1, 1] = cc.ravel()
    best_val, best_kernel, best_u = np.inf, None, 0.5
    for wi in range(steps):
        u = wi / resolution
        mu = np.tile(np.array([u, 1.0 - u]), (V.shape[0], 1))
        tot = _m_batch(h, V, mu)
        i = int(np.argmin(tot))
        if tot[i] < best_val:
            best_val, best_kernel, best_u = float(tot[i]), V[i].copy(), u
    return best_val, StepGraphon(best_kernel.tolist(), [best_u, 1.0 - best_u])


# ---------------------------------------------------------------------------
# exact finite Ramsey multiplicity

def _pair_bits(n: int):
    return {pair: b for b, pair in enumerate(itertools.combinations(range(n), 2))}


def _copy_masks(h: Graph, n: int):
    """Edge bitmask of every injective map of h into n points, grouped with
    multiplicities.  Bit b of a mask is pair b in combination order."""
    bits = _pair_bits(n)
    counts = {}
    for mp in itertools.permutations(range(n), h.n):
        mask = 0
        for u, v in h.edges:
            a, b = mp[u], mp[v]
            mask |= 1 << bits[(a, b) if a < b else (b, a)]
        counts[mask] = counts.get(mask, 0) + 1
    return counts


@lru_cache(maxsize=None)
def _red_graph_classes(n: int):
    """All graphs on n labelled points up to isomorphism, as canonical forms,
    grown one edge at a time from the empty graph."""
    start = canonical_form(Graph(n))
    seen = {tuple(start.sorted_edges()): start}
    frontier = [start]
    while frontier:
        fresh = []
        for g in frontier:
            for u in range(n):
                for v in range(u + 1, n):
                    if not g.has_edge(u, v):
                        c = canonical_form(Graph(n, list(g.edges) + [(u, v)]))
                        key = tuple(c.sorted_edges())
                        if key not in seen:
                            seen[key] = c
                            fresh.append(c)
        frontier = fresh
    return list(seen.values())


def _colourings(n: int) -> np.ndarray:
    """Red-pair bitmasks over _pair_bits(n) that meet every relabelling
    class of 2-colourings of n points: each class on the first n - 1 points,
    joined with each neighbourhood of point n - 1."""
    bits = _pair_bits(n)
    classes = np.array([sum(1 << bits[e] for e in g.sorted_edges())
                        for g in _red_graph_classes(n - 1)], dtype=np.uint32)
    last = [1 << bits[(i, n - 1)] for i in range(n - 1)]
    neighbourhoods = np.array([sum(b for i, b in enumerate(last) if s >> i & 1)
                               for s in range(1 << (n - 1))], dtype=np.uint32)
    return (classes[:, None] | neighbourhoods[None, :]).ravel()


def exact_ramsey_multiplicity(h: Graph, n: int) -> int:
    """Minimum number of monochromatic labelled copies of h over all
    2-colourings of the pairs on n points.

    Copies are injective vertex maps, so an edgeless h is counted once per
    colour (mirroring m = t + t-complement).  The first n - 1 points of any
    colouring relabel onto a class representative, and relabelling keeps the
    count, so the minimum over _colourings(n) is the minimum over all.
    """
    if not 1 <= n <= 8:
        raise ValueError(f"n={n} out of range; colouring enumeration stops at n=8")
    if h.n > n:
        return 0
    colour = _colourings(n)
    total = np.zeros(len(colour), dtype=np.int64)
    for mask, mult in _copy_masks(h, n).items():
        covered = colour & np.uint32(mask)
        total += mult * (covered == mask)
        total += mult * (covered == 0)
    return int(total.min())


def estimate_ramsey_constant(h: Graph, n: int) -> Fraction:
    """M(h, n) over the falling factorial n(n-1)...(n-v+1).

    A finite-n proxy for the limiting constant, not the limit itself; small n
    undershoots (0.1 at n=6 for the triangle against the true 1/4).
    """
    if n < max(h.n, 1):
        raise ValueError(f"need at least v={h.n} points for the normalized ratio")
    falling = 1
    for i in range(h.n):
        falling *= n - i
    return Fraction(exact_ramsey_multiplicity(h, n), falling)
