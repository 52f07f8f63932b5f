"""Witness search: numeric minimization of the monochromatic density over
step kernels, plus exact Ramsey multiplicities on very few points.

The optimizer is projected gradient descent with backtracking from several
deterministic starts, all descending side by side as one batch; values and
partials come from the density plan run in reverse mode.  It can only
certify upper bounds on the minimum, never the minimum itself.  A brute grid scan over two-part kernels
is kept alongside as an optimizer-free cross-check.  Finite multiplicities
count monochromatic labelled copies (injective vertex maps) over all
2-colourings of the complete graph, exactly, walking every red graph class
on n - 1 points (graphs.graph_classes) with every neighbourhood of the last
point.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .density import _capped_plan, _m_batch, _t_batch_grad
from .graphs import Graph, graph_classes
from .graphons import StepGraphon

# |value - 2^(1-e)| below this counts as sitting on the commonality target
VERDICT_BAND = 1e-5

# descent step: initial size, growth after an accepted step, shrink after a
# rejected one, and the size below which a restart stops
STEP0, STEP_GROW, STEP_SHRINK, MIN_STEP = 0.25, 1.3, 0.5, 1e-12


# ---------------------------------------------------------------------------
# analytic gradient

def _m_value_gradient(h: Graph, V: np.ndarray, mu: np.ndarray, with_weights: bool):
    """m_h and its partials for a batch of float kernels, V (B, k, k) and
    mu (B, k), by reverse mode through the compiled density plan.

    Off-diagonal entries (p,q) and (q,p) are one variable; the returned
    (B, k, k) gradient carries that single partial in both positions.  The
    (B, k) weight gradient ignores isolated vertices (their uniform
    contribution projects out on the simplex anyway).
    """
    B = len(V)
    # one walk over the stacked batch (V; 1 - V), 2B kernels
    t, dv, dw = _t_batch_grad(h, np.concatenate([V, 1.0 - V]), np.concatenate([mu, mu]),
                              with_weights)
    g = dv[:B] - dv[B:]
    return t[:B] + t[B:], g + g.transpose(0, 2, 1) - g * np.eye(V.shape[1]), dw[:B] + dw[B:]


def gradient_m(h: Graph, w: StepGraphon) -> np.ndarray:
    """Partials of m_h with respect to the kernel entries.

    Entry (p,q) of the result is d m / d x_pq where x_pq is the single
    variable behind both matrix positions; finite differences must perturb
    the two positions together to match.
    """
    V, mu = w.as_arrays()
    _, grad, _ = _m_value_gradient(h, V[None], mu[None], False)
    return grad[0]


# ---------------------------------------------------------------------------
# projected gradient descent

@dataclass
class MinimizeConfig:
    parts: int = 3
    restarts: int = 16
    max_iter: int = 400
    seed: int = 2026
    optimize_weights: bool = False

    def __post_init__(self):
        if self.parts < 1:
            raise ValueError("need at least one part")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_iter < 1:
            raise ValueError("need at least one evaluation per restart")


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
    """Euclidean projection of each row of y onto the probability simplex."""
    u = np.sort(y, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    n = y.shape[-1]
    hit = u * np.arange(1, n + 1) > css
    rho = n - 1 - np.argmax(hit[..., ::-1], axis=-1)
    theta = np.take_along_axis(css, rho[..., None], axis=-1) / (rho[..., None] + 1)
    return np.maximum(y - theta, 0.0)


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
    """Projected descent with backtracking from a batch of starts, V (R, k, k)
    and mu (R, k), run side by side.  Each restart keeps its own step size,
    trace and evaluation count, and freezes once its evaluations reach
    max_iter or its step falls below MIN_STEP; each gradient call covers
    only the live restarts.  Returns the winner, the lowest value and then
    the lowest index, as (value, V, mu, trace, restart)."""
    V, mu = np.array(V, dtype=np.float64), np.array(mu, dtype=np.float64)
    val, grad, gmu = _m_value_gradient(h, V, mu, cfg.optimize_weights)
    step = np.full(len(V), STEP0)
    trace, evals = np.ones((2, len(V)), dtype=np.int64)
    while True:
        live = np.flatnonzero((evals < cfg.max_iter) & (step >= MIN_STEP))
        if not len(live):
            break
        s = step[live]
        cand_v = np.clip(V[live] - s[:, None, None] * grad[live], 0.0, 1.0)
        cand_mu = (_project_simplex(mu[live] - s[:, None] * gmu[live])
                   if cfg.optimize_weights else mu[live])
        cval, cgrad, cgmu = _m_value_gradient(h, cand_v, cand_mu, cfg.optimize_weights)
        evals[live] += 1
        ok = cval < val[live] - 1e-15
        won = live[ok]
        V[won], mu[won], val[won] = cand_v[ok], cand_mu[ok], cval[ok]
        grad[won], gmu[won] = cgrad[ok], cgmu[ok]
        trace[won] += 1
        step[live] = np.where(ok, np.minimum(s * STEP_GROW, 1.0), s * STEP_SHRINK)
    r = int(np.argmin(val))
    return float(val[r]), V[r], mu[r], int(trace[r]), r


def minimize_m(h: Graph, cfg: MinimizeConfig | None = None) -> MinimizeResult:
    """Multistart projected gradient descent on m_h over step kernels.

    Deterministic given the config: each restart's start comes from its own
    generator keyed by (seed, restart), and all restarts descend together as
    one batch.  The reported value can only overestimate the true minimum,
    and never exceeds m at the half kernel.
    """
    cfg = cfg or MinimizeConfig()
    # refuse a part count over the float cap before any start is built
    _capped_plan(h, cfg.parts, False)
    target = Fraction(2) ** (1 - h.e)
    starts = np.stack([_start_matrix(cfg.parts, r, np.random.default_rng((cfg.seed, r)))
                       for r in range(cfg.restarts)])
    mu0 = np.full((cfg.restarts, cfg.parts), 1.0 / cfg.parts)
    val, V, mu, trace, r = _descend(h, starts, mu0, cfg)

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


def _colourings(n: int) -> np.ndarray:
    """Red-pair bitmasks over _pair_bits(n) that meet every relabelling
    class of 2-colourings of n points: each class on the first n - 1 points,
    joined with each neighbourhood of point n - 1."""
    bits = _pair_bits(n)
    classes = np.array([sum(1 << bits[e] for e in g.sorted_edges())
                        for g in graph_classes(n - 1)], dtype=np.uint32)
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
