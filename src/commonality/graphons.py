"""Step function kernels on [0,1]^2 with finitely many parts.

A kernel is stored as a symmetric k x k matrix of part-pair values plus a
vector of part weights (nonnegative, summing to 1).  Entries may be exact
(int / Fraction) or floating; a kernel is "exact" only when every value and
weight is exact, and exact kernels keep Fraction arithmetic end to end.
Kernels are immutable and hash by value, so a suite of them can key a cache.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .graphs import Graph, parse_prelude

WEIGHT_SUM_TOL = 1e-12


def _exact_num(x):
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _fraction(x) -> Fraction:
    """x as a Fraction of Python ints: Fraction(np.int64(5), 12) keeps its
    numpy numerator, which overflows without an error in the integer
    contraction."""
    return Fraction(int(x.numerator), int(x.denominator))


class StepGraphon:
    """Symmetric step kernel with values in [0, 1].

    Immutable: every attribute is set once in __init__, and the hash is
    computed there, over the type, values and weights that __eq__ compares.
    An exact kernel and a float kernel with equal entries are equal and
    hash equal."""

    lo = 0
    hi = 1

    __slots__ = ("k", "values", "weights", "exact", "_hash")

    def __init__(self, values, weights=None):
        rows = [list(r) for r in values]
        k = len(rows)
        if k < 1:
            raise ValueError("need at least one part")
        if any(len(r) != k for r in rows):
            raise ValueError("value matrix must be square")
        if weights is None:
            weights = [Fraction(1, k)] * k
        weights = list(weights)
        if len(weights) != k:
            raise ValueError("one weight per part")

        exact = all(_exact_num(x) for r in rows for x in r) and all(
            _exact_num(x) for x in weights
        )
        if exact:
            rows = [[_fraction(x) for x in r] for r in rows]
            weights = [_fraction(x) for x in weights]
            if sum(weights) != 1:
                raise ValueError("part weights must sum to 1")
        else:
            rows = [[float(x) for x in r] for r in rows]
            weights = [float(x) for x in weights]
            if not abs(sum(weights) - 1) <= WEIGHT_SUM_TOL:
                raise ValueError("part weights must sum to 1")
        for i in range(k):
            if rows[i][i] != rows[i][i]:
                raise ValueError("nan value")
            for j in range(k):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("value matrix must be symmetric")
                if not self.lo <= rows[i][j] <= self.hi:
                    raise ValueError(f"value {rows[i][j]} outside [{self.lo}, {self.hi}]")
        for x in weights:
            if not x >= 0:
                raise ValueError("negative part weight")

        values = tuple(tuple(r) for r in rows)
        weights = tuple(weights)
        for name, value in (("k", k), ("values", values), ("weights", weights),
                            ("exact", exact), ("_hash", hash((type(self), values, weights)))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def as_arrays(self):
        """(values, weights) as float64 numpy arrays."""
        V = np.array(self.values, dtype=np.float64)
        mu = np.array(self.weights, dtype=np.float64)
        return V, mu

    def one_minus(self) -> "StepGraphon":
        return StepGraphon([[1 - x for x in r] for r in self.values], self.weights)

    def signed(self) -> "SignedStepGraphon":
        return SignedStepGraphon([[2 * x - 1 for x in r] for r in self.values], self.weights)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.values == other.values
            and self.weights == other.weights
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}(k={self.k}, exact={self.exact})"


class SignedStepGraphon(StepGraphon):
    """Symmetric step kernel with values in [-1, 1]."""

    lo = -1
    hi = 1

    def one_minus(self):
        raise TypeError("one_minus is only defined for [0,1]-valued kernels")

    def signed(self):
        raise TypeError("already a signed kernel")


def constant_graphon(p, k=1) -> StepGraphon:
    return StepGraphon([[p] * k for _ in range(k)])


def half() -> StepGraphon:
    return constant_graphon(Fraction(1, 2))


def block_graphon(g: Graph) -> StepGraphon:
    """0/1 kernel of a graph: k = n parts of weight 1/n, value = adjacency."""
    if g.n < 1:
        raise ValueError("need at least one vertex")
    vals = [[Fraction(1) if g.has_edge(i, j) else Fraction(0) for j in range(g.n)]
            for i in range(g.n)]
    return StepGraphon(vals)


def _parse_number(tok: str):
    if "/" in tok:
        return Fraction(tok)
    try:
        return int(tok)
    except ValueError:
        return float(tok)


def parse_graphon(text: str, signed: bool = False) -> StepGraphon:
    """Line 1: k.  Line 2: k part weights.  Then k rows of k values.
    Numbers are decimals or rationals like 3/7; all-rational input parses exact."""
    k, lines = parse_prelude(text, "kernel", "part count")
    if k < 1:
        raise ValueError("part count must be at least 1")
    if len(lines) != 2 + k:
        raise ValueError(f"expected {2 + k} lines for k={k}, got {len(lines)}")
    weights = [_parse_number(t) for t in lines[1].split()]
    if len(weights) != k:
        raise ValueError("weight line length mismatch")
    rows = []
    for ln in lines[2:]:
        row = [_parse_number(t) for t in ln.split()]
        if len(row) != k:
            raise ValueError("value row length mismatch")
        rows.append(row)
    cls = SignedStepGraphon if signed else StepGraphon
    try:
        return cls(rows, weights)
    except ValueError as exc:
        raise ValueError(f"invalid kernel: {exc}") from None


def format_graphon(w: StepGraphon) -> str:
    def fmt(x):
        return str(x) if w.exact else repr(float(x))

    lines = [str(w.k), " ".join(fmt(x) for x in w.weights)]
    lines += [" ".join(fmt(x) for x in row) for row in w.values]
    return "\n".join(lines) + "\n"


def random_graphon(k: int, rng: np.random.Generator) -> StepGraphon:
    """Entries i.i.d. uniform on [0,1] (symmetrized), weights a random point
    of the simplex bounded away from degenerate parts."""
    if k < 1:
        raise ValueError(f"a kernel needs at least one part, got {k}")
    raw = rng.random((k, k))
    vals = np.triu(raw) + np.triu(raw, 1).T
    wraw = rng.random(k) + 0.1
    wts = wraw / wraw.sum()
    return StepGraphon(vals.tolist(), wts.tolist())


def random_suite(count: int, seed: int, ks=(2, 3, 4)):
    if count < 0:
        raise ValueError(f"suite size must be at least 0, got {count}")
    rng = np.random.default_rng(seed)
    return [random_graphon(ks[i % len(ks)], rng) for i in range(count)]


def corner_graphons():
    """Adversarial corners: constant 0, constant 1, one half, and a 0/1 block kernel."""
    return [
        constant_graphon(Fraction(0)),
        constant_graphon(Fraction(1)),
        half(),
        block_graphon(Graph(2, [(0, 1)])),
    ]
