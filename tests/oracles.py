"""Reference oracles that enumerate every assignment of parts to sample
points directly.  They share no code with the package's multiset and
elimination routes, and are meant for small part counts."""
import itertools
from fractions import Fraction

from commonality.density import PAIRS5
from commonality.graphs import Graph
from commonality.graphons import StepGraphon


def t_induced(g: Graph, w: StepGraphon):
    """Density of g as an induced subgraph pattern on labelled samples."""
    one = Fraction(1) if w.exact else 1.0
    total = Fraction(0) if w.exact else 0.0
    for assign in itertools.product(range(w.k), repeat=g.n):
        term = one
        for u in range(g.n):
            for v in range(u + 1, g.n):
                x = w.values[assign[u]][assign[v]]
                term = term * (x if g.has_edge(u, v) else one - x)
        for i in assign:
            term = term * w.weights[i]
        total += term
    return total


def induced_pattern_vector_exact(w: StepGraphon):
    """Exact induced densities of all 1024 labelled 5-point patterns,
    indexed by pair bitmask over PAIRS5."""
    assert w.exact
    out = [Fraction(0)] * 1024
    for assign in itertools.product(range(w.k), repeat=5):
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
