"""Reference oracles that enumerate every assignment of parts to sample
points, every colouring of a complete graph, every relabelling of a graph,
or every gluing order of a graph's triangles, directly.  They share no
code with the package's multiset, elimination, colouring-class,
refinement and leaf-peeling routes, and are meant for small part and
point counts.  Two exceptions use the package's refinement canonical
form (itself checked against canonical_brute):
pattern_classes_by_canonical_form names the certificate's pattern classes
by it, which shares no code with the certificate's relabelling product, and
graph_classes_brute classifies every labelled graph by it, with no growth
from smaller classes.  elimination_order is the package's min-degree order
as it was first written, on sets of neighbours rather than bitmasks."""
import itertools
from fractions import Fraction

import numpy as np

from commonality.certificate import PAIRS5
from commonality.graphs import Graph, canonical_form, complement
from commonality.graphons import StepGraphon


def enumerated_density(g: Graph, values, weights) -> Fraction:
    """Homomorphism density of g as a sum over every assignment of parts to
    the vertices that carry an edge, one Fraction term per assignment."""
    k = len(weights)
    active = [v for v in range(g.n) if g.adj[v]]
    pos = {v: i for i, v in enumerate(active)}
    edges = [(pos[u], pos[v]) for u, v in g.edges]
    total = Fraction(0)
    for assign in itertools.product(range(k), repeat=len(active)):
        term = Fraction(1)
        for u, v in edges:
            term *= values[assign[u]][assign[v]]
        for i in assign:
            term *= weights[i]
        total += term
    return total


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


def pattern_classes_by_canonical_form(representatives):
    """1-based class of each of the 1024 labelled 5-point patterns (pair
    bitmask over PAIRS5): the position of the representative that the
    pattern's black graph, or its white graph, is isomorphic to."""
    names = {}
    for index, rep in enumerate(representatives, start=1):
        for g in (rep, complement(rep)):
            assert names.setdefault(canonical_form(g), index) == index
    return [names[canonical_form(Graph(5, [PAIRS5[p] for p in range(10) if mask >> p & 1]))]
            for mask in range(1024)]


def canonical_brute(g: Graph):
    """(n, best edge code) over all n! relabellings of g: the code of an
    order lists, pair by pair in lexicographic order, whether the vertices
    placed at those two positions are adjacent, first pair most significant.
    Two graphs are isomorphic exactly when their results agree."""
    n = g.n
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return n, 0
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in g.edges:
        adj[u, v] = adj[v, u] = 1
    orders = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    first, second = np.array(pairs, dtype=np.int64).T
    bits = adj[orders[:, first], orders[:, second]]
    place = 1 << np.arange(len(pairs) - 1, -1, -1, dtype=np.int64)
    return n, int((bits @ place).max())


def graph_classes_brute(n: int):
    """The set of canonical forms of all 2^C(n, 2) labelled graphs on n
    points."""
    pairs = list(itertools.combinations(range(n), 2))
    return {canonical_form(Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1]))
            for bits in range(1 << len(pairs))}


def ramsey_brute(h: Graph, n: int) -> int:
    """Minimum number of monochromatic injective maps of h over all
    2-colourings of the pairs on n points, taken one colouring at a time.
    Pair (a, b) with a < b is bit b(b-1)/2 + a of a colouring."""
    masks = []
    for mp in itertools.permutations(range(n), h.n):
        mask = 0
        for u, v in h.edges:
            a, b = sorted((mp[u], mp[v]))
            mask |= 1 << (b * (b - 1) // 2 + a)
        masks.append(mask)
    masks = np.array(masks, dtype=np.int64)
    best = None
    for colour in range(1 << (n * (n - 1) // 2)):
        red = masks & colour
        count = int(np.count_nonzero(red == masks) + np.count_nonzero(red == 0))
        best = count if best is None else min(best, count)
    return best


def t_value_gradient_brute(h: Graph, V: np.ndarray, mu: np.ndarray):
    """t_h, its partials in the kernel entries and its partials in the part
    weights for one float kernel, summed over all k^v assignments.

    Off-diagonal entries (p,q) and (q,p) are one variable; the returned
    matrix carries that single partial in both positions.  The weight
    gradient ignores isolated vertices."""
    k = len(mu)
    active = [v for v in range(h.n) if h.adj[v]]
    if not active:
        return 1.0, np.zeros((k, k)), np.zeros(k)
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

    v_act = len(active)
    M = mu[idx]
    wpre = np.ones((v_act + 1, n_assign))
    for s in range(v_act):
        wpre[s + 1] = wpre[s] * M[s]
    wsuf = np.ones((v_act + 1, n_assign))
    for s in range(v_act - 1, -1, -1):
        wsuf[s] = wsuf[s + 1] * M[s]
    gmu = np.zeros(k)
    for s in range(v_act):
        np.add.at(gmu, idx[s], full * (wpre[s] * wsuf[s + 1]))
    return value, G, gmu


def is_triangle_tree(g: Graph) -> bool:
    """Whether some order of all of g's triangles glues g together: each
    triangle after the first meets the union so far in exactly one vertex or
    in exactly one edge of that union, and the triangles cover every vertex
    and edge.  Orders are searched depth first, and a set of placed
    triangles that cannot be completed is not tried again."""
    tris = [t for t in itertools.combinations(range(g.n), 3)
            if all(g.has_edge(a, b) for a, b in itertools.combinations(t, 2))]
    covered = {p for t in tris for p in itertools.combinations(t, 2)}
    if not tris or covered != set(g.edges) or {v for t in tris for v in t} != set(range(g.n)):
        return False
    dead = set()

    def extend(placed, verts, edges):
        rest = [t for t in tris if t not in placed]
        if not rest:
            return True
        # a triangle whose three vertices are all placed can never be glued on
        if placed in dead or any(set(t) <= verts for t in rest):
            return False
        for t in rest:
            meet = tuple(v for v in t if v in verts)
            if len(meet) == 1 or (len(meet) == 2 and meet in edges):
                if extend(placed | {t}, verts | set(t),
                          edges | set(itertools.combinations(t, 2))):
                    return True
        dead.add(placed)
        return False

    return any(extend(frozenset([t]), set(t), set(itertools.combinations(t, 2)))
               for t in tris)


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
