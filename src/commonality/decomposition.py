"""Tree decompositions whose bags all induce the same small graph, and the
recognizer for graphs glued together from triangles.

A graph built by repeatedly gluing new triangles onto an existing one, either
along an edge or at a single vertex, has a tree decomposition into triangle
bags.  With e edges and v vertices such a graph has exactly phi = e - v + 1
bags, of which kappa = 2e - 3v + 3 pairs of adjacent bags share an edge.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import (Graph, canonical_form, catalog, induced_subgraph, is_connected, is_tree,
                     parse_prelude, pendant_map)


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple
    tree_edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "bags", tuple(tuple(sorted(b)) for b in self.bags))
        object.__setattr__(
            self, "tree_edges", tuple(tuple(sorted(e)) for e in self.tree_edges)
        )


def parse_decomposition(text: str) -> TreeDecomposition:
    """Line 1: bag count.  Next: one bag per line (vertex lists).  Remaining
    lines: tree edges as bag index pairs."""
    count, lines = parse_prelude(text, "decomposition", "bag count")
    if count < 1 or len(lines) < 1 + count:
        raise ValueError("bag count does not match the listed bags")
    bags = []
    for ln in lines[1:1 + count]:
        bag = tuple(sorted(int(t) for t in ln.split()))
        if not bag:
            raise ValueError("empty bag")
        bags.append(bag)
    edges = []
    for ln in lines[1 + count:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad tree edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return TreeDecomposition(tuple(bags), tuple(edges))


def format_decomposition(d: TreeDecomposition) -> str:
    lines = [str(len(d.bags))]
    lines += [" ".join(str(v) for v in bag) for bag in d.bags]
    lines += [f"{i} {j}" for i, j in d.tree_edges]
    return "\n".join(lines) + "\n"


def validate_diagnostics(h: Graph, d: TreeDecomposition):
    """All tree-decomposition axiom failures, as human-readable strings."""
    problems = []
    nb = len(d.bags)
    for i, bag in enumerate(d.bags):
        if not bag:
            problems.append(f"bag {i} is empty")
        for v in bag:
            if not 0 <= v < h.n:
                problems.append(f"bag {i} names vertex {v} outside the graph")
    for i, j in d.tree_edges:
        if not (0 <= i < nb and 0 <= j < nb) or i == j:
            problems.append(f"bad tree edge ({i},{j})")
    if problems:
        return problems

    if len(d.tree_edges) != nb - 1:
        problems.append(
            f"bag tree has {len(d.tree_edges)} edges, needs {nb - 1}"
        )
    if len(set(d.tree_edges)) != len(d.tree_edges):
        problems.append("duplicate tree edge")
    adj = {i: set() for i in range(nb)}
    for i, j in d.tree_edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != nb:
        problems.append("bag tree is disconnected")
    if problems:
        return problems

    covered = set().union(*map(set, d.bags))
    for v in range(h.n):
        if v not in covered:
            problems.append(f"vertex {v} is in no bag")
    for u, v in h.sorted_edges():
        if not any(u in bag and v in bag for bag in d.bags):
            problems.append(f"edge ({u},{v}) is inside no bag")
    for v in range(h.n):
        holding = [i for i in range(nb) if v in d.bags[i]]
        if len(holding) <= 1:
            continue
        hset = set(holding)
        comp = {holding[0]}
        stack = [holding[0]]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in hset and y not in comp:
                    comp.add(y)
                    stack.append(y)
        if comp != hset:
            problems.append(f"bags containing vertex {v} do not form a subtree")
    return problems


def validate(h: Graph, d: TreeDecomposition) -> bool:
    return not validate_diagnostics(h, d)


def _intersection_fixing_iso(h: Graph, x_bag, y_bag) -> bool:
    inter = set(x_bag) & set(y_bag)
    free_x = [a for a in x_bag if a not in inter]
    free_y = [a for a in y_bag if a not in inter]
    if len(free_x) != len(free_y):
        return False
    for image in itertools.permutations(free_y):
        f = dict(zip(free_x, image))
        f.update({a: a for a in inter})
        if all(
            h.has_edge(a, b) == h.has_edge(f[a], f[b])
            for a, b in itertools.combinations(x_bag, 2)
        ):
            return True
    return False


def is_j_decomposition(h: Graph, d: TreeDecomposition, j: Graph) -> bool:
    """Every bag induces a copy of j, and adjacent bags admit an isomorphism
    of their induced copies fixing the shared vertices pointwise."""
    problems = validate_diagnostics(h, d)
    if problems:
        raise ValueError("not a tree decomposition: " + "; ".join(problems))
    cj = canonical_form(j)
    for bag in d.bags:
        if len(bag) != j.n or canonical_form(induced_subgraph(h, bag)) != cj:
            return False
    for i, jdx in d.tree_edges:
        if not _intersection_fixing_iso(h, d.bags[i], d.bags[jdx]):
            return False
    return True


@dataclass(frozen=True)
class TriangleTreeReport:
    phi: int
    kappa: int
    decomposition: TreeDecomposition
    edge_intersection_count: int


def _degrees(edges):
    deg = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


def _is_single_triangle(edges):
    if len(edges) != 3:
        return False
    verts = set()
    for u, v in edges:
        verts.add(u)
        verts.add(v)
    return len(verts) == 3


def _peel(edges, memo):
    """Peel leaf triangles off the edge set; returns the removal steps in
    peel order, or None.  Steps are ("edge", z, (u, v)) for a triangle glued
    along the edge uv, and ("vertex", (z, y), x) for one glued at x."""
    if _is_single_triangle(edges):
        return []
    if edges in memo:
        return None
    deg = _degrees(edges)
    verts = len(deg)
    e = len(edges)
    # counting invariants of any candidate remainder are checked before recursing
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    candidates = []
    seen_vertex_pairs = set()
    for z in sorted(deg):
        if deg[z] != 2:
            continue
        u, v = sorted(adj[z])
        if u not in adj[v]:
            continue
        for other in (u, v):
            if deg[other] == 2:
                pair = frozenset((z, other))
                if pair not in seen_vertex_pairs:
                    seen_vertex_pairs.add(pair)
                    x = v if other == u else u
                    candidates.append(("vertex", tuple(sorted((z, other))), x))
        candidates.append(("edge", z, (u, v)))

    for step in candidates:
        if step[0] == "vertex":
            (z, y), x = step[1], step[2]
            gone = {frozenset(p) for p in ((z, y), (z, x), (y, x))}
            rest = frozenset(p for p in edges if frozenset(p) not in gone)
            dv, de = verts - 2, e - 3
        else:
            z, (u, v) = step[1], step[2]
            gone = {frozenset((z, u)), frozenset((z, v))}
            rest = frozenset(p for p in edges if frozenset(p) not in gone)
            dv, de = verts - 1, e - 2
        kappa = 2 * de - 3 * dv + 3
        phi = de - dv + 1
        if kappa < 0 or kappa > phi - 1:
            continue
        sub = _peel(rest, memo)
        if sub is not None:
            return [step] + sub
    memo.add(edges)
    return None


def find_triangle_decomposition(h: Graph):
    """Recognize a graph glued from triangles; returns a TriangleTreeReport
    with a decomposition passing validate and is_j_decomposition, or None."""
    n, e = h.n, h.e
    if n < 3 or not is_connected(h):
        return None
    phi = e - n + 1
    kappa = 2 * e - 3 * n + 3
    if kappa < 0 or kappa > phi - 1:
        return None
    if e != 3 * phi - kappa:
        return None
    for v in range(n):
        if h.degree(v) < 2:
            return None
    # every edge must lie in a triangle
    for u, v in h.edges:
        if not h.adj[u] & h.adj[v]:
            return None

    edges = frozenset(h.edges)
    steps = _peel(edges, set())
    if steps is None:
        return None

    # rebuild bags in reverse peel order; the base triangle is what remains
    remaining = set(map(frozenset, h.edges))
    for step in steps:
        if step[0] == "vertex":
            (z, y), x = step[1], step[2]
            remaining -= {frozenset(p) for p in ((z, y), (z, x), (y, x))}
        else:
            z, (u, v) = step[1], step[2]
            remaining -= {frozenset((z, u)), frozenset((z, v))}
    base = tuple(sorted(set().union(*remaining)))
    assert len(base) == 3
    bags = [base]
    tree_edges = []
    for step in reversed(steps):
        if step[0] == "vertex":
            (z, y), x = step[1], step[2]
            new_bag = tuple(sorted((z, y, x)))
            target = next(i for i, b in enumerate(bags) if x in b)
        else:
            z, (u, v) = step[1], step[2]
            new_bag = tuple(sorted((z, u, v)))
            target = next(i for i, b in enumerate(bags) if u in b and v in b)
        bags.append(new_bag)
        tree_edges.append((target, len(bags) - 1))
    d = TreeDecomposition(tuple(bags), tuple(tree_edges))
    shared = sum(
        1 for i, j in d.tree_edges if len(set(d.bags[i]) & set(d.bags[j])) == 2
    )
    assert len(bags) == phi and shared == kappa
    return TriangleTreeReport(phi, kappa, d, shared)


def extend_with_pendant_tree(h: Graph, d: TreeDecomposition, t: Graph, u: int, v: int):
    """Glue the tree t onto h at u=v and extend a triangle decomposition of h
    with one two-vertex bag per tree edge.  Returns (glued graph, decomposition).

    The new bags form a tree of their own: orient t away from a leaf root,
    make each oriented edge a bag, join bags head-to-tail, and bridge the
    bag of an edge at u to an original bag containing v."""
    problems = validate_diagnostics(h, d)
    if problems:
        raise ValueError("not a tree decomposition: " + "; ".join(problems))
    k3 = catalog("k3")
    ck3 = canonical_form(k3)
    for bag in d.bags:
        if len(bag) != 3 or canonical_form(induced_subgraph(h, bag)) != ck3:
            raise ValueError(f"bag {bag} does not induce a triangle")
    assert is_tree(t)
    if t.n == 1:
        return h, d

    glued, mapping = pendant_map(t, u, h, v)
    leaves = [x for x in range(t.n) if t.degree(x) == 1]
    root = min(leaves)
    parent = {root: None}
    stack = [root]
    order = []
    while stack:
        x = stack.pop()
        order.append(x)
        for y in range(t.n):
            if t.has_edge(x, y) and y not in parent:
                parent[y] = x
                stack.append(y)

    node_of = {}  # tree vertex w -> bag index of the oriented edge (parent[w], w)
    bags = list(d.bags)
    for w in sorted(x for x in range(t.n) if x != root):
        node_of[w] = len(bags)
        bags.append(tuple(sorted((mapping[parent[w]], mapping[w]))))
    tree_edges = list(d.tree_edges)
    for w in sorted(node_of):
        p = parent[w]
        if p != root and p is not None:
            tree_edges.append((node_of[p], node_of[w]))
    if u != root:
        bridge = node_of[u]
    else:
        children = [w for w in range(t.n) if parent.get(w) == u]
        assert len(children) == 1  # the root is a leaf
        bridge = node_of[children[0]]
    target = next(i for i, b in enumerate(d.bags) if v in b)
    tree_edges.append((target, bridge))
    return glued, TreeDecomposition(tuple(bags), tuple(tree_edges))


def random_triangle_tree(rng, bag_count: int, max_vertices: int = 16) -> Graph:
    """Random graph glued from bag_count triangles, mixing edge and vertex
    gluings while respecting the vertex cap.  rng is a random.Random."""
    assert bag_count >= 1
    assert 3 + (bag_count - 1) <= max_vertices, "too many bags for the vertex cap"
    edges = [(0, 1), (0, 2), (1, 2)]
    n = 3
    for step in range(bag_count - 1):
        remaining_after = bag_count - 2 - step
        can_vertex = n + 2 + remaining_after <= max_vertices
        if can_vertex and rng.random() < 0.45:
            x = rng.randrange(n)
            z, y = n, n + 1
            edges += [(x, z), (x, y), (z, y)]
            n += 2
        else:
            u, v = sorted(edges)[rng.randrange(len(edges))]
            z = n
            edges += [(u, z), (v, z)]
            n += 1
    return Graph(n, edges)
