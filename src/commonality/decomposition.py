"""Tree decompositions whose bags all induce the same small graph, and the
recognizer for graphs glued together from triangles.

A graph built by repeatedly gluing new triangles onto an existing one, either
along an edge or at a single vertex, has a tree decomposition into triangle
bags.  With e edges and v vertices such a graph has exactly phi = e - v + 1
bags, of which kappa = 2e - 3v + 3 pairs of adjacent bags share an edge.

The recognizer peels leaf triangles off a connected graph.  It takes a
degree-2 vertex z whose neighbours u and v are adjacent, and
  (a) if u or v also has degree 2, removes z and that vertex (a triangle
      glued at one vertex);
  (b) otherwise, if u and v have a common neighbour besides z, removes z
      alone (a triangle glued along uv);
skipping any other z, until one triangle is left (accept) or no z qualifies
(reject).  No search is needed.  Each gluing creates exactly one triangle, so
every triangle of a triangle-tree is a bag.  A leaf bag always offers an (a)
or (b) peel, each peel leaves a triangle-tree, and undoing a peel is a
gluing, so any peel order succeeds exactly on triangle-trees.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

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


def _reachable(adj, start, allowed):
    """The bags reachable from start along tree edges through allowed bags."""
    seen, stack = {start}, [start]
    while stack:
        for y in adj[stack.pop()]:
            if y in allowed and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def validate_diagnostics(h: Graph, d: TreeDecomposition):
    """All tree-decomposition axiom failures, as human-readable strings."""
    nb = len(d.bags)
    if not nb:
        return ["decomposition has no bags"]
    problems = []
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
    if len(_reachable(adj, 0, adj)) != nb:
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
        holding = {i for i in range(nb) if v in d.bags[i]}
        if holding and _reachable(adj, min(holding), holding) != holding:
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


@lru_cache(maxsize=64)
def find_triangle_decomposition(h: Graph):
    """Recognize a graph glued from triangles by greedy leaf peeling; returns
    a TriangleTreeReport with a decomposition passing validate and
    is_j_decomposition, or None.  Cached: the inequality battery asks it of
    the same few catalog graphs for every kernel, and the report is frozen."""
    if not is_connected(h):
        return None
    adj = {v: set() for v in range(h.n)}
    for u, v in h.edges:
        adj[u].add(v)
        adj[v].add(u)
    peels = []  # (bag, shared vertices) in peel order
    while len(adj) > 3 or sum(map(len, adj.values())) != 6:
        for z in adj:
            if len(adj[z]) != 2:
                continue
            u, v = adj[z]
            if v not in adj[u]:
                continue
            if len(adj[v]) == 2:
                u, v = v, u
            if len(adj[u]) == 2:  # (a) glued at v
                gone, shared = (z, u), (v,)
            elif len(adj[u] & adj[v]) > 1:  # (b) glued along uv
                gone, shared = (z,), (u, v)
            else:
                continue
            break
        else:
            return None
        peels.append(((z, u, v), shared))
        for y in gone:
            for x in adj.pop(y):
                adj[x].discard(y)

    # undoing the peels glues the bags back on, each to the first earlier
    # bag holding its shared vertices
    bags = [tuple(adj)]
    tree_edges = []
    for bag, shared in reversed(peels):
        target = next(i for i, b in enumerate(bags) if set(shared) <= set(b))
        tree_edges.append((target, len(bags)))
        bags.append(bag)
    d = TreeDecomposition(tuple(bags), tuple(tree_edges))
    shared = sum(
        1 for i, j in d.tree_edges if len(set(d.bags[i]) & set(d.bags[j])) == 2
    )
    phi, kappa = h.e - h.n + 1, 2 * h.e - 3 * h.n + 3
    if len(bags) != phi or shared != kappa:
        raise RuntimeError("found %d bags sharing %d edges, expected phi = %d and kappa = %d"
                           % (len(bags), shared, phi, kappa))
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
    if not is_tree(t):
        raise ValueError("the pendant graph must be a tree")
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
        if len(children) != 1:
            raise RuntimeError("the root of the pendant tree is not a leaf")
        bridge = node_of[children[0]]
    target = next(i for i, b in enumerate(d.bags) if v in b)
    tree_edges.append((target, bridge))
    return glued, TreeDecomposition(tuple(bags), tuple(tree_edges))


def random_triangle_tree(rng, bag_count: int, max_vertices: int = 16) -> Graph:
    """Random graph glued from bag_count triangles, mixing edge and vertex
    gluings while respecting the vertex cap.  rng is a random.Random."""
    if not 1 <= bag_count <= max_vertices - 2:
        raise ValueError(f"bag count {bag_count} out of range 1..{max_vertices - 2} "
                         "for the vertex cap")
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
