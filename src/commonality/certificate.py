"""Exact verification of the five-vertex nonnegativity certificate.

Two five-vertex graphs (a diamond with a pendant edge at a degree-2
vertex, and one with the pendant at a degree-3 vertex) have their
two-colour density excess written as a nonnegative rational combination
of sixteen building-block functionals: three density excesses of graphs
already known to be common, and thirteen conditioned squares.  Every
functional lives in the 18-dimensional space spanned by the isomorphism
classes of red/blue edge 2-colourings of the complete graph on five
labelled points, modulo relabelling and colour swap.

This module rederives the whole coordinate table from scratch: the 18
classes are enumerated as orbits of the 1024 labelled patterns, each
expression is expanded into its 1024 pattern coefficients, all integers,
as one row of one coefficient matrix; the class means form one integer
18x18 matrix, compared entry by entry against the shipped table, and the
weight vectors are recomputed by exact Gaussian elimination.  A
functional is evaluated at a concrete step graphon as its row of class
means dotted with the 18 class totals.  One enumerator computes the totals
for both routes: it sums over sorted assignments of parts to the five
points (the totals do not change under relabelling), in float64 for float
graphons and in integer arithmetic over common denominators for exact
ones.  The full 1024-pattern vector over all k^5 assignments is kept only
as the independent route of cross_validate_columns.

Coordinate convention: a functional F = sum_P c[P] * tau[P] over the
1024 labelled patterns P (tau[P] the labelled induced-pattern density)
has class coordinate equal to the mean of c[P] over the patterns of the
class.  Pattern densities are constant on classes, so the class-mean
vector determines F; all shipped coordinates are integers in this
normalisation.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .density import PAIRS5, induced_pattern_vector, integer_kernel, m
from .exactlinalg import mat_vec, rank, solve_unique
from .graphs import Graph, catalog
from .graphons import StepGraphon, corner_graphons, random_suite

FULL_MASK = (1 << 10) - 1

# Black-edge sets of the 18 class representatives, in the fixed order the
# coordinate tables use.  Vertices 0..4; the black/white split of each
# pattern is only defined up to colour swap and relabelling.
FIGURE_CLASS_EDGES = (
    (),
    ((2, 3),),
    ((2, 3), (3, 4)),
    ((1, 2), (3, 4)),
    ((1, 4), (2, 4), (3, 4)),
    ((2, 3), (2, 4), (3, 4)),
    ((2, 3), (0, 1), (0, 4)),
    ((1, 2), (2, 3), (3, 4)),
    ((0, 4), (0, 1), (0, 2), (0, 3)),
    ((1, 4), (0, 1), (0, 4), (3, 4)),
    ((2, 3), (0, 4), (1, 4), (3, 4)),
    ((3, 4), (0, 4), (0, 1), (1, 2)),
    ((1, 2), (2, 3), (3, 4), (1, 4)),
    ((0, 1), (1, 4), (0, 4), (2, 3)),
    ((2, 3), (0, 4), (1, 4), (2, 4), (3, 4)),
    ((3, 4), (2, 3), (1, 2), (1, 4), (0, 4)),
    ((0, 1), (1, 4), (0, 4), (1, 2), (3, 4)),
    ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)),
)

_PAIR_BIT = [[0] * 5 for _ in range(5)]
for _p, (_i, _j) in enumerate(PAIRS5):
    _PAIR_BIT[_i][_j] = _p
    _PAIR_BIT[_j][_i] = _p


def _edges_to_mask(edges) -> int:
    mask = 0
    for u, v in edges:
        mask |= 1 << _PAIR_BIT[u][v]
    return mask


def _perm_bit_maps():
    maps = []
    for perm in itertools.permutations(range(5)):
        mp = [0] * 10
        for p, (i, j) in enumerate(PAIRS5):
            mp[p] = _PAIR_BIT[perm[i]][perm[j]]
        maps.append(tuple(mp))
    return tuple(maps)


_PERM_MAPS = _perm_bit_maps()


def _apply_bit_map(mask: int, mp) -> int:
    out = 0
    for p in range(10):
        if (mask >> p) & 1:
            out |= 1 << mp[p]
    return out


@dataclass(frozen=True)
class PartitionClass:
    index: int                     # 1-based position in the table order
    representative: Graph          # black side of the representative
    representative_mask: int
    labelled_masks: tuple          # every labelled pattern in the orbit
    self_complementary: bool

    @property
    def size(self) -> int:
        return len(self.labelled_masks)


@lru_cache(maxsize=1)
def enumerate_partition_classes():
    """The 18 orbits of labelled patterns under relabelling + colour swap.

    The orbits are forced to cover the 1024 patterns exactly once; two of
    them are colour-self-complementary.
    """
    classes = []
    owner = {}
    for idx, edges in enumerate(FIGURE_CLASS_EDGES, start=1):
        m0 = _edges_to_mask(edges)
        plain = set()
        for mp in _PERM_MAPS:
            plain.add(_apply_bit_map(m0, mp))
        orbit = set(plain)
        for pm in plain:
            orbit.add(FULL_MASK ^ pm)
        self_comp = (FULL_MASK ^ m0) in plain
        for pm in orbit:
            assert pm not in owner, "orbits of classes %d and %d overlap" % (owner[pm], idx)
            owner[pm] = idx
        classes.append(PartitionClass(
            index=idx,
            representative=Graph(5, list(edges)),
            representative_mask=m0,
            labelled_masks=tuple(sorted(orbit)),
            self_complementary=self_comp,
        ))
    assert len(owner) == 1 << 10, "classes cover %d of 1024 patterns" % len(owner)
    assert sum(1 for c in classes if c.self_complementary) == 2
    return tuple(classes)


@lru_cache(maxsize=1)
def class_of_mask():
    """Array mapping each labelled pattern to its 1-based class index."""
    owner = np.zeros(1 << 10, dtype=np.int64)
    for cls in enumerate_partition_classes():
        for pm in cls.labelled_masks:
            owner[pm] = cls.index
    return owner


# ---------------------------------------------------------------------------
# The sixteen building-block expressions plus the two targets.
#
# Each expression is a colour-symmetric functional of the 5-point sample,
# written as a function of the labelled pattern mask.  Conditioning
# measures are used unnormalised: the weight is the plain product of edge
# and non-edge indicators over the root pairs.  A square over fresh
# points duplicates only the fresh points, so (E_x[L])^2 becomes
# L(x) * L(x') on two fresh sample points.

def _adj(mask: int):
    def a(i, j):
        return (mask >> _PAIR_BIT[i][j]) & 1
    return a


# root triple 0,1,2 (distinguished root 0), fresh points as arguments
def _cap(a, x):
    return a(x, 0) * a(x, 1) * a(x, 2)


def _nothing(a, x):
    return (1 - a(x, 0)) * (1 - a(x, 1)) * (1 - a(x, 2))


def _sym_off_root(a, x):
    return (a(x, 1) ^ a(x, 2)) * (1 - a(x, 0))


def _sym_on_root(a, x):
    return (a(x, 1) ^ a(x, 2)) * a(x, 0)


def _root_only(a, x):
    return a(x, 0) * (1 - a(x, 1)) * (1 - a(x, 2))


def _pair_only(a, x):
    return a(x, 1) * a(x, 2) * (1 - a(x, 0))


def _w_triple_empty(a):
    return (1 - a(0, 1)) * (1 - a(0, 2)) * (1 - a(1, 2))


def _w_triple_edge(a):
    return (1 - a(0, 1)) * (1 - a(0, 2)) * a(1, 2)


def _signed_endpoint_difference(off_root, on_root):
    # (off + (on-off)*1[x ~ root 0]) * (1[x in N_c \ N_b] - 1[x in N_b \ N_c]),
    # where bc is the conditioned edge.  Antisymmetric under swapping b and c,
    # so its square is a legitimate class functional, and its fresh-point
    # average vanishes on every constant graphon by symmetry.
    def lin(a, x):
        if a(x, 1) + a(x, 2) != 1:
            return 0
        return (on_root if a(x, 0) else off_root) * (a(x, 2) - a(x, 1))
    return lin


def _excess_expression(name: str, pref: int):
    g = catalog(name)
    assert g.n == 5
    em = _edges_to_mask(g.edges)
    # the prefactor clears the two-colour floor 2^(1-e)
    floor = pref // 2 ** (g.e - 1)
    assert floor * 2 ** (g.e - 1) == pref, "%d*excess(%s) has a fractional floor" % (pref, name)

    def F(mask: int) -> int:
        hits = (1 if mask & em == em else 0) + (1 if (FULL_MASK ^ mask) & em == em else 0)
        return pref * hits - floor

    return F


def _triple_square(pref: int, weight, lin):
    def raw(mask: int) -> int:
        a = _adj(mask)
        w = weight(a)
        if not w:
            return 0
        return w * lin(a, 3) * lin(a, 4)

    def F(mask: int) -> int:
        return pref * (raw(mask) + raw(FULL_MASK ^ mask))

    return F


def _pair_difference_square(mask: int) -> int:
    # roots 0,1 joined by an edge; fresh points 2 and 3
    a = _adj(mask)
    if not a(0, 1):
        return 0
    return (a(2, 0) - a(2, 1)) * (a(3, 0) - a(3, 1))


def _shared_pair_kernel(a, x, y):
    # sign of the xy edge times the signed both-or-neither indicator at 0
    return (2 * a(x, y) - 1) * (a(x, 0) * a(y, 0) - (1 - a(x, 0)) * (1 - a(y, 0)))


def _kernel_square(mask: int) -> int:
    a = _adj(mask)
    return _shared_pair_kernel(a, 1, 2) * _shared_pair_kernel(a, 3, 4)


def _sign_product(mask: int) -> int:
    a = _adj(mask)
    out = 1
    for i in (1, 2, 3, 4):
        out *= 2 * a(i, 0) - 1
    return out


def _pair_avoid_sym_square(mask: int) -> int:
    # roots 0,1 joined by an edge; one fresh point avoiding both roots,
    # two more fresh points carrying the signed one-of-the-two indicator
    a = _adj(mask)
    if not a(0, 1):
        return 0
    avoid = (1 - a(2, 0)) * (1 - a(2, 1))
    if not avoid:
        return 0
    q3 = 2 * (a(3, 0) ^ a(3, 1)) - 1
    q4 = 2 * (a(4, 0) ^ a(4, 1)) - 1
    return avoid * q3 * q4


EXPRESSION_KEYS = tuple(range(1, 17)) + ("vA", "vB")
_ROW = {key: pos for pos, key in enumerate(EXPRESSION_KEYS)}

# The five density-excess expressions: key -> (graph, prefactor), each
# standing for prefactor * (m(graph) - 2^(1 - e(graph))).
EXCESS = {1: ("h1", 480), 2: ("h2", 480), 3: ("c5", 48), "vA": ("h3", 480), "vB": ("h4", 960)}


def _expression_function(key):
    if key in EXCESS:
        return _excess_expression(*EXCESS[key])
    if key == 4:
        return _triple_square(10, _w_triple_empty, lambda a, x: _cap(a, x) - _nothing(a, x))
    if key == 5:
        return _triple_square(10, _w_triple_empty, lambda a, x: 8 * _nothing(a, x) - 1)
    if key == 6:
        return _triple_square(30, _w_triple_edge, _signed_endpoint_difference(5, 2))
    if key == 7:
        return _triple_square(30, _w_triple_edge, _signed_endpoint_difference(2, -5))
    if key == 8:
        return _triple_square(30, _w_triple_edge, lambda a, x: _cap(a, x) - _nothing(a, x))
    if key == 9:
        return _triple_square(30, _w_triple_edge, lambda a, x: _root_only(a, x) - _nothing(a, x))
    if key == 10:
        return _triple_square(30, _w_triple_edge, lambda a, x: _pair_only(a, x) - _nothing(a, x))
    if key == 11:
        return _triple_square(30, _w_triple_edge,
                              lambda a, x: _sym_off_root(a, x) - 2 * _nothing(a, x))
    if key == 12:
        return _triple_square(30, _w_triple_edge,
                              lambda a, x: _sym_on_root(a, x) - 2 * _nothing(a, x))
    if key == 13:
        return lambda mask: 15 * _kernel_square(mask)
    if key == 14:
        return lambda mask: 15 * (_pair_difference_square(mask)
                                  + _pair_difference_square(FULL_MASK ^ mask))
    if key == 15:
        return lambda mask: 15 * _sign_product(mask)
    if key == 16:
        return lambda mask: 30 * (_pair_avoid_sym_square(mask)
                                  + _pair_avoid_sym_square(FULL_MASK ^ mask))
    raise KeyError("unknown expression key %r" % (key,))


@lru_cache(maxsize=1)
def _coefficient_matrix():
    # int64, one row of 1024 labelled-pattern coefficients per expression
    return np.array([[F(mask) for mask in range(1 << 10)]
                     for F in map(_expression_function, EXPRESSION_KEYS)], dtype=np.int64)


def coefficient_vector(key):
    """The 1024 labelled-pattern coefficients of one expression, as ints."""
    return tuple(_coefficient_matrix()[_ROW[key]].tolist())


@lru_cache(maxsize=1)
def _float_coefficient_matrix():
    return _coefficient_matrix().astype(np.float64)


@lru_cache(maxsize=1)
def _class_index_arrays():
    return [np.array(cls.labelled_masks, dtype=np.int64)
            for cls in enumerate_partition_classes()]


@lru_cache(maxsize=1)
def _class_mean_matrix():
    # integer means of the pattern coefficients, row per expression and
    # column per class
    coeffs = _coefficient_matrix()
    index = _class_index_arrays()
    sums = np.stack([coeffs[:, idx].sum(axis=1) for idx in index], axis=1)
    means, rest = np.divmod(sums, [len(idx) for idx in index])
    assert not rest.any(), "non-integer class means at (expression row, class column) %s" \
        % np.argwhere(rest).tolist()
    return means


@lru_cache(maxsize=32)
def derived_coordinates(key):
    """Class-mean coordinates of one expression, as ints."""
    return tuple(_class_mean_matrix()[_ROW[key]].tolist())


# ---------------------------------------------------------------------------
# Shipped coordinate tables.

@dataclass(frozen=True)
class Certificate:
    matrix: tuple            # 18 rows of 16 ints
    target_a: tuple          # 18 ints
    target_b: tuple          # 18 ints
    weights_a: tuple         # 15 Fractions, column 16 dropped
    weights_b: tuple         # 15 Fractions, column 15 dropped

    def columns_for_a(self):
        return tuple(tuple(row[j] for j in range(16) if j != 15) for row in self.matrix)

    def columns_for_b(self):
        return tuple(tuple(row[j] for j in range(16) if j != 14) for row in self.matrix)


def data_path(name="certificate_tables.txt") -> str:
    return os.path.join(os.path.dirname(__file__), "data", name)


def _parse_sections(text):
    sections = {}
    current = None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
            continue
        if current is None:
            raise ValueError("data before any section header")
        sections[current].extend(line.split())
    return sections


def load_certificate(path=None, sums_path=None) -> Certificate:
    """Read the coordinate tables and weight vectors, checking row sums."""
    if path is None:
        path = data_path()
    if sums_path is None:
        sums_path = data_path("certificate_tables.sums")
    with open(path) as fh:
        sections = _parse_sections(fh.read())
    for need in ("M", "vA", "vB", "xA", "xB"):
        if need not in sections:
            raise ValueError("missing section [%s]" % need)
    flat = [int(tok) for tok in sections["M"]]
    if len(flat) != 18 * 16:
        raise ValueError("matrix has %d entries, want 288" % len(flat))
    matrix = tuple(tuple(flat[r * 16:(r + 1) * 16]) for r in range(18))
    target_a = tuple(int(tok) for tok in sections["vA"])
    target_b = tuple(int(tok) for tok in sections["vB"])
    if len(target_a) != 18 or len(target_b) != 18:
        raise ValueError("target vectors must have 18 entries")
    weights_a = tuple(Fraction(tok) for tok in sections["xA"])
    weights_b = tuple(Fraction(tok) for tok in sections["xB"])
    if len(weights_a) != 15 or len(weights_b) != 15:
        raise ValueError("weight vectors must have 15 entries")

    with open(sums_path) as fh:
        sums = _parse_sections("[s]\n" + fh.read())["s"]
    sums = [int(tok) for tok in sums]
    if len(sums) != 20:
        raise ValueError("checksum file must hold 20 numbers")
    got = [sum(row) for row in matrix] + [sum(target_a)] + [sum(target_b)]
    if got != sums:
        bad = [i for i, (a, b) in enumerate(zip(got, sums)) if a != b]
        raise ValueError("checksum mismatch at positions %s" % bad)
    return Certificate(matrix, target_a, target_b, weights_a, weights_b)


def check_derivation(cert: Certificate):
    """Rederive every table entry from the expressions; list mismatches."""
    problems = []
    for j, key in enumerate(range(1, 17)):
        derived = derived_coordinates(key)
        for i in range(18):
            if derived[i] != cert.matrix[i][j]:
                problems.append("column %d class %d: derived %d, table %d"
                                % (key, i + 1, derived[i], cert.matrix[i][j]))
    for key, target in (("vA", cert.target_a), ("vB", cert.target_b)):
        derived = derived_coordinates(key)
        for i in range(18):
            if derived[i] != target[i]:
                problems.append("target %s class %d: derived %d, table %d"
                                % (key, i + 1, derived[i], target[i]))
    return problems


@dataclass(frozen=True)
class LinearAlgebraReport:
    rank_a: int
    rank_b: int
    weights_match_a: bool
    weights_match_b: bool
    nonnegative_a: bool
    nonnegative_b: bool
    product_match_a: bool
    product_match_b: bool

    @property
    def ok(self) -> bool:
        return (self.rank_a == 15 and self.rank_b == 15
                and self.weights_match_a and self.weights_match_b
                and self.nonnegative_a and self.nonnegative_b
                and self.product_match_a and self.product_match_b)


def verify_linear_algebra(cert: Certificate) -> LinearAlgebraReport:
    """Recompute the weight vectors by exact elimination and compare."""
    rows_a = cert.columns_for_a()
    rows_b = cert.columns_for_b()
    rank_a = rank(rows_a)
    rank_b = rank(rows_b)
    solved_a = solve_unique(rows_a, cert.target_a) if rank_a == 15 else None
    solved_b = solve_unique(rows_b, cert.target_b) if rank_b == 15 else None
    return LinearAlgebraReport(
        rank_a=rank_a,
        rank_b=rank_b,
        weights_match_a=solved_a is not None and tuple(solved_a) == cert.weights_a,
        weights_match_b=solved_b is not None and tuple(solved_b) == cert.weights_b,
        nonnegative_a=all(x >= 0 for x in cert.weights_a),
        nonnegative_b=all(x >= 0 for x in cert.weights_b),
        product_match_a=mat_vec(rows_a, cert.weights_a) == [Fraction(v) for v in cert.target_a],
        product_match_b=mat_vec(rows_b, cert.weights_b) == [Fraction(v) for v in cert.target_b],
    )


# ---------------------------------------------------------------------------
# Numeric evaluation against concrete step graphons.

def evaluate_expression(key, w: StepGraphon, exact=None):
    """Value of one expression at a step graphon.

    Both routes are the expression's class means dotted with the 18 class
    totals of one multiset enumeration (see class_density_totals).  That
    equals the full sum of pattern coefficients times pattern densities:
    every expression is colour-symmetric, and pattern densities are constant
    on relabelling orbits.  exact=True returns a Fraction and needs an exact
    graphon (ValueError otherwise); exact=None picks the exact route for
    exact graphons with at most 5 parts, and the float route otherwise.
    """
    if exact is None:
        exact = w.exact and w.k <= 5
    if exact:
        totals = class_density_totals_exact(w)
        return sum(c * t for c, t in zip(derived_coordinates(key), totals))
    return float(evaluate_all_expressions(w)[_ROW[key]])


def evaluate_all_expressions(w: StepGraphon):
    """Float values of all 18 expressions at once, in EXPRESSION_KEYS order."""
    return _class_mean_matrix().astype(np.float64) @ class_density_totals(w)


def class_density_totals(w: StepGraphon):
    """Summed labelled-pattern density of each of the 18 classes, in float.

    Relabelling the five sample points permutes patterns within a class, so
    the totals only need the sorted assignments of parts to points, each
    weighted by its multinomial count 5!/prod(c!): C(k+4, 5) multisets
    instead of k^5 assignments (792 against 32768 at 8 parts, the cap).
    """
    return np.array(_class_totals(w.values, w.weights, False))


def class_density_totals_exact(w: StepGraphon):
    """Exact class totals of an exact graphon, as a tuple of 18 Fractions.

    The same multiset enumeration as class_density_totals, with values p/D
    and weights q/E over common denominators: the pattern products are
    built in integers from the factors x and D - x, binned by class, and
    divided by D^10 E^5 once at the end.
    """
    if not w.exact:
        raise ValueError("exact class totals need an exact kernel")
    return _class_totals(w.values, w.weights, True)


@lru_cache(maxsize=8)
def _class_totals(values, weights, exact):
    # keyed on the kernel's tuples, so evaluating all 18 expressions at one
    # kernel enumerates the multisets once
    k = len(weights)
    if k > 8:
        raise ValueError("class totals capped at 8 parts, got %d" % k)
    if exact:
        V, mu, den, wden = integer_kernel(values, weights)
    else:
        den = 1.0
        V = np.array(values, dtype=np.float64)
        mu = np.array(weights, dtype=np.float64)
    multisets = list(itertools.combinations_with_replacement(range(k), 5))
    counts = np.array([120 // math.prod(math.factorial(a.count(p)) for p in set(a))
                       for a in multisets], dtype=V.dtype)
    idx = np.array(multisets).T
    acc = (counts * mu[idx].prod(axis=0))[:, None]
    for i, j in PAIRS5:
        x = V[idx[i], idx[j]][:, None]
        acc = np.concatenate([acc * (den - x), acc * x], axis=1)
    patterns = acc.sum(axis=0)
    totals = [patterns[c].sum() for c in _class_index_arrays()]
    if exact:
        scale = den ** 10 * wden ** 5
        return tuple(Fraction(t, scale) for t in totals)
    return tuple(totals)


@dataclass(frozen=True)
class CrossValidationReport:
    count: int
    route_gap: float         # pattern-coefficient route vs coordinate-table route
    direct_gap: float        # excess columns vs the plain subgraph-density route
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.route_gap <= self.tolerance and self.direct_gap <= self.tolerance


def cross_validate_columns(cert=None, suite=None, count=100, seed=2026,
                           tolerance=1e-8, totals=None) -> CrossValidationReport:
    """Evaluate every expression along two independent numeric routes.

    Route one expands each expression over labelled pattern coefficients
    against the full k^5-assignment pattern vector; route two combines the
    shipped class coordinates with the multiset class totals.  The five
    density-excess expressions get a third route through plain subgraph
    densities.  All routes must agree to within the tolerance on every
    graphon of the suite.  totals, when given, are the suite's
    class_density_totals in suite order, so a caller that already has them
    does not enumerate them again.
    """
    if cert is None:
        cert = load_certificate()
    if suite is None:
        suite = random_suite(count, seed) + corner_graphons()
    coords = {key: tuple(cert.matrix[i][key - 1] for i in range(18))
              for key in range(1, 17)}
    coords["vA"] = cert.target_a
    coords["vB"] = cert.target_b
    route_gap = 0.0
    direct_gap = 0.0
    if totals is None:
        totals = [class_density_totals(w) for w in suite]
    for w, tot in zip(suite, totals):
        vals = _float_coefficient_matrix() @ induced_pattern_vector(w)
        for pos, key in enumerate(EXPRESSION_KEYS):
            # class coordinates are means of a vector that is not constant
            # per class, but pattern densities are, so coordinate @ totals
            # reproduces the functional
            cvec = np.array(coords[key], dtype=float)
            route_gap = max(route_gap, abs(vals[pos] - float(cvec @ tot)))
        for key, (gname, pref) in EXCESS.items():
            g = catalog(gname)
            direct = pref * (m(g, w) - 2.0 ** (1 - g.e))
            direct_gap = max(direct_gap, abs(vals[_ROW[key]] - direct))
    return CrossValidationReport(count=len(suite), route_gap=route_gap,
                                 direct_gap=direct_gap, tolerance=tolerance)


@dataclass(frozen=True)
class CertificateConclusion:
    derivation_mismatches: tuple
    linalg: LinearAlgebraReport
    column_floor: float
    target_floor_a: float
    target_floor_b: float
    identity_gap: float
    crossval: CrossValidationReport
    suite_size: int
    tolerance: float

    @property
    def ok(self) -> bool:
        return (not self.derivation_mismatches
                and self.linalg.ok
                and self.column_floor >= -self.tolerance
                and self.target_floor_a >= -self.tolerance
                and self.target_floor_b >= -self.tolerance
                and self.identity_gap <= 1e-8
                and self.crossval.ok)

    def lines(self):
        out = []
        out.append("derivation\t%s" % ("ok" if not self.derivation_mismatches
                                       else "%d mismatches" % len(self.derivation_mismatches)))
        out.append("rank-a\t%d" % self.linalg.rank_a)
        out.append("rank-b\t%d" % self.linalg.rank_b)
        out.append("weights-a\t%s" % ("ok" if self.linalg.weights_match_a
                                      and self.linalg.nonnegative_a
                                      and self.linalg.product_match_a else "FAIL"))
        out.append("weights-b\t%s" % ("ok" if self.linalg.weights_match_b
                                      and self.linalg.nonnegative_b
                                      and self.linalg.product_match_b else "FAIL"))
        out.append("column-floor\t%.3g" % self.column_floor)
        out.append("target-floor-a\t%.3g" % self.target_floor_a)
        out.append("target-floor-b\t%.3g" % self.target_floor_b)
        out.append("identity-gap\t%.3g" % self.identity_gap)
        out.append("route-gap\t%.3g" % self.crossval.route_gap)
        out.append("direct-gap\t%.3g" % self.crossval.direct_gap)
        out.append("suite\t%d graphons" % self.suite_size)
        out.append("verdict\t%s" % ("ok" if self.ok else "FAIL"))
        return out


def conclude_commonality(cert=None, count=60, seed=2026,
                         tolerance=1e-9) -> CertificateConclusion:
    """Run the whole certificate check: exact tables, exact weights, and
    numeric sanity of every functional on a random suite.

    A passing report means both target graphs clear their two-colour
    density floor on every graphon tested, and the exact decomposition
    guarantees it for all graphons.
    """
    if cert is None:
        cert = load_certificate()
    mismatches = tuple(check_derivation(cert))
    lin = verify_linear_algebra(cert)
    suite = random_suite(count, seed) + corner_graphons()
    wa = np.array([float(x) for x in cert.weights_a])
    wb = np.array([float(x) for x in cert.weights_b])
    keep_a = [j for j in range(16) if j != 15]
    keep_b = [j for j in range(16) if j != 14]
    column_floor = float("inf")
    floor_a = float("inf")
    floor_b = float("inf")
    identity_gap = 0.0
    pos_a = _ROW["vA"]
    pos_b = _ROW["vB"]
    # one class enumeration per kernel, shared with the cross-validation
    totals = [class_density_totals(w) for w in suite]
    means = _class_mean_matrix().astype(np.float64)
    for tot in totals:
        vals = means @ tot
        column_floor = min(column_floor, float(vals[:16].min()))
        floor_a = min(floor_a, float(vals[pos_a]))
        floor_b = min(floor_b, float(vals[pos_b]))
        identity_gap = max(identity_gap, abs(float(vals[keep_a] @ wa) - float(vals[pos_a])))
        identity_gap = max(identity_gap, abs(float(vals[keep_b] @ wb) - float(vals[pos_b])))
    crossval = cross_validate_columns(cert, suite=suite, totals=totals)
    return CertificateConclusion(
        derivation_mismatches=mismatches,
        linalg=lin,
        column_floor=column_floor,
        target_floor_a=floor_a,
        target_floor_b=floor_b,
        identity_gap=identity_gap,
        crossval=crossval,
        suite_size=len(suite),
        tolerance=tolerance,
    )
