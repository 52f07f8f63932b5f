"""Exact verification of the five-vertex nonnegativity certificate.

Two five-vertex graphs (a diamond with a pendant edge at a degree-2
vertex, and one with the pendant at a degree-3 vertex) have their
two-colour density excess written as a nonnegative rational combination
of sixteen building-block functionals: three density excesses of graphs
already known to be common, and thirteen conditioned squares.  Every
functional lives in the 18-dimensional space spanned by the isomorphism
classes of red/blue edge 2-colourings of the complete graph on five
labelled points, modulo relabelling and colour swap.

This module rederives the whole coordinate table from scratch.  The 18
classes are the orbits of the 1024 labelled patterns, named by one integer
product: each pattern's least mask over the 5! relabellings, folded with
its colour swap.  Each expression is one int64 array over all 1024
patterns, from a (5, 5, 1024) array of pair colours (the colour swap is
one minus it); the 18 arrays are the rows of one integer coefficient
matrix.  Their class means form one integer 18x18 matrix, compared entry
by entry against the shipped table, itself held as one (class, expression)
coordinate matrix.  Each target's weights are recomputed by one exact
Gaussian elimination.  A functional is evaluated at a step graphon as its
row of class means dotted with the 18 class totals, summed over the sorted
assignments of parts to the five points with multinomial counts, in
float64 or in integers over common denominators.  The independent route of
cross_validate_columns is the full pattern vectors of a float suite: 34
reads of density's contraction table, inverted over supersets.

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

from .density import integer_kernel, m_many, t_hom_many
from .exactlinalg import mat_vec, rank
from .graphs import Graph, catalog
from .graphons import StepGraphon, corner_graphons, random_suite

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


# pair order for 5-point patterns: bit p of a mask is the pair PAIRS5[p]
PAIRS5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]


def _pattern_colours():
    # int64 (5, 5, 1024): entry [i, j, P] is 1 when pair ij is black in P
    masks = np.arange(1 << 10)
    colours = np.zeros((5, 5, 1 << 10), dtype=np.int64)
    for p, (i, j) in enumerate(PAIRS5):
        colours[i, j] = colours[j, i] = (masks >> p) & 1
    return colours


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
def _relabel_key():
    """Read-only (1024,) key of each labelled pattern: its least mask over
    the 5! relabellings, from the (1024, 10) pair bits of the patterns
    times the (10, 120) bit weights of the relabellings."""
    i, j = np.array(PAIRS5).T
    bit = np.zeros((5, 5), dtype=np.int64)
    bit[i, j] = bit[j, i] = 1 << np.arange(10)
    perms = np.array(list(itertools.permutations(range(5))))
    key = (_pattern_colours()[i, j].T @ bit[perms[:, i], perms[:, j]].T).min(axis=1)
    key.flags.writeable = False
    return key


@lru_cache(maxsize=1)
def enumerate_partition_classes():
    """The 18 orbits of labelled patterns under relabelling + colour swap:
    min(key[P], key[1023 - P]) adds the swap to the relabelling key.  The
    orbits are forced to cover the 1024 patterns exactly once; two of them
    are colour-self-complementary."""
    key = _relabel_key()
    orbit = np.minimum(key, key[::-1])
    reps = [sum(1 << PAIRS5.index(pair) for pair in edges) for edges in FIGURE_CLASS_EDGES]
    names = orbit[reps]
    if len(set(names.tolist())) != len(reps):
        raise RuntimeError("two representatives share an orbit")
    covered = np.isin(orbit, names)
    if not covered.all():
        raise RuntimeError("classes cover %d of 1024 patterns" % covered.sum())
    classes = tuple(PartitionClass(
        index=idx,
        representative=Graph(5, list(edges)),
        representative_mask=m0,
        labelled_masks=tuple(np.flatnonzero(orbit == orbit[m0]).tolist()),
        self_complementary=bool(key[m0] == key[1023 - m0]),
    ) for idx, (edges, m0) in enumerate(zip(FIGURE_CLASS_EDGES, reps), start=1))
    self_complementary = sum(c.self_complementary for c in classes)
    if self_complementary != 2:
        raise RuntimeError("%d self-complementary classes, not 2" % self_complementary)
    return classes


@lru_cache(maxsize=1)
def class_of_mask():
    """Read-only array mapping each labelled pattern to its 1-based class."""
    owner = np.zeros(1 << 10, dtype=np.int64)
    for cls in enumerate_partition_classes():
        owner[list(cls.labelled_masks)] = cls.index
    owner.flags.writeable = False
    return owner


# ---------------------------------------------------------------------------
# The sixteen building-block expressions plus the two targets.
#
# Each expression is a colour-symmetric functional of the 5-point sample,
# computed at once for all 1024 labelled patterns from their pair colours
# c[i, j] (arrays over patterns, 1 for a black pair).  Conditioning
# measures are used unnormalised: the weight is the plain product of edge
# and non-edge indicators over the root pairs.  A square over fresh points
# duplicates only the fresh points, so (E_x[L])^2 becomes L(x) * L(x') on
# two fresh sample points.

EXPRESSION_KEYS = tuple(range(1, 17)) + ("vA", "vB")
_ROW = {key: pos for pos, key in enumerate(EXPRESSION_KEYS)}

# The five density-excess expressions: key -> (graph, prefactor), each
# standing for prefactor * (m(graph) - 2^(1 - e(graph))).
EXCESS = {1: ("h1", 480), 2: ("h2", 480), 3: ("c5", 48), "vA": ("h3", 480), "vB": ("h4", 960)}


def _one_colour_squares(c):
    """The conditioned squares that sum one term per colour: their terms
    at pair colours c, by key."""
    # root triple 0, 1, 2 (distinguished root 0); row x of y0, y1, y2 holds
    # fresh point 3 + x against each root
    y0, y1, y2 = c[3:, 0], c[3:, 1], c[3:, 2]
    cap = y0 * y1 * y2
    nothing = (1 - y0) * (1 - y1) * (1 - y2)
    one_of_pair = y1 ^ y2
    triple_empty = (1 - c[0, 1]) * (1 - c[0, 2]) * (1 - c[1, 2])
    triple_edge = (1 - c[0, 1]) * (1 - c[0, 2]) * c[1, 2]

    def endpoint_difference(off_root, on_root):
        # (off + (on-off)*1[x ~ root 0]) * (1[x in N_2 \ N_1] - 1[x in N_1 \ N_2]),
        # where 12 is the conditioned edge.  Antisymmetric under swapping 1
        # and 2, so its square is a legitimate class functional, and its
        # fresh-point average vanishes on every constant graphon by symmetry.
        return (off_root + (on_root - off_root) * y0) * (y2 - y1)

    return {
        4: 10 * triple_empty * (cap - nothing).prod(axis=0),
        5: 10 * triple_empty * (8 * nothing - 1).prod(axis=0),
        6: 30 * triple_edge * endpoint_difference(5, 2).prod(axis=0),
        7: 30 * triple_edge * endpoint_difference(2, -5).prod(axis=0),
        8: 30 * triple_edge * (cap - nothing).prod(axis=0),
        9: 30 * triple_edge * (y0 * (1 - y1) * (1 - y2) - nothing).prod(axis=0),
        10: 30 * triple_edge * ((1 - y0) * y1 * y2 - nothing).prod(axis=0),
        11: 30 * triple_edge * ((1 - y0) * one_of_pair - 2 * nothing).prod(axis=0),
        12: 30 * triple_edge * (y0 * one_of_pair - 2 * nothing).prod(axis=0),
        # roots 0, 1 joined by an edge; fresh points 2 and 3
        14: 15 * c[0, 1] * (c[2:4, 0] - c[2:4, 1]).prod(axis=0),
        # roots 0, 1 joined by an edge; fresh point 2 avoids both roots, and
        # fresh points 3 and 4 carry the signed one-of-the-two indicator
        16: 30 * c[0, 1] * (1 - c[2, 0]) * (1 - c[2, 1])
        * (2 * (c[3:, 0] ^ c[3:, 1]) - 1).prod(axis=0),
    }


@lru_cache(maxsize=1)
def _coefficient_matrix():
    # int64, one row of 1024 labelled-pattern coefficients per expression
    c = _pattern_colours()
    swapped = 1 - c
    rows = _one_colour_squares(c)
    for key, term in _one_colour_squares(swapped).items():
        rows[key] += term
    for key, (name, pref) in EXCESS.items():
        g = catalog(name)
        if g.n != 5:
            raise RuntimeError("excess(%s) has %d vertices, not 5" % (name, g.n))
        # the prefactor clears the two-colour floor 2^(1-e)
        floor, rest = divmod(pref, 2 ** (g.e - 1))
        if rest:
            raise RuntimeError("%d*excess(%s) has a fractional floor" % (pref, name))
        u, v = np.array(g.sorted_edges()).T
        rows[key] = pref * (c[u, v].prod(axis=0) + swapped[u, v].prod(axis=0)) - floor
    # colour-symmetric as they stand: the sign of each xy edge times the
    # signed both-or-neither indicator of x and y at root 0, over the pairs
    # 12 and 34; and the product of the signs of the four edges at root 0
    both = c[[1, 3], 0] * c[[2, 4], 0] - swapped[[1, 3], 0] * swapped[[2, 4], 0]
    rows[13] = 15 * ((2 * c[[1, 3], [2, 4]] - 1) * both).prod(axis=0)
    rows[15] = 15 * (2 * c[1:, 0] - 1).prod(axis=0)
    return np.stack([rows[key] for key in EXPRESSION_KEYS])


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
    if rest.any():
        raise RuntimeError("non-integer class means at (expression row, class column) %s"
                           % np.argwhere(rest).tolist())
    return means


@lru_cache(maxsize=32)
def derived_coordinates(key):
    """Class-mean coordinates of one expression, as ints."""
    return tuple(_class_mean_matrix()[_ROW[key]].tolist())


# ---------------------------------------------------------------------------
# Shipped coordinate tables.

# Each target is a nonnegative combination of fifteen of the sixteen
# columns: vA leaves out column 16 and vB column 15.  These are the
# 0-based positions of the columns each target's weights multiply.
TARGET_COLUMNS = {"vA": tuple(range(15)), "vB": tuple(range(14)) + (15,)}


@dataclass(frozen=True)
class Certificate:
    matrix: tuple            # 18 rows of 16 ints
    target_a: tuple          # 18 ints
    target_b: tuple          # 18 ints
    weights_a: tuple         # 15 Fractions over TARGET_COLUMNS["vA"]
    weights_b: tuple         # 15 Fractions over TARGET_COLUMNS["vB"]

    def coordinates(self):
        """The whole table as one integer array: a row per class, a column
        per expression in EXPRESSION_KEYS order."""
        return np.column_stack([self.matrix, self.target_a, self.target_b])

    def columns_for_a(self):
        return tuple(tuple(row[j] for j in TARGET_COLUMNS["vA"]) for row in self.matrix)

    def columns_for_b(self):
        return tuple(tuple(row[j] for j in TARGET_COLUMNS["vB"]) for row in self.matrix)


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
    derived = _class_mean_matrix()
    table = cert.coordinates().T
    return ["%s %s class %d: derived %d, table %d"
            % ("column" if j < 16 else "target", EXPRESSION_KEYS[j], i + 1,
               derived[j, i], table[j, i])
            for j, i in np.argwhere(derived != table)]


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


def _check_system(rows, target, weights):
    """(rank, weights recovered, weights nonnegative, product matches) for
    one target.  With full column rank the solution is unique, so the
    weights are the one solution exactly when they reproduce the target."""
    r = rank(rows)
    product = mat_vec(rows, weights) == list(target)
    return r, r == len(rows[0]) and product, all(x >= 0 for x in weights), product


def verify_linear_algebra(cert: Certificate) -> LinearAlgebraReport:
    """Check each weight vector by exact rank, sign and product."""
    rank_a, match_a, nonneg_a, product_a = _check_system(
        cert.columns_for_a(), cert.target_a, cert.weights_a)
    rank_b, match_b, nonneg_b, product_b = _check_system(
        cert.columns_for_b(), cert.target_b, cert.weights_b)
    return LinearAlgebraReport(rank_a, rank_b, match_a, match_b,
                               nonneg_a, nonneg_b, product_a, product_b)


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
    # kernel enumerates the multisets once.  Pair ij is black with factor
    # x = V[a_i, a_j], white with den - x; entry (hi, lo) of the product of
    # the (N, 32) arrays of the low and the high five pairs is mask 32 hi + lo.
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
    halves = []
    for pairs in (PAIRS5[:5], PAIRS5[5:]):
        acc = np.ones((len(multisets), 1), dtype=V.dtype)
        for i, j in pairs:
            x = V[idx[i], idx[j]][:, None]
            acc = np.concatenate([acc * (den - x), acc * x], axis=1)
        halves.append(acc)
    lo, hi = halves
    weight = counts * mu[idx].prod(axis=0)
    patterns = (hi.T @ (weight[:, None] * lo)).reshape(1 << 10)
    totals = [patterns[c].sum() for c in _class_index_arrays()]
    if exact:
        scale = den ** 10 * wden ** 5
        return tuple(Fraction(t, scale) for t in totals)
    return tuple(totals)


def pattern_vectors(suite) -> np.ndarray:
    """The (N, 1024) labelled induced 5-point pattern densities of a float
    suite, by pair bitmask over PAIRS5: the homomorphism densities of the
    34 relabelling classes, read from the suite's table, spread over the
    masks and inverted over supersets, one in-place pass per pair bit."""
    classes, where = np.unique(_relabel_key(), return_inverse=True)
    t = np.stack([t_hom_many(Graph(5, [PAIRS5[p] for p in range(10) if c >> p & 1]), suite)
                  for c in classes.tolist()], axis=1)[:, where]
    for p in range(10):
        has = np.arange(1 << 10) >> p & 1 == 1
        t[:, ~has] -= t[:, has]
    return t


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
    against the suite's pattern_vectors; route two combines the shipped
    class coordinates with the multiset class totals.  The five
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
    if totals is None:
        totals = [class_density_totals(w) for w in suite]
    # class coordinates are means of a vector that is not constant per
    # class, but pattern densities are, so totals @ coordinates reproduces
    # every functional; both routes are (suite, 18) arrays
    table_route = np.array(totals, dtype=np.float64).reshape(-1, 18) @ cert.coordinates()
    pattern_route = pattern_vectors(suite) @ _float_coefficient_matrix().T
    route_gap = float(np.abs(pattern_route - table_route).max(initial=0.0))
    direct_gap = 0.0
    for key, (gname, pref) in EXCESS.items():
        g = catalog(gname)
        direct = pref * (m_many(g, suite) - 2.0 ** (1 - g.e))
        direct_gap = max(direct_gap, float(np.abs(pattern_route[:, _ROW[key]] - direct)
                                           .max(initial=0.0)))
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
    suite = random_suite(count, seed) + corner_graphons()
    if cert is None:
        cert = load_certificate()
    mismatches = tuple(check_derivation(cert))
    lin = verify_linear_algebra(cert)
    # one class enumeration per kernel, shared with the cross-validation
    totals = np.array([class_density_totals(w) for w in suite])
    vals = totals @ _class_mean_matrix().T.astype(np.float64)
    identity_gap = max(
        float(np.abs(vals[:, TARGET_COLUMNS[key]] @ np.array(weights, dtype=np.float64)
                     - vals[:, _ROW[key]]).max())
        for key, weights in (("vA", cert.weights_a), ("vB", cert.weights_b)))
    crossval = cross_validate_columns(cert, suite=suite, totals=totals)
    return CertificateConclusion(
        derivation_mismatches=mismatches,
        linalg=lin,
        column_floor=float(vals[:, :16].min()),
        target_floor_a=float(vals[:, _ROW["vA"]].min()),
        target_floor_b=float(vals[:, _ROW["vB"]].min()),
        identity_gap=identity_gap,
        crossval=crossval,
        suite_size=len(suite),
        tolerance=tolerance,
    )
