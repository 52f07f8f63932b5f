"""Hypothesis strategies and seeded generators for the property tests:
small labelled graphs, rational and float kernels, and float copies of
rational kernels."""
import itertools
from fractions import Fraction

from hypothesis import settings
from hypothesis import strategies as st

from commonality.graphs import Graph
from commonality.graphons import StepGraphon

# derandomized and without an example database, so a run is reproducible
# and writes nothing
EXACT = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def rational_kernels(draw, min_parts=1, max_parts=3, min_raw=0):
    k = draw(st.integers(min_parts, max_parts))
    entry = st.fractions(min_value=0, max_value=1, max_denominator=12)
    upper = {(i, j): draw(entry) for i in range(k) for j in range(i, k)}
    values = [[upper[min(i, j), max(i, j)] for j in range(k)] for i in range(k)]
    raw = draw(st.lists(st.integers(min_raw, 5), min_size=k, max_size=k).filter(any))
    return StepGraphon(values, [Fraction(x, sum(raw)) for x in raw])


@st.composite
def float_kernels(draw, max_parts=4):
    k = draw(st.integers(1, max_parts))
    entry = st.floats(min_value=0, max_value=1)
    upper = {(i, j): draw(entry) for i in range(k) for j in range(i, k)}
    values = [[upper[min(i, j), max(i, j)] for j in range(k)] for i in range(k)]
    raw = draw(st.lists(st.floats(min_value=0.01, max_value=1), min_size=k, max_size=k))
    return StepGraphon(values, [x / sum(raw) for x in raw])


@st.composite
def small_graphs(draw, max_n=6):
    # the empty pair set gives the edgeless graph; vertices with no chosen
    # pair stay isolated
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, b in zip(pairs, keep) if b])


def as_float(w: StepGraphon) -> StepGraphon:
    return StepGraphon([[float(x) for x in row] for row in w.values],
                       [float(x) for x in w.weights])


def seeded_rational_kernel(k: int, rng) -> StepGraphon:
    """A k-part kernel with values i/12 and positive weights, drawn from a
    random.Random."""
    upper = {(i, j): Fraction(rng.randint(0, 12), 12) for i in range(k) for j in range(i, k)}
    values = [[upper[min(i, j), max(i, j)] for j in range(k)] for i in range(k)]
    raw = [rng.randint(1, 9) for _ in range(k)]
    return StepGraphon(values, [Fraction(x, sum(raw)) for x in raw])
