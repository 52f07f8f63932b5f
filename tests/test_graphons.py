from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from commonality.graphs import Graph, catalog
from commonality.graphons import (
    SignedStepGraphon,
    StepGraphon,
    block_graphon,
    constant_graphon,
    corner_graphons,
    format_graphon,
    half,
    parse_graphon,
    random_suite,
)
from strategies import EXACT, float_kernels, rational_kernels


def test_constructor_validation():
    with pytest.raises(ValueError):
        StepGraphon([[0.2, 0.3], [0.4, 0.2]])  # not symmetric
    with pytest.raises(ValueError):
        StepGraphon([[1.5]])  # out of range
    with pytest.raises(ValueError):
        StepGraphon([[0.5]], weights=[0.9])  # weights do not sum to 1
    with pytest.raises(ValueError):
        StepGraphon([[0.2, 0.3]])  # not square
    SignedStepGraphon([[-1, Fraction(1, 3)], [Fraction(1, 3), 1]])
    with pytest.raises(ValueError):
        SignedStepGraphon([[-2]])


def test_exactness_flag():
    assert half().exact
    assert constant_graphon(Fraction(1, 3), 2).exact
    assert not StepGraphon([[0.5]]).exact
    mixed = StepGraphon([[Fraction(1, 2), 0.25], [0.25, Fraction(1, 2)]])
    assert not mixed.exact
    assert isinstance(mixed.values[0][0], float)


def test_one_minus_and_signed():
    w = StepGraphon([[Fraction(1, 4), Fraction(1, 2)], [Fraction(1, 2), 1]])
    om = w.one_minus()
    assert om.values[0][0] == Fraction(3, 4)
    assert om.values[1][1] == 0
    assert om.exact
    u = w.signed()
    assert isinstance(u, SignedStepGraphon)
    assert u.values[0][0] == Fraction(-1, 2)
    assert u.values[1][1] == 1
    with pytest.raises(TypeError):
        u.signed()
    with pytest.raises(TypeError):
        u.one_minus()


def test_kernels_are_immutable():
    for w in (half(), StepGraphon([[0.25]]), half().signed()):
        for name, value in (("k", 2), ("values", ((0,),)), ("exact", False), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(w, name, value)
        with pytest.raises(AttributeError):
            del w.weights


def test_equal_kernels_hash_equal():
    exact = StepGraphon([[Fraction(1, 4), Fraction(1, 2)], [Fraction(1, 2), 1]],
                        [Fraction(3, 8), Fraction(5, 8)])
    twin = StepGraphon([[0.25, 0.5], [0.5, 1.0]], [0.375, 0.625])
    assert exact.exact and not twin.exact
    assert exact == twin and hash(exact) == hash(twin)
    assert half() == constant_graphon(0.5) and hash(half()) == hash(constant_graphon(0.5))
    assert len({exact, twin, StepGraphon(exact.values, exact.weights)}) == 1
    # a signed kernel with the same entries is another kernel
    signed = SignedStepGraphon(exact.values, exact.weights)
    assert signed != exact and len({exact, signed}) == 2
    a, b = random_suite(6, seed=5), random_suite(6, seed=5)
    assert [hash(x) for x in a] == [hash(y) for y in b] and hash(tuple(a)) == hash(tuple(b))


def test_block_graphon():
    w = block_graphon(catalog("k3"))
    assert w.k == 3 and w.exact
    assert w.values[0][1] == 1 and w.values[0][0] == 0
    assert sum(w.weights) == 1
    w2 = block_graphon(Graph(2, [(0, 1)]))
    assert w2.values == ((0, 1), (1, 0))


def test_parse_format_roundtrip_exact():
    w = StepGraphon(
        [[Fraction(1, 3), Fraction(2, 3)], [Fraction(2, 3), Fraction(1, 5)]],
        [Fraction(1, 4), Fraction(3, 4)],
    )
    w2 = parse_graphon(format_graphon(w))
    assert w2 == w and w2.exact


def test_parse_format_roundtrip_float():
    w = StepGraphon([[0.25, 0.5], [0.5, 0.75]], [0.5, 0.5])
    w2 = parse_graphon(format_graphon(w))
    assert w2 == w and not w2.exact


@EXACT
@given(st.one_of(rational_kernels(max_parts=5), float_kernels()))
def test_parse_format_roundtrip_property(w):
    back = parse_graphon(format_graphon(w))
    assert back == w and back.exact == w.exact and type(back) is StepGraphon
    u = w.signed()
    back = parse_graphon(format_graphon(u), signed=True)
    assert back == u and back.exact == u.exact and type(back) is SignedStepGraphon


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_graphon("")
    with pytest.raises(ValueError):
        parse_graphon("2\n0.5 0.5\n0 1\n")  # missing a value row
    with pytest.raises(ValueError):
        parse_graphon("1\n1\n2\n")  # out of range
    with pytest.raises(ValueError):
        parse_graphon("x\n1\n0.5\n")


def test_parse_signed():
    u = parse_graphon("1\n1\n-1/2\n", signed=True)
    assert isinstance(u, SignedStepGraphon)
    assert u.values[0][0] == Fraction(-1, 2)
    with pytest.raises(ValueError):
        parse_graphon("1\n1\n-1/2\n")  # negative outside [0,1] in unsigned mode


def test_random_suite_deterministic():
    a = random_suite(12, seed=5)
    b = random_suite(12, seed=5)
    assert all(x == y for x, y in zip(a, b))
    c = random_suite(12, seed=6)
    assert any(x != y for x, y in zip(a, c))
    assert [w.k for w in a[:6]] == [2, 3, 4, 2, 3, 4]
    for w in a:
        assert not w.exact
        assert abs(sum(w.weights) - 1) <= 1e-12


def test_corners():
    cs = corner_graphons()
    assert len(cs) == 4
    assert all(w.exact for w in cs)
    assert cs[0].values[0][0] == 0 and cs[1].values[0][0] == 1
    assert cs[2].values[0][0] == Fraction(1, 2)
