"""Certificate checks: class enumeration, exact rederivation of the
coordinate tables, linear algebra, and the two-route numeric evaluation."""

import dataclasses
import hashlib
import os
import shutil
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

import commonality
from commonality.certificate import (
    EXPRESSION_KEYS,
    PAIRS5,
    TARGET_COLUMNS,
    _coefficient_matrix,
    _float_coefficient_matrix,
    check_derivation,
    class_density_totals,
    class_of_mask,
    coefficient_vector,
    conclude_commonality,
    cross_validate_columns,
    data_path,
    derived_coordinates,
    enumerate_partition_classes,
    evaluate_all_expressions,
    evaluate_expression,
    load_certificate,
    pattern_vectors,
    verify_linear_algebra,
)
from commonality.density import m, t_complement, t_hom
from commonality.graphs import Graph, are_isomorphic, catalog, drop_isolated
from commonality.graphons import (
    StepGraphon,
    constant_graphon,
    corner_graphons,
    half,
    random_graphon,
    random_suite,
)
from oracles import induced_pattern_vector_exact, pattern_classes_by_canonical_form, t_induced

RATIONAL_W = StepGraphon([[F(1, 3), F(2, 3)], [F(2, 3), F(1, 5)]], [F(1, 4), F(3, 4)])

EXPECTED_SIZES = (2, 20, 60, 30, 40, 20, 60, 120, 10, 120, 120, 120, 30, 20, 60, 120, 60, 12)


def test_partition_classes_cover_everything():
    classes = enumerate_partition_classes()
    assert len(classes) == 18
    assert tuple(c.size for c in classes) == EXPECTED_SIZES
    assert sum(c.size for c in classes) == 1024
    assert [c.index for c in classes if c.self_complementary] == [17, 18]


def test_representatives_are_the_expected_graphs():
    classes = enumerate_partition_classes()
    assert are_isomorphic(classes[16].representative, catalog("bull"))
    assert are_isomorphic(classes[17].representative, catalog("c5"))
    assert are_isomorphic(drop_isolated(classes[8].representative), catalog("k1,4"))
    assert are_isomorphic(drop_isolated(classes[12].representative), catalog("c4"))
    assert are_isomorphic(drop_isolated(classes[7].representative), catalog("p4"))
    assert are_isomorphic(drop_isolated(classes[1].representative), catalog("k2"))


def test_class_assignment_matches_canonical_forms():
    # the orbit product against graph isomorphism, pattern by pattern
    reps = [cls.representative for cls in enumerate_partition_classes()]
    assert class_of_mask().tolist() == pattern_classes_by_canonical_form(reps)


def test_class_assignment_is_complement_invariant():
    owner = class_of_mask()
    assert owner.min() == 1
    for mask in range(1024):
        assert owner[mask] == owner[1023 ^ mask]
    # the cached array is shared by every caller
    with pytest.raises(ValueError):
        owner[0] = 2


def test_derivation_matches_shipped_tables():
    # every one of the 18*16 + 2*18 coordinates, exactly
    assert check_derivation(load_certificate()) == []
    # the pattern coefficients and class means are plain integers
    for key in EXPRESSION_KEYS:
        assert {type(c) for c in coefficient_vector(key) + derived_coordinates(key)} == {int}


def test_coefficient_matrix_frozen():
    # every one of the 18 * 1024 pattern coefficients: class means alone
    # would not notice a coefficient that moved within its class
    coeffs = _coefficient_matrix()
    assert coeffs.dtype == np.int64 and coeffs.shape == (18, 1024)
    assert hashlib.sha256(coeffs.astype("<i8").tobytes()).hexdigest() == (
        "6e181c7c5ee92352ce8bd6df25813dfad2797c90d21f4e89167204ccc9857b75")


def test_derivation_reports_a_bumped_entry():
    cert = load_certificate()
    rows = [list(row) for row in cert.matrix]
    rows[6][4] += 1
    bumped = dataclasses.replace(cert, matrix=tuple(map(tuple, rows)))
    assert check_derivation(bumped) == ["column 5 class 7: derived 2, table 3"]
    target = list(cert.target_b)
    target[0] -= 1
    bumped = dataclasses.replace(cert, target_b=tuple(target))
    assert check_derivation(bumped) == ["target vB class 1: derived 945, table 944"]


def test_target_vector_frozen():
    assert derived_coordinates("vA") == (
        465, 177, 33, 81, -15, -15, 17, 1, -15, -15, -15, -7, -15, -15, -15, -15, -15, -15)
    assert derived_coordinates("vB") == (
        945, 273, 17, 113, -15, -15, 17, -15, -15, -15, -15, -15, -15, -15, -15, -15, -15, -15)


def test_loader_rejects_corrupted_table(tmp_path):
    src = data_path()
    text = open(src).read()
    # bump one matrix entry; the row-sum check has to notice
    bad = text.replace("465 465 45 10 490", "465 466 45 10 490")
    assert bad != text
    p = tmp_path / "tables.txt"
    p.write_text(bad)
    shutil.copy(data_path("certificate_tables.sums"), tmp_path / "tables.sums")
    with pytest.raises(ValueError, match="checksum"):
        load_certificate(str(p), str(tmp_path / "tables.sums"))


def test_loader_rejects_missing_section(tmp_path):
    text = open(data_path()).read().replace("[xB]", "[xC]")
    p = tmp_path / "tables.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match="xB"):
        load_certificate(str(p), data_path("certificate_tables.sums"))


def test_linear_algebra_verifies():
    rep = verify_linear_algebra(load_certificate())
    assert rep.rank_a == 15 and rep.rank_b == 15
    assert rep.ok


def test_linear_algebra_notices_wrong_weights():
    cert = load_certificate()
    tampered = list(cert.weights_a)
    tampered[3] += F(1, 1000)
    bad = dataclasses.replace(cert, weights_a=tuple(tampered))
    rep = verify_linear_algebra(bad)
    assert not rep.weights_match_a
    assert not rep.product_match_a
    assert not rep.ok


def test_linear_algebra_reports_rank_when_the_solve_fails():
    # column 2 copied over column 1: both systems lose one rank, so the
    # weights no longer pin down a unique solution
    cert = load_certificate()
    rows = tuple((row[1],) + row[1:] for row in cert.matrix)
    rep = verify_linear_algebra(dataclasses.replace(cert, matrix=rows))
    assert rep.rank_a == 14 and rep.rank_b == 14
    assert not rep.weights_match_a and not rep.weights_match_b
    assert not rep.ok
    # a target outside the span of full-rank columns is a failed check,
    # not an error
    target = (cert.target_a[0] + 1,) + cert.target_a[1:]
    rep = verify_linear_algebra(dataclasses.replace(cert, target_a=target))
    assert rep.rank_a == 15 and not rep.weights_match_a and not rep.product_match_a
    assert not rep.ok


def test_everything_vanishes_at_half():
    # the whole certificate is tight at the all-half graphon
    for key in EXPRESSION_KEYS:
        value = evaluate_expression(key, half(), exact=True)
        assert isinstance(value, F) and value == 0


def test_squares_six_and_seven_vanish_on_constants():
    for p in (F(1, 3), F(2, 5), F(9, 10)):
        w = constant_graphon(p)
        assert evaluate_expression(6, w, exact=True) == 0
        assert evaluate_expression(7, w, exact=True) == 0
    # while the neighbouring square does not
    assert evaluate_expression(4, constant_graphon(F(2, 5)), exact=True) == F(5054, 78125)


EXACT_VALUES = {
    1: F(331676587, 12150000),
    3: F(153097, 54000),
    4: F(4969401163, 21870000000),
    6: F(335921, 108000),
    7: F(386731, 324000),
    13: F(21697, 54000),
    15: F(11137, 54000),
    "vA": F(79075423, 3037500),
    "vB": F(134170921, 3037500),
}


def test_exact_values_frozen():
    for key, want in EXACT_VALUES.items():
        assert evaluate_expression(key, RATIONAL_W, exact=True) == want


def test_exact_matches_float():
    for key in EXACT_VALUES:
        ex = float(evaluate_expression(key, RATIONAL_W, exact=True))
        fl = evaluate_expression(key, RATIONAL_W, exact=False)
        assert abs(ex - fl) < 1e-10


def test_excess_columns_agree_with_plain_density_route():
    for w in random_suite(6, 1812) + [half()]:
        got = evaluate_expression(1, w, exact=False)
        want = 480 * (m(catalog("h1"), w) - 2.0 ** -5)
        assert abs(got - want) < 1e-10
        got = evaluate_expression("vB", w, exact=False)
        want = 960 * (m(catalog("h4"), w) - 2.0 ** -6)
        assert abs(got - want) < 1e-10


def test_class_totals_partition_unity():
    for w in random_suite(5, 4) + corner_graphons():
        totals = class_density_totals(w)
        assert abs(totals.sum() - 1.0) < 1e-9
        assert totals.min() > -1e-12


def test_pattern_vector():
    suite = random_suite(3, seed=21)
    vecs = pattern_vectors(suite)
    assert vecs.shape == (3, 1024)
    for w, vec in zip(suite, vecs):
        assert abs(vec.sum() - 1) < 1e-10
        # spot check a couple of masks against the direct induced density
        for mask in (0, 5, 1023, 341):
            g = Graph(5, [PAIRS5[p] for p in range(10) if mask >> p & 1])
            assert abs(vec[mask] - t_induced(g, w)) < 1e-12
    assert np.allclose(pattern_vectors([half()]), 1.0 / 1024)


def test_pattern_vector_exact_matches_float():
    vec = induced_pattern_vector_exact(RATIONAL_W)
    assert sum(vec) == 1
    wf = StepGraphon([[float(x) for x in row] for row in RATIONAL_W.values],
                     [float(x) for x in RATIONAL_W.weights])
    fvec = pattern_vectors([wf])[0]
    assert max(abs(float(a) - b) for a, b in zip(vec, fvec)) < 1e-13


def test_pattern_vector_past_eight_parts():
    # no part cap of its own: the whole pattern vector of a 12-part kernel
    # is a partition of unity whose all-black and all-white entries are the
    # densities of k5 and of its complement
    w = random_graphon(12, np.random.default_rng(12))
    vec = pattern_vectors([w])[0]
    assert abs(vec.sum() - 1) < 1e-12
    k5 = catalog("k5")
    assert abs(vec[1023] - t_hom(k5, w)) < 1e-13
    assert abs(vec[0] - t_complement(k5, w)) < 1e-13


def test_multiset_totals_match_full_pattern_vector_up_to_eight_parts():
    # the multiset route against the pattern vectors of the contraction
    # engine, past the k <= 4 of the random suites, up to the 8-part cap of
    # the multisets
    rng = np.random.default_rng(58)
    index = [np.array(cls.labelled_masks) for cls in enumerate_partition_classes()]
    suite = [random_graphon(k, rng) for k in (5, 6, 7, 8)] + corner_graphons()
    for w, tau in zip(suite, pattern_vectors(suite)):
        want = np.array([tau[idx].sum() for idx in index])
        assert np.abs(class_density_totals(w) - want).max() <= 1e-13
        ref = _float_coefficient_matrix() @ tau
        assert np.allclose(evaluate_all_expressions(w), ref, rtol=1e-10, atol=1e-12)


def test_columns_nonnegative_on_suite():
    floor = 0.0
    for w in random_suite(30, 77) + corner_graphons():
        vals = evaluate_all_expressions(w)
        floor = min(floor, float(vals.min()))
    assert floor >= -1e-9


def test_certificate_identity_pointwise():
    cert = load_certificate()
    wa = np.array([float(x) for x in cert.weights_a])
    wb = np.array([float(x) for x in cert.weights_b])
    keep_a, keep_b = list(TARGET_COLUMNS["vA"]), list(TARGET_COLUMNS["vB"])
    pos_a = EXPRESSION_KEYS.index("vA")
    pos_b = EXPRESSION_KEYS.index("vB")
    for w in random_suite(30, 402) + corner_graphons():
        vals = evaluate_all_expressions(w)
        assert abs(float(vals[keep_a] @ wa) - float(vals[pos_a])) < 1e-8
        assert abs(float(vals[keep_b] @ wb) - float(vals[pos_b])) < 1e-8


def test_cross_validation_routes_agree():
    rep = cross_validate_columns(count=40, seed=913)
    assert rep.route_gap <= 1e-8
    assert rep.direct_gap <= 1e-8
    assert rep.ok


def test_cross_validation_reports_a_bumped_entry():
    # one shipped coordinate off by one moves route two and not route one
    cert = load_certificate()
    rows = [list(row) for row in cert.matrix]
    rows[6][4] += 1
    bumped = dataclasses.replace(cert, matrix=tuple(map(tuple, rows)))
    rep = cross_validate_columns(bumped, count=8)
    assert rep.route_gap > rep.tolerance
    assert not rep.ok


def test_full_conclusion():
    rep = conclude_commonality(count=40, seed=5)
    assert rep.ok
    lines = rep.lines()
    assert "verdict\tok" in lines
    assert rep.target_floor_a >= -1e-9
    assert rep.target_floor_b >= -1e-9


def test_class_invariants_hold_under_optimize():
    # python -O strips assert statements: with two representatives in one
    # orbit the class enumeration must still refuse, as a RuntimeError,
    # which the CLI lets through as a traceback (exit 1), never as bad
    # input (exit 2)
    script = "\n".join([
        "from commonality import certificate",
        "from commonality.cli import main",
        "edges = list(certificate.FIGURE_CLASS_EDGES)",
        "edges[2] = ((0, 1),)",
        "certificate.FIGURE_CLASS_EDGES = tuple(edges)",
        "for call in (certificate.enumerate_partition_classes,",
        "             lambda: main(['verify-certificate', '--seed', '1'])):",
        "    try:",
        "        call()",
        "    except RuntimeError as exc:",
        "        print(exc)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(commonality.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["two representatives share an orbit"] * 2
