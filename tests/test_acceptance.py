"""Acceptance gate: one test per criterion of the verification suite.

Each test drives the corresponding reproduction-suite item, asserts it
verifies, enforces the stated runtime budget, and prints one line.
All arithmetic is exact, so every equality below is exact equality.
The items that emit certificates must write them byte for byte as the
files under tests/golden/, which `thickrep verify --cert-dir` wrote.
"""

import os

from thickrep import serialize
from thickrep.verify import VERIFIED, run_item

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _run(item_id, budget_s):
    result = run_item(item_id, seed=0)
    status = "PASS" if result.status == VERIFIED else "FAIL"
    print("%s: %s (%d ms)" % (status, item_id, result.runtime_ms))
    assert result.status == VERIFIED, result.details
    assert result.runtime_ms < budget_s * 1000, "over budget: %dms" % result.runtime_ms
    return result


def _assert_golden_certificates(result, names):
    assert [name for name, _ in result.certificates] == names
    for name, payload in result.certificates:
        with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8", newline="") as fh:
            assert serialize.dumps(payload) == fh.read(), name


def test_criterion_01_sym_group_wedge_square_decomposition():
    r = _run("characters-wedge-square-s5", 1)
    assert r.details["degree_311"] and r.details["degree_2111"]


def test_criterion_02_gl2_wedge_identities():
    r = _run("characters-gl2-wedge-identities", 1)
    assert r.details["identities"] == 63
    assert r.details["shifted_guard_detects"]


def test_criterion_03_distinct_parts_coefficients():
    r = _run("characters-distinct-parts", 1)
    assert r.details["n3_coefficients"]


def test_criterion_04_plethysm_component_counts():
    r = _run("characters-plethysm-counts", 30)
    assert r.details["checked"] == 56  # both kinds, n 1..4, m 0..6


def test_criterion_05_wedge_square_gl4_f2_not_thick():
    r = _run("wedge2-gl4-f2-not-thick", 120)
    assert r.details["elements_scanned"] == 20160
    assert r.details["certificate_reverifies"]
    assert r.certificates, "refutation certificate must be emitted"
    _assert_golden_certificates(r, ["wedge2_gl4_f2_m3"])


def test_criterion_06_block_rep_f13():
    r = _run("block-rep-f13", 300)
    assert r.details["burnside_16"]
    assert r.details["w1_is_block_wedge_span"]
    assert r.details["certificate_reverifies"]
    _assert_golden_certificates(r, ["block_rep_f13_m2"])


def test_criterion_07_companion_and_block_witnesses():
    r = _run("companion-windows-rnumber", 60)
    for n in (4, 5, 6):
        for m in range(1, n):
            assert r.details["window_dim_n%d_m%d" % (n, m)]
            assert r.details["window_invariant_n%d_m%d" % (n, m)]
            assert r.details["window_realizable_n%d_m%d" % (n, m)]
    assert r.details["r_exact_6_2"] and r.details["r_exact_6_3"] and r.details["r_exact_5_2"]


def test_criterion_08_criterion_definition_agreement():
    r = _run("criterion-definition-agreement", 600)
    assert r.details["samples"] >= 100
    assert r.details["disagreements"] == 0


def test_criterion_09_implication_and_duality():
    r = _run("implication-duality", 600)
    assert r.details["violations"] == 0


def test_criterion_10_symplectic_suite():
    r = _run("symplectic-suite", 300)
    assert r.details["normal_form_constructions"] == 200
    assert r.details["pairing_prong_200_of_200"]
    assert r.details["exhaustive_scan_f3_no_decomposables"]
    assert r.details["wedge2_splits_5_plus_1"]
    assert r.details["sp4_thick_m2"]
    assert r.details["sp4_not_dense_m2"]


def test_criterion_11_so_split_examples():
    r = _run("so-split-examples", 60)
    assert r.details["so5_wedge2_burnside_100"]
    assert r.details["so4_wedge2_two_3dim_factors"]
    assert r.details["so4_not_thick_m2"]
    _assert_golden_certificates(r, ["so4_wedge2_m2"])


def test_criterion_12_eigenstructure_suite():
    r = _run("eigenstructure-suite", 60)
    assert r.details["lattice_count_4_q7"]
    assert r.details["eigenpair_count_l3_m3"]
