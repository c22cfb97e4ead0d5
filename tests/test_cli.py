import collections
import json
import os
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from thickrep.cli import main
from thickrep.errors import PreconditionFailed, ThickRepError
from thickrep.fields import GF, QQ
from thickrep.linalg import Matrix
from thickrep.constructions import build_block_rep, companion_pair, lie_generators
from thickrep.exterior import WedgeVector, wedge_of_vectors
from thickrep.repcore import GROUP, LIE, Representation
from thickrep.symplectic import SymplecticSpace, ker_perp_realizability_check
from thickrep import fields, repcore, serialize, verify

from test_repcore import (
    _agreement_reps,
    _check_commutant_witness,
    _check_norton_proof,
    _check_norton_witness,
    _check_submodule_witness,
    _decider_cases,
)


def write_rep(tmp_path, name, field, mats, mode=GROUP, label=""):
    rep = Representation(
        field, len(mats[0]), mode, [Matrix.from_ints(field, m) for m in mats], label
    )
    path = tmp_path / name
    path.write_text(serialize.dumps(serialize.representation_to_json(rep)))
    return str(path)


def test_check_thick_definition_holds(tmp_path, capsys):
    path = write_rep(
        tmp_path, "gl2f3.json", GF(3), [[[1, 1], [0, 1]], [[0, 1], [1, 0]]]
    )
    code = main(["check", "--rep", path, "--mode", "thick", "--m", "1",
                 "--method", "definition"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["verdict"] == "Thick"


def test_check_thick_refuted_with_certificate(tmp_path, capsys):
    path = write_rep(tmp_path, "tri.json", GF(2), [[[1, 1], [0, 1]]])
    code = main(["check", "--rep", path, "--mode", "thick", "--m", "1",
                 "--method", "criterion"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["verdict"] == "NotThick"
    assert out["certificate"]["kind"] == "not_thick_certificate"


def test_check_dense_trivial_degree(tmp_path, capsys):
    path = write_rep(tmp_path, "x.json", GF(2), [[[0, 1], [1, 0]]])
    code = main(["check", "--rep", path, "--mode", "dense", "--m", "0"])
    assert code == 0


def test_check_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ится not json")
    code = main(["check", "--rep", str(bad), "--mode", "thick", "--m", "1"])
    assert code == 3


def test_check_missing_file():
    assert main(["check", "--rep", "/nonexistent.json", "--mode", "thick"]) == 3


def test_reports_roundtrip_byte_identical(tmp_path, capsys):
    path = write_rep(tmp_path, "tri.json", GF(2), [[[1, 1], [0, 1]]])
    out_path = tmp_path / "report.json"
    main(["check", "--rep", path, "--mode", "thick", "--m", "1",
          "--method", "criterion", "--json-out", str(out_path)])
    text = out_path.read_text()
    assert serialize.dumps(json.loads(text)) == text


def test_recheck_certificate_roundtrip(tmp_path, capsys):
    path = write_rep(tmp_path, "tri.json", GF(2), [[[1, 1], [0, 1]]])
    report_path = tmp_path / "report.json"
    main(["check", "--rep", path, "--mode", "thick", "--m", "1",
          "--method", "criterion", "--json-out", str(report_path)])
    report = json.loads(report_path.read_text())
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(serialize.dumps(report["certificate"]))
    code = main(["recheck", "--certificate", str(cert_path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["verifies"] is True


def test_recheck_detects_tampering(tmp_path, capsys):
    path = write_rep(tmp_path, "tri.json", GF(2), [[[1, 1], [0, 1]]])
    report_path = tmp_path / "report.json"
    main(["check", "--rep", path, "--mode", "thick", "--m", "1",
          "--method", "criterion", "--json-out", str(report_path)])
    report = json.loads(report_path.read_text())
    cert = report["certificate"]
    cert["witness1"] = [["0", "1"]]  # forge the witness
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(serialize.dumps(cert))
    assert main(["recheck", "--certificate", str(cert_path)]) == 1


def test_construct_block_and_check(tmp_path, capsys):
    out_path = tmp_path / "block.json"
    code = main(["construct", "block", "--field", "F13", "--ell", "2", "--m", "2",
                 "--alphas", "1,4", "--betas", "3,9", "--json-out", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(serialize.dumps(data["representation"]))
    code = main(["check", "--rep", str(rep_path), "--mode", "thick", "--m", "2",
                 "--method", "criterion"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["verdict"] == "NotThick"


def test_construct_lie(capsys):
    code = main(["construct", "lie", "--family", "sp", "--n", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and len(out["generators"]) == 10


def test_exterior_ops(tmp_path, capsys):
    mat_path = tmp_path / "m.json"
    mat_path.write_text(json.dumps([["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]))
    code = main(["exterior", "compound", "--field", "Q", "--n", "3", "--m", "2",
                 "--input", str(mat_path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out[0][0] == "2" and out[2][2] == "6"

    wedge_path = tmp_path / "w.json"
    wedge_path.write_text(json.dumps({"1,2": "1", "3,4": "1"}))
    code = main(["exterior", "decomposable", "--field", "Q", "--n", "4", "--m", "2",
                 "--input", str(wedge_path)])
    capsys.readouterr()
    assert code == 1

    # e1 ^ (e2 + 2 e3) is decomposable, and its witness wedges back to it
    wedge_path.write_text(json.dumps({"1,2": "1", "1,3": "2"}))
    code = main(["exterior", "decomposable", "--field", "Q", "--n", "4", "--m", "2",
                 "--input", str(wedge_path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["decomposable"] is True
    wedge = wedge_of_vectors(QQ, 4, [[Fraction(x) for x in v] for v in out["witness"]])
    given = WedgeVector.from_sparse(QQ, 4, 2, {"1,2": "1", "1,3": "2"})
    scale = wedge.coords[0]
    assert scale != 0 and wedge.coords == tuple(scale * x for x in given.coords)


def test_field_given_as_a_json_spec(capsys):
    assert main(["construct", "e1wedge", "--field", '{"kind": "Fp", "p": 5}',
                 "--n", "4"]) == 0
    spec_out = capsys.readouterr().out
    assert main(["construct", "e1wedge", "--field", "F5", "--n", "4"]) == 0
    assert spec_out == capsys.readouterr().out


def test_ker_perp_without_a_trial_exits_3(capsys):
    # with no trial the pairing prong would pass on no evidence, and over Q
    # at m = n the scan prong does not run either
    for trials in ("0", "-3"):
        assert main(["symplectic", "ker-perp", "--field", "Q", "--n", "3", "--m", "3",
                     "--trials", trials]) == 3, trials
        assert "at least one trial" in capsys.readouterr().err
    with pytest.raises(PreconditionFailed):
        ker_perp_realizability_check(SymplecticSpace(3, QQ), 3, trials=0)


def test_exterior_realizable_decides_a_rational_line(tmp_path, capsys):
    # colex order on 2-subsets of 4: 12, 13, 23, 14, 24, 34
    for basis, code_want, status in (
        (["1", "0", "0", "0", "0", "1"], 1, "NotRealizable"),  # e12 + e34
        (["1", "0", "0", "0", "0", "0"], 0, "Realizable"),  # e12
    ):
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"ambient": 6, "basis": [basis]}))
        code = main(["exterior", "realizable", "--field", "Q", "--n", "4", "--m", "2",
                     "--input", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == code_want
        assert out["status"] == status and out["exhaustive"] and out["scanned"] == 1


def test_characters_commands(capsys):
    assert main(["characters", "wedge-square", "--partition", "3,2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["decomposition"] == [
        {"partition": [3, 1, 1], "multiplicity": 1},
        {"partition": [2, 1, 1, 1], "multiplicity": 1},
    ]
    assert main(["characters", "gl2", "--a", "4", "--b", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True


def test_characters_refuse_non_partitions_exit_3(capsys):
    for op in ("char", "wedge-square"):
        for bad in ("1,3", "1,2", "0"):
            assert main(["characters", op, "--partition", bad]) == 3, (op, bad)
            assert "Traceback" not in capsys.readouterr().err
    # plethysm counts are refused outside 1 <= n <= 4, 0 <= m <= 6, and the
    # message names both bounds
    assert main(["characters", "plethysm", "--n", "0"]) == 3
    assert "error: desk scale is 1 <= n <= 4, 0 <= m <= 6" in capsys.readouterr().err
    # so are the generating function past n = 64 and the gl2 identity past a = 64
    assert main(["characters", "partitions", "--n", "65"]) == 3
    assert "error: desk scale is 1 <= n <= 64" in capsys.readouterr().err
    assert main(["characters", "gl2", "--a", "65"]) == 3
    assert "error: desk scale is 0 <= a <= 64" in capsys.readouterr().err


def test_construct_block_over_q(capsys):
    # over Q the construction chooses no alphas or betas, so both must be
    # given; betas 9, 16 split
    assert main(["construct", "block"]) == 3
    captured = capsys.readouterr()
    assert "alphas and betas are chosen over finite fields only" in captured.err
    assert "Traceback" not in captured.err
    assert main(["construct", "block", "--alphas", "1,4", "--betas", "9,16"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["representation"]["field"] == {"kind": "Q"}
    assert out["cramer_checked"] and out["cramer_nonzero"]


def test_construct_block_refuses_betas_without_roots_before_drawing(capsys):
    # beta 3 has no square root over Q whatever basis is drawn, so the
    # construction stops before its first try and names it
    assert main(["construct", "block", "--field", "Q", "--alphas", "1,4",
                 "--betas", "3,9"]) == 3
    err = capsys.readouterr().err
    assert "beta 3 lacks 2 distinct ell-th roots" in err
    assert "None" not in err and "tries" not in err
    assert main(["construct", "block", "--field", "Q", "--alphas", "1,4",
                 "--betas", "4,9"]) == 3
    assert "beta 4 is also an alpha" in capsys.readouterr().err


def test_construct_block_chooses_alphas_and_betas_like_the_library(capsys):
    # with neither given, the construction picks the first cubes of F13
    # with three cube roots, as build_block_rep does
    assert main(["construct", "block", "--field", "F13", "--ell", "3", "--m", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    expect = build_block_rep(3, 2, GF(13)).rep
    assert out["representation"] == serialize.representation_to_json(expect)


def test_thickness_report_names_its_field(tmp_path, capsys):
    for field, want in ((GF(3), {"kind": "Fp", "p": 3}), (QQ, {"kind": "Q"})):
        path = write_rep(tmp_path, "jordan.json", field, [[[1, 1], [0, 1]]])
        assert main(["check", "--rep", path, "--mode", "thick", "--m", "1",
                     "--method", "criterion"]) == 1
        assert json.loads(capsys.readouterr().out)["field_scope"] == want


def test_symplectic_command(capsys):
    assert main(["symplectic", "kernel", "--field", "Q", "--n", "2", "--m", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dim"] == 5


def test_rnumber_command(capsys):
    assert main(["rnumber", "--n", "6", "--m", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"n": 6, "m": 2, "lower": 3, "upper": 6, "exact": 3}


def test_verify_filter_characters(tmp_path, capsys):
    out_path = tmp_path / "suite.json"
    code = main(["verify", "--filter", "characters", "--json-out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["overall"] == "Verified"
    ids = [item["id"] for item in report["items"]]
    assert ids == [
        "characters-wedge-square-s5",
        "characters-gl2-wedge-identities",
        "characters-distinct-parts",
        "characters-plethysm-counts",
    ]


def test_verify_cert_dir(tmp_path, capsys):
    out_path = tmp_path / "suite.json"
    cert_dir = tmp_path / "certs"
    code = main(["verify", "--filter", "block-rep", "--json-out", str(out_path),
                 "--cert-dir", str(cert_dir)])
    assert code == 0
    report = json.loads(out_path.read_text())
    (item,) = report["items"]
    assert item["certificate_paths"]
    # and the emitted certificate independently rechecks
    assert main(["recheck", "--certificate", item["certificate_paths"][0]]) == 0


def test_check_caps_flag_yields_unknown_exit(tmp_path, capsys):
    path = write_rep(
        tmp_path, "gl2f3.json", GF(3), [[[1, 1], [0, 1]], [[0, 1], [1, 0]]]
    )
    code = main(["check", "--rep", path, "--mode", "thick", "--m", "1",
                 "--method", "definition", "--caps", '{"pair_cap": 1}'])
    assert code == 2


def test_a_field_past_the_scan_limit_is_decided_within_the_caps(tmp_path, capsys,
                                                              monkeypatch):
    # Norton's eigenvalue search walks the field, so past the scan limit it
    # proves nothing and the lattice decides denseness within
    # submodule_points_cap; raising that cap to admit the lattice used to
    # end in ScaleExceeded (exit 3).  The criterion refutes from the spins
    # of the 8 lines whatever that cap.  The limit is lowered below F7,
    # whose plane has 8 points
    monkeypatch.setattr(fields, "DEFAULT_POINTS_CAP", 5)
    monkeypatch.setattr(repcore, "DEFAULT_POINTS_CAP", 5)
    path = write_rep(tmp_path, "shear.json", GF(7), [[[1, 1], [0, 1]]])
    report_path = tmp_path / "report.json"
    cert_path = tmp_path / "cert.json"
    for points_cap, dense_code in ((7, 2), (8, 1)):
        caps = '{"submodule_points_cap": %d}' % points_cap
        assert main(["check", "--rep", path, "--mode", "irreducible",
                     "--method", "definition", "--caps", caps]) == dense_code
        code = main(["check", "--rep", path, "--mode", "thick", "--m", "1",
                     "--method", "criterion", "--caps", caps,
                     "--json-out", str(report_path)])
        report = json.loads(report_path.read_text())
        assert (code, report["verdict"], report["route"]) == (1, "NotThick", "spin")
        cert_path.write_text(serialize.dumps(report["certificate"]))
        assert main(["recheck", "--certificate", str(cert_path)]) == 0
    assert "error" not in capsys.readouterr().err


def test_bad_caps_exit_3(tmp_path, monkeypatch, capsys):
    path = write_rep(tmp_path, "x.json", GF(2), [[[0, 1], [1, 0]]])
    check = ["check", "--rep", path, "--mode", "thick", "--m", "1"]
    verify = ["verify", "--filter", "characters-distinct-parts"]
    # the lattice cap bounds the isotypic sums, so a summand cap is unknown
    for bad in ('{"pair_cpa": 1}', '{"isotypic_summands_max": 14}', '{"group_cap": -5}',
                '{"pair_cap": 1.5}', '[1]', '{'):
        assert main(check + ["--caps", bad]) == 3
        assert main(verify + ["--caps", bad]) == 3
        monkeypatch.setenv("THICKREP_CAPS", bad)
        assert main(check) == 3
        assert main(verify) == 3
        monkeypatch.delenv("THICKREP_CAPS")
    assert main(check + ["--caps", '{"pair_cap": 0}']) == 2  # zero is a valid cap
    assert main(verify) == 0
    # --caps is applied after THICKREP_CAPS
    monkeypatch.setenv("THICKREP_CAPS", '{"pair_cap": 0}')
    assert main(check) == 2
    assert main(check + ["--caps", '{"pair_cap": 100}']) == 1


def test_check_rejects_mismatched_method(tmp_path, capsys):
    path = write_rep(tmp_path, "x.json", GF(2), [[[0, 1], [1, 0]]])
    assert main(["check", "--rep", path, "--mode", "thick", "--method", "burnside"]) == 3
    assert main(["check", "--rep", path, "--mode", "dense", "--method", "criterion"]) == 3


def _f3_certificate(tmp_path):
    path = write_rep(
        tmp_path, "tri3.json", GF(3), [[[1, 1, 0], [0, 1, 0], [0, 0, 1]]]
    )
    report_path = tmp_path / "report.json"
    main(["check", "--rep", path, "--mode", "thick", "--m", "1",
          "--method", "criterion", "--json-out", str(report_path)])
    return json.loads(report_path.read_text())["certificate"]


def test_recheck_wrong_shape_does_not_verify(tmp_path, capsys):
    cert = _f3_certificate(tmp_path)
    assert cert["n"] == 3 and cert["m"] == 1
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(serialize.dumps(cert))
    assert main(["recheck", "--certificate", str(cert_path)]) == 0
    capsys.readouterr()
    # C(3,1) == C(3,2), so only the witness counts tell m = 1 from m = 2
    tampered = [
        dict(cert, witness1=[]),
        dict(cert, m=2),
        dict(cert, m=0),
        dict(cert, m=3),
        dict(cert, witness2=cert["witness2"][:1]),
        dict(cert, witness1=[v + ["0"] for v in cert["witness1"]]),
    ]
    for bad in tampered:
        cert_path.write_text(serialize.dumps(bad))
        assert main(["recheck", "--certificate", str(cert_path)]) == 1, bad
        assert json.loads(capsys.readouterr().out)["verifies"] is False


def test_malformed_scalar_exit_3(tmp_path, capsys):
    # JSON floats and booleans are refused, not truncated: 1.5 is not read
    # as 1, true not as 1, and 0.1 not as its binary approximation
    floats_and_bools = (1.5, 0.1, True)
    bad_scalars = [(QQ, "1/0"), (QQ, "x"), (GF(3), "1/2"), (GF(3), "1.0")] + [
        (field, bad) for field in (QQ, GF(3)) for bad in floats_and_bools
    ]
    for field, bad in bad_scalars:
        path = write_rep(tmp_path, "rep.json", field, [[[1, 1], [0, 1]]])
        data = json.loads(open(path).read())
        data["generators"][0][0][1] = bad
        with open(path, "w") as fh:
            fh.write(serialize.dumps(data))
        assert main(["check", "--rep", path, "--mode", "thick", "--m", "1"]) == 3, bad
        assert "Traceback" not in capsys.readouterr().err
    wedge_path = tmp_path / "w.json"
    for field in ("Q", "F3"):
        for bad in floats_and_bools:
            wedge_path.write_text(json.dumps({"1,2": bad}))
            assert main(["exterior", "decomposable", "--field", field, "--n", "4",
                         "--m", "2", "--input", str(wedge_path)]) == 3, (field, bad)
            assert "Traceback" not in capsys.readouterr().err
    cert = _f3_certificate(tmp_path)
    cert["witness1"][0][0] = "1/0"
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(serialize.dumps(cert))
    assert main(["recheck", "--certificate", str(cert_path)]) == 3


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def test_golden_certificates_recheck(capsys):
    for name in sorted(os.listdir(GOLDEN)):
        path = os.path.join(GOLDEN, name)
        assert main(["recheck", "--certificate", path]) == 0, name
        assert json.loads(capsys.readouterr().out)["verifies"] is True


def test_recheck_names_the_missing_key_of_a_certificate(tmp_path, capsys):
    # each required key dropped from a copy of a golden certificate is
    # named on stderr, with exit 3
    with open(os.path.join(GOLDEN, "so4_wedge2_m2.json")) as fh:
        good = json.load(fh)
    path = tmp_path / "cert.json"
    for key in ("field", "n", "m", "generators", "w1", "w2", "witness1", "witness2"):
        path.write_text(serialize.dumps({k: v for k, v in good.items() if k != key}))
        assert main(["recheck", "--certificate", str(path)]) == 3, key
        assert capsys.readouterr().err == "error: a certificate needs the key %r\n" % key


def test_recheck_checks_the_pair(tmp_path, capsys):
    # the pair of a definition refutation must be the spans of the two
    # witnesses; a pair that is parsed but wrong does not verify
    with open(os.path.join(GOLDEN, "wedge2_gl4_f2_m3.json")) as fh:
        cert = json.load(fh)
    v1, v2 = cert["pair"]
    line = {"ambient": 6, "basis": [["1"] * 6]}
    plane = {"ambient": 2, "basis": [["1", "0"], ["0", "1"]]}
    cert_path = tmp_path / "cert.json"
    for pair in ([line, plane], [line, v2], [v1, plane], [v1, line]):
        cert_path.write_text(serialize.dumps(dict(cert, pair=pair)))
        assert main(["recheck", "--certificate", str(cert_path)]) == 1, pair
        assert json.loads(capsys.readouterr().out)["verifies"] is False
    without_pair = {k: v for k, v in cert.items() if k != "pair"}
    cert_path.write_text(serialize.dumps(without_pair))
    assert main(["recheck", "--certificate", str(cert_path)]) == 0


def test_dataclass_reports_keep_their_json(capsys):
    # ker-perp and rnumber emit their dataclasses whole; dumps sorts keys,
    # so the text is that of the field-by-field objects written before
    report = ker_perp_realizability_check(SymplecticSpace(2, GF(3)), 2, trials=5, seed=1)
    assert main(["symplectic", "ker-perp", "--field", "F3", "--n", "2", "--m", "2",
                 "--trials", "5", "--seed", "1"]) == 0
    assert capsys.readouterr().out == serialize.dumps({
        "n": report.n,
        "m": report.m,
        "trials": report.trials,
        "nonzero_pairings": report.nonzero_pairings,
        "pairing_prong_pass": report.pairing_prong_pass,
        "scan_prong_ran": report.scan_prong_ran,
        "scan_prong_pass": report.scan_prong_pass,
        "scan_points": report.scan_points,
    })
    assert main(["rnumber", "--n", "5", "--m", "2"]) == 0
    assert capsys.readouterr().out == serialize.dumps(
        {"n": 5, "m": 2, "lower": 3, "upper": 5, "exact": 4}
    )


def test_malformed_rep_structure_exit_3(tmp_path, capsys):
    path = write_rep(tmp_path, "rep.json", GF(3), [[[1, 1], [0, 1]]])
    good = json.loads(open(path).read())
    bad_reps = [
        dict(good, generators=5),
        dict(good, generators=[[["1", "1"], ["0"]]]),
        dict(good, dim="2"),
        dict(good, dim=2.0),
        dict(good, field="F3"),
        dict(good, generators=[["1", "1", "0", "1"]]),
        [good],
    ]
    for bad in bad_reps:
        with open(path, "w") as fh:
            fh.write(serialize.dumps(bad))
        assert main(["check", "--rep", path, "--mode", "thick", "--m", "1"]) == 3, bad
        assert "Traceback" not in capsys.readouterr().err
    # a file without a field, such as `construct lie` output, names the key
    for key in ("field", "dim", "generators"):
        with open(path, "w") as fh:
            fh.write(serialize.dumps({k: v for k, v in good.items() if k != key}))
        assert main(["check", "--rep", path, "--mode", "thick", "--m", "1"]) == 3, key
        assert capsys.readouterr().err == "error: a representation needs the key %r\n" % key


def test_malformed_sparse_wedge_exit_3(tmp_path, capsys):
    path = tmp_path / "w.json"
    bad_wedges = [
        {"5,6": "1"},  # indices past n
        ["1,2"],  # not an object
        {"2,1": "1"},  # not increasing
        {"1,2,3": "1"},  # not m indices
        {"1,1": "1"},
        {"1,2": "1", "01,2": "1"},  # one subset named twice
    ]
    for bad in bad_wedges:
        path.write_text(json.dumps(bad))
        assert main(["exterior", "decomposable", "--field", "F3", "--n", "4",
                     "--m", "2", "--input", str(path)]) == 3, bad
        assert "Traceback" not in capsys.readouterr().err


def test_field_p_must_be_json_integer(tmp_path, capsys):
    path = write_rep(tmp_path, "rep.json", GF(13), [[[1, 1], [0, 1]]])
    good = json.loads(open(path).read())
    assert good["field"] == {"kind": "Fp", "p": 13}
    bad_fields = [
        {"kind": "Fp", "p": p} for p in ({}, [], "13", 2.0, 1.5, True, None, 13.0)
    ] + [{"kind": "Fp"}]
    for field in bad_fields:
        with open(path, "w") as fh:
            fh.write(serialize.dumps(dict(good, field=field)))
        assert main(["check", "--rep", path, "--mode", "irreducible"]) == 3, field
        assert "Traceback" not in capsys.readouterr().err


def test_malformed_certificate_structure_exit_3(tmp_path, capsys):
    path = write_rep(
        tmp_path, "jordan.json", GF(2), [[[1, 1, 0], [0, 1, 1], [0, 0, 1]]]
    )
    report_path = tmp_path / "report.json"
    assert main(["check", "--rep", path, "--mode", "thick", "--m", "1",
                 "--method", "criterion", "--json-out", str(report_path)]) == 1
    cert = json.loads(report_path.read_text())["certificate"]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(serialize.dumps(cert))
    assert main(["recheck", "--certificate", str(cert_path)]) == 0
    w1 = cert["w1"]
    bad_certs = [
        dict(cert, w1=5),
        dict(cert, w1=dict(w1, basis=5)),
        dict(cert, w1=dict(w1, basis=[5])),
        dict(cert, w1=dict(w1, ambient=None)),
        dict(cert, w2=[w1]),
        dict(cert, witness1=5),
        dict(cert, witness1=[5]),
        dict(cert, witness2=None),
        dict(cert, pair=5),
        dict(cert, pair=[w1]),
        dict(cert, m=None),
        dict(cert, n=None),
        dict(cert, generators=5),
    ]
    for bad in bad_certs:
        cert_path.write_text(serialize.dumps(bad))
        assert main(["recheck", "--certificate", str(cert_path)]) == 3, bad
    # the subspace reader is shared with `exterior perp|realizable`
    for bad in (5, {"ambient": 3, "basis": 5}, {"ambient": "3", "basis": []}):
        sub_path = tmp_path / "sub.json"
        sub_path.write_text(json.dumps(bad))
        for op in ("perp", "realizable"):
            assert main(["exterior", op, "--field", "F2", "--n", "3", "--m", "1",
                         "--input", str(sub_path)]) == 3, (op, bad)
    assert "Traceback" not in capsys.readouterr().err


def test_burnside_without_reduction_prime(tmp_path, capsys, monkeypatch):
    # the denominators are the primes the Norton proof would reduce by, so
    # only the exact closure over Q can decide
    a = [["1/101", "1/103"], ["1/107", "1/109"]]
    b = [["1/113", "0"], ["0", "1"]]
    rep = {"field": {"kind": "Q"}, "dim": 2, "mode": "group", "generators": [a, b]}
    path = tmp_path / "rep.json"
    path.write_text(serialize.dumps(rep))

    def no_reduction(r):
        raise AssertionError("a reduction prime was found")

    monkeypatch.setattr(repcore, "_norton_irreducible", no_reduction)
    code = main(["check", "--rep", str(path), "--mode", "irreducible",
                 "--method", "burnside"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["verdict"] == "Yes"


def _check_witness(rep, m, out):
    """Recheck the witness of a `dense` or `irreducible` report on Lambda^m
    of `rep` with the witness checks of the repcore tests."""
    ext = repcore.exterior_rep(rep, m)
    route, witness = out["route"], out.get("witness")
    if route == "norton":
        p = witness.get("prime")
        F = GF(p) if p else rep.field
        proof = ([F.parse(c) for c in witness["theta"]], F.parse(witness["eigenvalue"]))
        if p:
            _check_norton_witness(ext, (p, *proof))
        else:
            _check_norton_proof(F, list(ext.generators), *proof)
    elif route in ("submodule", "lattice") and witness is not None:
        _check_submodule_witness(ext, serialize.subspace_from_json(rep.field, witness))
    elif route == "commutant":
        _check_commutant_witness(ext, serialize.matrix_from_json(rep.field, witness))
    elif route == "closure":
        assert witness == repcore.burnside_dim(ext)
    else:
        assert witness is None, route


def test_check_burnside_reports_its_route(tmp_path, capsys):
    # the verdict and exit code are is_m_dense's; the route says which
    # proof decided: Norton mod p, a non-scalar commuting matrix (the
    # quarter turn, and Lambda^2 of so4 and of a companion pair), the exact
    # closure (upper triangular: scalar commutant, algebra of dimension 3),
    # or none for Lambda^n.  The non-absolute method reports its route too:
    # Norton's submodule of the F2 Jordan block, the lattice of a module
    # that is irreducible over F2 but not absolutely, a proper submodule
    # from the lattice of Lambda^2 of a reducible F2 module, and over Q an
    # Unknown whose commuting matrix shows Lambda^2 of so4 not absolutely
    # irreducible.  Every witness rechecks.
    rot = Representation(QQ, 2, GROUP, [Matrix.from_ints(QQ, [[0, -1], [1, 0]])])
    upper = Representation(QQ, 2, GROUP, [Matrix.from_ints(QQ, g) for g in
                                          ([[1, 1], [0, 1]], [[2, 0], [0, 1]])])
    so4 = Representation(QQ, 4, LIE, lie_generators("so_split", 4), "so4")
    pair = companion_pair(QQ, 4, Fraction(2), Fraction(3)).rep
    jordan = Representation(GF(2), 2, GROUP, [Matrix.from_ints(GF(2), [[1, 1], [0, 1]])])
    inert = Representation(GF(2), 2, GROUP, [Matrix.from_ints(GF(2), [[0, 1], [1, 1]])])
    split = Representation(GF(2), 4, GROUP, [Matrix.from_ints(GF(2), [
        [0, 0, 1, 0], [1, 0, 1, 1], [0, 0, 1, 1], [1, 1, 1, 1]])])
    cases = [
        (rot, "irreducible", 1, "burnside", "commutant"),
        (upper, "irreducible", 1, "burnside", "closure"),
        (pair, "irreducible", 1, "burnside", "norton"),
        (pair, "dense", 2, "burnside", "commutant"),
        (so4, "dense", 2, "burnside", "commutant"),
        (so4, "dense", 4, "burnside", "trivial"),
        (jordan, "irreducible", 1, "definition", "submodule"),
        (inert, "irreducible", 1, "definition", "lattice"),
        (inert, "irreducible", 1, "burnside", "commutant"),
        (split, "dense", 2, "definition", "lattice"),
        (so4, "dense", 2, "definition", "commutant"),
    ]
    verdicts = []
    for i, (rep, mode, m, method, route) in enumerate(cases):
        path = tmp_path / ("rep%d.json" % i)
        path.write_text(serialize.dumps(serialize.representation_to_json(rep)))
        code = main(["check", "--rep", str(path), "--mode", mode, "--m", str(m),
                     "--method", method])
        out = json.loads(capsys.readouterr().out)
        absolute = method == "burnside"
        verdict = repcore.is_m_dense(rep, m, absolute=absolute)
        assert (out["verdict"], out["route"], out["absolute"]) == (verdict, route, absolute)
        assert code == {"Yes": 0, "No": 1, "Unknown": 2}[verdict]
        assert ("reason" in out) == (verdict == "Unknown")
        _check_witness(rep, m, out)
        verdicts.append(verdict)
    assert verdicts[6:] == ["No", "Yes", "No", "No", "Unknown"]


def _thickness_report_to_json(r, m, method, decision):
    """The thickness report as `serialize` wrote it before `Decision`: the
    oracle for a `thick` report of `check`."""
    out = {
        "m": m,
        "verdict": decision.verdict,
        "method": method,
        "mode": r.mode,
        "field_scope": fields.field_to_json(r.field),
        "log": decision.log,
    }
    if decision.reason:
        out["reason"] = decision.reason
    if decision.certificate is not None:
        out["certificate"] = serialize.certificate_to_json(r, decision.certificate)
    return out


def _old_check_report(rep, mode, method, m):
    """The report of `check` as it was built before `Decision`: the thick
    branch through the old serializer, the dense and irreducible branches
    from `is_m_dense` and, for burnside, the route of
    `absolute_irreducibility`."""
    caps = repcore.Caps.default()
    report = {"property": mode, "m": m, "label": rep.label}
    if mode == "thick":
        if method == "burnside":
            raise ThickRepError("burnside decides denseness, not thickness")
        if method == "definition":
            tr = repcore.is_m_thick_definition(rep, m, caps)
        else:
            tr = repcore.is_m_thick_criterion(rep, m, caps, seed=0)
        report.update(_thickness_report_to_json(rep, m, method, tr))
        return report
    if method == "criterion":
        raise ThickRepError("the pair criterion decides thickness only")
    absolute = method == "burnside"
    m = m if mode == "dense" else 1
    if absolute and 0 < m < rep.dim:
        decision = repcore.absolute_irreducibility(repcore.exterior_rep(rep, m))
        report.update({"verdict": decision.verdict, "route": decision.route})
    else:
        report["verdict"] = repcore.is_m_dense(rep, m, absolute=absolute, caps=caps)
        if absolute:
            report["route"] = "trivial"
    report["absolute"] = absolute
    return report


# the keys `check` added to each report when every decider came to return
# a Decision
_ADDED_KEYS = {
    "thick": {"route"},
    "dense": {"route", "witness", "method", "mode", "field_scope", "log", "reason"},
}
_ADDED_KEYS["irreducible"] = _ADDED_KEYS["dense"]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ThickRepError as e:
        return type(e).__name__, str(e)


def test_check_reports_match_the_old_reports_without_the_added_keys(tmp_path):
    # every mode and method at m = 1..3, on the modules of at most five
    # dimensions among the absolute-irreducibility cases and on the F2 and
    # F3 agreement reps, with every denseness witness rechecked; Lambda^3
    # of the six-dimensional q-exact modules alone takes minutes on the
    # absolute ladder
    import thickrep.cli as cli

    reps = [r for modules in _decider_cases().values() for r in modules if r.dim <= 5]
    reps += _agreement_reps(5)
    routes, errors = set(), collections.Counter()
    for i, rep in enumerate(reps):
        path = tmp_path / ("rep%d.json" % i)
        path.write_text(serialize.dumps(serialize.representation_to_json(rep)))
        for mode in ("thick", "dense", "irreducible"):
            for method in ("definition", "criterion", "burnside"):
                for m in (1, 2, 3):
                    args = SimpleNamespace(rep=str(path), caps="", seed=0, mode=mode,
                                           method=method, m=m)
                    new = _outcome(lambda: cli.cmd_check(args)[0])
                    old = _outcome(_old_check_report, rep, mode, method, m)
                    if isinstance(old, dict):
                        kept = {k: v for k, v in new.items()
                                if k in old or k not in _ADDED_KEYS[mode]}
                        assert serialize.dumps(kept) == serialize.dumps(old), (i, mode, method, m)
                        routes.add((mode == "thick", new["route"]))
                        if mode != "thick":
                            _check_witness(rep, m if mode == "dense" else 1, new)
                    else:
                        assert new == old
                        errors[old[0]] += 1
    # every thickness route is met, and every denseness route but the
    # lattice, which `test_check_burnside_reports_its_route` meets
    assert {route for thick, route in routes if thick} == {
        "orbits", "dense", "isotypic", "spin", "trivial"}
    assert {route for thick, route in routes if not thick} == {
        "norton", "submodule", "commutant", "closure", "trivial"}
    assert set(errors) == {"ThickRepError", "WrongField", "PreconditionFailed", "BadM"}


def test_main_dispatches_through_module_attribute(monkeypatch):
    # the parser is built once, and a wrapper installed on the module later
    # still sees every call
    import thickrep.cli as cli

    calls = []
    assert main(["rnumber", "--n", "3", "--m", "1"]) == 0
    monkeypatch.setattr(cli, "cmd_rnumber", lambda args: calls.append(args.n) or ({}, None))
    assert main(["rnumber", "--n", "4", "--m", "2"]) == 0
    assert main(["rnumber", "--n", "5", "--m", "2"]) == 0
    assert calls == [4, 5]


def test_check_rational_rep_with_large_charpoly_constant(tmp_path, capsys):
    # P diag(1, 2, 3) P^-1 with large entries in P: the charpoly constant of
    # a random commutant element is near 10**17, which trial division of
    # its divisors took about a minute to factor
    import time

    from thickrep.repcore import isotypic_decomposition

    p = Matrix.from_ints(QQ, [[1, 10**9 + 7, 3], [0, 1, 10**8 + 9], [0, 0, 1]])
    g = p * Matrix.diagonal(QQ, [QQ.from_int(i) for i in (1, 2, 3)]) * p.inverse()
    rep = Representation(QQ, 3, GROUP, [g], "conjugated-diagonal")
    t0 = time.perf_counter()
    lines = isotypic_decomposition(rep)
    assert time.perf_counter() - t0 < 2.0
    assert lines is not None and [w.dim for w in lines] == [1, 1, 1]
    path = tmp_path / "rep.json"
    path.write_text(serialize.dumps(serialize.representation_to_json(rep)))
    report_path = tmp_path / "report.json"
    code = main(["check", "--rep", str(path), "--mode", "thick", "--method",
                 "criterion", "--m", "1", "--json-out", str(report_path)])
    assert code == 1
    report = json.loads(report_path.read_text())
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(serialize.dumps(report["certificate"]))
    assert main(["recheck", "--certificate", str(cert_path)]) == 0


BIG_P = 2**61 - 1  # 2305843009213693951


def test_check_criterion_over_a_large_prime_is_undecided(tmp_path, capsys):
    # no subspace or projective point list is materialised: the spin route
    # walks its candidate cap and stops undecided
    import time

    path = tmp_path / "rep.json"
    path.write_text(json.dumps({
        "field": {"kind": "Fp", "p": BIG_P}, "dim": 3, "mode": "group",
        "generators": [[["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]],
                       [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
    }))
    t0 = time.perf_counter()
    code = main(["check", "--rep", str(path), "--mode", "thick", "--method",
                 "criterion", "--m", "1"])
    captured = capsys.readouterr()
    assert code == 2 and time.perf_counter() - t0 < 10.0
    assert json.loads(captured.out)["verdict"] == "Unknown"
    assert "Traceback" not in captured.err


def test_construct_over_a_large_prime_exits_cleanly(capsys):
    import time

    t0 = time.perf_counter()
    code = main(["construct", "companion", "--field", "F%d" % BIG_P, "--n", "4"])
    captured = capsys.readouterr()
    assert code == 0 and time.perf_counter() - t0 < 5.0
    assert json.loads(captured.out)["roots_available"] is False
    code = main(["construct", "block", "--field", "F%d" % BIG_P, "--n", "4"])
    captured = capsys.readouterr()
    assert code == 3 and "scanning" in captured.err
    assert "Traceback" not in captured.err


def test_recheck_refuses_each_broken_claim(tmp_path, capsys):
    # one mutant of a valid certificate per refusal of
    # verify_not_thick_certificate; colex order on 2-subsets of 4 is
    # 12, 13, 23, 14, 24, 34, and so4 leaves no line of Lambda^2 invariant
    with open(os.path.join(GOLDEN, "so4_wedge2_m2.json")) as fh:
        cert = json.load(fh)
    e12 = {"ambient": 6, "basis": [["1", "0", "0", "0", "0", "0"]]}
    e1, e3 = ["1", "0", "0", "0"], ["0", "0", "1", "0"]
    mutants = {
        "wrong ambient": dict(cert, w1={"ambient": 5, "basis": [["1", "0", "0", "0", "0"]]}),
        "W1 not invariant": dict(cert, w1=e12),
        "W2 not invariant": dict(cert, w2=e12),
        "W2 is not perp(W1)": dict(cert, w2={"ambient": 6, "basis": []}),
        "witness2 wedges to zero": dict(cert, witness2=[e1, e1]),
        "witness2 wedges outside W2": dict(cert, witness2=[e1, e3]),
    }
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(serialize.dumps(cert))
    assert main(["recheck", "--certificate", str(cert_path)]) == 0
    capsys.readouterr()
    for name, bad in mutants.items():
        cert_path.write_text(serialize.dumps(bad))
        assert main(["recheck", "--certificate", str(cert_path)]) == 1, name
        assert json.loads(capsys.readouterr().out)["verifies"] is False, name


def test_entry_points_print_their_results(tmp_path, capsys):
    def run(*argv):
        assert main(list(argv)) == 0, argv
        return json.loads(capsys.readouterr().out)

    vectors = tmp_path / "v.json"
    vectors.write_text(json.dumps([["1", "0", "0", "0"], ["0", "1", "0", "0"]]))
    assert run("exterior", "wedge", "--n", "4", "--input", str(vectors)) == {"1,2": "1"}
    line = tmp_path / "line.json"
    line.write_text(json.dumps({"ambient": 6, "basis": [["1", "0", "0", "0", "0", "0"]]}))
    # the perp of e12 is every colex coordinate but e34
    out = run("exterior", "perp", "--n", "4", "--m", "2", "--input", str(line))
    unit = [["1" if i == j else "0" for j in range(6)] for i in range(6)]
    assert out == {"ambient": 6, "basis": unit[:5]}
    out = run("construct", "e1wedge", "--field", "F3", "--n", "4")
    assert out["ambient"] == 6 and len(out["basis"]) == 3
    assert run("characters", "char", "--partition", "3,2")["degree"] == 5
    out = run("characters", "partitions", "--n", "3")
    assert out["coefficients"] == [1, 1, 1, 2, 1, 1, 1]
    out = run("characters", "plethysm", "--kind", "sym2", "--n", "3", "--m", "2")
    assert out["components"] == 1



@pytest.mark.parametrize("verdict, code", [
    (repcore.THICK, 0), (repcore.NOT_THICK, 1), (repcore.UNKNOWN, 2),
    (repcore.YES, 0), (repcore.NO, 1), ("Realizable", 0), ("NotRealizable", 1),
    (verify.VERIFIED, 0), (verify.REFUTED, 1), (verify.ERROR, 1), (None, 0),
])
def test_every_verdict_maps_to_its_contract_code(monkeypatch, capsys, verdict, code):
    # main alone turns a handler's verdict into the exit code
    import thickrep.cli as cli

    monkeypatch.setattr(cli, "cmd_recheck", lambda args: ({"v": verdict}, verdict))
    assert main(["recheck", "--certificate", "unread.json"]) == code
    assert json.loads(capsys.readouterr().out) == {"v": verdict}


HELP_OPTIONS = {
    "check": {"--caps", "--json-out", "--m", "--method", "--mode", "--rep", "--seed"},
    "construct": {"--a", "--alphas", "--b", "--betas", "--ell", "--family", "--field",
                  "--json-out", "--m", "--n", "--seed"},
    "exterior": {"--field", "--input", "--json-out", "--m", "--n", "--seed"},
    "characters": {"--a", "--b", "--json-out", "--kind", "--m", "--n", "--partition"},
    "symplectic": {"--field", "--json-out", "--m", "--n", "--seed", "--trials"},
    "rnumber": {"--json-out", "--m", "--n"},
    "recheck": {"--certificate", "--json-out"},
    "verify": {"--caps", "--cert-dir", "--filter", "--jobs", "--json-out", "--seed"},
}


@pytest.mark.parametrize("command", sorted(HELP_OPTIONS))
def test_help_lists_each_commands_options(capsys, command):
    # the shared flags are declared once, and every command keeps its set
    assert main([command, "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out))
    assert listed == HELP_OPTIONS[command] | {"-h", "--help"}


def test_a_label_that_is_not_a_string_exits_3(tmp_path, capsys):
    path = tmp_path / "rep.json"
    data = serialize.representation_to_json(
        Representation(QQ, 2, GROUP, [Matrix.from_ints(QQ, [[1, 0], [0, 2]])])
    )
    argv = ["check", "--rep", str(path), "--mode", "thick", "--method", "criterion",
            "--m", "1"]
    for label in (5, [1], {"a": 1}):
        path.write_text(json.dumps(dict(data, label=label)))
        assert main(argv) == 3, label
        err = capsys.readouterr().err
        assert "label must be a string" in err and "Traceback" not in err
    # an absent or null label is the empty one, and diag(1, 2) is not thick
    for rep in (dict(data, label=None), {k: v for k, v in data.items() if k != "label"}):
        path.write_text(json.dumps(rep))
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "NotThick"
    lie = serialize.representation_to_json(
        Representation(QQ, 4, LIE, lie_generators("sp", 2, QQ))
    )
    path.write_text(json.dumps(dict(lie, label=3)))
    assert main(argv[:-1] + ["2"]) == 3
