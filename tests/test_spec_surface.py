"""Cross-module behaviors: the symplectic exterior square through the
repcore machinery, certificate surfaces, and environment-driven caps."""

import ast
import importlib
import json
import pathlib

from thickrep.fields import GF, QQ
from thickrep.linalg import Matrix
from thickrep.exterior import WedgeVector, realizable_search
from thickrep.repcore import (
    Caps,
    GROUP,
    LIE,
    Representation,
    all_submodules,
    commutant,
    exterior_rep,
    isotypic_decomposition,
    r_number_bounds,
)
from thickrep.constructions import lie_generators
from thickrep.verify import run_suite


def sp4_rep():
    return Representation(QQ, 4, LIE, lie_generators("sp", 2), label="sp4")


def test_commutant_of_symplectic_wedge_square():
    dim, basis = commutant(exterior_rep(sp4_rep(), 2))
    assert dim == 2
    for b in basis:
        assert b.nrows == 6


def test_isotypic_of_symplectic_wedge_square():
    dec = isotypic_decomposition(exterior_rep(sp4_rep(), 2))
    assert sorted(e.dim for e in dec) == [1, 5]


def _symplectic_transvection(field, v, form):
    # x -> x + omega(x, v) v preserves the form
    n = len(v)
    jv = form.apply(v)
    rows = [
        [field.add(field.one if i == j else field.zero, field.mul(v[i], jv[j]))
         for j in range(n)]
        for i in range(n)
    ]
    return Matrix(field, rows)


def test_no_one_dim_realizable_invariant_for_irreducible():
    # a form-preserving irreducible group fixes a line in the wedge square
    # (the form itself); that line must never be realizable
    from thickrep.constructions import symplectic_form_matrix

    field = GF(3)
    form = symplectic_form_matrix(field, 2)
    vecs = [(1, 0, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0), (0, 1, 1, 1), (1, 0, 1, 2)]
    gens = [_symplectic_transvection(field, v, form) for v in vecs]
    rep = Representation(field, 4, GROUP, gens)
    assert len(all_submodules(rep)) == 2  # irreducible
    ext = exterior_rep(rep, 2)
    lines = [w for w in all_submodules(ext) if w.dim == 1]
    assert lines, "the invariant form line must appear"
    for w in lines:
        assert realizable_search(w, 4, 2).status == "NotRealizable"


def test_r_number_bounds_symmetric():
    for n in range(2, 9):
        for m in range(0, n + 1):
            a = r_number_bounds(n, m)
            b = r_number_bounds(n, n - m)
            assert (a.lower, a.upper, a.exact) == (b.lower, b.upper, b.exact)


def test_wedge_vector_sparse_roundtrip():
    v = WedgeVector.basis_element(QQ, 4, (1, 2)).add(
        WedgeVector.basis_element(QQ, 4, (3, 4)).scale(QQ.from_int(-2))
    )
    sparse = v.to_sparse()
    assert sparse == {"1,2": "1", "3,4": "-2"}
    assert WedgeVector.from_sparse(QQ, 4, 2, sparse) == v


def test_caps_env_override(monkeypatch):
    monkeypatch.setenv("THICKREP_CAPS", json.dumps({"group_cap": 7, "pair_cap": 9}))
    caps = Caps.default()
    assert caps.group_cap == 7 and caps.pair_cap == 9
    assert caps.points_cap == 1_000_000  # untouched defaults survive


def test_parallel_suite_matches_serial():
    serial = run_suite(filter_substring="characters", seed=0, jobs=1)
    parallel = run_suite(filter_substring="characters", seed=0, jobs=2)
    assert serial.overall == parallel.overall == "Verified"
    assert [i.item_id for i in serial.items] == [i.item_id for i in parallel.items]
    assert [i.status for i in serial.items] == [i.status for i in parallel.items]


def test_lie_mode_submodules_over_finite_field():
    # standard sl_2 action over F_5 is irreducible; the submodule lattice
    # machinery must handle Lie mode
    field = GF(5)
    gens = [
        Matrix.from_ints(field, rows)
        for rows in ([[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]])
    ]
    rep = Representation(field, 2, LIE, gens)
    assert len(all_submodules(rep)) == 2
    from thickrep.repcore import is_m_dense

    assert is_m_dense(rep, 1, absolute=False) == "Yes"


def test_suite_skips_when_caps_too_small():
    caps = Caps.default()
    caps.group_cap = 10  # far below the 20160-element closure
    suite = run_suite(filter_substring="wedge2-gl4", seed=0, caps=caps)
    (item,) = suite.items
    assert item.status == "Skipped"
    assert "cap" in item.details
    # skipped items do not refute the suite; with every item skipped it
    # verifies nothing either, so the suite is skipped
    assert suite.overall == "Skipped"


def test_item_rerun_is_deterministic():
    from thickrep import serialize
    from thickrep.verify import run_item

    a = run_item("block-rep-f13", seed=0)
    b = run_item("block-rep-f13", seed=0)
    assert a.status == b.status == "Verified"
    assert serialize.dumps(a.certificates[0][1]) == serialize.dumps(b.certificates[0][1])


def test_rational_pairing_prong():
    from thickrep.symplectic import SymplecticSpace, ker_perp_realizability_check

    report = ker_perp_realizability_check(SymplecticSpace(2, QQ), 2, trials=10, seed=1)
    assert report.nonzero_pairings == 10
    assert report.scan_prong_ran and report.scan_prong_pass  # dim-1 perp, exact


def test_traced_layers_resolve_in_package():
    # the benchmark's traced run wraps these names; a deleted or renamed one
    # fails here rather than in that run
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "SPAN_LAYERS" for t in node.targets)
    )
    assert len(layers) == 38
    for dotted in layers:
        module, *attrs = dotted.split(".")
        owner = importlib.import_module("thickrep." + module)
        for name in attrs[:-1]:
            owner = getattr(owner, name)
        # the tracer patches a method on the class that defines it
        if isinstance(owner, type):
            assert attrs[-1] in vars(owner), dotted
        else:
            assert hasattr(owner, attrs[-1]), dotted
