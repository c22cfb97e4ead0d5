import collections
import dataclasses
import importlib.util
import inspect
import math
import pathlib
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from thickrep.errors import CapExceeded, PreconditionFailed
from thickrep.fields import GF, QQ, poly_roots
from thickrep.linalg import (
    Matrix,
    Subspace,
    charpoly,
    kernel,
    kernel_of_rows,
    random_invertible,
    rank_of_rows,
    unit_vector,
)
from thickrep.constructions import build_block_rep, companion_pair, lie_generators
from thickrep.exterior import (
    is_decomposable,
    perp,
    projective_coefficients,
    projective_count,
    projective_images,
    realizable_search,
    wedge_of_vectors,
)
from thickrep import linalg, repcore, serialize
from thickrep.repcore import (
    _norton_irreducible,
    _pair_table,
    _subspace_permutations,
    Caps,
    GROUP,
    LIE,
    NOT_THICK,
    THICK,
    UNKNOWN,
    YES,
    NO,
    Decision,
    Representation,
    absolute_irreducibility,
    all_submodules,
    burnside_dim,
    commutant,
    enumerate_subspaces,
    exterior_rep,
    gaussian_binomial,
    group_closure,
    is_invariant,
    is_m_dense,
    is_m_thick_criterion,
    is_m_thick_definition,
    isotypic_decomposition,
    r_number_bounds,
    restrict_to_invariant,
    spin,
    verify_not_thick_certificate,
)


def M(field, rows):
    return Matrix.from_ints(field, rows)


def group_rep(field, mats, label=""):
    mats = [M(field, rows) for rows in mats]
    return Representation(field, mats[0].nrows, GROUP, mats, label=label)


SWAP2 = [[0, 1], [1, 0]]
ROT = [[0, -1], [1, 0]]
DIAG_1122 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]


def test_exterior_rep_m1_is_identity_functor():
    r = group_rep(QQ, [SWAP2])
    assert exterior_rep(r, 1).generators == r.generators


def test_exterior_rep_lie_top_degree_is_trace():
    x = M(QQ, [[3, 5], [7, 11]])
    r = Representation(QQ, 2, LIE, [x])
    top = exterior_rep(r, 2)
    assert top.generators[0] == Matrix(QQ, [[x.rows[0][0] + x.rows[1][1]]])


def test_exterior_rep_group_diag():
    r = group_rep(QQ, [[[1, 0, 0], [0, 2, 0], [0, 0, 3]]])
    assert exterior_rep(r, 2).generators[0] == Matrix.diagonal(
        QQ, [QQ.from_int(v) for v in (2, 3, 6)]
    )


def test_spin_examples():
    r = group_rep(QQ, [SWAP2])
    assert spin(r, [unit_vector(QQ, 2, 0)]) == Subspace.full(QQ, 2)
    r2 = group_rep(GF(2), [SWAP2])
    fixed = spin(r2, [(1, 1)])
    assert fixed == Subspace.from_vectors(GF(2), 2, [(1, 1)])
    assert spin(r, [(0, 0)]).dim == 0


def test_is_invariant():
    r = group_rep(QQ, [SWAP2])
    assert is_invariant(r, Subspace.zero(QQ, 2))
    assert is_invariant(r, Subspace.full(QQ, 2))
    assert not is_invariant(r, Subspace.from_vectors(QQ, 2, [(1, 0)]))
    assert is_invariant(r, Subspace.from_vectors(QQ, 2, [(1, 1)]))


def test_burnside_dim_examples():
    assert burnside_dim(group_rep(QQ, [ROT])) == 2
    assert burnside_dim(group_rep(QQ, [ROT, [[1, 1], [1, 0]]])) == 4
    assert burnside_dim(group_rep(QQ, [[[1, 0], [0, 1]]])) == 1


def test_burnside_dim_finite_field():
    assert burnside_dim(group_rep(GF(2), [[[1, 1], [0, 1]], SWAP2])) == 4


def _random_q_reps(seed):
    """Seeded group reps over Q of dims 2-5 with entries in -2..2, every
    third with one generator (never absolutely irreducible)."""
    rng = random.Random(seed)
    reps = []
    for i, n in enumerate(n for n in (2, 3, 4, 5) for _ in range(3)):
        gens = []
        while len(gens) < (1 if i % 3 == 0 else 2):
            g = M(QQ, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if g.is_invertible():
                gens.append(g)
        reps.append(Representation(QQ, n, GROUP, gens))
    return reps


def _q_burnside_cases():
    """Rational reps with both Burnside answers: the random reps, their
    Lambda^2 up to dim 4 (the exact closure of a 10-dim Lambda^2 of a random
    dim-5 rep takes 13-24 s), the split Lie reps, the companion pairs and
    the Lambda^2 of the last two."""
    reps = _random_q_reps(15)
    reps += [exterior_rep(r, 2) for r in reps if r.dim <= 4]
    lie = [("so_split", 4), ("so_split", 5), ("sp", 2), ("sl", 3), ("sl", 4)]
    others = [Representation(QQ, g[0].nrows, LIE, g)
              for g in (lie_generators(family, n) for family, n in lie)]
    others += [companion_pair(QQ, n, Fraction(a), Fraction(b)).rep
               for n, a, b in ((4, 2, 3), (4, "1/2", -3), (5, 2, 3))]
    return reps + others + [exterior_rep(r, 2) for r in others]


def test_burnside_dim_matches_exact_closure_over_q():
    answers = []
    for r in _q_burnside_cases():
        exact = repcore._algebra_closure_dim(QQ, r.generators, r.dim)
        assert burnside_dim(r) == exact
        # the Norton proof never claims what the exact closure denies
        assert not repcore._norton(r) or exact == r.dim ** 2
        answers.append(exact == r.dim ** 2)
    assert answers.count(True) > 10 and answers.count(False) > 5


def test_burnside_rotation_at_split_and_inert_primes():
    # the charpoly x^2 + 1 of a quarter turn splits mod 101 = 1 mod 4, where
    # the reduction is reducible, and stays irreducible mod 103 = 3 mod 4,
    # where the reduction is irreducible but not absolutely; a conjugate
    # with denominator 101 is reduced mod 103
    inert = Matrix(QQ, [[QQ.zero, Fraction(-1, 101)], [Fraction(101), QQ.zero]])
    for mats, p in (([M(QQ, ROT)], 101), ([inert], 103)):
        r = Representation(QQ, 2, GROUP, mats)
        assert repcore._reduction_prime(r.generators) == p
        assert repcore._norton(r) is None
        assert burnside_dim(r) == 2


def test_isotypic_shortcut_matches_commutant_route(monkeypatch):
    lifts = [exterior_rep(r, m) for r in _random_q_reps(15)[:9] for m in (1, 2)]
    lifts = [ext for ext in lifts if repcore._norton(ext)]
    assert len(lifts) > 5

    def no_commutant(r):
        raise AssertionError("commutant computed")

    monkeypatch.setattr(repcore, "commutant", no_commutant)
    fast = [repcore._isotypic_sums(ext, Caps(), 0) for ext in lifts]
    monkeypatch.undo()
    # a lattice cap below the two elements of any lattice gives no answer
    assert all(repcore._isotypic_sums(ext, Caps(lattice_cap=1), 0) is None
               for ext in lifts)
    monkeypatch.setattr(repcore, "_norton", lambda r: None)
    slow = [repcore._isotypic_sums(ext, Caps(), 0) for ext in lifts]
    assert fast == slow
    assert all(sums == [Subspace.zero(QQ, ext.dim), Subspace.full(QQ, ext.dim)]
               for sums, ext in zip(fast, lifts))


def _workload_reps(build, seed):
    """The reps of one benchmark workload for `seed`, built by its own
    generator `build` in perfbench/workloads.py."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    T = SimpleNamespace(**{
        name: importlib.import_module("thickrep." + name)
        for name in ("constructions", "fields", "linalg", "repcore", "symplectic")
    })
    built = getattr(workloads, build)(T, seed, None)
    return [x for x in built.inputs if isinstance(x, Representation)]


def _q_exact_reps(seed=1):
    """The rational reps of the benchmark's q-exact workload for `seed`."""
    return _workload_reps("build_q_exact", seed)


def _check_norton_proof(F, gens, coeffs, lam):
    """Rebuild theta over F from the coefficients over the generators and
    their pairwise products among the first three: its lambda-eigenspace is
    a line that spins to k^N, and the transposed line spins under the
    transposed generators."""
    n = gens[0].nrows
    words = gens + [a * b for a in gens[:3] for b in gens[:3]]
    assert len(coeffs) == len(words)
    theta = Matrix.zero(F, n, n)
    for c, w in zip(coeffs, words):
        theta = theta + w.scale(c)
    shifted = theta - Matrix.identity(F, n).scale(lam)
    line = kernel(shifted)
    assert line.dim == 1
    assert spin(Representation(F, n, LIE, gens), line.basis_vectors()).dim == n
    dual = Representation(F, n, LIE, [g.transpose() for g in gens])
    assert spin(dual, kernel(shifted.transpose()).basis_vectors()).dim == n


def _check_norton_witness(r, witness):
    """`_check_norton_proof` on the reduction of the rational rep `r` mod
    the witness's prime."""
    p, coeffs, lam = witness
    assert p == repcore._reduction_prime(r.generators)
    F = GF(p)
    gens = [Matrix(F, [[x.numerator * pow(x.denominator, -1, p) % p for x in row]
                       for row in g.rows]) for g in r.generators]
    _check_norton_proof(F, gens, coeffs, lam)


def _check_submodule_witness(r, w):
    assert is_invariant(r, w) and 0 < w.dim < r.dim


def _check_commutant_witness(r, witness):
    assert all(witness * g == g * witness for g in r.generators)
    assert witness != Matrix.identity(r.field, r.dim).scale(witness.rows[0][0])


UPPER_TRIANGULAR = [[[1, 1], [0, 1]], [[2, 0], [0, 1]]]


def _decider_cases():
    """{name: modules}: every Lambda^m of the q-exact seed-1 reps, the Lie
    reps and companion pairs of `_q_reps` with their Lambda^m, the quarter
    turn and an upper-triangular rep."""
    lie_and_pairs = _q_reps()[:8]
    return {
        "q-exact": [exterior_rep(r, m) for r in _q_exact_reps() for m in range(1, r.dim)],
        "lie-and-pairs": [exterior_rep(r, m) for r in lie_and_pairs for m in range(1, r.dim)],
        "quarter-turn": [group_rep(QQ, [ROT])],
        "upper-triangular": [group_rep(QQ, UPPER_TRIANGULAR)],
    }


def test_absolute_irreducibility_agrees_with_exact_closure_and_its_witness_checks():
    routes = {}
    for name, modules in _decider_cases().items():
        counts = routes[name] = collections.Counter()
        for r in modules:
            decision = absolute_irreducibility(r)
            exact = repcore._algebra_closure_dim(QQ, r.generators, r.dim)
            assert decision.verdict == (YES if exact == r.dim ** 2 else NO)
            counts[decision.route, decision.verdict] += 1
            if decision.route == "norton":
                _check_norton_witness(r, decision.certificate)
            elif decision.route == "commutant":
                _check_commutant_witness(r, decision.certificate)
            else:
                assert decision.route == "closure" and decision.certificate == exact
    # 74 modules: Norton proves 68, a commuting matrix refutes 6
    assert routes["q-exact"] == {("norton", YES): 68, ("commutant", NO): 6}
    assert routes["lie-and-pairs"][("closure", NO)] == 0
    assert routes["quarter-turn"] == {("commutant", NO): 1}
    assert commutant(group_rep(QQ, [ROT]))[0] == 2
    # a scalar commutant, an algebra of dimension 3: only the closure refutes
    assert routes["upper-triangular"] == {("closure", NO): 1}
    assert commutant(group_rep(QQ, UPPER_TRIANGULAR))[0] == 1
    assert absolute_irreducibility(group_rep(QQ, UPPER_TRIANGULAR)).certificate == 3


def test_absolute_irreducibility_over_a_finite_field_is_the_closure():
    # every route's verdict is the closure's, and its witness checks
    p = 2**61 - 1
    big = GF(p)
    cases = [exterior_rep(r, m) for r in _agreement_reps(5) for m in (1, 2, 3)]
    cases += [
        # irreducible over F2 but not absolutely: Norton finds no line
        group_rep(GF(2), [[[0, 1], [1, 1]]]),
        # too large a field for Norton: two eigenvalues, then the
        # upper-triangular pair (scalar commutant, algebra of dimension 3)
        Representation(big, 2, GROUP, [Matrix(big, [[p - 2, 1], [0, 3]])]),
        group_rep(big, UPPER_TRIANGULAR),
    ]
    routes = collections.Counter()
    for r in cases:
        decision = absolute_irreducibility(r)
        closure = burnside_dim(r)
        assert decision.verdict == (YES if closure == r.dim ** 2 else NO)
        routes[decision.route, decision.verdict] += 1
        if decision.route == "norton":
            _check_norton_proof(r.field, list(r.generators), *decision.certificate)
        elif decision.route == "submodule":
            _check_submodule_witness(r, decision.certificate)
        elif decision.route == "commutant":
            _check_commutant_witness(r, decision.certificate)
        else:
            assert decision.route == "closure" and decision.certificate == closure
    assert routes[("norton", YES)] > 0 and routes[("submodule", NO)] > 0
    assert routes[("commutant", NO)] == 2 and routes[("closure", NO)] == 1


def _block_triangular(field, n, k, rng):
    """An invertible block upper-triangular matrix with diagonal blocks of
    sizes k and n - k: the span of the first k basis vectors is invariant."""
    a, b = random_invertible(field, k, rng), random_invertible(field, n - k, rng)
    rows = [list(row) + [field.random(rng) for _ in range(n - k)] for row in a.rows]
    rows += [[field.zero] * k + list(row) for row in b.rows]
    return Matrix(field, rows)


def test_norton_outcomes_are_sound():
    # a seeded oracle: every YES is an algebra of dimension N^2, every NO
    # witness is a proper invariant subspace of a lattice with more than
    # two elements
    rng = random.Random(2121)
    outcomes = collections.Counter()
    for field in (GF(2), GF(3), GF(2, 2), GF(5), GF(7)):
        for n in (2, 3, 4):
            k = rng.randrange(1, n)
            for gens in ([random_invertible(field, n, rng) for _ in range(2)],
                         [_block_triangular(field, n, k, rng) for _ in range(2)]):
                r = Representation(field, n, GROUP, gens)
                for m in range(1, n):
                    ext = exterior_rep(r, m)
                    outcome = _norton_irreducible(ext)
                    outcomes[outcome and outcome.verdict] += 1
                    if outcome is None:
                        continue
                    closure = repcore._algebra_closure_dim(field, ext.generators, ext.dim)
                    if outcome.verdict == YES:
                        assert (outcome.route, closure) == ("norton", ext.dim ** 2)
                        _check_norton_proof(field, list(ext.generators), *outcome.certificate)
                    else:
                        assert outcome.route == "submodule"
                        w = outcome.certificate
                        _check_submodule_witness(ext, w)
                        # the brute force takes seconds past a few hundred
                        # points; the orbit enumeration is checked against it
                        # in `_lattice_against_oracle`
                        if projective_count(field.order, ext.dim) <= 400:
                            lattice = _brute_force_lattice(ext)
                        else:
                            lattice = _lattice_oracle(ext, Caps())
                        assert len(lattice) > 2 and w in lattice
    assert outcomes[YES] > 10 and outcomes[NO] > 10, outcomes


def _counted(monkeypatch, name):
    """Wrap `repcore.<name>` so that it counts its calls by the id of the
    rep it is given; returns the Counter."""
    calls = collections.Counter()
    fn = getattr(repcore, name)

    def wrapper(r, *args):
        calls[id(r)] += 1
        return fn(r, *args)

    monkeypatch.setattr(repcore, name, wrapper)
    return calls


def test_q_exact_denseness_and_isotypic_sums_run_no_closure(monkeypatch):
    # every module of the q-exact reps is decided by a witness, and the
    # isotypic route solves each module's commutant at most once
    def no_closure(*args):
        raise AssertionError("exact closure ran")

    reps = _q_exact_reps()
    monkeypatch.setattr(repcore, "_algebra_closure_dim", no_closure)
    solved = _counted(monkeypatch, "_commutant_basis")
    for r in reps:
        for m in range(1, r.dim):
            assert is_m_dense(r, m) in (YES, NO)
            assert is_m_dense(r, m, absolute=False) in (YES, UNKNOWN)
    solved.clear()
    sums = [repcore._isotypic_sums(exterior_rep(r, m), Caps(), 0)
            for r in reps[:8] for m in range(1, r.dim)]
    assert max(solved.values(), default=0) <= 1
    assert sum(s is not None and len(s) > 2 for s in sums) >= 2


def test_a_second_criterion_pass_restricts_and_decides_no_summand(monkeypatch):
    # the isotypic decomposition and its summands' verdict are memoised on
    # each Lambda^m, so the same reps asked again restrict nothing and run
    # no Norton test, and report what they reported the first time
    reps = _q_exact_reps()
    restricted = _counted(monkeypatch, "restrict_to_invariant")
    ran = _counted(monkeypatch, "_norton_irreducible")
    first = [is_m_thick_criterion(r, m) for r in reps for m in range(1, r.dim)]
    assert sum(restricted.values()) > 0 and sum(ran.values()) > 0
    restricted.clear()
    ran.clear()
    second = [is_m_thick_criterion(r, m) for r in reps for m in range(1, r.dim)]
    assert sum(restricted.values()) == 0 and sum(ran.values()) == 0
    assert second == first
    assert sum(report.route == "isotypic" for report in first) > 0


def test_a_cap_below_the_summand_count_decides_no_summand(monkeypatch):
    # the 2^s sums of s summands are checked against the lattice cap before
    # any summand is restricted, and the refusal leaves the verdict on the
    # summands unmemoised
    expected = [repcore._isotypic_sums(exterior_rep(r, m), Caps(), 0)
                for r in _q_exact_reps()[:8] for m in range(1, r.dim)]
    modules = [exterior_rep(r, m) for r in _q_exact_reps()[:8] for m in range(1, r.dim)]
    restricted = _counted(monkeypatch, "restrict_to_invariant")
    split = 0
    for ext, sums in zip(modules, expected):
        if sums is None or len(sums) <= 2:
            continue
        split += 1
        count = len(sums).bit_length() - 1  # the sums of `count` summands
        assert repcore._isotypic_sums(ext, Caps(lattice_cap=2 ** (count - 1)), 0) is None
        assert restricted[id(ext)] == 0
        assert ("isotypic", 0, "summands") not in ext._memo
        assert repcore._isotypic_sums(ext, Caps(lattice_cap=2 ** count), 0) == sums
        assert restricted[id(ext)] == count
    assert split >= 2


def test_a_summand_not_absolutely_irreducible_refuses_the_isotypic_route():
    # E12 and diag(0, 1, 5) split Q^3 into the plane <e1, e2> and the line
    # <e3>; the plane is indecomposable but holds the invariant line <e1>,
    # so the sums of the two summands miss an invariant subspace and the
    # criterion must take the spin route
    r = Representation(QQ, 3, LIE, [M(QQ, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
                                    M(QQ, [[0, 0, 0], [0, 1, 0], [0, 0, 5]])])
    assert commutant(r)[0] == 2
    assert sorted(e.dim for e in isotypic_decomposition(r)) == [1, 2]
    assert repcore._isotypic_sums(r, Caps(), 0) is None
    assert r._memo[("isotypic", 0, "summands")] is False
    decision = is_m_thick_criterion(r, 1)
    assert (decision.verdict, decision.route) == (NOT_THICK, "spin")


def test_the_commutant_is_solved_once_per_module_and_returned_fresh(monkeypatch):
    solved = _counted(monkeypatch, "_commutant_basis")
    modules = [group_rep(QQ, [ROT]), group_rep(QQ, UPPER_TRIANGULAR)]
    modules += [exterior_rep(r, m) for r in _q_exact_reps()[:8] for m in range(1, r.dim)]
    for r in modules:
        absolute_irreducibility(r)
        isotypic_decomposition(r)
        repcore._isotypic_sums(r, Caps(), 0)
        first, second = commutant(r), commutant(r)
        assert first == second and first[1] is not second[1]
        first[1].clear()
        assert commutant(r) == second
    assert [solved[id(r)] for r in modules] == [1] * len(modules)


def test_norton_over_q_runs_once_per_module(monkeypatch):
    # the reduction mod p is a new rep at every run, so each run is charged
    # to the rational module whose `_norton` started it
    current = []
    ran = collections.Counter()
    norton, norton_irreducible = repcore._norton, repcore._norton_irreducible

    def tracked(r):
        current.append(r)
        try:
            return norton(r)
        finally:
            current.pop()

    def counted(reduced):
        ran[id(current[-1])] += 1
        return norton_irreducible(reduced)

    monkeypatch.setattr(repcore, "_norton", tracked)
    monkeypatch.setattr(repcore, "_norton_irreducible", counted)
    reps = _q_exact_reps()
    modules = [exterior_rep(r, m) for r in reps for m in range(1, r.dim)]
    for r in reps:
        for m in range(1, r.dim):
            is_m_dense(r, m)
            is_m_dense(r, m, absolute=False)
            is_m_thick_criterion(r, m, Caps(rational_trials=40))
    assert [ran[id(ext)] for ext in modules] == [1] * len(modules)


def test_norton_proves_nothing_past_the_scan_limit(monkeypatch):
    # with the scan limit below 7, the shear over F7 is a field too large to
    # walk: Norton answers None before any eigenvalue search, and the other
    # deciders answer from the commutant and the lattice
    def no_scan(poly):
        raise AssertionError("poly_roots walked the field")

    monkeypatch.setattr(repcore, "DEFAULT_POINTS_CAP", 5)
    monkeypatch.setattr(repcore, "poly_roots", no_scan)
    r = group_rep(GF(7), [[[1, 1], [0, 1]]])
    assert repcore._norton(r) is None
    assert absolute_irreducibility(r).route == "commutant"
    assert is_m_dense(r, 1, absolute=False) == NO
    assert [w.dim for w in all_submodules(r)] == [0, 1, 2]


def test_isotypic_sums_under_a_zero_cap_solve_no_commutant(monkeypatch):
    caps = Caps(lattice_cap=1, rational_trials=40)
    reps = _q_reps()[:8]
    expected = [_criterion_reference(r, m, caps) for r in reps for m in range(1, r.dim)]
    calls = []

    def counted_commutant(r):
        calls.append(r.dim)
        return commutant(r)

    monkeypatch.setattr(repcore, "commutant", counted_commutant)
    reports = [is_m_thick_criterion(r, m, caps) for r in reps for m in range(1, r.dim)]
    assert calls == []
    for rep, (verdict, reason, cert, route, log) in zip(reports, expected):
        rep.log.pop("pairs_tested")
        assert (rep.verdict, rep.reason, rep.certificate, rep.route, rep.log) == (
            verdict, reason, cert, route, log)


def test_group_closure_gl2_f2():
    r = group_rep(GF(2), [[[1, 1], [0, 1]], SWAP2])
    elems = group_closure(r, cap=100)
    assert len(elems) == 6  # GL_2(F_2) is S_3
    with pytest.raises(CapExceeded):
        group_closure(r, cap=3)


# The walks that `_orbits` replaced, kept as oracles: the frontier BFS of
# group_closure, the `_subspace_orbit` + `claimed` partition of the
# definition decider, and the `done` marking of the submodule enumeration.
# The definition decider itself, as it was before it moved subspaces by
# index permutations and paired them by a bit test, is the oracle
# `_definition_by_rank_scan`; the Plucker-point permutations that it used
# between the two are the oracle `_plucker_permutations`, and the
# point-mask sums looked up by mask that followed them, before subspaces
# moved by their frames, are the oracle `_permutations_by_masks`.  The loop
# that tested each orbit against one complement mask at a time, before the
# running AND, is the oracle `_definition_by_masks`.


def _closure_by_frontier(r, cap):
    ident = Matrix.identity(r.field, r.dim)
    seen = {ident.rows: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for mat in frontier:
            for g in r.generators:
                prod = mat * g
                if prod.rows not in seen:
                    seen[prod.rows] = prod
                    nxt.append(prod)
                    if len(seen) > cap:
                        raise CapExceeded("group closure exceeded %d" % cap)
        frontier = nxt
    return list(seen.values())


def _apply_to_subspace(g, w):
    return Subspace.from_vectors(
        w.field, w.ambient, [g.apply(v) for v in w.basis_vectors()]
    )


def _subspace_orbit(r, start):
    seen = {start.mat.rows: start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for g in r.generators:
                img = _apply_to_subspace(g, w)
                if img.mat.rows not in seen:
                    seen[img.mat.rows] = img
                    nxt.append(img)
        frontier = nxt
    return list(seen.values())


def _subspace_orbits_by_claiming(r, m):
    orbits = []
    claimed = set()
    for v1 in enumerate_subspaces(r.field, r.dim, m):
        if v1.mat.rows in claimed:
            continue
        orbit = _subspace_orbit(r, v1)
        orbits.append(orbit)
        for w in orbit:
            claimed.add(w.mat.rows)
    return orbits


def _orbits_by_marking(r):
    """(first point, size) of each projective orbit, in the order of the
    first points, by applying each generator to each point."""
    f = r.field
    zero, one = f.zero, f.one
    done = set()
    orbits = []
    for v in projective_coefficients(f, r.dim):
        if v in done:
            continue
        before = len(done)
        orbit = [v]
        while orbit:
            u = orbit.pop()
            for g in r.generators:
                x = g.apply(u)
                lead = next(c for c in x if c != zero)
                if lead != one:
                    x = tuple(f.scale(f.inv(lead), x))
                if x not in done:
                    done.add(x)
                    orbit.append(x)
        orbits.append((v, len(done) - before))
    return orbits


def _walk_spins_by_marking(r):
    """The points a full walk of a module that Norton's test does not
    decide spins: e_1, then the first point of each other orbit of at most
    (q^(n-1) - 1)/(q - 1) points, smallest orbits first."""
    q, n = r.field.order, r.dim
    e1 = unit_vector(r.field, n, 0)
    orbits = sorted(_orbits_by_marking(r), key=lambda orbit: orbit[1])
    return [e1] + [v for v, size in orbits
                   if v != e1 and size <= (q ** (n - 1) - 1) // (q - 1)]


def _definition_by_rank_scan(r, m):
    """The definition decider moving m-subspaces by applying each generator
    to their bases, and testing each pair by the rank of the stacked bases."""
    f, n = r.field, r.dim
    v2_list = list(enumerate_subspaces(f, n, n - m))
    moves = [lambda w, g=g: _apply_to_subspace(g, w) for g in r.generators]
    orbits = repcore._orbits(enumerate_subspaces(f, n, m), moves)
    log = {
        "m_subspaces": gaussian_binomial(n, m, f.order),
        "complement_subspaces": gaussian_binomial(n, n - m, f.order),
        "points": projective_count(f.order, n),
        "orbits": len(orbits),
        "orbit_sizes": sorted(len(o) for o in orbits),
        "pairs_checked": 0,
    }
    for orbit in orbits:
        orbit_rows = [w.mat.rows for w in orbit]
        for v2 in v2_list:
            log["pairs_checked"] += 1
            v2rows = v2.mat.rows
            if not any(rank_of_rows(f, rows + v2rows, n) == n for rows in orbit_rows):
                v1 = min(orbit, key=Subspace.key)
                return Decision(NOT_THICK, "orbits",
                                repcore._certificate_from_pair(r, m, v1, v2), log)
    return Decision(THICK, "orbits", log=log)


def _masks_of(f, n, subspaces):
    """The mask of each subspace: the int with the bits of the projective
    points of k^n it contains set, in `projective_coefficients` order."""
    index = repcore._point_index(f, n)
    return [
        sum(1 << index[tuple(x)] for x in projective_images(Matrix(f, zip(*v.mat.rows))))
        for v in subspaces
    ]


def _definition_by_masks(r, m):
    """The definition decider testing each orbit against one complement
    mask at a time: the first complement whose mask meets every mask of the
    orbit refutes."""
    f, n = r.field, r.dim
    subspaces, _, _, _, complements, _ = _pair_table(f, n, m)
    masks, cmasks = _masks_of(f, n, subspaces), _masks_of(f, n, complements)
    moves = _permutations_by_masks(r, m)
    orbits = repcore._orbits(range(len(subspaces)), [p.__getitem__ for p in moves])
    log = {
        "m_subspaces": len(subspaces),
        "complement_subspaces": len(complements),
        "points": projective_count(f.order, n),
        "orbits": len(orbits),
        "orbit_sizes": sorted(len(o) for o in orbits),
        "pairs_checked": 0,
    }
    for orbit in orbits:
        orbit_masks = [masks[i] for i in orbit]
        for v2, mask2 in zip(complements, cmasks):
            log["pairs_checked"] += 1
            if all(mask1 & mask2 for mask1 in orbit_masks):
                v1 = min((subspaces[i] for i in orbit), key=Subspace.key)
                return Decision(NOT_THICK, "orbits",
                                repcore._certificate_from_pair(r, m, v1, v2), log)
    return Decision(THICK, "orbits", log=log)


def _permutations_by_masks(r, m):
    """Each generator as a permutation of the m-subspaces in
    `enumerate_subspaces` order: V moves to the subspace whose mask has the
    permuted bits of V's points set, looked up in a dict by mask."""
    points = _pair_table(r.field, r.dim, m)[1]
    position = {sum(1 << i for i in pts): i for i, pts in enumerate(points)}
    _, perms = repcore._point_action(r)
    return [
        [position[sum(map(bit.__getitem__, pts))] for pts in points]
        for bit in ([1 << j for j in perm] for perm in perms)
    ]


def _plucker_permutations(r, m):
    """Each generator g as a permutation of the m-subspaces in
    `enumerate_subspaces` order: V moves to the subspace whose Plucker point
    is compound(g, m).p(V), scaled to first nonzero entry 1."""
    f, n = r.field, r.dim
    points = [
        repcore._projective(f, wedge_of_vectors(f, n, v.basis_vectors()).coords)
        for v in enumerate_subspaces(f, n, m)
    ]
    index = {x: i for i, x in enumerate(points)}
    return [
        [index[repcore._projective(f, lift.apply(x))] for x in points]
        for lift in exterior_rep(r, m).generators
    ]


def _agreement_reps(count):
    """The first `count` reps per field of the seed-0 agreement samples."""
    reps = []
    for q in (2, 3):
        field = GF(q)
        rng = random.Random(q)
        for _ in range(count):
            gens = [random_invertible(field, 4, rng) for _ in range(2)]
            reps.append(Representation(field, 4, GROUP, gens))
    return reps


CYC3 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
SWAP3 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
TRANS3 = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]


def test_group_closure_matches_frontier_oracle():
    F4 = GF(2, 2)
    w, one, zero = (0, 1), F4.one, F4.zero
    gl2_f4 = Representation(
        F4, 2, GROUP, [Matrix(F4, [[w, zero], [zero, one]]), Matrix(F4, [[one, one], [one, zero]])]
    )
    groups = (
        (group_rep(GF(2), [[[1, 1], [0, 1]], SWAP2]), 6),
        (group_rep(GF(2), [CYC3, SWAP3, TRANS3]), 168),
        (group_rep(GF(3), [[[1, 1], [0, 1]], SWAP2]), 48),
        (gl2_f4, 180),
        (group_rep(QQ, [CYC3, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]]), 24),
    )
    for r, order in groups:
        elems = group_closure(r, cap=order)
        assert len(elems) == order
        assert elems == _closure_by_frontier(r, order)
        with pytest.raises(CapExceeded):
            group_closure(r, cap=order - 1)
    infinite = group_rep(QQ, [[[1, 1], [0, 1]]])
    for closure in (group_closure, _closure_by_frontier):
        with pytest.raises(CapExceeded):
            closure(infinite, 50)


def test_group_closure_multiplies_no_matrices(monkeypatch):
    r = group_rep(GF(2), [CYC3, SWAP3, TRANS3])
    calls = []
    mul = Matrix.__mul__

    def counting_mul(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    assert len(group_closure(r, cap=168)) == 168
    assert calls == []


def test_definition_orbits_match_claiming_oracle():
    for r in _agreement_reps(20):
        moves = [lambda w, g=g: _apply_to_subspace(g, w) for g in r.generators]
        for m in (1, 2, 3):
            orbits = repcore._orbits(enumerate_subspaces(r.field, 4, m), moves)
            assert orbits == _subspace_orbits_by_claiming(r, m)
            report = is_m_thick_definition(r, m)
            assert report.log["orbits"] == len(orbits)
            if report.verdict == THICK:
                assert report.log["orbit_sizes"] == sorted(len(o) for o in orbits)


def _random_reps(field, n, count, seed):
    """`count` seeded reps, every third with one generator (often reducible)."""
    rng = random.Random(seed)
    return [
        Representation(field, n, GROUP, [
            random_invertible(field, n, rng) for _ in range(1 if i % 3 == 0 else 2)
        ])
        for i in range(count)
    ]


def _definition_cases():
    """Seeded reps over F2, F3, F4 and F5 with n = 3-5, each with its m."""
    cases = [(r, (1, 2, 3)) for r in _agreement_reps(20)]
    cases += [(r, (1, 2, 3)) for r in _random_reps(GF(3), 4, 2, 34)]
    cases += [(r, (1, 2, 3)) for r in _random_reps(GF(2, 2), 4, 3, 44)]
    cases += [(r, (1, 2, 3)) for r in _random_reps(GF(5), 4, 2, 56)]
    cases += [(r, (1, 2)) for r in _random_reps(GF(2), 3, 6, 23)]
    cases += [(r, (1, 2, 3, 4)) for r in _random_reps(GF(2), 5, 3, 25)]
    return cases


def _assert_same_definition_report(r, m, new, old):
    """Equal verdicts, routes, whole logs and certificates (as JSON where the field
    has one)."""
    assert (new.verdict, new.route, new.log) == (old.verdict, old.route, old.log), \
        (r.field, r.dim, m)
    if new.certificate is None:
        assert old.certificate is None
    elif r.field == GF(2, 2):  # no JSON form: compare the fields
        assert new.certificate == old.certificate
    else:
        assert serialize.dumps(
            serialize.certificate_to_json(r, new.certificate)
        ) == serialize.dumps(serialize.certificate_to_json(r, old.certificate))


def test_definition_matches_rank_scan_oracle():
    verdicts = set()
    for r, ms in _definition_cases():
        for m in ms:
            new, old = is_m_thick_definition(r, m), _definition_by_rank_scan(r, m)
            # the memo holds the certificates' lifts, the point action and
            # the subspace orbits that the criterion reads too; no subspace
            # permutations or masks
            assert all(key[0] in ("exterior", "subspace_orbits") or key == ("point_action",)
                       for key in r._memo)
            assert (("subspace_orbits", m) in r._memo) == (new.route == "orbits")
            _assert_same_definition_report(r, m, new, old)
            verdicts.add((r.field, new.verdict))
    for field in (GF(2), GF(3), GF(2, 2), GF(5)):
        assert {(field, THICK), (field, NOT_THICK)} <= verdicts, field


def test_running_and_matches_mask_by_mask_oracle():
    cases = _definition_cases()
    cases += [(r, (1, 2, 3)) for r in _workload_reps("build_fp_random_dim4", 1)[:100]]
    verdicts = set()
    for r, ms in cases:
        for m in ms:
            new = is_m_thick_definition(r, m)
            _assert_same_definition_report(r, m, new, _definition_by_masks(r, m))
            verdicts.add((r.field, new.verdict))
    for field in (GF(2), GF(3), GF(2, 2), GF(5)):
        assert {(field, THICK), (field, NOT_THICK)} <= verdicts, field


def test_one_point_action_per_rep(monkeypatch):
    # a reducible F3 rep, so that all_submodules enumerates its lattice
    gens = [[[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 2, 1]],
            [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]]
    calls = []
    permute = repcore._point_permutations

    def counting_permute(*args):
        calls.append(None)
        return permute(*args)

    monkeypatch.setattr(repcore, "_point_permutations", counting_permute)
    rep = group_rep(GF(3), gens)
    reports = [is_m_thick_definition(rep, m) for m in (1, 2, 3)]
    lattice = all_submodules(rep)
    assert len(calls) == 1 and len(lattice) > 2
    # the memo never changes an answer
    fresh = group_rep(GF(3), gens)
    assert [serialize.dumps(serialize.decision_to_json(rep, x)) for x in reports] == [
        serialize.dumps(serialize.decision_to_json(fresh, is_m_thick_definition(fresh, m)))
        for m in (1, 2, 3)
    ]
    assert all_submodules(fresh) == lattice


def test_subspace_permutations_match_plucker_oracle():
    # every 1 <= m < n; n stops where the Plucker oracle's wedges get slow
    cases = [(r, n) for n in (2, 3, 4, 5) for r in _random_reps(GF(2), n, 3, 20 + n)]
    cases += [(r, n) for n in (2, 3, 4, 5) for r in _random_reps(GF(3), n, 3, 30 + n)]
    cases += [(r, n) for n in (2, 3, 4) for r in _random_reps(GF(2, 2), n, 3, 40 + n)]
    cases += [(r, n) for n in (2, 3, 4) for r in _random_reps(GF(5), n, 3, 50 + n)]
    cases += [(r, n) for n in (2, 3) for r in _random_reps(GF(3, 2), n, 3, 90 + n)]
    cases += [(r, 4) for r in _agreement_reps(10)]
    for r, n in cases:
        for m in range(1, n):
            _, _, frames, incident, _, _ = _pair_table(r.field, n, m)
            moves = _subspace_permutations(r, frames, incident)
            assert moves == _plucker_permutations(r, m), (r.field, n, m)
            assert moves == _permutations_by_masks(r, m), (r.field, n, m)


def test_subspace_permutations_take_the_lowest_common_subspace():
    # with one frame point per plane, many planes contain its image, and
    # the plane chosen is the first of them
    for f in (GF(2), GF(3)):
        r = _random_reps(f, 4, 2, 7)[1]
        _, points, frames, incident, _, _ = _pair_table(f, 4, 2)
        _, perms = repcore._point_action(r)
        moves = _subspace_permutations(r, frames[:1], incident)
        assert moves == [
            [min(j for j, pts in enumerate(points) if perm[p] in pts) for p in frames[0]]
            for perm in perms
        ]
        assert any(len(set(move)) < len(move) for move in moves)


def test_pair_table_through_is_the_complement_test():
    cases = [(GF(q), 4, (1, 2, 3)) for q in (2, 3, 5)]
    cases += [(GF(2, 2), 4, (1, 2, 3)), (GF(2), 5, (2,)), (GF(3, 2), 3, (1, 2))]
    for f, n, ms in cases:
        npoints = projective_count(f.order, n)
        index = repcore._point_index(f, n)
        for m in ms:
            subspaces, points, frames, incident, complements, through = _pair_table(f, n, m)
            assert [v.mat.rows for v in subspaces] == [
                v.mat.rows for v in enumerate_subspaces(f, n, m)
            ]
            assert [v.mat.rows for v in complements] == [
                v.mat.rows for v in enumerate_subspaces(f, n, n - m)
            ]
            masks = _masks_of(f, n, subspaces)
            for i, (pts, mask) in enumerate(zip(points, masks)):
                assert mask == sum(1 << j for j in pts) < 1 << npoints
                assert len(pts) == projective_count(f.order, m)
            # incident is the subspace masks read by point
            assert len(incident) == npoints
            for p, row in enumerate(incident):
                assert row == sum(1 << i for i, mask in enumerate(masks) if mask >> p & 1)
            # frame k of subspace i is its k-th RREF row, and the frame
            # points lie in subspace i alone
            assert len(frames) == m
            for i, v in enumerate(subspaces):
                assert [col[i] for col in frames] == [index[row] for row in v.mat.rows]
                common = -1
                for col in frames:
                    common &= incident[col[i]]
                assert common == 1 << i
            # through is the complement masks read by point
            cmasks = _masks_of(f, n, complements)
            assert len(through) == npoints
            for p, row in enumerate(through):
                assert row == sum(1 << j for j, c in enumerate(cmasks) if c >> p & 1)
            # every pair over F2 and F3, a grid of about 2000 over larger fields
            size = len(subspaces) * len(complements)
            step = 1 if f.order <= 3 else math.ceil((size / 2000) ** 0.5)
            outcomes = set()
            for v1, pts in zip(subspaces[::step], points[::step]):
                meets = 0
                for p in pts:
                    meets |= through[p]
                for j in range(0, len(complements), step):
                    v2 = complements[j]
                    full = rank_of_rows(f, v1.mat.rows + v2.mat.rows, n) == n
                    assert (meets >> j & 1 == 0) == full
                    outcomes.add(full)
            assert outcomes == {True, False}


def test_pair_table_cache_matches_fresh_build():
    for f, n, m in ((GF(2), 4, 2), (GF(3), 4, 1), (GF(2, 2), 3, 2), (GF(2), 5, 3)):
        cached = _pair_table(f, n, m)
        assert _pair_table(f, n, m) is cached
        assert _pair_table.__wrapped__(f, n, m) == cached
    assert _pair_table.cache_info().maxsize is not None


def test_point_index_cache_matches_fresh_build():
    for f, n in ((GF(2), 4), (GF(3), 4), (GF(2, 2), 3), (GF(5), 2), (GF(2), 6)):
        cached = repcore._point_index(f, n)
        assert repcore._point_index(f, n) is cached
        assert repcore._point_index.__wrapped__(f, n) == cached
        assert list(cached) == list(projective_coefficients(f, n))
    assert repcore._point_index.cache_info().maxsize is not None


def test_definition_computes_no_ranks(monkeypatch):
    # ranks computed while building a certificate are not counted
    calls = []
    rank, certify = linalg.rank_of_rows, repcore._certificate_from_pair

    def counting_rank(*args):
        calls.append(None)
        return rank(*args)

    def uncounted_certify(*args):
        before = len(calls)
        cert = certify(*args)
        del calls[before:]
        return cert

    reps = _agreement_reps(5)
    monkeypatch.setattr(linalg, "rank_of_rows", counting_rank)
    monkeypatch.setattr(repcore, "_certificate_from_pair", uncounted_certify)
    _pair_table.cache_clear()
    verdicts = []
    for r in reps:
        for m in (1, 2, 3):
            verdicts.append(is_m_thick_definition(r, m).verdict)
    assert calls == []
    assert THICK in verdicts and NOT_THICK in verdicts


def test_all_submodules_swap_f2():
    r = group_rep(GF(2), [SWAP2])
    subs = all_submodules(r)
    assert [s.dim for s in subs] == [0, 1, 2]
    assert subs[1] == Subspace.from_vectors(GF(2), 2, [(1, 1)])


def test_all_submodules_irreducible():
    r = group_rep(GF(2), [[[1, 1], [0, 1]], SWAP2])
    subs = all_submodules(r)
    assert [s.dim for s in subs] == [0, 2]
    # the point cap is checked before Norton's test could decide the module
    with pytest.raises(CapExceeded):
        all_submodules(r, Caps(submodule_points_cap=2))


def test_all_submodules_identity_rep():
    r = group_rep(GF(2), [[[1, 0], [0, 1]]])
    subs = all_submodules(r)
    assert len(subs) == 5  # 0, three lines, full


def test_all_submodules_invariant_and_closed():
    rng = random.Random(8)
    for _ in range(5):
        gens = [random_invertible(GF(3), 3, rng) for _ in range(2)]
        r = Representation(GF(3), 3, GROUP, gens)
        subs = all_submodules(r)
        keys = {s.mat.rows for s in subs}
        for s in subs:
            assert is_invariant(r, s)
            for t in subs:
                assert s.sum(t).mat.rows in keys
                # the meet is the kernel of both annihilators' rows
                rows = s.annihilator().mat.rows + t.annihilator().mat.rows
                assert kernel_of_rows(GF(3), rows, 3).mat.rows in keys


def _brute_force_lattice(r):
    """The oracle: spin every projective point (every submodule is a sum of
    cyclic ones), then close under pairwise sums until nothing is new."""
    f, n = r.field, r.dim
    zero = Subspace.zero(f, n)
    subs = {zero.mat.rows: zero}
    for v in projective_coefficients(f, n):
        w = spin(r, [v])
        subs.setdefault(w.mat.rows, w)
    frontier = list(subs.values())
    while frontier:
        allsubs = list(subs.values())
        added = []
        for a in frontier:
            for b in allsubs:
                s = a.sum(b)
                if s.mat.rows not in subs:
                    subs[s.mat.rows] = s
                    added.append(s)
        frontier = added
    return sorted(subs.values(), key=Subspace.key)


def _lattice_oracle(r, caps):
    """The lattice as the join closure of every cyclic submodule, built
    whole: spin the first point of each projective orbit, then add the
    spins one at a time in key order, each summed with every element
    before it (when L contains 0 and is closed under sums, L u {X + C :
    X in L} is the closure of L u {C}).  Raises CapExceeded as soon as it
    has more than `lattice_cap` elements."""
    f, n = r.field, r.dim
    index, perms = (repcore._point_action(r) if r.mode == GROUP
                    else (repcore._point_index(f, n), ()))
    points = list(index)
    cyclic = {}
    for orbit in repcore._orbits(range(len(points)), [p.__getitem__ for p in perms]):
        w = spin(r, [points[orbit[0]]])
        cyclic.setdefault(w.mat.rows, w)
    bottom = Subspace.zero(f, n)
    lattice = {bottom.key(): bottom}
    for c in sorted(cyclic.values(), key=Subspace.key):
        c_key = c.key()
        if c_key in lattice:
            continue
        for x in list(lattice.values()):
            s = x.sum(c)
            if s is not x:
                lattice.setdefault(c_key if s is c else s.key(), s)
                if len(lattice) > caps.lattice_cap:
                    raise CapExceeded("submodule lattice exceeded cap")
    return [lattice[key] for key in sorted(lattice)]


def _lattice_against_oracle(r):
    """Check all_submodules and the whole-lattice oracle against the
    brute-force lattice, and check that Norton's test proves exactly the
    absolutely irreducible modules (its fixed seed decides every module
    used below).  Returns the lattice."""
    subs = _brute_force_lattice(r)
    assert all_submodules(r) == subs
    assert _lattice_oracle(r, Caps()) == subs
    outcome = _norton_irreducible(r)
    assert (outcome is not None and outcome.verdict == YES) == (burnside_dim(r) == r.dim ** 2)
    return subs


def test_all_submodules_matches_oracle_on_agreement_samples():
    lattice_sizes = []
    for r in _agreement_reps(20):
        for m in (1, 2, 3):
            lattice_sizes.append(len(_lattice_against_oracle(exterior_rep(r, m))))
    assert lattice_sizes.count(2) > 0
    assert len(lattice_sizes) - lattice_sizes.count(2) > 0


def test_all_submodules_matches_oracle_over_gf4():
    F4 = GF(2, 2)
    rng = random.Random(404)
    reps = [
        Representation(F4, 3, GROUP, [random_invertible(F4, 3, rng) for _ in range(2)])
        for _ in range(3)
    ]
    one, zero = F4.one, F4.zero
    w = next(x for x in F4.elements() if x not in (zero, one))
    upper = Matrix(F4, [[w, one, zero], [zero, one, w], [zero, zero, one]])
    reps.append(Representation(F4, 3, GROUP, [upper]))
    sizes = [len(_lattice_against_oracle(exterior_rep(r, m))) for r in reps for m in (1, 2)]
    assert 2 in sizes and max(sizes) > 2


def test_all_submodules_matches_oracle_lie_mode():
    sl3 = Representation(GF(5), 3, LIE, lie_generators("sl", 3, GF(5)))
    so4 = Representation(GF(3), 4, LIE, lie_generators("so_split", 4, GF(3)))
    assert len(_lattice_against_oracle(exterior_rep(sl3, 1))) == 2
    assert len(_lattice_against_oracle(exterior_rep(sl3, 2))) == 2
    assert len(_lattice_against_oracle(exterior_rep(so4, 2))) > 2


def test_all_submodules_not_absolutely_irreducible_falls_through():
    # charpoly x^2 + x + 1 is irreducible over F_2: the module is
    # irreducible, but splits over F_4, so Norton's test cannot decide it
    r = group_rep(GF(2), [[[0, 1], [1, 1]]])
    assert burnside_dim(r) == 2
    assert [s.dim for s in _lattice_against_oracle(r)] == [0, 2]


def _counted_spins(monkeypatch):
    """Wrap `repcore.spin` so that it records its seeds; returns the list."""
    spins = []

    def counting_spin(rep, seeds):
        spins.append(seeds)
        return spin(rep, seeds)

    monkeypatch.setattr(repcore, "spin", counting_spin)
    return spins


def test_submodules_one_spin_per_projective_orbit(monkeypatch):
    # diag(1, 1, 2, 2) over F5: every submodule is U + W with U, W inside the
    # two eigenplanes, so 8 * 8 = 64 of them; a point with both parts
    # nonzero has a projective orbit of size 4, the order of 2 in F5*
    r = group_rep(GF(5), [DIAG_1122])
    spins = _counted_spins(monkeypatch)
    subs = all_submodules(r)
    # 6 + 6 points inside the eigenplanes, 144 / 4 mixed orbits, all of at
    # most 31 = (5^3 - 1)/4 points
    assert len(spins) == 48 < projective_count(5, 4) == 156
    assert [v for seeds in spins for v in seeds] == _walk_spins_by_marking(r)
    monkeypatch.undo()
    assert len(subs) == 64
    assert subs == _brute_force_lattice(r)


def test_submodules_spin_the_points_of_orbit_marking(monkeypatch):
    F4 = GF(2, 2)
    reps = [exterior_rep(r, m) for r in _agreement_reps(4) for m in (1, 2)]
    reps += _random_reps(GF(5), 3, 3, 53) + _random_reps(F4, 3, 3, 43)
    reps += [exterior_rep(r, 2) for r in _random_reps(F4, 3, 2, 42)]
    reps.append(group_rep(GF(5), [DIAG_1122]))
    for r in reps:
        repcore._norton(r)  # its own spins are not the lattice's
    spins = _counted_spins(monkeypatch)
    walked = collections.Counter()
    for r in reps:
        spins.clear()
        subs = all_submodules(r)
        spun = [v for seeds in spins for v in seeds]
        decided = getattr(repcore._norton(r), "verdict", NO) == YES
        # an absolutely irreducible module spins e_1 alone
        assert spun == ([unit_vector(r.field, r.dim, 0)] if decided
                        else _walk_spins_by_marking(r))
        walked[len(subs) > 2, decided] += 1
    assert walked[True, False] and walked[False, True] and walked[False, False], walked


def test_submodules_lattice_cap_is_exact():
    # a uniserial module: its 4 submodules are all cyclic, so no sum is new
    jordan = group_rep(GF(3), [[[1, 1, 0], [0, 1, 1], [0, 0, 1]]])
    diag = group_rep(GF(5), [DIAG_1122])
    irreducible = group_rep(GF(2), [[[1, 1], [0, 1]], SWAP2])
    for r, size in ((jordan, 4), (diag, 64), (irreducible, 2)):
        assert len(all_submodules(r, Caps(lattice_cap=size))) == size
        with pytest.raises(CapExceeded):
            all_submodules(r, Caps(lattice_cap=size - 1))


def _walk_modules():
    """Seeded modules over F2, F3, GF(4), F5 and F7, in group and Lie mode:
    random, block-triangular and repeated-eigenvalue ones with Lambda^2 of
    the first two in dimension 4 over F2 and F3, and irreducible modules
    that are not absolutely irreducible."""
    rng = random.Random(3434)
    modules = []
    for field in (GF(2), GF(3), GF(2, 2), GF(5), GF(7)):
        units = [x for x in field.elements() if x != field.zero]
        for n in (2, 3, 4):
            if field.order ** n > 2401:
                continue
            k = rng.randrange(1, n)
            p = random_invertible(field, n, rng)
            a, b = rng.sample(units, 2) if len(units) > 1 else units * 2
            repeated = p * Matrix.diagonal(field, [a] * k + [b] * (n - k)) * p.inverse()
            square = Matrix(field, [[field.random(rng) for _ in range(n)] for _ in range(n)])
            reps = [
                Representation(field, n, GROUP, [random_invertible(field, n, rng)
                                                 for _ in range(2)]),
                Representation(field, n, GROUP, [_block_triangular(field, n, k, rng)
                                                 for _ in range(2)]),
                Representation(field, n, GROUP, [repeated]),
                Representation(field, n, LIE, [square]),
                Representation(field, n, LIE, [repeated, _block_triangular(field, n, k, rng)]),
            ]
            modules += reps
            if n == 4 and field.order <= 3:
                modules += [exterior_rep(r, 2) for r in reps[:2]]
    # x^2 + x + 1 over F2, x^2 + 1 over F3 and F7, x^2 - 2 over F5 and
    # x^4 + x + 1 over F2 are irreducible: each companion matrix acts
    # irreducibly, and absolutely irreducibly on no module past a line
    modules += [group_rep(GF(2), [[[0, 1], [1, 1]]]), group_rep(GF(3), [ROT]),
                group_rep(GF(7), [ROT]), group_rep(GF(5), [[[0, 2], [1, 0]]]),
                group_rep(GF(2), [[[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]])]
    return modules


def test_the_walk_matches_the_whole_lattice_oracle(monkeypatch):
    # the same lattice in the same order, or CapExceeded on both sides,
    # under three caps; with the default caps all_submodules never sums
    # more
    sums = collections.Counter()
    side = []
    original = Subspace.sum

    def counting_sum(self, other):
        sums[side[-1]] += 1
        return original(self, other)

    monkeypatch.setattr(Subspace, "sum", counting_sum)
    sizes = collections.Counter()
    fewer = 0
    for r in _walk_modules():
        for caps in (Caps(), Caps(lattice_cap=3), Caps(lattice_cap=1)):
            fresh = Representation(r.field, r.dim, r.mode, r.generators, _lifted=True)
            sums.clear()
            side.append("oracle")
            try:
                expect = _lattice_oracle(fresh, caps)
            except CapExceeded:
                expect = "cap"
            side.append("walk")
            try:
                got = all_submodules(fresh, caps)
            except CapExceeded:
                got = "cap"
            assert got == expect, (r.field, r.dim, r.mode, caps.lattice_cap)
            if caps == Caps():
                assert sums["walk"] <= sums["oracle"], (r.field, r.dim, r.mode)
                fewer += sums["walk"] < sums["oracle"]
                sizes[r.mode, len(got) == 2] += 1
    assert fewer and all(sizes[mode, irr] for mode in (GROUP, LIE) for irr in (True, False)), sizes


def test_the_walk_reads_only_the_prefix_it_needs(monkeypatch):
    # diag(1, 1, 2, 2) over F5: the criterion refutes m = 1 from the spins
    # of lines and reads no lattice.  Without Norton's witness, non-absolute
    # denseness spins the orbits of one point, the 12 eigenplane points,
    # and stops at the first orbit of 4 points, more than the one point of
    # its least spin, the line <e1>; no lattice is built
    r = group_rep(GF(5), [DIAG_1122])
    report = is_m_thick_criterion(r, 1)
    assert (report.verdict, report.route) == (NOT_THICK, "spin")
    assert not any(key[0] == "lattice" for key in r._memo)
    monkeypatch.setattr(repcore, "_norton", lambda rep: None)
    spins = _counted_spins(monkeypatch)
    dense = repcore.decide_m_dense(r, 1, absolute=False)
    assert (dense.verdict, dense.route, dense.log) == (NO, "lattice", {"spins": 12})
    assert len(spins) == 12
    assert not any(key[0] == "lattice" for key in r._memo)
    # all_submodules builds the whole lattice, spinning no orbit twice,
    # and a second call spins nothing
    spins.clear()
    lattice = all_submodules(r)
    assert len(lattice) == 64 and dense.certificate == lattice[1]
    assert [v for seeds in spins for v in seeds] == _walk_spins_by_marking(r)
    spins.clear()
    assert all_submodules(r) == lattice and spins == []
    # denseness reads no lattice_cap: caps far below the 64 elements of the
    # lattice leave its answer and its witness unchanged
    for cap in (13, 12):
        capped = repcore.decide_m_dense(group_rep(GF(5), [DIAG_1122]), 1, absolute=False,
                                        caps=Caps(lattice_cap=cap))
        assert (capped.verdict, capped.route, capped.certificate) == (NO, "lattice", lattice[1])


def test_denseness_witness_is_the_least_submodule_of_the_whole_lattice(monkeypatch):
    # without Norton's test, non-absolute denseness answers from orbit
    # spins alone: its witness is the least nonzero element of the
    # brute-force lattice, or the answer is Yes when that lattice is {0, V}
    monkeypatch.setattr(repcore, "_norton", lambda rep: None)
    seen = collections.Counter()
    for r in _walk_modules():
        if r.field.order > 5:
            continue
        lattice = _brute_force_lattice(r)
        dense = repcore.decide_m_dense(r, 1, absolute=False)
        assert dense.route == "lattice" and dense.log["spins"] >= 0
        if len(lattice) == 2:
            assert (dense.verdict, dense.certificate) == (YES, None), (r.field, r.dim, r.mode)
        else:
            assert (dense.verdict, dense.certificate) == (NO, lattice[1]), (r.field, r.dim, r.mode)
        seen[r.field.order, r.mode, dense.verdict] += 1
    assert all(seen[q, mode, NO] for q in (2, 3, 4, 5) for mode in (GROUP, LIE)), seen
    assert all(seen[q, GROUP, YES] for q in (2, 3, 4, 5)), seen
    assert any(seen[q, LIE, YES] for q in (2, 3, 4, 5)), seen


def test_a_walk_that_raised_raises_again_on_every_read(monkeypatch):
    # a spin that fails once ends the build; the error is not memoised, so
    # every later read builds again and raises again while the spin fails,
    # and none reads the dead build as a short lattice
    r = group_rep(GF(3), [DIAG_1122])
    fresh = group_rep(GF(3), [DIAG_1122])
    calls = []

    def failing_spin(rep, seeds):
        calls.append(seeds)
        if len(calls) >= 10:
            raise RuntimeError("spin failed")
        return spin(rep, seeds)

    monkeypatch.setattr(repcore, "spin", failing_spin)
    for _ in range(2):
        with pytest.raises(RuntimeError):
            all_submodules(r)
        assert not any(key[0] == "lattice" for key in r._memo)
    monkeypatch.undo()
    assert len(all_submodules(r)) == len(all_submodules(fresh)) == 36  # 6 * 6: U + W


def test_commutant_absolutely_irreducible():
    dim, basis = commutant(group_rep(QQ, [ROT, [[1, 1], [1, 0]]]))
    assert dim == 1


def test_commutant_identity_rep():
    dim, _ = commutant(group_rep(QQ, [[[1, 0], [0, 1]]]))
    assert dim == 4


def test_commutant_diagonal_reduction_agrees():
    # same answer whether or not a diagonal generator lets us prune
    diag = M(QQ, [[1, 0], [0, 2]])
    other = M(QQ, [[0, 1], [1, 0]])
    dim1, _ = commutant(Representation(QQ, 2, GROUP, [diag, other]))
    # conjugate so nothing is diagonal
    p = M(QQ, [[1, 1], [0, 1]])
    pi = p.inverse()
    dim2, _ = commutant(
        Representation(QQ, 2, GROUP, [pi * diag * p, pi * other * p])
    )
    assert dim1 == dim2 == 1


def _unit_matrices(field, n, positions):
    return [Matrix(field, [[field.one if (i, j) == pos else field.zero for j in range(n)]
                           for i in range(n)]) for pos in positions]


def test_commutant_of_systems_without_equations_and_without_diagonal_generators():
    # only diagonal generators: no equations, so every position whose
    # signatures agree carries one unit matrix, in row-major order
    zero_lie = Representation(QQ, 2, LIE, [Matrix.zero(QQ, 2, 2)])
    all_four = [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert commutant(zero_lie) == (4, _unit_matrices(QQ, 2, all_four))
    diag_112 = group_rep(QQ, [[[1, 0, 0], [0, 1, 0], [0, 0, 2]]])
    assert commutant(diag_112) == (5, _unit_matrices(QQ, 3, all_four + [(2, 2)]))
    # no diagonal generator: the empty signature keeps every position
    expected = {
        "ROT": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]],
        "unipotent": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
        "3-cycle": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                    [[0, 0, 1], [1, 0, 0], [0, 1, 0]]],
    }
    gens = {"ROT": ROT, "unipotent": [[1, 1], [0, 1]],
            "3-cycle": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]}
    for name, g in gens.items():
        basis = [M(QQ, b) for b in expected[name]]
        assert commutant(group_rep(QQ, [g])) == (len(basis), basis), name


def test_isotypic_absolutely_irreducible():
    r = group_rep(QQ, [ROT, [[1, 1], [1, 0]]])
    assert isotypic_decomposition(r) == [Subspace.full(QQ, 2)]


def test_isotypic_irrational_splitting_unknown():
    assert isotypic_decomposition(group_rep(QQ, [ROT])) is None


def test_isotypic_two_blocks():
    a = M(QQ, [[2, 0], [0, 3]])
    r = Representation(QQ, 2, GROUP, [a])
    dec = isotypic_decomposition(r)
    assert dec is not None and sorted(e.dim for e in dec) == [1, 1]


def _isotypic_decomposition_oracle(r, seed=0):
    """The decomposition with every check spelled out: the commutant is
    commutative by all pairwise products, and a seeded element's charpoly
    splits into one root per commutant dimension, each eigenspace of the
    root's multiplicity."""
    f = r.field
    n = r.dim
    cdim, cbasis = commutant(r)
    if cdim == 1:
        return [Subspace.full(f, n)]
    for i in range(cdim):
        for j in range(i + 1, cdim):
            if cbasis[i] * cbasis[j] != cbasis[j] * cbasis[i]:
                return None
    rng = random.Random(seed)
    for _ in range(repcore._ISOTYPIC_TRIES):
        elem = Matrix.zero(f, n, n)
        for b in cbasis:
            elem = elem + b.scale(f.random(rng))
        cp = charpoly(elem)
        roots = poly_roots(cp)
        if sum(mult for _, mult in roots) != cp.degree or len(roots) != cdim:
            continue
        eig = []
        ok = True
        for a, mult in roots:
            space = kernel(elem - Matrix.identity(f, n).scale(a))
            if space.dim != mult:
                ok = False
                break
            eig.append(space)
        if ok and sum(e.dim for e in eig) == n:
            return sorted(eig, key=Subspace.key)
    return None


def _block_diagonal(field, blocks):
    n = sum(b.nrows for b in blocks)
    rows, at = [], 0
    for b in blocks:
        rows += [[field.zero] * at + list(row) + [field.zero] * (n - at - b.nrows)
                 for row in b.rows]
        at += b.nrows
    return Matrix(field, rows)


def _isotypic_modules():
    """The split Lie reps over Q, F5, F7 and F11 with every Lambda^m, and
    seeded two-generator block-diagonal group reps over Q, F3, F5 and F7
    with distinct or repeated blocks, with their Lambda^2."""
    modules = []
    for field in (QQ, GF(5), GF(7), GF(11)):
        for family, n in (("so_split", 4), ("so_split", 5), ("sp", 2), ("sl", 3), ("sl", 4)):
            gens = lie_generators(family, n, field)
            r = Representation(field, gens[0].nrows, LIE, gens)
            modules += [exterior_rep(r, m) for m in range(1, r.dim)]
    rng = random.Random(33)
    for field in (QQ, GF(3), GF(5), GF(7)):
        for sizes in ((1, 1), (1, 2), (2, 2), (1, 1, 2), (1, 3)):
            for repeated in (False, True):
                gens = []
                for _ in range(2):
                    blocks = [random_invertible(field, k, rng) for k in sizes]
                    if repeated and sizes[0] == sizes[1]:
                        blocks[1] = blocks[0]
                    gens.append(_block_diagonal(field, blocks))
                r = Representation(field, gens[0].nrows, GROUP, gens)
                modules += [r, exterior_rep(r, 2)]
    return modules


def test_isotypic_decomposition_matches_the_oracle():
    modules = [r for rs in _decider_cases().values() for r in rs] + _isotypic_modules()
    # the zero module has an empty commutant and no summand
    modules.append(Representation(QQ, 0, GROUP, [Matrix(QQ, [])]))
    outcomes = collections.Counter()
    for r in modules:
        for seed in (0, 1):
            dec = isotypic_decomposition(r, seed)
            assert dec == _isotypic_decomposition_oracle(r, seed)
            outcomes[commutant(r)[0] > 1, dec is not None] += 1
    # both verdicts occur on modules with a commutant past the scalars
    assert outcomes[True, True] > 50 and outcomes[True, False] > 50, outcomes


def test_a_commutant_that_does_not_commute_is_refused_before_any_charpoly(monkeypatch):
    # 2.I on Q^2 commutes with all of M_2; the first draw does not commute
    # with the first basis matrix, which ends the search with no charpoly
    calls = collections.Counter()

    def counted(m):
        calls["charpoly"] += 1
        return charpoly(m)

    monkeypatch.setattr(repcore, "charpoly", counted)
    for seed in (0, 1):
        assert isotypic_decomposition(group_rep(QQ, [[[2, 0], [0, 2]]]), seed) is None
    assert calls["charpoly"] == 0


def test_a_try_with_a_repeated_eigenvalue_fails_and_the_next_splits():
    # diag(1, 2) over F3: the commutant is the diagonal matrices (c = 2),
    # and the first seed-0 draw is the identity, one eigenvalue whose
    # eigenspace is the whole module; the second draw splits it into lines
    F = GF(3)
    r = group_rep(F, [[[1, 0], [0, 2]]])
    rng = random.Random(0)
    first = [F.random(rng) for _ in range(2)]
    assert commutant(r)[0] == 2 and first[0] == first[1]
    lines = [Subspace.from_vectors(F, 2, [unit_vector(F, 2, i)]) for i in (0, 1)]
    assert isotypic_decomposition(r, 0) == sorted(lines, key=Subspace.key)


def test_restrict_to_invariant():
    r = group_rep(QQ, [[[2, 1], [0, 3]]])
    w = Subspace.from_vectors(QQ, 2, [(1, 0)])
    sub = restrict_to_invariant(r, w)
    assert sub.generators[0] == M(QQ, [[2]])


def test_is_m_dense_trivial_degrees():
    r = group_rep(QQ, [ROT])
    assert is_m_dense(r, 0) == "Yes"
    assert is_m_dense(r, 2) == "Yes"


def test_is_m_dense_finite_non_absolute():
    r = group_rep(GF(2), [[[1, 1], [0, 1]], SWAP2])
    assert is_m_dense(r, 1, absolute=False) == "Yes"
    red = group_rep(GF(2), [[[1, 1], [0, 1]]])
    assert is_m_dense(red, 1, absolute=False) == "No"
    # the quarter turn is irreducible over F3 but not absolutely (x^2 + 1
    # splits over F9), so Norton proves nothing and the route "lattice"
    # decides.  Its two projective orbits have two points each, more than a
    # line, so no point is spun; it reads no lattice_cap, and a cap of 1
    # leaves the answer Yes
    quarter = group_rep(GF(3), [ROT])
    assert is_m_dense(quarter, 1, absolute=False) == "Yes"
    capped = repcore.decide_m_dense(quarter, 1, absolute=False, caps=Caps(lattice_cap=1))
    assert (capped.verdict, capped.route, capped.certificate, capped.log, capped.reason) == (
        YES, "lattice", None, {"spins": 0}, "")


def test_gaussian_binomial():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130


def test_enumerate_subspaces_counts_and_canonical():
    for q, n, k in ((2, 4, 2), (3, 3, 1), (2, 3, 2)):
        subs = list(enumerate_subspaces(GF(q), n, k))
        assert len(subs) == gaussian_binomial(n, k, q)
        assert len({s.mat.rows for s in subs}) == len(subs)
        for s in subs:
            redone = Subspace.from_vectors(GF(q), n, s.basis_vectors())
            assert redone == s
    first = next(iter(enumerate_subspaces(GF(2), 4, 2)))
    assert first == Subspace.from_vectors(GF(2), 4, [(1, 0, 0, 0), (0, 1, 0, 0)])


def test_enumerate_subspaces_of_dimension_zero_is_the_zero_subspace():
    for field in (GF(2), GF(3), GF(2, 2)):
        for n in range(5):
            subs = list(enumerate_subspaces(field, n, 0))
            assert subs == [Subspace.zero(field, n)]
            assert subs[0].pivots == ()


def test_definition_thick_gl2_f2():
    r = group_rep(GF(2), [[[1, 1], [0, 1]], SWAP2])
    rep = is_m_thick_definition(r, 1)
    assert rep.verdict == THICK


def test_definition_not_thick_reducible():
    r = group_rep(GF(2), [[[1, 1], [0, 1]]])
    rep = is_m_thick_definition(r, 1)
    assert rep.verdict == NOT_THICK
    assert verify_not_thick_certificate(r, rep.certificate)


def test_definition_trivial_m():
    r = group_rep(GF(2), [SWAP2])
    assert is_m_thick_definition(r, 0).verdict == THICK
    assert is_m_thick_definition(r, 2).verdict == THICK


def test_definition_pair_cap():
    r = group_rep(GF(3), [SWAP2])
    caps = Caps()
    caps.pair_cap = 2
    with pytest.raises(CapExceeded):
        is_m_thick_definition(r, 1, caps)


def test_criterion_thick_gl2_f3():
    r = group_rep(GF(3), [[[1, 1], [0, 1]], [[0, 1], [1, 0]]])
    rep = is_m_thick_criterion(r, 1)
    assert rep.verdict == THICK
    assert rep.verdict == is_m_thick_definition(r, 1).verdict


def test_criterion_not_thick_reducible():
    r = group_rep(GF(2), [[[1, 1], [0, 1]]])
    rep = is_m_thick_criterion(r, 1)
    assert rep.verdict == NOT_THICK
    assert verify_not_thick_certificate(r, rep.certificate)


def test_criterion_spin_route_witness_is_candidate_annihilator():
    # a tiny submodule points cap forces the spin route; its W1 witness is
    # the candidate V1, which is the annihilator of its own wedge
    rng = random.Random(31)
    field = GF(3)
    caps = Caps(submodule_points_cap=3)
    refuted = 0
    for _ in range(4):
        gens = []
        for _ in range(2):
            a, c = (random_invertible(field, 2, rng) for _ in range(2))
            b = [[field.random(rng) for _ in range(2)] for _ in range(2)]
            gens.append(Matrix(field, [
                list(a.rows[0]) + b[0], list(a.rows[1]) + b[1],
                [0, 0] + list(c.rows[0]), [0, 0] + list(c.rows[1]),
            ]))
        r = Representation(field, 4, GROUP, gens)
        for m in (1, 2, 3):
            rep = is_m_thick_criterion(r, m, caps)
            assert rep.route == "spin"
            assert rep.verdict == NOT_THICK
            cert = rep.certificate
            ok, ann = is_decomposable(wedge_of_vectors(field, 4, cert.witness1))
            assert ok and tuple(ann) == cert.witness1
            assert verify_not_thick_certificate(r, cert)
            refuted += 1
    assert refuted == 12


CRITERION_ROUTES = [
    ({}, THICK, {"candidates": 2, "pairs_tested": 1}, ""),
    # past the candidate cap, P(Lambda^2) (63 points) is within the
    # submodule points cap, so the orbit search is still complete
    ({"candidate_cap": 20}, THICK, {"candidates": 2, "pairs_tested": 1}, ""),
    ({"points_cap": 2}, UNKNOWN, {"candidates": 2, "pairs_tested": 1},
     "1 perps with undecided realizability"),
    # past both caps the first 20 planes are spun, with no orbit computed
    ({"submodule_points_cap": 3, "candidate_cap": 20}, UNKNOWN,
     {"candidates": 21, "pairs_tested": 1}, "candidate search not exhaustive"),
    # within the candidate cap (35 planes) past the points cap
    ({"submodule_points_cap": 3}, THICK, {"candidates": 2, "pairs_tested": 1}, ""),
    ({"lattice_cap": 1}, THICK, {"candidates": 2, "pairs_tested": 1}, ""),
]


@pytest.mark.parametrize("caps, verdict, log, reason", CRITERION_ROUTES)
def test_criterion_routes_and_reasons(caps, verdict, log, reason):
    # one rep over F2, m = 2, whose Lambda^2 is reducible: the 35 planes
    # fall into two orbits, one spin each, unless both caps rule out a
    # complete search; the lattice cap is not read
    rng = random.Random(100)
    gens = [random_invertible(GF(2), 4, rng) for _ in range(2)]
    r = Representation(GF(2), 4, GROUP, gens)
    rep = is_m_thick_criterion(r, 2, Caps(**caps))
    assert (rep.verdict, rep.route, rep.log, rep.reason) == (verdict, "spin", log, reason)
    assert rep.certificate is None
    assert (("subspace_orbits", 2) in r._memo) == (reason != "candidate search not exhaustive")


@pytest.mark.parametrize("family, n, verdict", [("sp", 2, THICK), ("so_split", 4, NOT_THICK)])
def test_criterion_isotypic_route(family, n, verdict):
    gens = lie_generators(family, n)
    r = Representation(QQ, gens[0].nrows, LIE, gens)
    rep = is_m_thick_criterion(r, 2)
    # both proper sums are tested for sp; so_split is refuted by the first,
    # the second of its four sums walked
    tested, walked = (2, 4) if verdict == THICK else (1, 2)
    assert (rep.verdict, rep.route, rep.log, rep.reason) == (
        verdict, "isotypic", {"submodules": walked, "pairs_tested": tested}, ""
    )
    assert (rep.certificate is not None) == (verdict == NOT_THICK)
    if rep.certificate is not None:
        assert verify_not_thick_certificate(r, rep.certificate)


def _criterion_reference(r, m, caps, seed=0):
    """The criterion's pair loop as it was before W1 = 0 and W1 = Lambda^m
    were skipped: every candidate goes through `realizable_search` and
    `perp`.  Over a finite field it spins every m-subspace, with no orbit
    and no Norton test, and is complete in the two regimes in which the
    criterion is: at most `candidate_cap` m-subspaces, or at most
    `submodule_points_cap` points of P(Lambda^m).  Returns (verdict,
    reason, certificate, route, log)."""
    f, n = r.field, r.dim
    ext = exterior_rep(r, m)
    subs = None if f.finite else repcore._isotypic_sums(ext, caps, seed)
    if subs is not None:
        route = "isotypic"
        log = {"submodules": len(subs)}
        candidates = ((w1, None) for w1 in subs)
        complete = True
    else:
        route = "spin"
        log = {"candidates": 0}
        if f.finite:
            complete = (gaussian_binomial(n, m, f.order) <= caps.candidate_cap
                        or projective_count(f.order, ext.dim) <= caps.submodule_points_cap)
            subspaces = enumerate_subspaces(f, n, m)
        else:
            complete = False
            subspaces = repcore._rational_candidate_subspaces(f, n, m, caps, seed)

        def every_spin():
            seen = set()
            for v1 in subspaces:
                log["candidates"] += 1
                if not complete and log["candidates"] > caps.candidate_cap:
                    return
                w1 = spin(ext, [wedge_of_vectors(f, n, v1.basis_vectors()).coords])
                if w1 not in seen:
                    seen.add(w1)
                    yield w1, v1.basis_vectors()

        candidates = every_spin()

    def search(w, k):
        return realizable_search(w, n, k, points_cap=caps.points_cap, seed=seed,
                                 rational_trials=caps.rational_trials)

    unresolved = 0
    for w1, witness1 in candidates:
        if witness1 is None:
            r1 = search(w1, m)
            if r1.status == "NotRealizable":
                continue
            witness1 = r1.witness_vectors
        w2 = perp(w1, n, m)
        r2 = search(w2, n - m)
        if witness1 is not None and r2.status == "Realizable":
            cert = repcore.NotThickCertificate(
                field=f, n=n, m=m, w1=w1, w2=w2,
                witness1=tuple(witness1), witness2=tuple(r2.witness_vectors),
            )
            return NOT_THICK, "", cert, route, log
        if r2.status != "NotRealizable":
            unresolved += 1
    if not complete:
        return UNKNOWN, "candidate search not exhaustive", None, route, log
    if unresolved:
        return UNKNOWN, "%d %s with undecided realizability" % (
            unresolved, "perps" if route == "spin" else "invariant pairs"
        ), None, route, log
    return THICK, "", None, route, log


def _q_reps():
    def lie(family, n):
        gens = lie_generators(family, n)
        return Representation(QQ, gens[0].nrows, LIE, gens)

    reps = [lie("so_split", 4), lie("so_split", 5), lie("sp", 2), lie("sl", 3), lie("sl", 4)]
    for n, a, b in ((4, 2, 3), (4, -1, 5), (5, 2, 3)):
        reps.append(companion_pair(QQ, n, Fraction(a), Fraction(b)).rep)
    rng = random.Random(17)
    for n in (3, 3, 3, 4, 4):
        gens = []
        while len(gens) < 2:
            g = M(QQ, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if g.is_invertible():
                gens.append(g)
        reps.append(Representation(QQ, n, GROUP, gens))
    return reps


ORACLE_SETS = {  # name: (reps, caps common to the set)
    "agreement": (lambda: _agreement_reps(25), {}),
    "gf4": (lambda: _random_reps(GF(2, 2), 4, 2, 44), {}),
    # fewer seeded candidates keep the spin route over Q short
    "rationals": (_q_reps, {"rational_trials": 40}),
}


@pytest.mark.parametrize("caps", [{}, {"lattice_cap": 3}, {"lattice_cap": 1}])
@pytest.mark.parametrize("name", sorted(ORACLE_SETS))
def test_criterion_skip_matches_reference_loop(name, caps):
    # skipping W1 = 0 and W1 = Lambda^m, Norton's test on Lambda^m and one
    # spin per orbit of m-subspaces change no verdict.  On the spin and
    # isotypic routes they change no reason, certificate or other log key:
    # the first spin that refutes comes from the first m-subspace of its
    # orbit, and `candidates` counts at most the m-subspaces.  `submodules`,
    # the isotypic sums walked, is all of them but for a NotThick, where it
    # may be less.  A dense Lambda^m is one the reference spins whole from
    # every m-subspace.  Over a finite field the lattice cap changes no
    # decision
    build, common = ORACLE_SETS[name]
    caps = Caps(**common, **caps)
    verdicts = collections.Counter()
    for r in build():
        for m in range(1, r.dim):
            rep = is_m_thick_criterion(r, m, caps)
            verdict, reason, cert, route, log = _criterion_reference(r, m, caps)
            assert rep.verdict == verdict
            verdicts[verdict, rep.route] += 1
            if r.field.finite:
                assert rep == is_m_thick_criterion(r, m, Caps(**common))
            if rep.route == "dense":
                assert (rep.log, verdict, route) == ({"pairs_tested": 0}, THICK, "spin")
                assert reason == "" and log["candidates"] >= 1
                continue
            tested = rep.log.pop("pairs_tested")
            walked = rep.log.pop("submodules", None)
            total = log.get("submodules", log.get("candidates"))
            if walked is not None:
                assert walked <= total if verdict == NOT_THICK else walked == total
                rep.log["submodules"], total = total, walked
            else:
                assert rep.log["candidates"] <= total
                rep.log["candidates"] = total
            assert (rep.verdict, rep.reason, rep.certificate, rep.route, rep.log) == (
                verdict, reason, cert, route, log
            )
            assert 0 <= tested <= total
    assert len({verdict for verdict, _ in verdicts}) >= 2, verdicts
    if name != "rationals":
        assert {route for _, route in verdicts} == {"dense", "spin"}, verdicts


def _so5():
    return Representation(QQ, 5, LIE, lie_generators("so_split", 5))


def _irreducible_f3_dim4():
    rng = random.Random(3)
    return Representation(GF(3), 4, GROUP, [random_invertible(GF(3), 4, rng) for _ in range(2)])


@pytest.mark.parametrize("build, m", [(_so5, 1), (_irreducible_f3_dim4, 2)])
def test_criterion_tests_no_pair_of_an_irreducible_lift(build, m, monkeypatch):
    # the lattice of Lambda^m is {0, Lambda^m}: no realizability search, no
    # perp.  Over Q the isotypic sums are those two; over F3 Norton's test
    # proves Lambda^2 irreducible, and no m-subspace is spun
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("realizable_search", "perp"):
        monkeypatch.setattr(repcore, name, counting(getattr(repcore, name)))
    r = build()
    if r.field.finite:
        route, log = "dense", {"pairs_tested": 0}
    else:
        route, log = "isotypic", {"submodules": 2, "pairs_tested": 0}
    rep = is_m_thick_criterion(r, m)
    assert (rep.verdict, rep.route, rep.log, rep.certificate, calls) == (
        THICK, route, log, None, [])
    assert ("subspace_orbits", m) not in r._memo
    # the counters see the calls of a reducible module's pair
    rep = is_m_thick_criterion(group_rep(GF(2), [[[1, 1], [0, 1]]]), 1)
    assert (rep.verdict, rep.log["pairs_tested"]) == (NOT_THICK, 1)
    assert set(calls) == {"realizable_search", "perp"}


def test_criterion_definition_agreement_seeded():
    rng = random.Random(424)
    for q in (2, 3):
        field = GF(q)
        for _ in range(6):
            gens = [random_invertible(field, 3, rng) for _ in range(2)]
            r = Representation(field, 3, GROUP, gens)
            for m in (1, 2):
                a = is_m_thick_criterion(r, m)
                b = is_m_thick_definition(r, m)
                assert a.verdict == b.verdict, (q, m)


def _criterion_oracle():
    """tools/criterion_oracle.py, loaded as a module."""
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "criterion_oracle.py"
    spec = importlib.util.spec_from_file_location("_criterion_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def test_criterion_agrees_with_the_definition_on_a_slice_of_gl4_f2():
    # every 40th one-generator rep of GL4(F2); the whole group runs in CI
    oracle = _criterion_oracle()
    counts, bad = oracle.check(list(oracle.gl4_f2())[::40])
    assert bad == []
    assert counts == {(m, verdict, "spin"): count for m in (1, 2, 3)
                      for verdict, count in ((NOT_THICK, 449), (THICK, 55))}


@pytest.mark.parametrize("family, n, q", [("so_split", 5, 5), ("so_split", 6, 7)])
def test_a_dense_wedge_is_thick_with_no_pair_tested(family, n, q, monkeypatch):
    # Norton's test proves Lambda^2 irreducible, so no m-subspace is spun
    # and no pair is tested; the spin route ended these undecided, past
    # both caps
    F = GF(q)
    r = Representation(F, n, LIE, lie_generators(family, n, F))
    assert gaussian_binomial(n, 2, q) > Caps().candidate_cap
    assert projective_count(q, math.comb(n, 2)) > Caps().submodule_points_cap
    monkeypatch.setattr(repcore, "enumerate_subspaces", None)
    rep = is_m_thick_criterion(r, 2)
    assert (rep.verdict, rep.route, rep.log, rep.certificate, rep.reason) == (
        THICK, "dense", {"pairs_tested": 0}, None, "")
    assert repcore._norton(exterior_rep(r, 2)).verdict == YES


def test_the_lattice_cap_changes_no_criterion_decision_over_a_finite_field():
    caps = Caps(lattice_cap=1)
    reps = _workload_reps("build_fp_random_dim4", 1)[:30] + _agreement_reps(5)
    for r in reps:
        fresh = Representation(r.field, r.dim, r.mode, r.generators)
        for m in range(1, r.dim):
            assert is_m_thick_criterion(r, m, caps) == is_m_thick_criterion(fresh, m)


def test_the_block_rep_criterion_builds_no_orbit_table():
    # F13, n = 4, m = 2: 31110 planes and 402234 points of P(Lambda^2), past
    # both caps, so the first planes are spun and no table is built
    F13 = GF(13)
    r = build_block_rep(2, 2, F13, alphas=(1, 4), betas=(3, 9)).rep
    before = _pair_table.cache_info()
    rep = is_m_thick_criterion(r, 2)
    assert (rep.verdict, rep.route) == (NOT_THICK, "spin")
    assert rep.log == {"candidates": 1, "pairs_tested": 1}
    assert verify_not_thick_certificate(r, rep.certificate)
    assert _pair_table.cache_info() == before
    assert ("subspace_orbits", 2) not in r._memo


def test_the_orbit_table_is_built_within_the_pair_cap_only():
    # x^2 - 11 is irreducible over F1009, so the companion matrix acts
    # irreducibly but not absolutely so, and Norton's test proves nothing.
    # The 1010 lines are within the candidate cap, but 1010 x 1010 line
    # pairs exceed the pair cap that bounds `_pair_table`: every line is
    # spun, with no table built, unless the cap admits the table.  Then no
    # line is spun: g fixes none, so each orbit holds two lines or more,
    # and its spin holds them all, which only the plane does
    F = GF(1009)
    g = M(F, [[0, 11], [1, 0]])
    for caps, candidates in ((Caps(), 1010), (Caps(pair_cap=1010 ** 2), 0)):
        r = Representation(F, 2, GROUP, [g])
        before = _pair_table.cache_info()
        rep = is_m_thick_criterion(r, 1, caps)
        assert (rep.verdict, rep.route, rep.log) == (
            THICK, "spin", {"candidates": candidates, "pairs_tested": 0})
        assert (_pair_table.cache_info() == before) == (candidates == 1010)


def test_sp4_over_f7_is_thick_from_every_plane():
    # 2850 planes exceed the candidate cap, but P(Lambda^2) has 19608 points,
    # within the submodule points cap: in Lie mode every plane is spun
    F7 = GF(7)
    r = Representation(F7, 4, LIE, lie_generators("sp", 2, F7))
    rep = is_m_thick_criterion(r, 2)
    assert (rep.verdict, rep.route, rep.log) == (THICK, "spin", {"candidates": 2850,
                                                              "pairs_tested": 1})


def test_duality_of_verdicts_seeded():
    rng = random.Random(11)
    field = GF(2)
    for _ in range(6):
        gens = [random_invertible(field, 4, rng) for _ in range(2)]
        r = Representation(field, 4, GROUP, gens)
        for m in (1, 2):
            assert (
                is_m_thick_definition(r, m).verdict
                == is_m_thick_definition(r, 4 - m).verdict
            )
            assert (
                is_m_thick_criterion(r, m).verdict
                == is_m_thick_criterion(r, 4 - m).verdict
            )


def test_implication_dense_thick_irreducible_seeded():
    rng = random.Random(5150)
    field = GF(3)
    for _ in range(6):
        gens = [random_invertible(field, 3, rng) for _ in range(2)]
        r = Representation(field, 3, GROUP, gens)
        irreducible = len(all_submodules(r)) == 2
        for m in (1, 2):
            dense = is_m_dense(r, m, absolute=False)
            thick = is_m_thick_definition(r, m).verdict
            if dense == "Yes":
                assert thick == THICK
            if thick == THICK:
                assert irreducible


def test_generator_subset_never_gains_thickness():
    rng = random.Random(77)
    field = GF(2)
    for _ in range(6):
        gens = [random_invertible(field, 3, rng) for _ in range(2)]
        full = Representation(field, 3, GROUP, gens)
        part = Representation(field, 3, GROUP, gens[:1])
        for m in (1, 2):
            if is_m_thick_definition(part, m).verdict == THICK:
                assert is_m_thick_definition(full, m).verdict == THICK


def test_extension_field_monotonicity():
    # thickness over an extension implies thickness over the base field
    rng = random.Random(31337)
    F2 = GF(2)
    F4 = GF(2, 2)
    for _ in range(5):
        gens2 = [random_invertible(F2, 3, rng) for _ in range(2)]
        gens4 = [
            Matrix(F4, [[F4.from_int(x) for x in row] for row in g.rows])
            for g in gens2
        ]
        r2 = Representation(F2, 3, GROUP, gens2)
        r4 = Representation(F4, 3, GROUP, gens4)
        for m in (1, 2):
            v4 = is_m_thick_definition(r4, m).verdict
            v2 = is_m_thick_definition(r2, m).verdict
            if v4 == THICK:
                assert v2 == THICK


def test_r_number_bounds_examples():
    b = r_number_bounds(6, 2)
    assert (b.lower, b.upper, b.exact) == (3, 6, 3)
    b = r_number_bounds(5, 2)
    assert b.exact == 4
    b = r_number_bounds(7, 3)
    assert (b.lower, b.upper, b.exact) == (3, 7, None)
    assert r_number_bounds(4, 0).exact == 1
    assert r_number_bounds(4, 1).exact == 4
    assert r_number_bounds(6, 4).exact == 3
    assert r_number_bounds(5, 3).exact == 4


def test_group_mode_requires_invertible():
    with pytest.raises(PreconditionFailed):
        group_rep(QQ, [[[1, 0], [0, 0]]])


# memoised lifts and lattices


def _decide_like_the_benchmark(rep, caps):
    """Every verdict of one rep, in the order the fp-random-dim4 op asks."""
    out = []
    for m in (1, 2, 3):
        out.append(is_m_thick_criterion(rep, m, caps))
        out.append(is_m_thick_definition(rep, m, caps))
        out.append(is_m_dense(rep, m, absolute=False, caps=caps))
    out.append(all_submodules(rep, caps))
    return out


def _random_dim4_reps(count, seed):
    rng = random.Random(seed)
    for i in range(count):
        field = GF((2, 3)[i % 2])
        yield Representation(field, 4, GROUP, [random_invertible(field, 4, rng) for _ in range(2)])


def test_caps_defaults_are_the_realizable_search_defaults():
    defaults = inspect.signature(realizable_search).parameters
    caps = Caps()
    assert caps.points_cap == defaults["points_cap"].default
    assert caps.rational_trials == defaults["rational_trials"].default


def test_the_lattice_memo_keys_on_the_caps_it_reads():
    capped, default = Caps(lattice_cap=3), Caps()
    for order in ((capped, default), (default, capped)):
        rep = group_rep(GF(3), [[[1, 0], [0, 2]]])
        seen = {}
        for caps in order:
            try:
                size = len(all_submodules(rep, caps))
            except CapExceeded:
                size = "cap"
            route = is_m_thick_criterion(rep, 1, caps).route
            seen[caps.lattice_cap] = (size, route, is_m_dense(rep, 1, absolute=False, caps=caps))
        # Norton's witness decides denseness inside the caps, with no
        # lattice, and the criterion reads no lattice under either cap
        assert seen == {3: ("cap", "spin", NO), 20_000: (4, "spin", NO)}
        assert [key for key in rep._memo if key[0] == "lattice"] == [("lattice", 50_000, 20_000)]


def test_memoised_verdicts_match_a_fresh_rep_per_call():
    # the oracle rebuilds the rep for every call, so nothing is reused
    # across deciders
    caps = Caps()
    for rep in _random_dim4_reps(20, seed=14):
        def fresh():
            return Representation(rep.field, rep.dim, rep.mode, list(rep.generators))

        expect = []
        for m in (1, 2, 3):
            expect.append(is_m_thick_criterion(fresh(), m, caps))
            expect.append(is_m_thick_definition(fresh(), m, caps))
            expect.append(is_m_dense(fresh(), m, absolute=False, caps=caps))
        expect.append(all_submodules(fresh(), caps))
        got = _decide_like_the_benchmark(rep, caps)
        for a, b in zip(got, expect):
            if isinstance(a, Decision):
                assert serialize.dumps(serialize.decision_to_json(rep, a)) == \
                    serialize.dumps(serialize.decision_to_json(rep, b))
                if a.certificate is not None:
                    assert verify_not_thick_certificate(rep, a.certificate)
            else:
                assert a == b


def test_a_returned_lattice_can_be_mutated_without_touching_the_memo():
    rep = group_rep(GF(3), [DIAG_1122])
    first = all_submodules(rep)
    expect = list(first)
    first.pop()
    first.append(Subspace.zero(GF(3), 4))
    assert all_submodules(rep) == expect


def test_a_rep_is_frozen_and_its_first_lift_is_itself():
    rep = group_rep(GF(3), [SWAP2], label="swap")
    assert exterior_rep(rep, 1) is rep
    assert exterior_rep(rep, 2) is exterior_rep(rep, 2)
    assert isinstance(rep.generators, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.generators = [M(GF(3), ROT)]


def test_one_benchmark_op_lifts_and_decides_each_module_once(monkeypatch):
    counts = {"lattice": 0, "compound": 0, "is_invertible": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    drawn = [(rep.field, rep.generators) for rep in _random_dim4_reps(6, seed=41)]
    monkeypatch.setattr(repcore, "_norton_irreducible",
                        counted("lattice", repcore._norton_irreducible))
    monkeypatch.setattr(repcore, "compound", counted("compound", repcore.compound))
    monkeypatch.setattr(Matrix, "is_invertible", counted("is_invertible", Matrix.is_invertible))
    for field, gens in drawn:
        for name in counts:
            counts[name] = 0
        rep = Representation(field, 4, GROUP, gens)
        _decide_like_the_benchmark(rep, Caps())
        # three modules (Lambda^1, Lambda^2, Lambda^3), one compound per
        # generator and m in {2, 3}, and only the two checks at construction
        assert counts["lattice"] <= 3 and counts["compound"] <= 4, counts
        assert counts["is_invertible"] == 2, counts


def test_a_repeated_summand_has_no_isotypic_decomposition():
    # 2.I on Q^2 commutes with all of M_2, whose elements do not commute
    # with each other, so there is no multiplicity-free decomposition and
    # the criterion spins wedges instead
    r = group_rep(QQ, [[[2, 0], [0, 2]]])
    assert commutant(r)[0] == 4
    assert isotypic_decomposition(r) is None
    assert repcore._isotypic_sums(r, Caps(), 0) is None
    report = is_m_thick_criterion(r, 1, Caps(rational_trials=4))
    assert report.route == "spin" and report.verdict == NOT_THICK


def test_the_criterion_is_trivial_at_the_ends():
    for r in (group_rep(GF(3), [SWAP2]), group_rep(QQ, [ROT])):
        for m in (0, r.dim):
            report = is_m_thick_criterion(r, m)
            assert (report.verdict, report.log) == (THICK, {"trivial": True})


def test_the_lattice_cap_bounds_the_isotypic_sums():
    # Lambda^2 of the 4-dim sp rep is 5 + 1: four sums, so a lattice cap of
    # three sends the criterion to the spin route, where it cannot decide
    sp4 = Representation(QQ, 4, LIE, lie_generators("sp", 2))
    capped = is_m_thick_criterion(sp4, 2, Caps(lattice_cap=3, rational_trials=20))
    assert (capped.route, capped.verdict) == ("spin", UNKNOWN)
    exact = is_m_thick_criterion(sp4, 2, Caps(lattice_cap=4))
    assert (exact.route, exact.log["submodules"], exact.verdict) == (
        "isotypic", 4, THICK
    )
