"""The four seeded workloads.

Each build function takes the loaded package modules, a seed and a work
directory, and returns a ``Workload``: a list of periods, where a period is
the smallest slice of work the measurement loop may stop after.  Every op
carries an id and a latency class.  It returns None when its output obeys
the workload's seed-independent rules, or a message saying what was wrong.
Only the generated inputs reach the package.

Latency classes are chosen so that the median falls inside the cheap class
and the 95th percentile inside the expensive one, away from the boundary
between them; ``test_perfbench.py`` checks this.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class Op:
    op_id: str
    cls: str  # latency class
    fn: object  # () -> None | str


@dataclass
class Workload:
    periods: list  # callables run_period(run_op); the loop cycles through them
    trace_periods: int  # periods in the traced run's unit of work
    inputs: list  # the generated inputs, for telling seeds apart


def _ops_period(ops):
    def run_period(run_op):
        for op in ops:
            run_op(op)

    return run_period


def _random_invertible(T, field, n, rng):
    """A uniformly random invertible matrix, drawn by the benchmark."""
    while True:
        m = T.linalg.Matrix(
            field, [[field.random(rng) for _ in range(n)] for _ in range(n)]
        )
        if m.is_invertible():
            return m


# fp-random-dim4 ------------------------------------------------------------

_F2_PER_F3 = 2  # period = two F2 reps then one F3 rep
_RANDOM_PERIODS = 100


def build_fp_random_dim4(T, seed, workdir):
    """Random two-generator dim-4 group reps over F2 and F3, each fully
    decided: both thickness deciders for m = 1, 2, 3, non-absolute
    denseness for m = 1, 2, 3, and irreducibility."""
    rng = random.Random("fp-random-dim4/%d" % seed)
    caps = T.repcore.Caps()
    periods, reps = [], []
    for p in range(_RANDOM_PERIODS):
        ops = []
        for j, q in enumerate([2] * _F2_PER_F3 + [3]):
            field = T.fields.GF(q)
            gens = [_random_invertible(T, field, 4, rng) for _ in range(2)]
            rep = T.repcore.Representation(field, 4, T.repcore.GROUP, gens)
            reps.append(rep)
            ops.append(
                Op("p%d.%d.F%d" % (p, j, q), "F%d" % q, _decide_all(T, rep, caps))
            )
        periods.append(_ops_period(ops))
    return Workload(periods, trace_periods=8, inputs=reps)


def _decide_all(T, rep, caps):
    def op():
        rc = T.repcore
        crit, defn, dense = {}, {}, {}
        for m in (1, 2, 3):
            crit[m] = rc.is_m_thick_criterion(rep, m, caps).verdict
            defn[m] = rc.is_m_thick_definition(rep, m, caps).verdict
            dense[m] = rc.is_m_dense(rep, m, absolute=False, caps=caps)
        irreducible = len(rc.all_submodules(rep, caps)) == 2
        for m in (1, 2, 3):
            if rc.UNKNOWN in (crit[m], defn[m]) or dense[m] == rc.UNKNOWN:
                return "Unknown verdict at m=%d" % m
            if crit[m] != defn[m]:
                return "criterion %s != definition %s at m=%d" % (crit[m], defn[m], m)
            if dense[m] == rc.YES and crit[m] != rc.THICK:
                return "dense but not thick at m=%d" % m
            if crit[m] == rc.THICK and not irreducible:
                return "thick but reducible at m=%d" % m
            if crit[m] != crit[4 - m]:
                return "verdict(%d) != verdict(%d)" % (m, 4 - m)
        return None

    return op


# fp-reducible-check --------------------------------------------------------

_BLOCK_TRIANGULAR_REPS = 10
_DIAG3_REPS = 2
_REPEATED_EIGEN_REPS = 4


def build_fp_reducible_check(T, seed, workdir):
    """``thickrep check`` / ``recheck`` through ``cli.main`` on rep files
    written here: block-triangular reps over F3, diagonalizable reps over F5
    (from ``generic_diagonalizable``, and with repeated eigenvalues) and a
    block rep over F13.  One period is the whole request list."""
    rng = random.Random("fp-reducible-check/%d" % seed)
    rc, ser = T.repcore, T.serialize
    reps = []
    F3 = T.fields.GF(3)
    for i in range(_BLOCK_TRIANGULAR_REPS):
        k = 1 + i % 3  # invariant subspace of dim 1, 2 or 3, in fixed shares
        gens = [_block_triangular(T, F3, 4, k, rng) for _ in range(2)]
        reps.append(("bt%d" % i, rc.Representation(F3, 4, rc.GROUP, gens, label="bt%d" % i)))
    F5 = T.fields.GF(5)
    diag = []
    for i, n in enumerate([3] * _DIAG3_REPS + [4]):
        v = tuple(F5.random(rng) or 1 for _ in range(n))
        fmat, _, _ = T.constructions.generic_diagonalizable(
            F5, v, set(), seed=rng.randrange(10**6)
        )
        name = "diag%d_%d" % (n, i)
        diag.append((name, n))
        reps.append((name, rc.Representation(F5, n, rc.GROUP, [fmat], label=name)))
    for i in range(_REPEATED_EIGEN_REPS):
        # two 2-dim eigenspaces: 64 submodules, so sum-closure dominates
        a, b = rng.sample(range(1, 5), 2)
        p = _random_invertible(T, F5, 4, rng)
        fmat = p * T.linalg.Matrix.diagonal(F5, (a, a, b, b)) * p.inverse()
        name = "eigen%d" % i
        reps.append((name, rc.Representation(F5, 4, rc.GROUP, [fmat], label=name)))
    F13 = T.fields.GF(13)
    block = T.constructions.build_block_rep(
        2, 2, F13, alphas=(1, 4), betas=(3, 9), seed=rng.randrange(10**6)
    )
    reps.append(("block13", block.rep))

    paths = {}
    for name, rep in reps:
        path = os.path.join(workdir, "%s.json" % name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ser.dumps(ser.representation_to_json(rep)))
        paths[name] = path

    # (rep, "mode method m", expected exit code, recheck the certificate, class)
    requests = []
    for i in range(_BLOCK_TRIANGULAR_REPS):
        name = "bt%d" % i
        requests += [
            (name, "thick criterion 2", 1, True, "heavy"),
            (name, "dense definition 2", 1, False, "heavy"),
            (name, "thick definition 2", 1, True, "light"),
            (name, "thick criterion 1", 1, True, "light"),
            (name, "irreducible definition 1", 1, False, "light"),
            (name, "dense burnside 2", 1, False, "light"),
        ]
    for name, n in diag:
        requests += [
            (name, "irreducible definition 1", 1, False, "light"),
            (name, "thick definition 2", 1, True, "light" if n == 3 else "heavy"),
            (name, "thick criterion 1", 1, True, "light"),
        ]
        if n == 3:
            requests.append((name, "thick criterion 2", 1, True, "light"))
    for i in range(_REPEATED_EIGEN_REPS):
        requests += [
            ("eigen%d" % i, "irreducible definition 1", 1, False, "heavy"),
            ("eigen%d" % i, "thick criterion 1", 1, True, "heavy"),
        ]
    requests += [
        ("block13", "thick criterion 2", 1, True, "light"),
        ("block13", "thick definition 2", 2, False, "light"),
        ("block13", "dense definition 2", 2, False, "light"),
        ("block13", "dense burnside 2", 1, False, "light"),
        ("block13", "irreducible burnside 1", 0, False, "light"),
        ("bt0", "thick criterion 7", 3, False, "light"),
        ("block13", "dense burnside 9", 3, False, "light"),
    ]
    rng.shuffle(requests)
    ops = []
    for j, (name, spec, expect, recheck, cls) in enumerate(requests):
        mode, method, m = spec.split()
        argv = ["check", "--rep", paths[name], "--mode", mode, "--method", method,
                "--m", m]
        ops.append(Op("r%d.%s.%s-%s-m%s" % (j, name, mode, method, m), cls,
                      _cli_request(T, argv, expect, recheck, workdir)))
    return Workload([_ops_period(ops)], trace_periods=1,
                    inputs=[rep for _, rep in reps])


def _block_triangular(T, field, n, k, rng):
    """An invertible block upper-triangular matrix with diagonal blocks of
    sizes k and n-k: the span of the first k basis vectors is invariant."""
    a = _random_invertible(T, field, k, rng)
    b = _random_invertible(T, field, n - k, rng)
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(k):
        rows[i][:k] = a.rows[i]
        rows[i][k:] = [field.random(rng) for _ in range(n - k)]
    for i in range(n - k):
        rows[k + i][k:] = b.rows[i]
    return T.linalg.Matrix(field, rows)


def _cli_request(T, argv, expect, recheck, workdir):
    report_path = os.path.join(workdir, "report.json")
    cert_path = os.path.join(workdir, "certificate.json")
    recheck_path = os.path.join(workdir, "recheck.json")

    def op():
        with contextlib.redirect_stderr(io.StringIO()):
            code = T.cli.main(argv + ["--json-out", report_path])
        if code != expect:
            return "check exited %d, expected %d" % (code, expect)
        if not recheck:
            return None
        with open(report_path, encoding="utf-8") as fh:
            certificate = json.load(fh)["certificate"]
        with open(cert_path, "w", encoding="utf-8") as fh:
            json.dump(certificate, fh)
        with contextlib.redirect_stderr(io.StringIO()):
            code = T.cli.main(
                ["recheck", "--certificate", cert_path, "--json-out", recheck_path]
            )
        if code != 0:
            return "recheck exited %d" % code
        return None

    return op


# gl4-f2-scan ---------------------------------------------------------------

GL4_F2_ORDER = 20160


def build_gl4_f2_scan(T, seed, workdir):
    """The closure of GL4(F2) from seeded conjugates of three generators,
    every element lifted to Lambda^2 and checked to move e1^V onto a
    subspace meeting e1^V, then the m=3 certificate built and rechecked.
    One period is one whole scan; an op is one group element."""
    rng = random.Random("gl4-f2-scan/%d" % seed)
    rc = T.repcore
    F2 = T.fields.GF(2)
    Matrix = T.linalg.Matrix
    base = [
        [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    ]
    p = _random_invertible(T, F2, 4, rng)
    p_inv = p.inverse()
    gens = [p * Matrix.from_ints(F2, g) * p_inv for g in base]
    rng.shuffle(gens)
    rep = rc.Representation(F2, 4, rc.GROUP, gens, label="gl4_f2")
    w = T.constructions.e1_wedge_subspace(F2, 4)
    caps = rc.Caps()

    def run_period(run_op):
        box = {}

        def closure():
            box["elements"] = rc.group_closure(rep, cap=caps.group_cap)
            if len(box["elements"]) != GL4_F2_ORDER:
                return "group order %d" % len(box["elements"])
            return None

        run_op(Op("closure", "round", closure))
        wrows = list(w.basis_vectors())
        for i, g in enumerate(box.get("elements", ())):
            run_op(Op("g%d" % i, "element", _meets(T, F2, g, wrows)))

        def certificate():
            rep6 = rc.Representation(
                F2, 6, rc.GROUP, [T.exterior.compound(g, 2) for g in rep.generators]
            )
            cert = rc._certificate_from_pair(rep6, 3, w, w)
            if not rc.verify_not_thick_certificate(rep6, cert):
                return "m=3 certificate does not recheck"
            return None

        run_op(Op("certificate", "round", certificate))

    return Workload([run_period], trace_periods=1, inputs=[rep])


def _meets(T, F2, g, wrows):
    def op():
        c = T.exterior.compound(g, 2)
        moved = [c.apply(v) for v in wrows]
        if T.linalg.rank_of_rows(F2, moved + wrows, 6) == 6:
            return "translate is a complement of e1^V"
        return None

    return op


# q-exact -------------------------------------------------------------------

_COMPANION_VALUES = (
    Fraction(2), Fraction(3), Fraction(5), Fraction(-2), Fraction(-3),
    Fraction(1, 2), Fraction(3, 2), Fraction(2, 3),
)


def build_q_exact(T, seed, workdir):
    """Rational inputs only: split Lie algebras, companion pairs, random
    dim-3 and dim-4 group reps, and symplectic normal forms.  One period is
    the whole request list."""
    rng = random.Random("q-exact/%d" % seed)
    rc, cons = T.repcore, T.constructions
    QQ = T.fields.QQ
    caps = rc.Caps()
    T_, NT, YES, NO = rc.THICK, rc.NOT_THICK, rc.YES, rc.NO
    requests = []  # (rep name, m, decider, expected verdict or None, class)

    def lie(family, n):
        gens = cons.lie_generators(family, n)
        return rc.Representation(QQ, gens[0].nrows, rc.LIE, gens, label="%s%d" % (family, n))

    so4, so5, sp4 = lie("so_split", 4), lie("so_split", 5), lie("sp", 2)
    sl3, sl4 = lie("sl", 3), lie("sl", 4)
    requests += [
        ("so4", 2, "criterion", NT, "light"),
        ("so4", 1, "criterion", T_, "light"),
        ("so4", 2, "dense", NO, "heavy"),
        ("so5", 2, "dense", YES, "heavy"),
        ("so5", 2, "criterion", T_, "heavy"),
        ("so5", 1, "criterion", T_, "light"),
        ("sp4", 2, "criterion", T_, "light"),
        ("sp4", 2, "dense", NO, "heavy"),
        ("sl3", 2, "criterion", T_, "light"),
        ("sl3", 2, "dense", YES, "light"),
        ("sl4", 2, "criterion", T_, "heavy"),
        ("sl4", 2, "dense", YES, "light"),
    ]
    reps = {"so4": so4, "so5": so5, "sp4": sp4, "sl3": sl3, "sl4": sl4}

    # companion pairs are irreducible, not 2-thick and so not 2-dense
    pairs = [(4,) + tuple(rng.sample(_COMPANION_VALUES, 2)) for _ in range(2)]
    pairs.append((5, Fraction(2), Fraction(3)))
    for i, (n, a, b) in enumerate(pairs):
        name = "comp%d_%d" % (n, i)
        reps[name] = cons.companion_pair(QQ, n, a, b).rep
        requests += [
            (name, 1, "criterion", T_, "light"),
            (name, 2, "criterion", NT, "heavy"),
        ]
        if n == 4:
            requests.append((name, 2, "dense", NO, "heavy"))

    # random integer reps: verdicts vary, so only certificates are checked
    for n, count in ((3, 20), (4, 3)):
        for i in range(count):
            name = "rand%d_%d" % (n, i)
            reps[name] = rc.Representation(
                QQ, n, rc.GROUP, [_random_rational(T, n, rng) for _ in range(2)]
            )
            requests += [
                (name, 1, "criterion", None, "light"),
                (name, 2, "dense", None, "light"),
                (name, 2, "criterion", None, "light" if n == 3 else "heavy"),
            ]

    ops = []
    for j, (name, m, what, expect, cls) in enumerate(requests):
        if what == "criterion":
            fn = _q_criterion(T, reps[name], m, expect, caps)
        else:
            fn = _q_dense(T, reps[name], m, expect)
        ops.append(Op("q%d.%s.%s-m%d" % (j, name, what, m), cls, fn))

    subspaces = []
    for n, count in ((2, 5), (3, 5)):
        sp = T.symplectic.SymplecticSpace(n, QQ)
        for c in range(count):
            for i in range(n + 1):
                vecs = _random_rank_rows(T, QQ, 2 * n - i, 2 * n, rng)
                w = T.linalg.Subspace.from_vectors(QQ, 2 * n, vecs)
                subspaces.append(w)
                ops.append(Op("s%d.%d.%d" % (n, c, i), "light", _normal_form(T, sp, w, i)))
    rng.shuffle(ops)
    return Workload([_ops_period(ops)], trace_periods=1,
                    inputs=list(reps.values()) + subspaces)


def _random_rational(T, n, rng):
    QQ = T.fields.QQ
    while True:
        m = T.linalg.Matrix(
            QQ, [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        )
        if m.is_invertible():
            return m


def _random_rank_rows(T, field, k, n, rng):
    """k independent rational vectors in Q^n with small integer entries."""
    rows = []
    while len(rows) < k:
        cand = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        if T.linalg.rank_of_rows(field, rows + [cand], n) == len(rows) + 1:
            rows.append(cand)
    return rows


def _q_criterion(T, rep, m, expect, caps):
    def op():
        rc = T.repcore
        report = rc.is_m_thick_criterion(rep, m, caps)
        if expect is not None and report.verdict != expect:
            return "verdict %s, expected %s" % (report.verdict, expect)
        if report.verdict == rc.NOT_THICK and not rc.verify_not_thick_certificate(
            rep, report.certificate
        ):
            return "certificate does not recheck"
        return None

    return op


def _q_dense(T, rep, m, expect):
    def op():
        verdict = T.repcore.is_m_dense(rep, m, absolute=True)
        if expect is not None and verdict != expect:
            return "denseness %s, expected %s" % (verdict, expect)
        return None

    return op


def _normal_form(T, sp, w, i):
    def op():
        n2 = sp.dim
        lag = T.symplectic.lagrangian_complement(sp, w)
        if lag.dim != sp.n or lag.sum(w).dim != n2:
            return "Lagrangian complement does not complement"
        if i:
            u = T.symplectic.isotropic_transversal(sp, w, i)
            if u.dim != i or u.sum(w).dim != n2:
                return "isotropic transversal meets the subspace"
        return None

    return op


WORKLOADS = {
    "fp-random-dim4": build_fp_random_dim4,
    "fp-reducible-check": build_fp_reducible_check,
    "gl4-f2-scan": build_gl4_f2_scan,
    "q-exact": build_q_exact,
}
