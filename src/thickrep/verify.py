"""The verification suite: one item per family of verified claims.

Each item is a pure function of (seed, caps) returning an ItemResult with
status Verified / Refuted / Skipped / Error, timing, details, and any
refutation certificates produced along the way.  The CLI `verify`
subcommand and the acceptance tests both drive this registry.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import astuple, dataclass, field as dc_field

from .errors import CapExceeded, ThickRepError
from .fields import GF, QQ
from .linalg import Matrix, Subspace, random_independent, random_invertible, rank_of_rows
from .exterior import (
    WedgeVector,
    is_decomposable,
    perp,
    realizable_search,
)
from .repcore import (
    Caps,
    GROUP,
    LIE,
    NOT_THICK,
    THICK,
    Representation,
    YES,
    absolute_irreducibility,
    all_submodules,
    exterior_rep,
    group_closure,
    is_invariant,
    is_m_dense,
    is_m_thick_criterion,
    is_m_thick_definition,
    isotypic_decomposition,
    r_number_bounds,
    spin,
    verify_not_thick_certificate,
    _certificate_from_pair,
)
from .constructions import (
    build_block_rep,
    block_eigenvectors,
    companion_pair,
    e1_wedge_subspace,
    generic_diagonalizable,
    lie_generators,
)
from .symplectic import (
    SymplecticSpace,
    contraction_is_equivariant,
    isotropic_transversal,
    ker_fm,
    ker_perp_realizability_check,
    lagrangian_complement,
)
from .characters import (
    decompose,
    distinct_parts_coeffs,
    exterior_square_char,
    gl2_wedge_identity,
    plethysm_component_count,
    sym_char,
)
from . import serialize

VERIFIED = "Verified"
REFUTED = "Refuted"
SKIPPED = "Skipped"
ERROR = "Error"


@dataclass
class ItemResult:
    item_id: str
    status: str
    runtime_ms: int = 0
    details: dict = dc_field(default_factory=dict)
    certificates: list = dc_field(default_factory=list)  # (name, json payload)


@dataclass
class SuiteReport:
    items: list
    overall: str

    def to_json(self, cert_paths=None):
        cert_paths = cert_paths or {}
        return {
            "overall": self.overall,
            "items": [
                {
                    "id": it.item_id,
                    "status": it.status,
                    "runtime_ms": it.runtime_ms,
                    "details": it.details,
                    "certificate_paths": cert_paths.get(it.item_id, []),
                }
                for it in self.items
            ],
        }


def _check(condition, details, key):
    details[key] = bool(condition)
    if not condition:
        raise AssertionError("check failed: %s" % key)


def item_characters_wedge_square_s5(seed, caps):
    details = {}
    for lam in ((3, 2), (2, 2, 1)):
        dec = decompose(exterior_square_char(sym_char(lam)))
        _check(dec == [((3, 1, 1), 1), ((2, 1, 1, 1), 1)], details, "decompose_%s" % (lam,))
    _check(sym_char((3, 1, 1)).degree == 6, details, "degree_311")
    _check(sym_char((2, 1, 1, 1)).degree == 4, details, "degree_2111")
    return details, []


def item_characters_gl2_wedge_identities(seed, caps):
    details = {"identities": 0}
    for a in range(0, 9):
        for b in range(-3, 4):
            if not gl2_wedge_identity(a, b):
                raise AssertionError("identity failed at a=%d b=%d" % (a, b))
            details["identities"] += 1
    _check(not gl2_wedge_identity(4, 0, shift=1), details, "shifted_guard_detects")
    return details, []


def item_characters_distinct_parts(seed, caps):
    details = {}
    for n in range(3, 13):
        coeffs = distinct_parts_coeffs(n)  # checks the margins internally
        top = n * (n + 1) // 2
        _check(len(coeffs) == top + 1, details, "length_n%d" % n)
    _check(
        distinct_parts_coeffs(3) == [1, 1, 1, 2, 1, 1, 1], details, "n3_coefficients"
    )
    return details, []


def item_characters_plethysm_counts(seed, caps):
    details = {"checked": 0}
    for n in range(1, 5):
        sym_coeffs = distinct_parts_coeffs(n)
        wedge_coeffs = distinct_parts_coeffs(n - 1) if n > 1 else [1]
        for m in range(0, 7):
            expect_sym = sym_coeffs[m] if m < len(sym_coeffs) else 0
            expect_wedge = wedge_coeffs[m] if m < len(wedge_coeffs) else 0
            if plethysm_component_count("sym2", n, m) != expect_sym:
                raise AssertionError("sym2 count off at n=%d m=%d" % (n, m))
            if plethysm_component_count("wedge2", n, m) != expect_wedge:
                raise AssertionError("wedge2 count off at n=%d m=%d" % (n, m))
            details["checked"] += 2
    return details, []


def _gl4_f2():
    F2 = GF(2)
    cyc = Matrix.from_ints(F2, [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    swap = Matrix.from_ints(F2, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    trans = Matrix.from_ints(F2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    return Representation(F2, 4, GROUP, [cyc, swap, trans], label="gl4_f2")


def item_wedge2_gl4_f2_not_thick(seed, caps):
    details = {}
    F2 = GF(2)
    # Lambda^2 is faithful on GL4(F2), so closing the 6-dimensional
    # wedge-square action lists the group and every compound at once
    rep6 = exterior_rep(_gl4_f2(), 2)
    elems = group_closure(rep6, cap=caps.group_cap)
    _check(len(elems) == 20160, details, "group_order_20160")
    w = e1_wedge_subspace(F2, 4)
    wrows = list(w.basis_vectors())
    meets = 0
    for c in elems:
        gw = [c.apply(v) for v in wrows]
        if rank_of_rows(F2, gw + wrows, 6) < 6:
            meets += 1
    details["elements_scanned"] = len(elems)
    _check(meets == len(elems), details, "every_translate_meets_w")
    # the scan refutes 3-thickness of the wedge-square action
    cert = _certificate_from_pair(rep6, 3, w, w)
    _check(verify_not_thick_certificate(rep6, cert), details, "certificate_reverifies")
    return details, [
        ("wedge2_gl4_f2_m3", serialize.certificate_to_json(rep6, cert))
    ]


def item_block_rep_f13(seed, caps):
    details = {}
    F13 = GF(13)
    res = build_block_rep(2, 2, F13, alphas=(1, 4), betas=(3, 9), seed=seed)
    _check(absolute_irreducibility(res.rep).verdict == YES, details, "burnside_16")
    report = is_m_thick_criterion(res.rep, 2, caps, seed=seed)
    _check(report.verdict == NOT_THICK, details, "criterion_not_thick_m2")
    expected_w1 = Subspace.from_vectors(
        F13,
        6,
        [
            WedgeVector.basis_element(F13, 4, (1, 2)).coords,
            WedgeVector.basis_element(F13, 4, (3, 4)).coords,
        ],
    )
    _check(report.certificate.w1 == expected_w1, details, "w1_is_block_wedge_span")
    _check(
        verify_not_thick_certificate(res.rep, report.certificate),
        details,
        "certificate_reverifies",
    )
    try:
        defn = is_m_thick_definition(res.rep, 2, caps)
        details["definition_verdict"] = defn.verdict
        _check(defn.verdict == NOT_THICK, details, "definition_agrees")
    except CapExceeded as e:
        details["cross_check_skipped"] = "definition: %s" % e
    return details, [
        ("block_rep_f13_m2", serialize.certificate_to_json(res.rep, report.certificate))
    ]


def item_companion_windows_rnumber(seed, caps):
    details = {}
    for n in (4, 5, 6):
        res = companion_pair(QQ, n, QQ.from_int(2), QQ.from_int(3))
        for m in range(1, n):
            wm = res.windows[m]
            _check(wm.dim == n, details, "window_dim_n%d_m%d" % (n, m))
            ext = exterior_rep(res.rep, m)
            _check(is_invariant(ext, wm), details, "window_invariant_n%d_m%d" % (n, m))
            probe = WedgeVector.basis_element(QQ, n, tuple(range(1, m + 1)))
            ok, _ = is_decomposable(probe)
            _check(
                ok and wm.contains_vector(probe.coords),
                details,
                "window_realizable_n%d_m%d" % (n, m),
            )
    block_params = {(4, 2): (2, (1, 4), (3, 9)), (6, 2): (3, (1, 5), (8, 12)),
                    (6, 3): (2, (1, 3, 4), (9, 10, 12))}
    for (n, m), (ell, alphas, betas) in block_params.items():
        res = build_block_rep(ell, m, GF(13), alphas=alphas, betas=betas, seed=seed)
        bounds = r_number_bounds(n, m)
        _check(res.w.dim == n // m == bounds.exact, details, "block_witness_%d_%d" % (n, m))
        _check(bounds.lower == bounds.exact, details, "bounds_meet_%d_%d" % (n, m))
    for (n, m), expect in (((6, 2), 3), ((6, 3), 2), ((5, 2), 4)):
        _check(r_number_bounds(n, m).exact == expect, details, "r_exact_%d_%d" % (n, m))
    return details, []


_agreement_cache = {}


def agreement_samples(seed, caps):
    """Seeded dim-4 two-generator samples over F_2 and F_3 with both
    thickness verdicts per degree; shared by the agreement and
    implication/duality items, and cached on the seed and the caps."""
    key = (seed, astuple(caps))
    if key in _agreement_cache:
        return _agreement_cache[key]
    samples = []
    for q, count in ((2, 100), (3, 100)):
        field = GF(q)
        rng = random.Random(seed * 7919 + q)
        for _ in range(count):
            gens = [random_invertible(field, 4, rng) for _ in range(2)]
            rep = Representation(field, 4, GROUP, gens)
            verdicts = {}
            for m in (1, 2, 3):
                a = is_m_thick_criterion(rep, m, caps)
                b = is_m_thick_definition(rep, m, caps)
                verdicts[m] = (a.verdict, b.verdict)
            samples.append((rep, verdicts))
    _agreement_cache[key] = samples
    return samples


def item_criterion_definition_agreement(seed, caps):
    details = {"samples": 0, "disagreements": 0}
    for rep, verdicts in agreement_samples(seed, caps):
        details["samples"] += 1
        for m, (crit, defn) in verdicts.items():
            if crit != defn or crit == "Unknown":
                details["disagreements"] += 1
                details.setdefault("failures", []).append(
                    {"field": rep.field.p, "m": m, "criterion": crit, "definition": defn}
                )
    _check(details["samples"] >= 200, details, "sample_size")
    _check(details["disagreements"] == 0, details, "all_agree")
    return details, []


def item_implication_duality(seed, caps):
    details = {"violations": 0, "samples": 0}
    for rep, verdicts in agreement_samples(seed, caps):
        details["samples"] += 1
        irreducible = len(all_submodules(rep, caps)) == 2
        for m in (1, 2, 3):
            thick = verdicts[m][1]
            dense = is_m_dense(rep, m, absolute=False, caps=caps)
            if dense == "Yes" and thick != THICK:
                details["violations"] += 1
            if thick == THICK and not irreducible:
                details["violations"] += 1
            for side in (0, 1):
                if verdicts[m][side] != verdicts[4 - m][side]:
                    details["violations"] += 1
    _check(details["violations"] == 0, details, "no_violations")
    return details, []


def item_symplectic_suite(seed, caps):
    details = {}
    for n in (2, 3):
        sp = SymplecticSpace(n, QQ)
        for m in range(2, n + 1):
            k = ker_fm(sp, m)  # dimension identity checked inside
            details["ker_dim_2n%d_m%d" % (2 * n, m)] = k.dim
            _check(
                contraction_is_equivariant(sp, m),
                details,
                "equivariance_2n%d_m%d" % (2 * n, m),
            )
    # normal-form constructions over F_5, 200 seeded subspaces
    F5 = GF(5)
    rng = random.Random(seed + 17)
    built = 0
    for n in (2, 3):
        sp = SymplecticSpace(n, F5)
        for _ in range(100):
            i = rng.randint(0, n)
            vecs = random_independent(F5, 2 * n, 2 * n - i, rng)
            w = Subspace.from_vectors(F5, 2 * n, vecs)
            # both self-validate, and a transversal builds its complement
            if i:
                isotropic_transversal(sp, w, i)
            else:
                lagrangian_complement(sp, w)
            built += 1
    details["normal_form_constructions"] = built
    _check(built == 200, details, "normal_form_constructions_200")
    # non-realizability of the kernel perp
    rep_a = ker_perp_realizability_check(SymplecticSpace(2, F5), 2, trials=200, seed=seed)
    _check(rep_a.nonzero_pairings == 200, details, "pairing_prong_200_of_200")
    rep_b = ker_perp_realizability_check(SymplecticSpace(2, GF(3)), 2, trials=10, seed=seed)
    _check(
        rep_b.scan_prong_ran and rep_b.scan_prong_pass,
        details,
        "exhaustive_scan_f3_no_decomposables",
    )
    # the 4-dimensional standard symplectic action over the rationals
    sp4 = Representation(QQ, 4, LIE, lie_generators("sp", 2), label="sp4_standard")
    dec = isotypic_decomposition(exterior_rep(sp4, 2), seed=seed)
    _check(sorted(e.dim for e in dec) == [1, 5], details, "wedge2_splits_5_plus_1")
    crit = is_m_thick_criterion(sp4, 2, caps, seed=seed)
    _check(crit.verdict == THICK, details, "sp4_thick_m2")
    _check(is_m_dense(sp4, 2, absolute=True) == "No", details, "sp4_not_dense_m2")
    # kernel perp matches the non-kernel isotypic summands
    for n in (2, 3):
        sp = SymplecticSpace(n, QQ)
        kf = ker_fm(sp, 2)
        p = perp(kf, 2 * n, 2)
        rep_nm = Representation(
            QQ, 2 * n, LIE, lie_generators("sp", n), label="sp_std"
        )
        dec = isotypic_decomposition(exterior_rep(rep_nm, 2 * n - 2), seed=seed)
        inside = [e for e in dec if p.contains(e)]
        outside = [e for e in dec if not p.contains(e)]
        total = Subspace.zero(QQ, p.ambient)
        for e in inside:
            total = total.sum(e)
        _check(total == p, details, "perp_is_nonkernel_sum_2n%d" % (2 * n,))
        _check(
            len(outside) == 1 and outside[0].dim == kf.dim,
            details,
            "excluded_summand_matches_kernel_2n%d" % (2 * n,),
        )
    return details, []


def item_so_split_examples(seed, caps):
    details = {}
    so5 = Representation(QQ, 5, LIE, lie_generators("so_split", 5), label="so5_standard")
    _check(absolute_irreducibility(exterior_rep(so5, 2)).verdict == YES, details,
           "so5_wedge2_burnside_100")
    _check(is_m_dense(so5, 2, absolute=True) == "Yes", details, "so5_2_dense")
    so4 = Representation(QQ, 4, LIE, lie_generators("so_split", 4), label="so4_standard")
    dec = isotypic_decomposition(exterior_rep(so4, 2), seed=seed)
    _check(
        dec is not None and [e.dim for e in dec] == [3, 3],
        details,
        "so4_wedge2_two_3dim_factors",
    )
    for i, e in enumerate(dec):
        res = realizable_search(e, 4, 2, seed=seed)
        _check(res.status == "Realizable", details, "so4_factor_%d_realizable" % i)
    crit = is_m_thick_criterion(so4, 2, caps, seed=seed)
    _check(crit.verdict == NOT_THICK, details, "so4_not_thick_m2")
    _check(
        verify_not_thick_certificate(so4, crit.certificate),
        details,
        "certificate_reverifies",
    )
    return details, [
        ("so4_wedge2_m2", serialize.certificate_to_json(so4, crit.certificate))
    ]


def item_eigenstructure_suite(seed, caps):
    details = {}
    # invariant lattice of a split diagonalizable map = coordinate subspaces
    for field, n in ((GF(5), 3), (GF(7), 4)):
        ones = tuple(field.one for _ in range(n))
        fmat, basis, _ = generic_diagonalizable(field, ones, set(), seed=seed)
        rep = Representation(field, n, GROUP, [fmat])
        subs = all_submodules(rep, caps)
        coordinate = set()
        import itertools as it

        for rsub in range(n + 1):
            for picks in it.combinations(range(n), rsub):
                coordinate.add(
                    Subspace.from_vectors(field, n, [basis[i] for i in picks])
                )
        _check(len(subs) == 2**n, details, "lattice_count_%d_q%d" % (n, field.p))
        _check(set(subs) == coordinate, details, "lattice_matches_%d_q%d" % (n, field.p))
        _check(spin(rep, [ones]).dim == n, details, "sum_vector_cyclic_%d_q%d" % (n, field.p))
    # all eigenpairs of the block cycle, ell and m up to 3
    F13 = GF(13)
    rng = random.Random(seed + 5)
    ell_powers = {2: (1, 3, 4), 3: (1, 5, 8)}
    for ell in (2, 3):
        for m in (1, 2, 3):
            alphas = ell_powers[ell][:m]
            target = Matrix.diagonal(F13, alphas)
            p = random_invertible(F13, m, rng)
            ctarget = p * target * p.inverse()
            blocks = [random_invertible(F13, m, rng) for _ in range(ell - 1)]
            prod = Matrix.identity(F13, m)
            for blk in blocks:
                prod = blk * prod
            blocks.append(ctarget * prod.inverse())
            pairs = block_eigenvectors(blocks)  # self-validating
            _check(len(pairs) == ell * m, details, "eigenpair_count_l%d_m%d" % (ell, m))
            _check(
                rank_of_rows(F13, [v for _, v in pairs], ell * m) == ell * m,
                details,
                "eigenvectors_independent_l%d_m%d" % (ell, m),
            )
    return details, []


REGISTRY = [
    ("characters-wedge-square-s5", item_characters_wedge_square_s5),
    ("characters-gl2-wedge-identities", item_characters_gl2_wedge_identities),
    ("characters-distinct-parts", item_characters_distinct_parts),
    ("characters-plethysm-counts", item_characters_plethysm_counts),
    ("wedge2-gl4-f2-not-thick", item_wedge2_gl4_f2_not_thick),
    ("block-rep-f13", item_block_rep_f13),
    ("companion-windows-rnumber", item_companion_windows_rnumber),
    ("criterion-definition-agreement", item_criterion_definition_agreement),
    ("implication-duality", item_implication_duality),
    ("symplectic-suite", item_symplectic_suite),
    ("so-split-examples", item_so_split_examples),
    ("eigenstructure-suite", item_eigenstructure_suite),
]


def run_item(item_id, seed=0, caps=None) -> ItemResult:
    caps = caps or Caps.default()
    fn = dict(REGISTRY)[item_id]
    start = time.perf_counter()
    try:
        details, certs = fn(seed, caps)
        status = VERIFIED
    except AssertionError as e:
        details = {"failure": str(e)}
        certs = []
        status = REFUTED
    except CapExceeded as e:
        details = {"cap": str(e)}
        certs = []
        status = SKIPPED
    except Exception as e:
        # one crashing item must not abort the rest of the suite
        details = {
            "error": type(e).__name__,
            "message": str(e),
            "traceback": traceback.format_exc(),
        }
        certs = []
        status = ERROR
    runtime_ms = int((time.perf_counter() - start) * 1000)
    return ItemResult(item_id, status, runtime_ms, details, certs)


def run_suite(filter_substring="", seed=0, caps=None, jobs=1) -> SuiteReport:
    """Run the items whose id contains `filter_substring`; ThickRepError
    when there is none.  The overall result is the first of Error,
    Refuted, Verified and Skipped that some item has."""
    caps = caps or Caps.default()
    ids = [iid for iid, _ in REGISTRY if filter_substring in iid]
    if not ids:
        raise ThickRepError("no verification item matches filter %r" % filter_substring)
    if jobs > 1:
        import concurrent.futures as cf

        # under the fork start method the pool starts all its workers at
        # the first submit, so it asks for no more than there are items
        with cf.ProcessPoolExecutor(max_workers=min(jobs, len(ids))) as pool:
            futures = {iid: pool.submit(run_item, iid, seed, caps) for iid in ids}
            results = [futures[iid].result() for iid in ids]
    else:
        results = [run_item(iid, seed, caps) for iid in ids]
    statuses = {r.status for r in results}
    overall = next(s for s in (ERROR, REFUTED, VERIFIED, SKIPPED) if s in statuses)
    return SuiteReport(results, overall)
