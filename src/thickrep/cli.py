"""Command-line front end.

Exit codes for `check`: 0 the property holds, 1 refuted (certificate in the
report), 2 undecided or a cap was hit, 3 usage or input errors.  All I/O is
UTF-8 JSON; every run is reproducible from --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from .errors import CapExceeded, ThickRepError
from .fields import GF, QQ, field_from_json
from .exterior import (
    WedgeVector,
    compound,
    is_decomposable,
    perp,
    realizable_search,
    wedge_of_vectors,
)
from .repcore import (
    Caps,
    NO,
    NOT_THICK,
    THICK,
    YES,
    absolute_irreducibility,
    exterior_rep,
    is_m_dense,
    is_m_thick_criterion,
    is_m_thick_definition,
    r_number_bounds,
    verify_not_thick_certificate,
)
from .constructions import (
    build_block_rep,
    companion_pair,
    e1_wedge_subspace,
    lie_generators,
)
from .symplectic import SymplecticSpace, ker_fm, ker_perp_realizability_check
from .characters import (
    decompose,
    distinct_parts_coeffs,
    exterior_square_char,
    gl2_wedge_identity,
    partitions,
    plethysm_component_count,
    sym_char,
)
from . import serialize
from .verify import VERIFIED, run_suite


def _exit_code(verdict) -> int:
    """The exit code of a verdict of `check` or `exterior realizable`: 0 the
    property holds, 1 refuted, 2 undecided."""
    codes = {THICK: 0, YES: 0, "Realizable": 0, NOT_THICK: 1, NO: 1, "NotRealizable": 1}
    return codes.get(verdict, 2)


def _parse_field(spec: str):
    if spec in ("Q", "QQ", "q"):
        return QQ
    if spec.startswith("F"):
        return GF(int(spec[1:]))
    return field_from_json(json.loads(spec))


def _parse_partition(text: str):
    return tuple(int(x) for x in text.split(","))


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(report, json_out=None):
    text = serialize.dumps(report)
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    rep = serialize.representation_from_json(_load_json(args.rep))
    caps = Caps.default(args.caps)
    report = {"property": args.mode, "m": args.m, "label": rep.label}
    if args.mode == "thick":
        if args.method == "burnside":
            raise ThickRepError("burnside decides denseness, not thickness")
        if args.method == "definition":
            tr = is_m_thick_definition(rep, args.m, caps)
        else:
            tr = is_m_thick_criterion(rep, args.m, caps, seed=args.seed)
        report.update(serialize.thickness_report_to_json(rep, tr))
        _emit(report, args.json_out)
        return _exit_code(tr.verdict)
    if args.mode in ("dense", "irreducible"):
        if args.method == "criterion":
            raise ThickRepError("the pair criterion decides thickness only")
        absolute = args.method == "burnside"
        m = args.m if args.mode == "dense" else 1
        if absolute and 0 < m < rep.dim:
            # the route that decided: "norton", "submodule" (finite fields),
            # "commutant" or "closure"
            decision = absolute_irreducibility(exterior_rep(rep, m))
            report.update({"verdict": decision.verdict, "route": decision.route})
        else:
            report["verdict"] = is_m_dense(rep, m, absolute=absolute, caps=caps)
            if absolute:
                report["route"] = "trivial"  # Lambda^0 and Lambda^n are lines
        report["absolute"] = absolute
        _emit(report, args.json_out)
        return _exit_code(report["verdict"])
    raise ThickRepError("unknown mode %r" % (args.mode,))


def cmd_construct(args) -> int:
    field = _parse_field(args.field)
    if args.kind == "companion":
        res = companion_pair(field, args.n, field.parse(args.a), field.parse(args.b))
        out = {
            "representation": serialize.representation_to_json(res.rep),
            "roots_available": res.roots_available,
            "windows": {
                str(m): serialize.subspace_to_json(w) for m, w in res.windows.items()
            },
        }
    elif args.kind == "block":
        alphas = tuple(field.parse(x) for x in args.alphas.split(","))
        betas = tuple(field.parse(x) for x in args.betas.split(","))
        res = build_block_rep(
            args.ell, args.m, field, alphas=alphas, betas=betas, seed=args.seed
        )
        out = {
            "representation": serialize.representation_to_json(res.rep),
            "w": serialize.subspace_to_json(res.w),
            "y": serialize.subspace_to_json(res.y),
            "cramer_checked": res.cramer_checked,
            "cramer_nonzero": res.cramer_nonzero,
        }
    elif args.kind == "e1wedge":
        out = serialize.subspace_to_json(e1_wedge_subspace(field, args.n))
    elif args.kind == "lie":
        gens = lie_generators(args.family, args.n, field)
        out = {
            "family": args.family,
            "n": args.n,
            "generators": [serialize.matrix_to_json(g) for g in gens],
        }
    else:
        raise ThickRepError("unknown construction %r" % (args.kind,))
    _emit(out, args.json_out)
    return 0


def cmd_exterior(args) -> int:
    field = _parse_field(args.field)
    if args.op == "compound":
        m = serialize.matrix_from_json(field, _load_json(args.input))
        _emit(serialize.matrix_to_json(compound(m, args.m)), args.json_out)
        return 0
    if args.op == "wedge":
        vectors = [
            serialize.vector_from_json(field, v) for v in _load_json(args.input)
        ]
        w = wedge_of_vectors(field, args.n, vectors)
        _emit(w.to_sparse(), args.json_out)
        return 0
    if args.op == "decomposable":
        w = WedgeVector.from_sparse(field, args.n, args.m, _load_json(args.input))
        ok, witness = is_decomposable(w)
        out = {"decomposable": ok}
        if ok:
            out["witness"] = [serialize.vector_to_json(field, v) for v in witness]
        _emit(out, args.json_out)
        return 0 if ok else 1
    if args.op in ("perp", "realizable"):
        data = _load_json(args.input)
        sub = serialize.subspace_from_json(field, data)
        if args.op == "perp":
            _emit(
                serialize.subspace_to_json(perp(sub, args.n, args.m)), args.json_out
            )
            return 0
        res = realizable_search(sub, args.n, args.m, seed=args.seed)
        out = {"status": res.status, "scanned": res.scanned, "exhaustive": res.exhaustive}
        if res.witness is not None:
            out["witness"] = res.witness.to_sparse()
        _emit(out, args.json_out)
        return _exit_code(res.status)
    raise ThickRepError("unknown exterior op %r" % (args.op,))


def cmd_characters(args) -> int:
    if args.op == "char":
        lam = _parse_partition(args.partition)
        chi = sym_char(lam)
        out = {
            "partition": list(lam),
            "degree": int(chi.degree),
            "classes": [list(mu) for mu in partitions(chi.d)],
            "values": [str(v) for v in chi.values],
        }
    elif args.op == "wedge-square":
        lam = _parse_partition(args.partition)
        psi = exterior_square_char(sym_char(lam))
        out = {
            "partition": list(lam),
            "decomposition": [
                {"partition": list(mu), "multiplicity": mult}
                for mu, mult in decompose(psi)
            ],
        }
    elif args.op == "gl2":
        out = {"a": args.a, "b": args.b, "holds": gl2_wedge_identity(args.a, args.b)}
    elif args.op == "partitions":
        out = {"n": args.n, "coefficients": distinct_parts_coeffs(args.n)}
    elif args.op == "plethysm":
        out = {
            "kind": args.kind,
            "n": args.n,
            "m": args.m,
            "components": plethysm_component_count(args.kind, args.n, args.m),
        }
    else:
        raise ThickRepError("unknown characters op %r" % (args.op,))
    _emit(out, args.json_out)
    return 0


def cmd_symplectic(args) -> int:
    field = _parse_field(args.field)
    sp = SymplecticSpace(args.n, field)
    if args.op == "kernel":
        k = ker_fm(sp, args.m)
        _emit(
            {"dim": k.dim, "subspace": serialize.subspace_to_json(k)}, args.json_out
        )
        return 0
    if args.op == "ker-perp":
        report = ker_perp_realizability_check(
            sp, args.m, trials=args.trials, seed=args.seed
        )
        _emit(dataclasses.asdict(report), args.json_out)
        ok = report.pairing_prong_pass and (
            not report.scan_prong_ran or report.scan_prong_pass
        )
        return 0 if ok else 1
    raise ThickRepError("unknown symplectic op %r" % (args.op,))


def cmd_rnumber(args) -> int:
    _emit(serialize.r_number_to_json(r_number_bounds(args.n, args.m)), args.json_out)
    return 0


def cmd_recheck(args) -> int:
    rep, cert = serialize.certificate_from_json(_load_json(args.certificate))
    ok = verify_not_thick_certificate(rep, cert)
    _emit({"certificate": args.certificate, "verifies": ok}, args.json_out)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    caps = Caps.default(args.caps)
    suite = run_suite(filter_substring=args.filter, seed=args.seed, caps=caps,
                      jobs=args.jobs)
    cert_paths = {}
    if args.cert_dir:
        os.makedirs(args.cert_dir, exist_ok=True)
        for item in suite.items:
            paths = []
            for name, payload in item.certificates:
                path = os.path.join(args.cert_dir, "%s.json" % name)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(serialize.dumps(payload))
                paths.append(path)
            if paths:
                cert_paths[item.item_id] = paths
    for item in suite.items:
        line = "%-9s %6d ms  %s" % (item.status, item.runtime_ms, item.item_id)
        print(line, file=sys.stderr)
    _emit(suite.to_json(cert_paths), args.json_out)
    return 0 if suite.overall == VERIFIED else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="thickrep",
        description="Exact deciders for thickness and denseness of "
        "finite-dimensional representations.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a property of a representation file")
    p.add_argument("--rep", required=True)
    p.add_argument("--mode", required=True, choices=["thick", "dense", "irreducible"])
    p.add_argument("--m", type=int, default=1)
    p.add_argument(
        "--method", default="definition", choices=["definition", "criterion", "burnside"]
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--caps", default="")
    p.add_argument("--json-out", default="")

    p = sub.add_parser("construct", help="build a representation family")
    p.add_argument("kind", choices=["companion", "block", "e1wedge", "lie"])
    p.add_argument("--field", default="Q")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--a", default="2")
    p.add_argument("--b", default="3")
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--alphas", default="1,4")
    p.add_argument("--betas", default="3,9")
    p.add_argument("--family", default="sp")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json-out", default="")

    p = sub.add_parser("exterior", help="exterior-algebra operations")
    p.add_argument("op", choices=["compound", "wedge", "perp", "decomposable", "realizable"])
    p.add_argument("--field", default="Q")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--input", required=True, help="JSON input file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json-out", default="")

    p = sub.add_parser("characters", help="symmetric-group and weight characters")
    p.add_argument("op", choices=["char", "wedge-square", "gl2", "partitions", "plethysm"])
    p.add_argument("--partition", default="3,2")
    p.add_argument("--a", type=int, default=3)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--kind", default="sym2", choices=["sym2", "wedge2"])
    p.add_argument("--json-out", default="")

    p = sub.add_parser("symplectic", help="contraction kernels and their perps")
    p.add_argument("op", choices=["kernel", "ker-perp"])
    p.add_argument("--field", default="Q")
    p.add_argument("--n", type=int, required=True, help="half-dimension")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json-out", default="")

    p = sub.add_parser("rnumber", help="bounds for minimal invariant realizable dims")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--json-out", default="")

    p = sub.add_parser("recheck", help="independently re-verify a certificate")
    p.add_argument("--certificate", required=True)
    p.add_argument("--json-out", default="")

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--filter", default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--caps", default="")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cert-dir", default="")
    p.add_argument("--json-out", default="")

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 3 if e.code not in (0, None) else 0
    # looked up at call time, so that a wrapper installed on the module is used
    fn = globals()["cmd_" + args.command]
    try:
        return fn(args)
    except (ThickRepError, OSError, ValueError, KeyError) as e:
        if isinstance(e, CapExceeded):
            print("cap exceeded: %s" % e, file=sys.stderr)
            return 2
        print("error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
