"""Command-line front end.

Every command returns a report and a verdict; `main` writes the report
(stdout or --json-out) and maps the verdict to the exit code through one
table, `_EXIT_CODES`, for all commands: 0 the property holds, the
certificate verifies or the command has no verdict; 1 refuted (a NotThick
report carries a certificate), does not verify or the suite failed;
2 undecided or a cap was hit; 3 usage or input errors.  All I/O is UTF-8
JSON; every run is reproducible from --seed.
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
    decide_m_dense,
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
from .verify import ERROR, REFUTED, VERIFIED, run_suite

# the exit code of every verdict a command returns; anything else exits 2
_EXIT_CODES = {None: 0, THICK: 0, YES: 0, "Realizable": 0, VERIFIED: 0,
               NOT_THICK: 1, NO: 1, "NotRealizable": 1, REFUTED: 1, ERROR: 1}


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


def _emit(report, json_out):
    text = serialize.dumps(report)
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args):
    rep = serialize.representation_from_json(_load_json(args.rep))
    caps = Caps.default(args.caps)
    report = {"property": args.mode, "m": args.m, "label": rep.label,
              "method": args.method, "mode": rep.mode}
    if args.mode == "thick":
        if args.method == "burnside":
            raise ThickRepError("burnside decides denseness, not thickness")
        if args.method == "definition":
            decision = is_m_thick_definition(rep, args.m, caps)
        else:
            decision = is_m_thick_criterion(rep, args.m, caps, seed=args.seed)
    else:
        if args.method == "criterion":
            raise ThickRepError("the pair criterion decides thickness only")
        report["absolute"] = args.method == "burnside"
        m = args.m if args.mode == "dense" else 1
        decision = decide_m_dense(rep, m, report["absolute"], caps)
    report.update(serialize.decision_to_json(rep, decision))
    return report, decision.verdict


def cmd_construct(args):
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
    else:
        gens = lie_generators(args.family, args.n, field)
        out = {
            "family": args.family,
            "n": args.n,
            "generators": [serialize.matrix_to_json(g) for g in gens],
        }
    return out, None


def cmd_exterior(args):
    field = _parse_field(args.field)
    data = _load_json(args.input)
    if args.op == "compound":
        m = serialize.matrix_from_json(field, data)
        return serialize.matrix_to_json(compound(m, args.m)), None
    if args.op == "wedge":
        vectors = [serialize.vector_from_json(field, v) for v in data]
        return wedge_of_vectors(field, args.n, vectors).to_sparse(), None
    if args.op == "decomposable":
        w = WedgeVector.from_sparse(field, args.n, args.m, data)
        ok, witness = is_decomposable(w)
        out = {"decomposable": ok}
        if ok:
            out["witness"] = [serialize.vector_to_json(field, v) for v in witness]
        return out, YES if ok else NO
    sub = serialize.subspace_from_json(field, data)
    if args.op == "perp":
        return serialize.subspace_to_json(perp(sub, args.n, args.m)), None
    res = realizable_search(sub, args.n, args.m, seed=args.seed)
    out = {"status": res.status, "scanned": res.scanned, "exhaustive": res.exhaustive}
    if res.witness is not None:
        out["witness"] = res.witness.to_sparse()
    return out, res.status


def cmd_characters(args):
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
    else:
        out = {
            "kind": args.kind,
            "n": args.n,
            "m": args.m,
            "components": plethysm_component_count(args.kind, args.n, args.m),
        }
    return out, None


def cmd_symplectic(args):
    field = _parse_field(args.field)
    sp = SymplecticSpace(args.n, field)
    if args.op == "kernel":
        k = ker_fm(sp, args.m)
        return {"dim": k.dim, "subspace": serialize.subspace_to_json(k)}, None
    report = ker_perp_realizability_check(sp, args.m, trials=args.trials, seed=args.seed)
    ok = report.pairing_prong_pass and (
        not report.scan_prong_ran or report.scan_prong_pass
    )
    return dataclasses.asdict(report), YES if ok else NO


def cmd_rnumber(args):
    return dataclasses.asdict(r_number_bounds(args.n, args.m)), None


def cmd_recheck(args):
    rep, cert = serialize.certificate_from_json(_load_json(args.certificate))
    ok = verify_not_thick_certificate(rep, cert)
    return {"certificate": args.certificate, "verifies": ok}, YES if ok else NO


def cmd_verify(args):
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
                _emit(payload, path)
                paths.append(path)
            if paths:
                cert_paths[item.item_id] = paths
    for item in suite.items:
        line = "%-9s %6d ms  %s" % (item.status, item.runtime_ms, item.item_id)
        print(line, file=sys.stderr)
    return suite.to_json(cert_paths), suite.overall


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="thickrep",
        description="Exact deciders for thickness and denseness of "
        "finite-dimensional representations.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    # each flag that several commands share is declared once, in a parent
    json_out, seed, field, caps = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    json_out.add_argument("--json-out", default="")
    seed.add_argument("--seed", type=int, default=0)
    field.add_argument("--field", default="Q")
    caps.add_argument("--caps", default="")

    def command(name, summary, *shared):
        # every command writes its report to stdout or --json-out
        return sub.add_parser(name, help=summary, parents=[*shared, json_out])

    p = command("check", "decide a property of a representation file", seed, caps)
    p.add_argument("--rep", required=True)
    p.add_argument("--mode", required=True, choices=["thick", "dense", "irreducible"])
    p.add_argument("--m", type=int, default=1)
    p.add_argument(
        "--method", default="definition", choices=["definition", "criterion", "burnside"]
    )

    p = command("construct", "build a representation family", field, seed)
    p.add_argument("kind", choices=["companion", "block", "e1wedge", "lie"])
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--a", default="2")
    p.add_argument("--b", default="3")
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--alphas", default="1,4")
    p.add_argument("--betas", default="3,9")
    p.add_argument("--family", default="sp")

    p = command("exterior", "exterior-algebra operations", field, seed)
    p.add_argument("op", choices=["compound", "wedge", "perp", "decomposable", "realizable"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--input", required=True, help="JSON input file")

    p = command("characters", "symmetric-group and weight characters")
    p.add_argument("op", choices=["char", "wedge-square", "gl2", "partitions", "plethysm"])
    p.add_argument("--partition", default="3,2")
    p.add_argument("--a", type=int, default=3)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--kind", default="sym2", choices=["sym2", "wedge2"])

    p = command("symplectic", "contraction kernels and their perps", field, seed)
    p.add_argument("op", choices=["kernel", "ker-perp"])
    p.add_argument("--n", type=int, required=True, help="half-dimension")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--trials", type=int, default=200)

    p = command("rnumber", "bounds for minimal invariant realizable dims")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = command("recheck", "independently re-verify a certificate")
    p.add_argument("--certificate", required=True)

    p = command("verify", "run the verification suite", seed, caps)
    p.add_argument("--filter", default="")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cert-dir", default="")

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
        report, verdict = fn(args)
        _emit(report, args.json_out)
    except CapExceeded as e:
        print("cap exceeded: %s" % e, file=sys.stderr)
        return 2
    except (ThickRepError, OSError, ValueError, KeyError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    return _EXIT_CODES.get(verdict, 2)


if __name__ == "__main__":
    sys.exit(main())
