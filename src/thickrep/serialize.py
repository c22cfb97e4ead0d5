"""JSON forms for every value that crosses the CLI boundary.

All scalars travel as strings ("3/2" over the rationals, "4" in a prime
field); reports are plain JSON objects that round-trip byte-identically
through `dumps`.
"""

from __future__ import annotations

import json

from .errors import MalformedInput, ThickRepError
from .fields import GF, field_from_json, field_to_json
from .linalg import Matrix, Subspace
from .repcore import (
    GROUP,
    LIE,
    Decision,
    NotThickCertificate,
    Representation,
)


def dumps(obj) -> str:
    """Canonical serialization; parse -> dumps is byte-identical."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def matrix_to_json(m: Matrix):
    return [[m.field.format(x) for x in row] for row in m.rows]


def matrix_from_json(field, data) -> Matrix:
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise MalformedInput("a matrix must be a list of rows")
    if len({len(row) for row in data}) > 1:
        raise MalformedInput("matrix rows differ in length")
    return Matrix(field, [[field.parse(x) for x in row] for row in data])


def vector_to_json(field, v):
    return [field.format(x) for x in v]


def vector_from_json(field, data):
    if not isinstance(data, list):
        raise MalformedInput("a vector must be a list of scalars")
    return tuple(field.parse(x) for x in data)


def subspace_to_json(s: Subspace):
    return {"ambient": s.ambient, "basis": matrix_to_json(s.mat)}


def subspace_from_json(field, data) -> Subspace:
    """The span of `basis` in k^ambient; raises MalformedInput unless data is
    an object with an integer `ambient` and a matrix `basis`."""
    if not isinstance(data, dict) or type(data.get("ambient")) is not int:
        raise MalformedInput("a subspace must be an object with an integer ambient")
    basis = matrix_from_json(field, data["basis"])
    return Subspace.from_vectors(field, data["ambient"], basis.rows)


def representation_to_json(r: Representation):
    return {
        "field": field_to_json(r.field),
        "dim": r.dim,
        "mode": r.mode,
        "generators": [matrix_to_json(g) for g in r.generators],
        "label": r.label,
    }


def representation_from_json(data) -> Representation:
    """The rep of a JSON object; raises MalformedInput unless `dim` is an
    integer, `generators` a list of dim x dim matrices and `label`, when
    present and not null, a string."""
    if not isinstance(data, dict):
        raise MalformedInput("a representation must be a JSON object")
    field = field_from_json(data["field"])
    mode = data.get("mode", GROUP)
    if mode not in (GROUP, LIE):
        raise ThickRepError("unknown mode %r" % (mode,))
    dim = data["dim"]
    if type(dim) is not int:
        raise MalformedInput("dim must be an integer, got %r" % (dim,))
    if not isinstance(data["generators"], list):
        raise MalformedInput("generators must be a list of matrices")
    label = data.get("label", "")
    if label is not None and not isinstance(label, str):
        raise MalformedInput("label must be a string, got %r" % (label,))
    gens = [matrix_from_json(field, g) for g in data["generators"]]
    return Representation(field, dim, mode, gens, label=label)


def certificate_to_json(r: Representation, cert: NotThickCertificate):
    """Self-contained refutation: carries the generators so third parties
    can re-check without any other input."""
    f = cert.field
    out = {
        "kind": "not_thick_certificate",
        "field": field_to_json(f),
        "n": cert.n,
        "m": cert.m,
        "mode": r.mode,
        "generators": [matrix_to_json(g) for g in r.generators],
        "w1": subspace_to_json(cert.w1),
        "w2": subspace_to_json(cert.w2),
        "witness1": [vector_to_json(f, v) for v in cert.witness1],
        "witness2": [vector_to_json(f, v) for v in cert.witness2],
    }
    if cert.pair is not None:
        v1, v2 = cert.pair
        out["pair"] = [subspace_to_json(v1), subspace_to_json(v2)]
    return out


def certificate_from_json(data):
    """Returns (representation, certificate); raises MalformedInput unless
    `n` and `m` are integers, `generators`, `witness1` and `witness2` are
    lists, and `pair`, when present, is a list of two subspaces."""
    if not isinstance(data, dict) or data.get("kind") != "not_thick_certificate":
        raise ThickRepError("not a thickness refutation certificate")
    field = field_from_json(data["field"])
    n, m = data["n"], data["m"]
    if type(n) is not int or type(m) is not int:
        raise MalformedInput("n and m must be integers")
    for key in ("generators", "witness1", "witness2"):
        if not isinstance(data[key], list):
            raise MalformedInput("%s must be a list" % key)
    pair = data.get("pair")
    if pair is not None and not (isinstance(pair, list) and len(pair) == 2):
        raise MalformedInput("pair must be a list of two subspaces")
    gens = [matrix_from_json(field, g) for g in data["generators"]]
    rep = Representation(field, n, data.get("mode", GROUP), gens)
    cert = NotThickCertificate(
        field=field,
        n=n,
        m=m,
        w1=subspace_from_json(field, data["w1"]),
        w2=subspace_from_json(field, data["w2"]),
        witness1=tuple(vector_from_json(field, v) for v in data["witness1"]),
        witness2=tuple(vector_from_json(field, v) for v in data["witness2"]),
        pair=(
            tuple(subspace_from_json(field, p) for p in pair)
            if pair is not None
            else None
        ),
    )
    return rep, cert


def _norton_to_json(r: Representation, proof):
    """Norton's theta coefficients and lambda; over Q in F_p, after `prime` p."""
    *prime, coeffs, lam = proof
    field = GF(*prime) if prime else r.field
    return dict(zip(["prime"], prime), theta=[field.format(c) for c in coeffs],
                eigenvalue=field.format(lam))


# the JSON form of each route's witness, other than a refutation certificate
_WITNESS_TO_JSON = {
    "norton": _norton_to_json,
    "submodule": lambda r, w: subspace_to_json(w),
    "lattice": lambda r, w: subspace_to_json(w),
    "commutant": lambda r, a: matrix_to_json(a),
    "closure": lambda r, dim: dim,
}


def decision_to_json(r: Representation, decision: Decision):
    """A decision on `r` with its field scope and any reason; a refutation
    certificate under `certificate`, any other witness under `witness`."""
    out = {
        "verdict": decision.verdict,
        "route": decision.route,
        "field_scope": field_to_json(r.field),
        "log": decision.log,
    }
    if decision.reason:
        out["reason"] = decision.reason
    cert = decision.certificate
    if isinstance(cert, NotThickCertificate):
        out["certificate"] = certificate_to_json(r, cert)
    elif cert is not None:
        out["witness"] = _WITNESS_TO_JSON[decision.route](r, cert)
    return out
