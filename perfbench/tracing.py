"""Traced runs: wrappers installed from outside the package around the public
functions of each module, recording one span per call.

A span is (layer, start, end, parent span, op id).  Spans are kept in flat
arrays while the run lasts and written out as JSONL when it ends.  A
function imported by name into another module (``from .linalg import
kernel``) is patched in every ``thickrep`` module that holds it, and a
method is patched on its class, so every call path goes through the
wrapper.  ``Tracer.remove`` puts every original object back.

Field arithmetic (``add``/``sub``/``mul``/``neg``/``inv``/``div`` on the field
objects) is counted without spans: it is called millions of times, and a
span per call would cost far more than the call.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, attribute path) of every layer that gets spans, in report order.
SPAN_LAYERS = (
    "repcore.all_submodules",
    "repcore.spin",
    "repcore.is_m_thick_definition",
    "repcore.is_m_thick_criterion",
    "repcore.is_m_dense",
    "repcore.exterior_rep",
    "repcore.group_closure",
    "repcore.burnside_dim",
    "repcore.commutant",
    "repcore.isotypic_decomposition",
    "repcore.verify_not_thick_certificate",
    "linalg.Subspace.sum",
    "linalg.Subspace.from_vectors",
    "linalg.rank_of_rows",
    "linalg.Matrix.__mul__",
    "linalg.Matrix.apply",
    "linalg.RowBasis.insert",
    "linalg.kernel",
    "linalg.charpoly",
    "exterior.compound",
    "exterior.derivation",
    "exterior.realizable_search",
    "exterior.is_decomposable",
    "exterior.perp",
    "fields.rational_roots",
    "serialize.representation_from_json",
    "serialize.certificate_to_json",
    "serialize.certificate_from_json",
    "serialize.dumps",
    "cli.main",
    "cli.cmd_check",
    "cli.cmd_recheck",
    "symplectic.lagrangian_complement",
    "symplectic.isotropic_transversal",
    "constructions.build_block_rep",
    "constructions.generic_diagonalizable",
    "constructions.companion_pair",
    "constructions.lie_generators",
)

FIELD_CLASSES = ("Rationals", "PrimeField", "ExtensionField")
FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div")

# Layer metrics reported on every traced run: (name, unit, better).
PER_LAYER_METRICS = (
    ("repcore.all_submodules.calls", "count", "lower"),
    ("repcore.all_submodules.self_s", "s", "lower"),
    ("repcore.all_submodules.useful_ratio", "ratio", "higher"),
    ("repcore.spin.calls", "count", "lower"),
    ("repcore.spin.self_s", "s", "lower"),
    ("linalg.Subspace.sum.calls", "count", "lower"),
    ("linalg.Subspace.sum.self_s", "s", "lower"),
    ("linalg.Subspace.from_vectors.calls", "count", "lower"),
    ("linalg.Subspace.from_vectors.self_s", "s", "lower"),
    ("repcore.is_m_thick_definition.self_s", "s", "lower"),
    ("linalg.rank_of_rows.calls", "count", "lower"),
    ("linalg.rank_of_rows.self_s", "s", "lower"),
    ("repcore.is_m_thick_criterion.self_s", "s", "lower"),
    ("repcore.is_m_dense.self_s", "s", "lower"),
    ("repcore.exterior_rep.calls", "count", "lower"),
    ("repcore.group_closure.self_s", "s", "lower"),
    ("linalg.Matrix.__mul__.calls", "count", "lower"),
    ("linalg.Matrix.__mul__.self_s", "s", "lower"),
    ("exterior.compound.calls", "count", "lower"),
    ("exterior.compound.self_s", "s", "lower"),
    ("linalg.RowBasis.insert.calls", "count", "lower"),
    ("linalg.RowBasis.insert.self_s", "s", "lower"),
    ("linalg.RowBasis.insert.useful_ratio", "ratio", "higher"),
    ("linalg.Matrix.apply.calls", "count", "lower"),
    ("linalg.Matrix.apply.self_s", "s", "lower"),
    ("repcore.burnside_dim.calls", "count", "lower"),
    ("repcore.burnside_dim.self_s", "s", "lower"),
    ("repcore.commutant.self_s", "s", "lower"),
    ("repcore.isotypic_decomposition.self_s", "s", "lower"),
    ("linalg.kernel.calls", "count", "lower"),
    ("linalg.kernel.self_s", "s", "lower"),
    ("linalg.charpoly.self_s", "s", "lower"),
    ("exterior.derivation.self_s", "s", "lower"),
    ("fields.rational_roots.self_s", "s", "lower"),
    ("fields.generic_ops.calls", "count", "lower"),
    ("exterior.realizable_search.calls", "count", "lower"),
    ("exterior.realizable_search.self_s", "s", "lower"),
    ("exterior.realizable_search.points_scanned", "count", "lower"),
    ("exterior.realizable_search.hit_ratio", "ratio", "higher"),
    ("exterior.is_decomposable.calls", "count", "lower"),
    ("exterior.is_decomposable.self_s", "s", "lower"),
    ("exterior.perp.calls", "count", "lower"),
    ("exterior.perp.self_s", "s", "lower"),
    ("repcore.verify_not_thick_certificate.calls", "count", "lower"),
    ("repcore.verify_not_thick_certificate.self_s", "s", "lower"),
    ("serialize.representation_from_json.self_s", "s", "lower"),
    ("serialize.certificate_to_json.self_s", "s", "lower"),
    ("serialize.certificate_from_json.self_s", "s", "lower"),
    ("serialize.dumps.self_s", "s", "lower"),
    ("serialize.bytes", "B", "lower"),
    ("cli.cmd_check.calls", "count", "lower"),
    ("cli.cmd_check.self_s", "s", "lower"),
    ("cli.cmd_recheck.calls", "count", "lower"),
    ("cli.cmd_recheck.self_s", "s", "lower"),
    ("cli.exit_code.0", "count", "higher"),
    ("cli.exit_code.1", "count", "higher"),
    ("cli.exit_code.2", "count", "lower"),
    ("cli.exit_code.3", "count", "lower"),
    ("symplectic.lagrangian_complement.calls", "count", "lower"),
    ("symplectic.lagrangian_complement.self_s", "s", "lower"),
    ("symplectic.isotropic_transversal.calls", "count", "lower"),
    ("symplectic.isotropic_transversal.self_s", "s", "lower"),
    ("constructions.build_block_rep.self_s", "s", "lower"),
    ("constructions.generic_diagonalizable.self_s", "s", "lower"),
    ("constructions.companion_pair.self_s", "s", "lower"),
    ("constructions.lie_generators.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

PACKAGE = "thickrep"
SETUP_OP = -1


def _package_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _resolve(dotted):
    """(owner, attribute name, raw attribute) for 'module.attr[.attr]'."""
    parts = dotted.split(".")
    owner = sys.modules["%s.%s" % (PACKAGE, parts[0])]
    for name in parts[1:-1]:
        owner = getattr(owner, name)
    name = parts[-1]
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


class Tracer:
    """Installs span and counting wrappers on the package's modules.  The
    op id that new spans carry is whatever ``op`` holds when they start."""

    def __init__(self):
        self.layers = list(SPAN_LAYERS)
        self.op = SETUP_OP
        # span columns, indexed by span id
        self.layer = array("l")
        self.parent = array("l")
        self.op_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.field_ops = 0
        self.extra = {
            "lattice_size": 0,
            "insert_grew": 0,
            "points_scanned": 0,
            "realizable_hits": 0,
            "serialized_bytes": 0,
        }
        self.exit_codes = {}
        self._patched = []  # (owner, name, original raw attribute)

    # installation

    def install(self):
        observers = {
            "repcore.all_submodules": self._see_lattice,
            "linalg.RowBasis.insert": self._see_insert,
            "exterior.realizable_search": self._see_realizable,
            "serialize.dumps": self._see_dumps,
            "cli.main": self._see_exit,
        }
        for idx, dotted in enumerate(self.layers):
            owner, name, raw = _resolve(dotted)
            if isinstance(owner, type):
                self._patch_method(owner, name, raw, idx, observers.get(dotted))
            else:
                wrapper = self._span_wrapper(raw, idx, observers.get(dotted))
                self._patch_everywhere(raw, wrapper)
        fields = sys.modules["%s.fields" % PACKAGE]
        for cls_name in FIELD_CLASSES:
            cls = getattr(fields, cls_name)
            for op in FIELD_OPS:
                raw = cls.__dict__[op]
                self._patched.append((cls, op, raw))
                setattr(cls, op, self._count_wrapper(raw))

    def remove(self):
        for owner, name, raw in reversed(self._patched):
            setattr(owner, name, raw)
        self._patched = []

    def leftovers(self):
        """Names of attributes in the package that still hold a wrapper."""
        found = []
        for mod in _package_modules():
            for name, value in vars(mod).items():
                if getattr(value, "_perfbench_wrapper", False):
                    found.append("%s.%s" % (mod.__name__, name))
                if isinstance(value, type):
                    for attr, raw in vars(value).items():
                        inner = getattr(raw, "__func__", raw)
                        if getattr(inner, "_perfbench_wrapper", False):
                            found.append("%s.%s.%s" % (mod.__name__, name, attr))
        return sorted(set(found))

    def _patch_everywhere(self, original, wrapper):
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def _patch_method(self, cls, name, raw, idx, observe):
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._span_wrapper(raw.__func__, idx, observe))
        else:
            wrapped = self._span_wrapper(raw, idx, observe)
        self._patched.append((cls, name, raw))
        setattr(cls, name, wrapped)

    # wrappers

    def _span_wrapper(self, fn, idx, observe):
        clock = time.perf_counter
        stack = self._stack
        layer, parent, op_id = self.layer, self.parent, self.op_id
        start, end = self.start, self.end
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(start)
            layer.append(idx)
            parent.append(stack[-1] if stack else -1)
            op_id.append(tracer.op)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        wrapper._perfbench_wrapper = True
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _count_wrapper(self, fn):
        tracer = self

        def wrapper(*args):
            tracer.field_ops += 1
            return fn(*args)

        wrapper._perfbench_wrapper = True
        wrapper.__wrapped__ = fn
        return wrapper

    def _see_lattice(self, result):
        self.extra["lattice_size"] += len(result)

    def _see_insert(self, result):
        self.extra["insert_grew"] += bool(result)

    def _see_realizable(self, result):
        self.extra["points_scanned"] += result.scanned
        self.extra["realizable_hits"] += result.status == "Realizable"

    def _see_dumps(self, result):
        self.extra["serialized_bytes"] += len(result.encode("utf-8"))

    def _see_exit(self, result):
        self.exit_codes[result] = self.exit_codes.get(result, 0) + 1

    # results

    def snapshot(self):
        """Counters so far, so that a later ``layer_totals`` can subtract them."""
        return (
            len(self.start),
            self.field_ops,
            dict(self.extra),
            dict(self.exit_codes),
        )

    def truncate(self, since):
        """Drop the spans recorded after the ``since`` snapshot."""
        first = since[0]
        for column in (self.layer, self.parent, self.op_id, self.start, self.end):
            del column[first:]

    def layer_totals(self, since=None, weight=None):
        """Per-layer calls and self time over the spans recorded after the
        ``since`` snapshot (all spans if None).

        Self time is the span's duration minus the durations of its child
        spans; children nest strictly inside their parent because the
        program is single-threaded and synchronous.  ``weight(op id)``, if
        given, scales the self times of each op's spans.
        """
        first, field_ops0, extra0, exits0 = since or (0, 0, {}, {})
        n_layers = len(self.layers)
        calls = [0] * n_layers
        self_s = [0.0] * n_layers
        spins_under_lattice = 0
        spin_idx = self.layers.index("repcore.spin")
        lattice_idx = self.layers.index("repcore.all_submodules")
        count = len(self.start)
        child = [0.0] * (count - first)
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        op_id = self.op_id
        scale = {}
        # children end before their parent, so one reverse pass sees every
        # child's duration before it needs the parent's total
        for sid in range(count - 1, first - 1, -1):
            dur = end[sid] - start[sid]
            lid = layer[sid]
            calls[lid] += 1
            own = dur - child[sid - first]
            if weight is not None:
                op = op_id[sid]
                if op not in scale:
                    scale[op] = weight(op)
                own *= scale[op]
            self_s[lid] += own
            pid = parent[sid]
            if pid >= first:
                child[pid - first] += dur
                if lid == spin_idx and layer[pid] == lattice_idx:
                    spins_under_lattice += 1
        extra = {k: v - extra0.get(k, 0) for k, v in self.extra.items()}
        exits = {k: v - exits0.get(k, 0) for k, v in self.exit_codes.items()}
        return {
            "calls": dict(zip(self.layers, calls)),
            "self_s": dict(zip(self.layers, self_s)),
            "spans": count - first,
            "spins_under_lattice": spins_under_lattice,
            "field_ops": self.field_ops - field_ops0,
            "extra": extra,
            "exit_codes": exits,
        }

    def write_jsonl(self, path):
        """One JSON object per span held: id, layer name, parent id, op id
        (-1 for set-up), start and end in seconds on the perf_counter
        clock.  Times are as measured, not scaled to reference pace."""
        names = self.layers
        with open(path, "w", encoding="utf-8") as fh:
            for sid in range(len(self.start)):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": names[self.layer[sid]],
                            "parent": self.parent[sid],
                            "op": self.op_id[sid],
                            "start": self.start[sid],
                            "end": self.end[sid],
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def add_totals(a, b):
    """The sum of two ``layer_totals`` results; ``a`` may be None."""
    if a is None:
        return b

    def add(x, y):
        if isinstance(x, dict):
            return {k: add(x.get(k, 0), y.get(k, 0)) for k in set(x) | set(y)}
        return x + y

    return add(a, b)


def layer_metrics(setup, loop, repetitions, overhead_ratio):
    """Per-layer metric values for one set-up plus one repetition of the
    traced work: set-up totals plus loop totals divided by repetitions."""

    def per_rep(get):
        return get(setup) + get(loop) / repetitions

    values = {}
    for dotted in SPAN_LAYERS:
        values[dotted + ".calls"] = per_rep(lambda t: t["calls"][dotted])
        values[dotted + ".self_s"] = per_rep(lambda t: t["self_s"][dotted])
    lattice = per_rep(lambda t: t["extra"]["lattice_size"])
    spins = per_rep(lambda t: t["spins_under_lattice"])
    values["repcore.all_submodules.useful_ratio"] = lattice / spins if spins else 0.0
    inserts = values["linalg.RowBasis.insert.calls"]
    grew = per_rep(lambda t: t["extra"]["insert_grew"])
    values["linalg.RowBasis.insert.useful_ratio"] = grew / inserts if inserts else 0.0
    values["fields.generic_ops.calls"] = per_rep(lambda t: t["field_ops"])
    searches = values["exterior.realizable_search.calls"]
    hits = per_rep(lambda t: t["extra"]["realizable_hits"])
    values["exterior.realizable_search.points_scanned"] = per_rep(
        lambda t: t["extra"]["points_scanned"]
    )
    values["exterior.realizable_search.hit_ratio"] = hits / searches if searches else 0.0
    values["serialize.bytes"] = per_rep(lambda t: t["extra"]["serialized_bytes"])
    for code in range(4):
        values["cli.exit_code.%d" % code] = per_rep(
            lambda t: t["exit_codes"].get(code, 0)
        )
    values["trace.spans"] = per_rep(lambda t: t["spans"])
    values["trace.overhead_ratio"] = overhead_ratio
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in PER_LAYER_METRICS
    }
