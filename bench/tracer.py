"""Per-layer tracing for the gradedalg benchmark, applied from outside.

The layers are the modules of ``gradedalg``. `install` replaces selected
public functions and methods with wrappers at run time: every binding of a
wrapped function in every loaded ``gradedalg`` module (``from .x import f``
copies the name into the importer), plus class attributes for methods.
`Tracer.uninstall` puts back the originals, so untraced runs execute the
library's own code objects.

A "span" target records one span per call: name id, parent span, start and
end, kept in flat arrays in memory. A "count" target only counts calls; its
time stays in the caller's self time. Counts are used for functions called
millions of times per pass, where a span per call would distort the very
time it measures. Per-layer metrics are derived from the spans after the
traced pass (`layer_metrics`).
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

# (metric prefix, module, attribute, mode); a dotted attribute is a method.
# Targets beyond those LAYER_METRICS names keep their time out of the
# caller's layer, so that each layer's self time is its own.
TARGETS = [
    ("identities.codim_block", "identities", "codim_block", "span"),
    ("identities.graded_codimension", "identities", "graded_codimension", "span"),
    ("identities.functional_codimension", "identities", "functional_codimension", "span"),
    ("identities.is_graded_identity", "identities", "is_graded_identity", "span"),
    ("identities.codimension_report", "identities", "codimension_report", "span"),
    ("identities.nilpotent_shortcut", "identities", "nilpotent_shortcut", "span"),
    ("identities.exponent_estimate", "identities", "exponent_estimate", "span"),
    ("exactlin.reducer_insert", "exactlin", "Reducer.insert", "span"),
    ("exactlin.rref", "exactlin", "rref", "span"),
    ("exactlin.kernel", "exactlin", "kernel", "span"),
    ("exactlin.solve", "exactlin", "solve", "span"),
    ("exactlin.invert", "exactlin", "invert", "span"),
    ("exactlin.subspace_sum", "exactlin", "subspace_sum", "span"),
    ("exactlin.subspace_intersection", "exactlin", "subspace_intersection", "span"),
    ("exactlin.subspace_contains", "exactlin", "Subspace.contains", "span"),
    ("exactlin.subspace_coords", "exactlin", "Subspace.coords", "span"),
    ("algebra.construct", "algebra", "GradedAlgebra.__init__", "span"),
    ("algebra.mul_sparse", "algebra", "GradedAlgebra.mul_sparse", "span"),
    ("algebra.multiply", "algebra", "GradedAlgebra.multiply", "span"),
    ("algebra.ideal_generated", "algebra", "GradedAlgebra.ideal_generated", "span"),
    ("algebra.subalgebra_generated", "algebra", "GradedAlgebra.subalgebra_generated", "span"),
    ("algebra.product_span", "algebra", "GradedAlgebra.product_span", "span"),
    ("algebra.is_ideal", "algebra", "GradedAlgebra.is_ideal", "span"),
    ("algebra.is_subalgebra", "algebra", "GradedAlgebra.is_subalgebra", "span"),
    ("algebra.left_mult_matrix", "algebra", "GradedAlgebra.left_mult_matrix", "span"),
    ("algebra.homogeneous_components", "algebra", "GradedAlgebra.homogeneous_components", "span"),
    ("algebra.nilpotency_index", "algebra", "nilpotency_index", "span"),
    ("algebra.quotient_algebra", "algebra", "quotient_algebra", "span"),
    ("algebra.unitalize", "algebra", "unitalize", "span"),
    ("algebra.algebra_on_subspace", "algebra", "algebra_on_subspace", "span"),
    ("groups.elem_mul", "groups", "GroupElem.__mul__", "count"),
    ("groups.elem_eq", "groups", "GroupElem.__eq__", "count"),
    ("groups.elem_hash", "groups", "GroupElem.__hash__", "count"),
    ("groups.elem_inverse", "groups", "GroupElem.inverse", "count"),
    ("hopf.dual_action", "hopf", "dual_action", "span"),
    ("hopf.hstar_closure", "hopf", "hstar_closure", "span"),
    ("hopf.xi_decompose", "hopf", "xi_decompose", "span"),
    ("hopf.trace_identity_check", "hopf", "trace_identity_check", "span"),
    ("hopf.window_from_support", "hopf", "CoalgebraWindow.__init__", "span"),
    ("radical.jacobson_radical", "radical", "jacobson_radical", "span"),
    ("radical.solvable_radical", "radical", "solvable_radical", "span"),
    ("radical.nilradical", "radical", "nilradical", "span"),
    ("radical.graded_radical_report", "radical", "graded_radical_report", "span"),
    ("radical.killing_form", "radical", "killing_form", "span"),
    ("radical.adjoint_envelope", "radical", "adjoint_envelope", "span"),
    ("radical.graded_check", "radical", "graded_check", "span"),
    ("structure.wedderburn_artin_graded", "structure", "wedderburn_artin_graded", "span"),
    ("structure.malcev_complement_graded", "structure", "malcev_complement_graded", "span"),
    ("structure.levi_graded", "structure", "levi_graded", "span"),
    ("structure.annihilator_within", "structure", "annihilator_within", "span"),
    ("schema.load_json", "schema", "load_json", "span"),
    ("schema.description_to_algebra", "schema", "description_to_algebra", "span"),
    ("schema.algebra_to_description", "schema", "algebra_to_description", "span"),
    ("schema.poly_from_description", "schema", "poly_from_description", "span"),
    ("schema.canonical_json", "schema", "canonical_json", "span"),
    ("schema.digest", "schema", "digest", "span"),
    ("builders.builtin", "builders", "builtin", "span"),
    ("cli.main", "cli", "main", "span"),
    ("cli.radical", "cli", "cmd_radical", "span"),
    ("cli.decompose", "cli", "cmd_decompose", "span"),
    ("cli.codim", "cli", "cmd_codim", "span"),
    ("cli.check-identity", "cli", "cmd_check_identity", "span"),
    ("cli.verify", "cli", "cmd_verify", "span"),
]

LAYERS = ("identities", "exactlin", "algebra", "hopf", "radical", "structure",
          "schema", "builders", "cli")
CLI_COMMANDS = ("radical", "decompose", "codim", "check-identity", "verify")
JOB_SPAN = "bench.job"


def _calls_self(prefix):
    return [(prefix + ".calls", "count"), (prefix + ".self_s", "s")]


# Every per-layer metric a traced run reports, in report order.
LAYER_METRICS = (
    _calls_self("identities.codim_block")
    + [("identities.codim_block.zero_blocks", "count"),
       ("identities.codim_block.rows_inserted", "count"),
       ("identities.codim_block.useful_ratio", "ratio")]
    + _calls_self("identities.functional_codimension")
    + [("identities.is_graded_identity.self_s", "s")]
    + _calls_self("exactlin.reducer_insert")
    + [("exactlin.reducer_insert.grew", "count"),
       ("exactlin.reducer_insert.useful_ratio", "ratio"),
       ("exactlin.reducer_insert.cells", "count")]
    + _calls_self("exactlin.rref")
    + [("exactlin.rref.cells", "count"),
       ("exactlin.solve.calls", "count"),
       ("exactlin.subspace_intersection.self_s", "s")]
    + _calls_self("algebra.construct")
    + [("algebra.construct.dim_cubed", "count"),
       ("algebra.mul_sparse.calls", "count"),
       ("algebra.multiply.calls", "count")]
    + _calls_self("algebra.ideal_generated")
    + [("algebra.quotient_algebra.self_s", "s"),
       ("groups.elem_mul.calls", "count"),
       ("groups.elem_eq.calls", "count"),
       ("groups.elem_hash.calls", "count")]
    + _calls_self("hopf.dual_action")
    + [("hopf.hstar_closure.self_s", "s"),
       ("hopf.xi_decompose.self_s", "s"),
       ("hopf.trace_identity_check.self_s", "s")]
    + [m for f in ("jacobson_radical", "solvable_radical", "nilradical",
                   "graded_radical_report") for m in _calls_self("radical." + f)]
    + [m for f in ("wedderburn_artin_graded", "malcev_complement_graded",
                   "levi_graded") for m in _calls_self("structure." + f)]
    + [("schema.load_json.self_s", "s"),
       ("schema.description_to_algebra.self_s", "s"),
       ("schema.canonical_json.self_s", "s")]
    + [m for c in CLI_COMMANDS
       for m in ((f"cli.{c}.calls", "count"), (f"cli.{c}.total_s", "s"))]
    + [(layer + ".self_s", "s") for layer in LAYERS]
    + [("bench.unattributed_s", "s"),
       ("bench.traced_wall_s", "s"),
       ("bench.trace_overhead_ratio", "ratio")]
)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, /, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        return self._call(name, fn, None, args, kwargs)

    def _call(self, name, fn, after, args, kwargs):
        """`after(tracer, args, result)` may add counts once fn returned."""
        sid = len(self.start)
        self.name_of.append(self.name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start[sid] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[sid] = perf_counter()
            self._stack.pop()
        if after is not None:
            after(self, args, result)
        return result

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        after = _AFTER.get(name)
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, fn, after, args, kwargs)
        wrapper.__bench_wrapped__ = True
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        wrapper.__bench_wrapped__ = True
        return wrapper

    def install(self, targets=TARGETS):
        """Wrap every target in every loaded gradedalg module and class. A
        target the library no longer has is skipped (listed in `missing`);
        its metrics then read 0."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "gradedalg" or n.startswith("gradedalg.")]
        try:
            for name, module, attr, mode in targets:
                owner = importlib.import_module("gradedalg." + module)
                make = self._span_wrapper if mode == "span" else self._count_wrapper
                cls_name, _, meth = attr.rpartition(".")
                holder = getattr(owner, cls_name, None) if cls_name else owner
                original = None if holder is None else vars(holder).get(meth)
                if original is None:
                    self.missing.append(name)
                elif cls_name:
                    self._patches.append((holder, meth, original))
                    setattr(holder, meth, make(name, original))
                else:
                    wrapper = make(name, original)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                self._patches.append((m, key, original))
                                setattr(m, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results -------------------------------------------------------------

    def spans(self):
        """The recorded spans as (name, parent index, start, end) tuples."""
        return [(self.names[n], p, s, e) for n, p, s, e in
                zip(self.name_of, self.parent, self.start, self.end)]


def _after_insert(tracer, args, grew):
    red = args[0]
    counts = tracer.counts
    counts["exactlin.reducer_insert.grew"] += bool(grew)
    # rows held before this insert, plus the vector itself, times the width
    counts["exactlin.reducer_insert.cells"] += (red.dim - bool(grew) + 1) * red.ambient


def _after_rref(tracer, args, result):
    m = args[0]
    tracer.counts["exactlin.rref.cells"] += m.rows * m.cols


def _after_construct(tracer, args, result):
    tracer.counts["algebra.construct.dim_cubed"] += args[0].dim ** 3


def _after_codim_block(tracer, args, rank):
    tracer.counts["identities.codim_block.rank_sum"] += rank
    tracer.counts["identities.codim_block.zero_blocks"] += rank == 0


_AFTER = {
    "exactlin.reducer_insert": _after_insert,
    "exactlin.rref": _after_rref,
    "algebra.construct": _after_construct,
    "identities.codim_block": _after_codim_block,
}


def self_times(spans):
    """Self time of each span: its duration minus the durations of its direct
    children (which already contain their own children)."""
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def aggregate(spans, counts):
    """Per-name calls / total_s / self_s, per-layer self_s, and counts."""
    stats = dict(counts)
    selfs = self_times(spans)
    for (name, _, start, end), own in zip(spans, selfs):
        stats[name + ".calls"] = stats.get(name + ".calls", 0) + 1
        stats[name + ".total_s"] = stats.get(name + ".total_s", 0.0) + (end - start)
        stats[name + ".self_s"] = stats.get(name + ".self_s", 0.0) + own
        key = "bench.unattributed_s" if name == JOB_SPAN else name.split(".")[0] + ".self_s"
        stats[key] = stats.get(key, 0.0) + own
    return stats


def rows_inserted_in(spans, outer: str, inner: str) -> int:
    """Number of `inner` spans that have an `outer` span among their ancestors."""
    names = [s[0] for s in spans]
    parents = [s[1] for s in spans]
    total = 0
    for i, name in enumerate(names):
        if name != inner:
            continue
        p = parents[i]
        while p >= 0 and names[p] != outer:
            p = parents[p]
        total += p >= 0
    return total


def layer_metrics(tracer: Tracer, traced_wall: float, overhead_ratio: float) -> dict:
    """Every metric of LAYER_METRICS from one traced pass that took
    `traced_wall` seconds."""
    spans = tracer.spans()
    stats = aggregate(spans, tracer.counts)
    rows = rows_inserted_in(spans, "identities.codim_block", "exactlin.reducer_insert")
    stats["identities.codim_block.rows_inserted"] = rows
    stats["identities.codim_block.useful_ratio"] = (
        stats.get("identities.codim_block.rank_sum", 0) / rows if rows else 0.0)
    calls = stats.get("exactlin.reducer_insert.calls", 0)
    stats["exactlin.reducer_insert.useful_ratio"] = (
        stats.get("exactlin.reducer_insert.grew", 0) / calls if calls else 0.0)
    stats["bench.traced_wall_s"] = traced_wall
    stats["bench.trace_overhead_ratio"] = overhead_ratio
    return {name: {"value": stats.get(name, 0), "unit": unit}
            for name, unit in LAYER_METRICS}
