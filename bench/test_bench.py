"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run                    # noqa: E402
import tracer                 # noqa: E402
import workloads              # noqa: E402

G = workloads.import_gradedalg()


def test_self_time_is_duration_minus_direct_children():
    spans = [("cli.main", -1, 0.0, 10.0),
             ("identities.codim_block", 0, 1.0, 4.0),
             ("exactlin.reducer_insert", 1, 2.0, 3.0),
             ("exactlin.reducer_insert", 0, 5.0, 9.0)]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    stats = tracer.aggregate(spans, {"algebra.mul_sparse.calls": 7})
    assert stats["exactlin.reducer_insert.calls"] == 2
    assert stats["exactlin.reducer_insert.self_s"] == 5.0
    assert stats["exactlin.reducer_insert.total_s"] == 5.0
    assert stats["identities.codim_block.total_s"] == 3.0
    assert stats["exactlin.self_s"] == 5.0 and stats["cli.self_s"] == 3.0
    assert stats["algebra.mul_sparse.calls"] == 7
    assert tracer.rows_inserted_in(spans, "identities.codim_block",
                                   "exactlin.reducer_insert") == 1


def test_recorded_spans_nest_and_self_times_add_up():
    tr = tracer.Tracer()

    def leaf():
        return sum(range(1000))

    def inner():
        return tr.span("b.leaf", leaf) + tr.span("b.leaf", leaf)

    tr.span("a.outer", tr.span, "a.inner", inner)
    spans = tr.spans()
    assert [(n, p) for n, p, _, _ in spans] == [
        ("a.outer", -1), ("a.inner", 0), ("b.leaf", 1), ("b.leaf", 1)]
    selfs = tracer.self_times(spans)
    assert all(s >= 0 for s in selfs)
    assert abs(sum(selfs) - (spans[0][3] - spans[0][2])) < 1e-9


def _bindings():
    """Every attribute of every gradedalg module and class, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "gradedalg" or name.startswith("gradedalg."):
            for key, value in vars(mod).items():
                out[(name, key)] = id(value)
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = id(member)
    return out


def _codim(A, n):
    return G.identities.codimension_report(A, n).values


def test_wrappers_are_removed_after_a_traced_run():
    A = G.builders.builtin("ut2")
    before = _bindings()
    plain = _codim(A, 3)
    tr = tracer.Tracer()
    tr.install()
    try:
        # `from .radical import jacobson_radical` bindings are patched too
        assert getattr(G.structure.jacobson_radical, "__bench_wrapped__", False)
        assert getattr(G.exactlin.Reducer.insert, "__bench_wrapped__", False)
        assert tr.span("bench.job", _codim, A, 3) == plain
    finally:
        tr.uninstall()
    assert _bindings() == before
    stats = tracer.layer_metrics(tr, 1.0, 1.0)
    assert stats["identities.codim_block.calls"]["value"] == 2 + 4 + 8
    assert stats["exactlin.reducer_insert.calls"]["value"] > 0
    recorded, counts = len(tr.start), dict(tr.counts)
    assert _codim(A, 3) == plain
    assert len(tr.start) == recorded and dict(tr.counts) == counts


def test_same_seed_gives_same_jobs_and_inputs(tmp_path):
    for name, setup in workloads.WORKLOADS.items():
        runs = []
        for i, seed in enumerate((5, 5, 6)):
            d = tmp_path / f"{name}-{i}"
            d.mkdir()
            plan = setup(G, seed, str(d))
            files = {f: (d / f).read_bytes() for f in sorted(os.listdir(d))}
            runs.append(([j.name for j in plan.jobs], files))
        assert runs[0] == runs[1], name
        if name == "cli-files":
            assert runs[0][1] != runs[2][1]      # the seed picks the polynomials


def test_corpus_is_seeded():
    def describe(seed):
        assoc, lie = workloads.build_corpus(G, seed)
        return [G.schema.algebra_to_description(A) for A in assoc + lie]
    assert describe(3) == describe(3)
    assert describe(3) != describe(4)


def test_oracle_agrees_on_planted_identities():
    algebras = workloads._cli_algebras(G)
    for A in (algebras[0], algebras[-2], algebras[-1]):      # m3_z3 and the Lie ones
        desc = G.schema.algebra_to_description(A)
        poly = workloads.random_polys(desc, random.Random(0))[-1]
        assert workloads.oracle_is_identity(desc, poly)


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_percentile_and_verdict():
    assert run.percentile([5, 1, 4, 2, 3], 50) == 3
    assert run.percentile(list(range(1, 101)), 90) == 90
    assert run.verdict([10, 10.1, 9.9, 10], [10.2, 10.3, 10.1, 10.2], 0.1, True) == "ok"
    assert run.verdict([10, 10.1, 9.9, 10], [12, 12.1, 11.9, 12], 0.1, True) == "regression"
    assert run.verdict([5, 15, 10, 10], [10, 10.1, 9.9, 10], 0.1, True) == "unresolved"
    assert run.verdict([10, 10.1, 9.9, 10], [5, 6, 5.5, 5], 0.1, True) == "ok"
