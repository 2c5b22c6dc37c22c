"""The workloads of the gradedalg benchmark.

Each workload turns a seed into inputs and a job list (`WORKLOADS[name]`,
called with the imported library, the seed and a scratch directory). A pass
runs the jobs one after another in one process: a closed loop with one
client. Jobs call the library in process, through its public API or through
``gradedalg.cli.main(argv)`` with stdout captured. Every job has an output
check; checks run after the pass, outside the timed region.

Library functions are always reached as ``G.<module>.<name>`` at call time,
so the tracer's patched bindings are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from types import SimpleNamespace
from typing import Callable

MODULES = ("algebra", "builders", "cli", "exactlin", "groups", "hopf",
           "identities", "radical", "schema", "structure")


def import_gradedalg() -> SimpleNamespace:
    return SimpleNamespace(**{m: importlib.import_module("gradedalg." + m)
                              for m in MODULES})


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]   # None when the output is right


@dataclass
class Plan:
    jobs: list
    # check over all outputs of one pass (None for a job that raised)
    pass_check: Callable[[list], "str | None"] = lambda outputs: None


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


# -- CLI jobs -----------------------------------------------------------------

def _run_cli(G, argv) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return G.cli.main(argv)


def cli_job(G, name: str, argv: list, json_out: str, check_report) -> Job:
    """A CLI call with --json-out; the check requires exit code 0, the same
    report bytes on every pass, and `check_report(report)` to pass."""
    first = []

    def check(code):
        try:
            with open(json_out, "rb") as fh:
                data = fh.read()
            os.remove(json_out)
        except FileNotFoundError:
            data = None
        if code != 0:
            return f"exit code {code}"
        if data is None:
            return "no --json-out report written"
        if not first:
            first.append(data)
        elif data != first[0]:
            return "--json-out report differs from the first pass"
        return check_report(json.loads(data))

    full = list(argv) + ["--json-out", json_out]
    return Job(name, lambda: _run_cli(G, full), check)


# -- codim-seq ----------------------------------------------------------------

# Recorded with the library as it was when this benchmark was added;
# free_trunc_2_3 follows the closed form 3n^2 + 3n + 1.
CODIM_VALUES = {
    "m2_z2": [2, 7, 28, 111, 431],
    "ut2": [2, 5, 13, 33, 81],
    "free_trunc_2_3": [3 * n * n + 3 * n + 1 for n in range(1, 5)],
    "fz2": [2, 4, 8, 16, 32],
    "J(free_trunc_2_3)": [6, 6, 0, 0, 0, 0],
}


def _codim_check(mode: str, values: list, shortcuts=(), consistent=None):
    def check(report):
        entry = report["results"][mode]
        if entry["values"] != values:
            return f"codimensions {entry['values']} != recorded {values}"
        if entry["shortcut_n"] != list(shortcuts):
            return f"nilpotent shortcut at n = {entry['shortcut_n']}, expected {list(shortcuts)}"
        if consistent is not None and entry["verdict"]["consistent"] is not consistent:
            return f"growth verdict {entry['verdict']['message']!r}"
        return None
    return check


def setup_codim_seq(G, seed: int, workdir: str) -> Plan:
    """Fixed builtins; the seed does not change the inputs."""
    A = G.builders.builtin("free_trunc_2_3")
    J = G.radical.jacobson_radical(A)
    nil = G.algebra.algebra_on_subspace(A, J, name="J(free_trunc_2_3)").algebra
    nil_file = _write_json(os.path.join(workdir, "j_free_trunc_2_3.json"),
                           G.schema.algebra_to_description(nil))
    V = CODIM_VALUES
    specs = [
        ("m2_z2 n<=5", ["--builtin", "m2_z2", "--n-max", "5"],
         _codim_check("gr", V["m2_z2"])),
        ("ut2 n<=5", ["--builtin", "ut2", "--n-max", "5"],
         _codim_check("gr", V["ut2"])),
        ("free_trunc_2_3 n<=4 d=1",
         ["--builtin", "free_trunc_2_3", "--n-max", "4", "--predicted-d", "1"],
         _codim_check("gr", V["free_trunc_2_3"], consistent=True)),
        ("fz2 n<=5", ["--builtin", "fz2", "--n-max", "5"],
         _codim_check("gr", V["fz2"])),
        ("m2_z2 mode h n<=4", ["--builtin", "m2_z2", "--mode", "h", "--n-max", "4"],
         _codim_check("h", V["m2_z2"][:4])),
        ("J(free_trunc_2_3) n<=6", ["--input", nil_file, "--n-max", "6"],
         _codim_check("gr", V["J(free_trunc_2_3)"], shortcuts=(3, 4, 5, 6))),
    ]
    return Plan([cli_job(G, name, ["codim"] + argv,
                         os.path.join(workdir, f"report{i}.json"), check)
                 for i, (name, argv, check) in enumerate(specs)])


# -- corpus-structure ---------------------------------------------------------

MAX_DIM = 8

# sha256 prefixes of the corpus-structure result summary for these seeds,
# recorded like the values above; other seeds get the per-job checks only.
CORPUS_DIGESTS = {
    1: "6b82bceb167a5603",
    2: "dbaf070273f53e7b",
    3: "d8ccb9d1a0a6b8ef",
    4: "5e88f32328052082",
    5: "265aabb139493db4",
    6: "04e89bd4782ad637",
    7: "00860baded2981ce",
    8: "95b1617864aeed11",
    9: "25ee3815c227c478",
    10: "97d0453ee20fa4a9",
}


def _random_homogeneous(rng, A, g, lo, hi):
    v = [Fraction(0)] * A.dim
    for i in A.component_indices(g):
        v[i] = Fraction(rng.randint(lo, hi))
    return tuple(v)


def build_corpus(G, seed: int) -> tuple[list, list]:
    """(associative, lie): 220 graded associative algebras of dim <= 8
    (builtins, graded quotients of truncated free-group algebras, graded
    subalgebras of matrix and upper triangular algebras, direct sums) and the
    Lie builtins with their direct sums.

    The seed draws the degrees and coefficients of the ideal and subalgebra
    generators and the order of the direct sums. The base algebra of each
    generated member, its number of generators and whether the unit is one
    of them cycle through fixed lists, so that every seed gives a corpus of
    similar cost."""
    B = G.builders
    C = G.groups.CyclicGroup
    rng = random.Random(seed)
    atoms = [
        B.matrix_algebra_z2(), B.ut2(), B.fz2(),
        B.free_group_truncation(2, 2), B.free_group_truncation(1, 3),
        B.matrix_algebra(2, name="m2"), B.upper_triangular(2, name="ut2_triv"),
        B.group_algebra(C(3), name="fz3"),
        B.group_algebra(G.groups.ProductGroup((C(2), C(2))), name="fk4"),
        B.matrix_algebra(1, C(2), name="q_z2"),
    ]
    truncations = {(r, c): B.free_group_truncation(r, c)
                   for r, c in ((1, 3), (1, 4), (2, 2), (2, 3))}
    quotient_bases = [truncations[k] for k in ((1, 3), (1, 3), (1, 4), (1, 4),
                                               (2, 2), (2, 3))]
    matrix_bases = [
        B.matrix_algebra_z2(),
        B.matrix_algebra(2, C(3), (0, 1), name="m2_z3"),
        B.matrix_algebra(2, name="m2"),
        B.upper_triangular(3, C(2), (0, 1, 0), name="ut3_z2"),
        B.upper_triangular(3, name="ut3"),
    ]
    sum_pairs = [(a, b) for a in atoms for b in atoms
                 if a.group == b.group and a.dim + b.dim <= MAX_DIM]
    rng.shuffle(sum_pairs)

    def quotient(A, ngens):
        for _ in range(30):
            gens = [_random_homogeneous(rng, A, rng.choice(A.support[1:]), -2, 2)
                    for _ in range(ngens)]
            ideal = A.ideal_generated(gens)
            if 0 < ideal.dim < A.dim and A.dim - ideal.dim <= MAX_DIM:
                return G.algebra.quotient_algebra(A, ideal).algebra
        return A

    def subalgebra(A, with_unit, ngens):
        for _ in range(30):
            gens = [A.unit] if with_unit else []
            gens += [_random_homogeneous(rng, A, rng.choice(A.support), -1, 1)
                     for _ in range(ngens)]
            sub = A.subalgebra_generated(gens)
            if 0 < sub.dim <= MAX_DIM:
                return G.algebra.algebra_on_subspace(A, sub, name="sub").algebra
        return A

    assoc = atoms + [truncations[(2, 3)], truncations[(1, 4)],
                     B.upper_triangular(3, name="ut3")]
    assoc += [quotient(quotient_bases[i % len(quotient_bases)], 1 + i % 3)
              for i in range(70)]
    assoc += [subalgebra(matrix_bases[i % len(matrix_bases)], i % 2 == 0, 1 + i % 3)
              for i in range(65)]
    assoc += [B.direct_sum(*sum_pairs[i % len(sum_pairs)]) for i in range(3 * len(sum_pairs))]
    lie = [B.sl2(), B.gl2_z2(), B.heisenberg3(), B.two_dim_nonabelian_lie(),
           B.direct_sum(B.sl2(), B.sl2(), name="sl2+sl2"),
           B.direct_sum(B.gl2_z2(), B.two_dim_nonabelian_lie(), name="gl2+aff1"),
           B.direct_sum(B.heisenberg3(), B.heisenberg3(), name="heis3+heis3"),
           B.direct_sum(B.two_dim_nonabelian_lie(), B.two_dim_nonabelian_lie(),
                        name="aff1+aff1")]
    return assoc, lie


def _structure_run(G, A, coeffs, vecs):
    out = {"reports": G.radical.graded_radical_report(A)}
    if A.kind == G.algebra.ASSOCIATIVE:
        J = G.radical.jacobson_radical(A, verify=True)
        out["radicals"] = [J]
        if A.unit is not None:
            comp = G.structure.malcev_complement_graded(A)
            semi = A if J.is_zero() else G.algebra.algebra_on_subspace(A, comp).algebra
            out["complement"] = comp
            out["components"] = G.structure.wedderburn_artin_graded(semi).dims()
    else:
        out["radicals"] = [G.radical.solvable_radical(A, verify=True),
                           G.radical.nilradical(A, verify=True)]
        out["levi"] = G.structure.levi_graded(A)
    window = G.hopf.CoalgebraWindow.for_algebra(A)
    f = G.hopf.DualFunctional(A.group, {g: coeffs[i % len(coeffs)]
                                        for i, g in enumerate(window.basis)})
    out["window"], out["f"] = window, f
    out["pairs"] = G.hopf.xi_decompose(f, window)
    out["traces"] = [G.hopf.trace_identity_check(f, a, A) for a in vecs]
    return out


def _structure_check(A, index: int):
    def check(out):
        reports, radicals = out["reports"], out["radicals"]
        if [r.radical for r in reports] != radicals:
            return "graded_radical_report disagrees with the verified radicals"
        if not all(r.graded for r in reports):
            return "a radical is reported as not graded"
        if "complement" in out:
            rest = A.dim - radicals[0].dim
            if out["complement"].dim != rest or sum(out["components"]) != rest:
                return "complement or graded-simple components miss dim A - dim J"
        if "levi" in out:
            R, N = radicals
            if not N <= R or out["levi"].dim != A.dim - R.dim:
                return "nilradical outside R or Levi dimension != dim L - dim R"
        if not all(out["traces"]):
            return "trace identity tr(L(f.a)) = f(1) tr(L(a)) fails"
        window, f, pairs = out["window"], out["f"], out["pairs"]
        if len(pairs) > len(window.basis):
            return "xi decomposition has more pairs than the window"
        rng = random.Random(index)
        for _ in range(8):
            g, q = rng.choice(window.basis), rng.choice(window.basis)
            if sum((p(g) * r(q) for p, r in pairs), Fraction(0)) != f(g * q):
                return "xi decomposition certificate fails"
        return None
    return check


def _summary(A, out) -> dict:
    s = {"name": A.name, "kind": A.kind, "dim": A.dim,
         "radicals": [[r.kind, [[str(c) for c in row] for row in r.radical.basis_vectors()],
                       r.graded, r.nilpotency] for r in out["reports"]],
         "pairs": len(out["pairs"]), "traces": out["traces"]}
    if "complement" in out:
        s["complement_dim"] = out["complement"].dim
        s["components"] = sorted(out["components"])
    if "levi" in out:
        s["levi_dim"] = out["levi"].dim
    return s


def corpus_digest(algebras, outputs) -> str:
    summary = [None if out is None else _summary(A, out)
               for A, out in zip(algebras, outputs)]
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def setup_corpus_structure(G, seed: int, workdir: str) -> Plan:
    assoc, lie = build_corpus(G, seed)
    algebras = assoc + lie
    rng = random.Random(seed)
    jobs = []
    for index, A in enumerate(algebras):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(64)]
        vecs = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(A.dim))
                for _ in range(3)]
        jobs.append(Job(f"{index}:{A.name}",
                        lambda A=A, c=coeffs, v=vecs: _structure_run(G, A, c, v),
                        _structure_check(A, index)))

    def pass_check(outputs):
        want = CORPUS_DIGESTS.get(seed)
        got = corpus_digest(algebras, outputs)
        if want is not None and got != want:
            return f"result digest {got} != recorded {want} for seed {seed}"
        return None
    return Plan(jobs, pass_check)


# -- cli-files ----------------------------------------------------------------

# Recorded with the library as it was when this benchmark was added, per
# algebra: radical reports as [kind, dim, graded, nilpotency index], decompose
# as [radical dim, complement dim or None, sorted component dims], and c_1,
# c_2 (equal in modes gr and h).
CLI_EXPECTED = {
    "m3_z3": {"radical": [["jacobson", 0, True, 1]],
              "decompose": [0, None, [9]], "codim": [3, 17]},
    "m4_z2": {"radical": [["jacobson", 0, True, 1]],
              "decompose": [0, None, [16]], "codim": [2, 8]},
    "ut4_z2": {"radical": [["jacobson", 6, True, 4]],
               "decompose": [6, 4, [1, 1, 1, 1]], "codim": [2, 8]},
    "free_trunc_2_4": {"radical": [["jacobson", 14, True, 4]],
                       "decompose": [14, 1, [1]], "codim": [15, 63]},
    "free_trunc_3_3": {"radical": [["jacobson", 12, True, 3]],
                       "decompose": [12, 1, [1]], "codim": [13, 40]},
    "free_trunc_2_5": {"radical": [["jacobson", 30, True, 5]],
                       "decompose": [30, 1, [1]], "codim": [31, 183]},
    "gl2_z2": {"radical": [["solvable", 1, True, 2], ["nilpotent", 1, True, 2]]},
    "sl2+sl2": {"radical": [["solvable", 0, True, 1], ["nilpotent", 0, True, 1]]},
}


# (variables, terms) of the random polynomials written per algebra
POLY_SHAPES = ((2, 2), (3, 2), (3, 4))


def _cli_algebras(G):
    B = G.builders
    C = G.groups.CyclicGroup
    return [
        B.matrix_algebra(3, C(3), (0, 1, 2), name="m3_z3"),
        B.matrix_algebra(4, C(2), (0, 1, 0, 1), name="m4_z2"),
        B.upper_triangular(4, C(2), (0, 1, 0, 1), name="ut4_z2"),
        B.builtin("free_trunc_2_4"),
        B.builtin("free_trunc_3_3"),
        B.builtin("free_trunc_2_5"),
        B.builtin("gl2_z2"),
        B.direct_sum(B.sl2(), B.sl2(), name="sl2+sl2"),
    ]


def random_polys(desc: dict, rng) -> list:
    """Multilinear polynomials over the algebra's support, one per shape in
    POLY_SHAPES (variables, terms) with random labels, word orders and
    coefficients, plus one planted candidate identity: [x, y] + [y, x] for a
    Lie algebra, else x y - y x on a one-dimensional (or the identity)
    component."""
    degrees = desc["degrees"]
    support = sorted({json.dumps(d) for d in degrees})
    polys = []
    for n, count in POLY_SHAPES:
        labels = [json.loads(rng.choice(support)) for _ in range(n)]
        perms = rng.sample(list(permutations(range(1, n + 1))), count)
        polys.append({"n": n, "terms": [
            {"coef": str(rng.choice((-3, -2, -1, 1, 2, 3))), "perm": list(p), "labels": labels}
            for p in perms]})
    if desc["kind"] == "lie":
        labels = [json.loads(rng.choice(support)) for _ in range(2)]
        signs = ("1", "1")
    else:
        sizes = {s: sum(json.dumps(d) == s for d in degrees) for s in support}
        ones = [s for s in support if sizes[s] == 1]
        g = json.loads(rng.choice(ones)) if ones else degrees[0]
        labels, signs = [g, g], ("1", "-1")
    polys.append({"n": 2, "terms": [
        {"coef": signs[0], "perm": [1, 2], "labels": labels},
        {"coef": signs[1], "perm": [2, 1], "labels": labels}]})
    return polys


def oracle_is_identity(desc: dict, poly: dict) -> bool:
    """Independent check of a polynomial file against a description file:
    substitute basis vectors of the labelled components into every slot and
    expand left-normed products from the structure constants."""
    sc = {}
    for i, j, k, c in desc["structure"]:
        sc.setdefault((i, j), []).append((k, Fraction(c)))
    comps = {}
    for idx, d in enumerate(desc["degrees"]):
        comps.setdefault(json.dumps(d), []).append(idx)
    n = poly["n"]
    terms = []
    for t in poly["terms"]:
        labels = [json.dumps(l) for l in t["labels"]]
        if all(lab in comps for lab in labels):
            terms.append((Fraction(t["coef"]), [p - 1 for p in t["perm"]], labels))
    slots = sorted({(i, labels[i]) for _, _, labels in terms for i in range(n)})
    slot_of = {s: pos for pos, s in enumerate(slots)}
    for choice in product(*(comps[lab] for _, lab in slots)):
        acc = {}
        for coef, perm, labels in terms:
            word = [choice[slot_of[(i, labels[i])]] for i in perm]
            prod = {word[0]: Fraction(1)}
            for b in word[1:]:
                nxt = {}
                for a, ca in prod.items():
                    for k, c in sc.get((a, b), ()):
                        nxt[k] = nxt.get(k, 0) + ca * c
                prod = {k: c for k, c in nxt.items() if c != 0}
            for k, c in prod.items():
                acc[k] = acc.get(k, 0) + coef * c
        if any(c != 0 for c in acc.values()):
            return False
    return True


def _radical_check(expected):
    def check(report):
        got = [[r["kind"], r["dim"], r["graded"], r["nilpotency_index"]]
               for r in report["results"]]
        return None if got == expected else f"radicals {got} != recorded {expected}"
    return check


def _verify_check(expected):
    def check(report):
        res = report["results"]
        got = [[r["kind"], r["dim"], r["graded"], r["nilpotency_index"]]
               for r in res["reports"]]
        if res["passed"] is not True or got != expected:
            return f"verify {res['passed']} {got} != recorded {expected}"
        return None
    return check


def _decompose_check(expected):
    def check(report):
        res = report["results"]
        got = [res["radical_dim"], res.get("complement_dim"),
               sorted(c["dim"] for c in res["components"])]
        return None if got == expected else f"decompose {got} != recorded {expected}"
    return check


def _codim_both_check(expected):
    def check(report):
        got = [report["results"][m]["values"] for m in ("gr", "h")]
        return None if got == [expected, expected] else f"codim {got} != recorded {expected}"
    return check


def _identity_check(desc, poly):
    verdict = []

    def check(report):
        if not verdict:
            verdict.append(oracle_is_identity(desc, poly))
        got = report["results"]["identity"]
        return None if got == verdict[0] else f"identity {got}, oracle says {verdict[0]}"
    return check


def setup_cli_files(G, seed: int, workdir: str) -> Plan:
    jobs = []

    def job(name, argv, check):
        out = os.path.join(workdir, f"report{len(jobs)}.json")
        jobs.append(cli_job(G, name, argv, out, check))

    for A in _cli_algebras(G):
        desc = G.schema.algebra_to_description(A)
        path = _write_json(os.path.join(workdir, A.name + ".json"), desc)
        want = CLI_EXPECTED[A.name]
        src = ["--input", path]
        job(f"radical {A.name}", ["radical"] + src, _radical_check(want["radical"]))
        job(f"verify {A.name}", ["verify"] + src, _verify_check(want["radical"]))
        if A.unit is not None:
            job(f"decompose {A.name}", ["decompose"] + src,
                _decompose_check(want["decompose"]))
        if A.kind == G.algebra.ASSOCIATIVE:
            job(f"codim {A.name}", ["codim"] + src + ["--mode", "both", "--n-max", "2"],
                _codim_both_check(want["codim"]))
        rng = random.Random(f"{seed}:{A.name}")
        for i, poly in enumerate(random_polys(desc, rng)):
            ppath = _write_json(os.path.join(workdir, f"{A.name}.poly{i}.json"), poly)
            job(f"check-identity {A.name} #{i}",
                ["check-identity"] + src + ["--poly", ppath], _identity_check(desc, poly))
    return Plan(jobs)


WORKLOADS = {
    "codim-seq": setup_codim_seq,
    "corpus-structure": setup_corpus_structure,
    "cli-files": setup_cli_files,
}
