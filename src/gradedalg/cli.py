"""Command-line front end.

Subcommands: radical, decompose, codim, check-identity, verify, builtin.
Exit codes: 0 ok, 1 usage or output error, 2 parse error, 3 invariant
violation, 4 resource cap. Reports go to stdout; --json-out also writes a
deterministic JSON report. An output that cannot be written, a --json-out
file or a stdout that its reader closed early, exits 1 with one line on
stderr and no traceback.

decompose certifies its unverified radical by the decomposition, each fact
once: `graded_complement` tests graded ideal and nilpotent (solvable), and the
quotient's semisimplicity is tested on the complement, isomorphic to it (the
`wedderburn_artin_graded` guard, or the Levi subalgebra's solvable radical).
A zero solvable radical is certified by Cartan's criterion: the Killing form
of L is nondegenerate. Nothing is printed before every check has passed.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys

from .algebra import ASSOCIATIVE, GradedAlgebra, _algebra_on_subspace
from .builders import builtin, builtin_names
from .errors import (DimensionMismatchError, GroupMismatchError,
                     InternalCheckError, NotAnIdealError, NotGradedError,
                     ResourceCapError, SchemaError, ValidationError)
from .exactlin import null_space
from .identities import (DEFAULT_MAX_BLOCKS, DEFAULT_MAX_N, _check_range,
                         codimension_report, is_graded_identity)
from .radical import (graded_radical_report, jacobson_radical, killing_form,
                      solvable_radical)
from .schema import (algebra_to_description, canonical_json,
                     description_to_algebra, digest, load_json,
                     poly_from_description, render_rational)
from .structure import graded_complement, wedderburn_artin_graded

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_CAP = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_algebra(args) -> tuple[GradedAlgebra, dict]:
    if args.builtin:
        A = builtin(args.builtin)
        desc = algebra_to_description(A)
    else:
        desc = load_json(args.input)
        A = description_to_algebra(desc)
    return A, desc


class OutputError(Exception):
    """The --json-out report could not be written (exit 1)."""


def _write_report(path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as exc:
        raise OutputError(f"cannot write --json-out {path}: {exc.strerror or exc}") from exc


def _emit(report: dict, json_out: str | None):
    if json_out:
        _write_report(json_out, canonical_json(report))


def _rendered_basis(s) -> list:
    """The RREF basis rows of s as dense lists of strings, "0" off each
    row's sparse support."""
    out = []
    for p in s.pivots:
        row = ["0"] * s.ambient
        for j, c in s.pivot_rows[p].items():
            row[j] = render_rational(c)
        out.append(row)
    return out


def cmd_radical(args) -> int:
    A, desc = _load_algebra(args)
    reports = graded_radical_report(A)
    for r in reports:
        print(r.summary())
    if args.json_out:
        # the dense basis costs dim^2 strings, so it is rendered for the report alone
        _emit({"command": "radical", "input_digest": digest(desc), "name": A.name,
               "results": [{"kind": r.kind, "dim": r.radical.dim, "graded": r.graded,
                            "nilpotency_index": r.nilpotency,
                            "basis": _rendered_basis(r.radical)} for r in reports]},
              args.json_out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    A, desc = _load_algebra(args)
    out = {"command": "decompose", "input_digest": digest(desc), "name": A.name,
           "results": {}}
    lines = []
    if A.kind == ASSOCIATIVE:
        J = jacobson_radical(A, verify=False)
        out["results"]["radical_dim"] = J.dim
        if J.is_zero():
            semi = A
            lines.append(f"semisimple: dim {A.dim}")
        else:
            B = graded_complement(A, J)
            lines.append(f"radical dim {J.dim}; graded complement dim {B.dim}")
            out["results"]["complement_dim"] = B.dim
            semi = _algebra_on_subspace(A, B, name="complement").algebra
        dec = wedderburn_artin_graded(semi)
        # each component passed the graded check of wedderburn_artin_graded,
        # so each RREF row has the degree of its pivot
        comps = [{"dim": c.dim, "degrees": sorted({repr(semi.degrees[p]) for p in c.pivots})}
                 for c in dec.components]
        lines.append(f"graded-simple components: {len(comps)} with dims {dec.dims()}")
        lines += [f"  component dim {c['dim']}, degrees {c['degrees']}" for c in comps]
        out["results"]["components"] = comps
    else:
        R = solvable_radical(A, verify=False)
        B = graded_complement(A, R)
        # L/R is semisimple: for R = 0 the Killing form has radical 0 (Cartan), else R(B) = 0
        rad = (null_space(A.dim, killing_form(A)) if R.is_zero() else solvable_radical(
            _algebra_on_subspace(A, B, name="levi").algebra, verify=False))
        if not rad.is_zero():
            raise InternalCheckError("quotient by the solvable radical is not semisimple")
        lines.append(f"solvable radical dim {R.dim}; graded Levi subalgebra dim {B.dim}")
        out["results"]["radical_dim"] = R.dim
        out["results"]["levi_dim"] = B.dim
    out["results"]["verified"] = True
    print("\n".join(lines))
    _emit(out, args.json_out)
    return EXIT_OK


def _h_per_n(rep) -> list:
    """per_n in mode h, which reads the labels as delta functionals of (QG)*:
    the same blocks without their statistics; rows settled by nilpotency keep
    "nonzero_blocks": 0."""
    return [{k: v for k, v in row.items() if k != "max_block_rank"
             and (k != "nonzero_blocks" or row["n"] in rep.shortcuts)}
            for row in rep.per_n]


def cmd_codim(args) -> int:
    A, desc = _load_algebra(args)
    modes = ["gr", "h"] if args.mode == "both" else [args.mode]
    out = {"command": "codim", "input_digest": digest(desc), "name": A.name,
           "n_max": args.n_max, "results": {}}
    rep = codimension_report(A, args.n_max, predicted_d=args.predicted_d,
                             max_n=args.max_n, max_blocks=args.max_blocks)
    entry = {"values": rep.values, "roots": rep.roots,
             "ratios": [str(r) if r is not None else None for r in rep.ratios],
             "shortcut_n": rep.shortcuts}
    v = rep.verdict
    if v is not None:
        entry["verdict"] = {
            "predicted": v.predicted, "nilpotent": v.nilpotent,
            "consistent": v.consistent, "lower_power": v.lower_power,
            "upper_power": v.upper_power,
            "lower_const": str(v.lower_const) if v.lower_const is not None else None,
            "upper_const": str(v.upper_const) if v.upper_const is not None else None,
            "message": v.message}
    for mode in modes:
        print(f"mode {mode}:")
        print(f"  {'n':>3} {'c_n':>10} {'root':>10} {'ratio':>12}")
        for i, c in enumerate(rep.values):
            ratio = ""
            if i > 0 and rep.ratios[i - 1] is not None:
                ratio = str(rep.ratios[i - 1])
            print(f"  {i + 1:>3} {c:>10} {rep.roots[i]:>10} {ratio:>12}")
        if v is not None:
            print(f"  verdict: {v.message}")
        out["results"][mode] = dict(entry, per_n=rep.per_n if mode == "gr" else _h_per_n(rep))
    _emit(out, args.json_out)
    return EXIT_OK


def cmd_check_identity(args) -> int:
    A, desc = _load_algebra(args)
    pobj = load_json(args.poly)
    poly = poly_from_description(pobj, A)
    verdict = is_graded_identity(poly, A)
    print("identity" if verdict else "not an identity")
    out = {"command": "check-identity", "input_digest": digest(desc),
           "poly_digest": digest(pobj), "results": {"identity": verdict}}
    _emit(out, args.json_out)
    return EXIT_OK


def cmd_verify(args) -> int:
    A, desc = _load_algebra(args)
    # graded_radical_report raises (exit 3) on a radical that is not graded
    reports = graded_radical_report(A)
    for r in reports:
        print(r.summary())
    print("all radical gradedness checks passed")
    out = {"command": "verify", "input_digest": digest(desc), "name": A.name,
           "results": {"passed": True,
                       "reports": [{"kind": r.kind, "dim": r.radical.dim,
                                    "graded": r.graded,
                                    "nilpotency_index": r.nilpotency}
                                   for r in reports]}}
    _emit(out, args.json_out)
    return EXIT_OK


def cmd_builtin(args) -> int:
    A = builtin(args.name)
    desc = algebra_to_description(A)
    text = json.dumps(desc, indent=2, sort_keys=True)
    print(text)
    if args.json_out:
        _write_report(args.json_out, text)
    return EXIT_OK


def _add_input_opts(p: _Parser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="path to an algebra description JSON file")
    src.add_argument("--builtin", help=f"builtin name ({', '.join(builtin_names())})")
    p.add_argument("--json-out", help="write a machine-readable JSON report here")


def _add_codim_opts(p: _Parser):
    _add_input_opts(p)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--mode", choices=("gr", "h", "both"), default="gr")
    p.add_argument("--predicted-d", type=int, default=None)
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N,
                   help="hard cap on n (resource guard)")
    p.add_argument("--max-blocks", type=int, default=DEFAULT_MAX_BLOCKS,
                   help="hard cap on the number of degree assignments (all m^n "
                        "labellings, not the multisets computed) per n")


def _add_identity_opts(p: _Parser):
    _add_input_opts(p)
    p.add_argument("--poly", required=True, help="polynomial description JSON file")


def _add_builtin_opts(p: _Parser):
    p.add_argument("name")
    p.add_argument("--json-out")


# name: (help, options), in the order of the help listing
_COMMANDS = {
    "radical": ("radical dims, gradedness, nilpotency index", _add_input_opts),
    "decompose": ("graded-simple components / complements", _add_input_opts),
    "codim": ("codimension sequence table", _add_codim_opts),
    "check-identity": ("test a multilinear graded polynomial", _add_identity_opts),
    "verify": ("run the radical gradedness checks", _add_input_opts),
    "builtin": ("print a builtin algebra description", _add_builtin_opts),
}


@functools.cache
def build_parser() -> _Parser:
    """The whole argument tree, built on first use (not at import) and kept:
    `parse_args` makes a fresh namespace and no default is mutable. `_run`
    runs subcommand `name` as the `cmd_<name>` ("-" read as "_") bound then;
    `commands` maps each name to its subparser."""
    p = _Parser(prog="gradedalg",
                description="exact computations with group-graded algebras")
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, (help_text, add_opts) in _COMMANDS.items():
        add_opts(sub.add_parser(name, help=help_text))
    p.commands = sub.choices
    return p


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, as `| head -1` does
        _discard_stdout()
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_USAGE
    return code


def _discard_stdout():
    """Point the file descriptor under stdout at os.devnull, so that the
    flush at interpreter exit writes nowhere instead of failing again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, io.UnsupportedOperation):   # no descriptor, as in a StringIO
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd == "codim":    # a range the report would refuse is a usage error
            try:
                _check_range(args.n_max, args.predicted_d)
            except ValidationError as exc:
                parser.commands["codim"].error(str(exc))
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:       # looked up per call, so that a wrapper set on a cmd_* function sees it
        return globals()["cmd_" + args.cmd.replace("-", "_")](args)
    except SchemaError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValidationError, NotAnIdealError, NotGradedError,
            GroupMismatchError, DimensionMismatchError) as exc:
        print(f"invariant violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
