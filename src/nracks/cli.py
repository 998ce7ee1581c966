"""Command-line front end: it parses the arguments, calls the library and
writes the answer; what a command computes and refuses is decided by the
library functions it calls.

Subcommands: check, construct, reduce, homology, cohomology, assoc-group,
leibniz, enumerate, inner.  All I/O uses the JSON formats of jsonio.
Exit codes: 0 pass, 1 axiom failure (a table that fails the axioms a
command needs is answered by its validation report), 2 input error,
3 budget exceeded, 4 internal error (a failed internal certificate, raised
as AssertionError: the invariant factors' rank check, d.d = 0, or a D/Q
subcomplex failing its closure check; or running out of memory or
recursion depth).
"""

import argparse
import functools
import json
import os
import sys

from . import jsonio
from .constructions import (
    FiniteRack,
    _check_table_budget,
    abelianization,
    associated_group_presentation,
    build_conjugation_nrack,
    build_gamma_module_nrack,
    build_module_group_nrack,
    build_z4_module_nrack,
    lift_rack_to_nrack,
    reduce_nrack_to_rack,
)
from .core import inner_map, orbits, require, validate
from .enumeration import DEFAULT_CANDIDATE_BUDGET, FILTERS, enumerate_nracks
from .errors import AxiomError, BudgetExceededError
from .homology import (
    DEFAULT_COLUMN_BUDGET,
    CoefficientGroup,
    cohomology,
    homology,
    rack_chain_complex,
)
from .leibniz import (
    check_derivation,
    check_filippov,
    check_fundamental_identity,
    check_multilinearity_sample,
)


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_table(path: str):
    return jsonio.nrack_from_json(jsonio.load_json(path))


def _parse_degrees(spec: str) -> list[tuple[int, int]]:
    """Accepts "2", "1,2,3", and ranges "1-3" or "1..3", each bound in
    ASCII digits, spaces allowed around each part and bound; returns the
    (lo, hi) range of each comma-separated part, unexpanded."""
    ranges = []
    for part in spec.split(","):
        part = part.strip()
        lo, sep, hi = part.partition(".." if ".." in part else "-")
        bounds = [b.strip() for b in (lo, hi if sep else lo)]
        if not all(b.isascii() and b.isdigit() for b in bounds):
            raise ValueError(f"cannot parse degree specification {spec!r}")
        lo, hi = map(int, bounds)
        if lo > hi:
            raise ValueError(f"empty degree range {part!r}")
        ranges.append((lo, hi))
    return ranges


def cmd_check(args) -> int:
    report = validate(_load_table(args.input))
    _write(jsonio.dump_document(jsonio.validation_to_json(report)), args.output)
    return 0 if report.is_nrack else 1


# The options each construction kind requires, in the order they are
# checked; --n and --m have defaults.
CONSTRUCT_OPTIONS = {"z4": (), "gamma": ("t", "s"), "conj": ("group",), "lift": ("input",),
                     "reduce": ("input",), "module-group": ("input",)}


def _construct_table(args):
    kind = args.kind
    if kind == "z4":
        return build_z4_module_nrack(args.n, args.m)
    if kind == "gamma":
        return build_gamma_module_nrack(args.n, args.m, args.t, args.s)
    if kind == "conj":
        G = jsonio.group_from_json(jsonio.load_json(args.group))
        return build_conjugation_nrack(G, args.n)
    if kind == "lift":
        Q = FiniteRack.from_nrack(_load_table(args.input))
        return lift_rack_to_nrack(Q, args.n)
    return reduce_nrack_to_rack(_load_table(args.input))


def cmd_construct(args) -> int:
    for name in CONSTRUCT_OPTIONS[args.kind]:
        if getattr(args, name) is None:
            raise ValueError(f"construct {args.kind} requires --{name}")
    if args.kind == "module-group":
        H, bracket, module, arity = jsonio.module_group_from_json(
            jsonio.load_json(args.input)
        )
        rack, report = build_module_group_nrack(H, bracket, module, arity)
        if not report.is_nrack:
            doc = jsonio.validation_to_json(report)
            doc["table"] = jsonio.nrack_to_json(rack)
            _write(jsonio.dump_document(doc), args.output)
            return 1
        _write(jsonio.dump_document(jsonio.nrack_to_json(rack)), args.output)
        return 0
    rack = _construct_table(args)
    if not validate(rack).is_nrack:
        raise AssertionError("constructor emitted a table that fails validation")
    _write(jsonio.dump_document(jsonio.nrack_to_json(rack)), args.output)
    return 0


def _cmd_homology_common(args, compute) -> int:
    R = _load_table(args.input)
    ranges = _parse_degrees(args.degrees)
    if min(lo for lo, _ in ranges) < 1:
        raise ValueError("degrees must be >= 1")
    coeffs = CoefficientGroup.parse(args.coefficients)
    top = max(hi for _, hi in ranges)
    # Built before the ranges are expanded: the column budget refuses a
    # huge top degree before a set of that many degrees exists.
    complex_ = rack_chain_complex(R, top + 1, budget=args.budget, variant=args.variant)
    degrees = sorted({k for lo, hi in ranges for k in range(lo, hi + 1)})
    lines = [
        jsonio.dump_line(jsonio.homology_result_to_json(compute(complex_, k, coeffs)))
        for k in degrees
    ]
    # The matrices go before the answer: a dump that cannot be written is
    # an input error with no answer on stdout or in the output file.
    if args.dump_matrices:
        os.makedirs(args.dump_matrices, exist_ok=True)
        for k in range(1, complex_.max_degree + 1):
            path = os.path.join(
                args.dump_matrices, f"boundary_{args.variant}_{k}.txt"
            )
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(complex_.boundary_triplets(k))
    _write("\n".join(lines) + "\n", args.output)
    return 0


def cmd_homology(args) -> int:
    return _cmd_homology_common(args, homology)


def cmd_cohomology(args) -> int:
    return _cmd_homology_common(args, cohomology)


def cmd_assoc_group(args) -> int:
    R = _load_table(args.input)
    P = associated_group_presentation(R, paper_form=args.paper_relator)
    doc = {
        "presentation": jsonio.presentation_to_json(P),
        "abelianization": jsonio.invariants_to_json(abelianization(P)),
    }
    _write(jsonio.dump_document(doc), args.output)
    return 0


def _witness_to_json(prefix, arguments, lhs, rhs) -> dict:
    """A fundamental-identity witness with its sides in exact "p/q" form.
    A side holding an integer of more digits than Python writes out is an
    input error that names the witness."""
    try:
        return {"prefix": list(prefix), "arguments": list(arguments),
                "lhs": [str(v) for v in lhs], "rhs": [str(v) for v in rhs]}
    except ValueError as exc:
        raise ValueError(f"witness at prefix {list(prefix)}, arguments {list(arguments)}: "
                         f"a side cannot be written out: {exc}") from exc


def cmd_leibniz(args) -> int:
    L = jsonio.tensor_from_json(jsonio.load_json(args.input))
    ok, witness = check_fundamental_identity(L)
    doc = {
        "fundamental_identity": ok,
        "witness": None if witness is None else _witness_to_json(*witness),
        "filippov": check_filippov(L),
        # Every basis adjoint is a derivation exactly when the fundamental
        # identity holds on the basis: the same equations, so one pass.
        "self_derivation": ok,
        "multilinearity_probe": check_multilinearity_sample(L, seed=args.seed),
        "seed": args.seed,
        "derivation": None,
    }
    if args.operator:
        D = jsonio.operator_from_json(jsonio.load_json(args.operator))
        if D.dimension != L.dimension:
            raise ValueError("operator dimension does not match the tensor")
        doc["derivation"] = check_derivation(L, D)
    _write(jsonio.dump_document(doc), args.output)
    return 0 if ok else 1


def cmd_enumerate(args) -> int:
    report = enumerate_nracks(args.n, args.m, args.filter, budget=args.budget)
    _write(jsonio.dump_document(jsonio.enumeration_report_to_json(report)), args.output)
    return 0


def cmd_inner(args) -> int:
    R = _load_table(args.input)
    width = R.arity - 1
    _check_table_budget(R.size, width, width,
                        f"listing {R.size}**{width} prefixes of {width} entries")
    require(R, "inner map")
    doc = {
        "inner_maps": [
            {"args": list(xs), "permutation": list(inner_map(R, xs).permutation)}
            for xs in R.prefixes()
        ],
        "orbits": orbits(R),
    }
    _write(jsonio.dump_document(doc), args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every main() call in one process reuses it."""
    parser = argparse.ArgumentParser(
        prog="nracks",
        description="Finite n-rack toolkit: validation, constructions, "
        "homology, associated groups, Leibniz tensors, enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, **defaults) -> argparse.ArgumentParser:
        """A subcommand that reads its input from a required --input."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--input", required=True)
        p.set_defaults(func=func, **defaults)
        return p

    command("check", cmd_check, "classify an operation table")

    p = sub.add_parser("construct", help="build a table and write it as JSON")
    p.add_argument("kind", choices=list(CONSTRUCT_OPTIONS))
    p.add_argument("--n", type=int, default=2, help="arity of the result")
    p.add_argument("--m", type=int, default=4, help="modulus for z4/gamma")
    p.add_argument("--t", type=int, help="twist unit for gamma")
    p.add_argument("--s", type=int, help="shift coefficient for gamma")
    p.add_argument("--group", help="group JSON file for conj")
    p.add_argument("--input", help="table or bundle JSON file for lift/reduce/module-group")
    p.set_defaults(func=cmd_construct)

    command("reduce", cmd_construct, "alias of construct reduce", kind="reduce")

    for name, func in (("homology", cmd_homology), ("cohomology", cmd_cohomology)):
        p = command(name, func, f"compute {name} groups of a table")
        p.add_argument("--variant", choices=["R", "D", "Q"], default="R")
        p.add_argument("--degrees", required=True, help='e.g. "2", "1,3", "1-3"')
        p.add_argument("--coefficients", default="Z", help='"Z" or "Z/d"')
        p.add_argument("--budget", type=int, default=DEFAULT_COLUMN_BUDGET)
        p.add_argument("--dump-matrices", help="directory for triplet-text boundary matrices")

    p = command("assoc-group", cmd_assoc_group, "associated group presentation and abelianization")
    p.add_argument("--paper-relator", action="store_true",
                   help="use the alternative relator prefix ordering")

    p = command("leibniz", cmd_leibniz, "verify a structure-constant tensor")
    p.add_argument("--operator", help="optional linear operator JSON to test as derivation")
    p.add_argument("--seed", type=int, default=0, help="seed for the multilinearity probe")

    p = sub.add_parser("enumerate", help="enumerate tables up to isomorphism")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--filter", choices=list(FILTERS), default="nrack")
    p.add_argument("--budget", type=int, default=DEFAULT_CANDIDATE_BUDGET)
    p.set_defaults(func=cmd_enumerate)

    command("inner", cmd_inner, "inner-map permutations and orbits")

    for p in sub.choices.values():
        p.add_argument("--output")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.func(args)
        except AxiomError as exc:
            # The answer to a table that fails the axioms is its report; an
            # unwritable --output is an input error, as for any answer.
            _write(jsonio.dump_document(jsonio.validation_to_json(exc.report)), args.output)
            print(f"axiom failure: {exc}", file=sys.stderr)
            return 1
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (AssertionError, RecursionError, MemoryError) as exc:
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 4
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
