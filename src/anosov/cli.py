"""Command-line interface.

Subcommands: decide (with --witness / --solvable), porteous, decompose,
units, graded-action, hall-basis, no-cert, demo. Each registers only the
flags its handler reads, and `main` builds the parser of the subcommand it
is given alone, as a top-level parser. Input is a JSON object read from a
file argument or stdin; output is JSON with a stable field order, or a
human-readable table with --pretty.

Exit codes: 0 decided, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import replace

from .decider import (
    decide,
    decide_with_witness,
    demo,
    no_certificate_search,
    porteous_flat,
    with_solvable_model,
)
from .fingrp import DEFAULT_MAX_ORDER, group_rep_from_json_obj
from .freenilp import graded_action, hall_basis, tree_str
from .intpoly import IntPoly, cyclotomic, poly_from_json_obj
from .numfield import (
    lattice_height,
    make_field,
    search_c_hyperbolic_unit,
    unit_generators_for_field,
)
from .ratmat import RatMatrix, json_int
from .repdec import decompose


def _read_json_input(path: str | None):
    if path in (None, "-"):
        return json.loads(sys.stdin.read())
    with open(path) as f:
        return json.loads(f.read())


def _read_json_object(path: str | None) -> dict:
    obj = _read_json_input(path)
    if not isinstance(obj, dict):
        raise ValueError("input must be a JSON object")
    return obj


def _emit(obj, pretty: bool) -> None:
    if pretty:
        print(_pretty(obj))
    else:
        print(json.dumps(obj, indent=2))


def _pretty(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for key, value in obj.items():
            if (
                isinstance(value, (dict, list))
                and value
                and not _is_matrix_literal(value)
                and not _is_scalar_list(value)
            ):
                lines.append(f"{pad}{key}:")
                lines.append(_pretty(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_fmt_scalar(value)}")
        return "\n".join(lines)
    if isinstance(obj, list):
        if _is_matrix_literal(obj):
            return "\n".join(pad + "[" + "  ".join(str(x) for x in row) + "]" for row in obj)
        return "\n".join(_pretty(item, indent) if isinstance(item, (dict, list)) else pad + str(item) for item in obj)
    return pad + str(obj)


def _is_matrix_literal(value) -> bool:
    return (
        isinstance(value, list)
        and value
        and all(isinstance(r, list) and r and all(isinstance(x, (str, int)) for x in r) for r in value)
    )


def _is_scalar_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(x, (str, int, float, bool)) for x in value
    )


def _fmt_scalar(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(str(x) for x in value) + "]"
    if isinstance(value, dict):
        return json.dumps(value)
    return str(value)


def _load_rep(args):
    """The representation read from the input, and the input's "class"."""
    _, rep, class_c = group_rep_from_json_obj(_read_json_input(args.input), max_order=args.max_order)
    return rep, class_c


def _require_class(args, input_class) -> int:
    """--class if given, else the input's "class" field."""
    c = args.class_c if args.class_c is not None else input_class
    if c is None:
        raise ValueError("nilpotency class required: pass --class or a \"class\" field")
    return c


def cmd_decide(args) -> None:
    """The verdict, with ingestion (input parse, closure and homomorphism
    check) timed as timings.ingest_s and counted in timings.total_s."""
    t0 = time.perf_counter()
    rep, c = _load_rep(args)
    ingest_s = time.perf_counter() - t0
    c = _require_class(args, c)
    verdict = decide_with_witness(rep, c) if args.witness else decide(rep, c)
    if args.solvable is not None:
        verdict = with_solvable_model(verdict, args.solvable)
    timings = {"ingest_s": round(ingest_s, 6), **verdict.timings, "total_s": round(time.perf_counter() - t0, 6)}
    _emit(replace(verdict, timings=timings).to_json_obj(), args.pretty)


def cmd_porteous(args) -> None:
    rep, _ = _load_rep(args)
    _emit(porteous_flat(rep).to_json_obj(), args.pretty)


def cmd_decompose(args) -> None:
    rep, _ = _load_rep(args)
    _emit([p.to_json_obj() for p in decompose(rep)], args.pretty)


def cmd_no_cert(args) -> None:
    rep, c = _load_rep(args)
    c = _require_class(args, c)
    _emit(no_certificate_search(rep, c, args.height_bound), args.pretty)


def cmd_units(args) -> None:
    request = {}
    if args.input:
        request = _read_json_object(args.input)
    if args.sqrt is not None:
        request["field"] = f"sqrt {args.sqrt}"
    if args.zeta is not None:
        request["field"] = f"zeta {args.zeta}"
    if args.min_poly is not None:
        request["min_poly"] = json.loads(args.min_poly)
    if args.class_c is not None:
        request["c"] = args.class_c
    if args.bound is not None:
        request["bound"] = args.bound
    c = json_int(request.get("c", 1), '"c"')
    bound = json_int(request.get("bound", 10), '"bound"')
    if "min_poly" in request:
        field = make_field(poly_from_json_obj(request["min_poly"]))
    elif "field" in request:
        kind, _, value = str(request["field"]).partition(" ")
        d = int(value)
        if kind == "sqrt":
            field = make_field(IntPoly((-d, 0, 1)))
        elif kind == "zeta":
            field = make_field(cyclotomic(d))
        else:
            raise ValueError('field must be "sqrt d" or "zeta d"')
    else:
        raise ValueError("units needs a min_poly or a field description")
    generators = unit_generators_for_field(field)
    outcome = search_c_hyperbolic_unit(field, generators, c, bound)
    result = {
        "field_min_poly": [str(x) for x in field.min_poly.coeffs],
        "signature": list(field.signature),
        "c": c,
        # the height screened in full: the bound, or less under the candidate limit
        "bound": lattice_height(len(generators), bound),
        "found": outcome.found,
        "reason": outcome.reason,
        "candidates_screened": outcome.candidates_screened,
    }
    if outcome.found:
        result["unit"] = outcome.unit.to_json_obj()
        result["exponents"] = list(outcome.exponents)
        result["certified_exact"] = True
    _emit(result, args.pretty)


def cmd_graded_action(args) -> None:
    obj = _read_json_object(args.input)
    key = "class" if "class" in obj else "c"
    r, c = json_int(obj["r"], '"r"'), json_int(obj[key], f'"{key}"')
    matrix = RatMatrix.from_json_obj(obj["matrix"])
    basis = hall_basis(r, c)
    out = {"r": r, "class": c, "degree_dims": basis.degree_dims(), "actions": []}
    for degree in range(1, c + 1):
        action = graded_action(matrix, basis, degree)
        out["actions"].append(
            {
                "degree": degree,
                "basis": [tree_str(t) for t in action.basis_elements],
                "matrix": action.matrix.to_json_obj(),
            }
        )
    _emit(out, args.pretty)


def cmd_hall_basis(args) -> None:
    basis = hall_basis(args.r, args.class_c)
    out = {
        "r": args.r,
        "class": args.class_c,
        "degree_dims": basis.degree_dims(),
        "elements": {
            str(d): [tree_str(t) for t in basis.elements(d)] for d in range(1, args.class_c + 1)
        },
    }
    _emit(out, args.pretty)


def cmd_demo(args) -> None:
    _emit(demo(args.name), args.pretty)


def _add_input(p) -> None:
    p.add_argument("input", nargs="?", default=None, help="JSON file, or - for stdin")


def _add_class(p) -> None:
    p.add_argument("--class", dest="class_c", type=int, default=None)


def _add_rep(p, func) -> None:
    """The arguments of a subcommand that reads a representation."""
    p.set_defaults(func=func)
    _add_input(p)
    p.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
    p.add_argument("--pretty", action="store_true")


def _add_decide(p) -> None:
    _add_rep(p, cmd_decide)
    _add_class(p)
    p.add_argument("--witness", action="store_true", help="construct a verified witness on YES")
    p.add_argument("--solvable", type=int, default=None, metavar="D", help="solvable-model metadata")


def _add_porteous(p) -> None:
    _add_rep(p, cmd_porteous)


def _add_decompose(p) -> None:
    _add_rep(p, cmd_decompose)


def _add_no_cert(p) -> None:
    _add_rep(p, cmd_no_cert)
    _add_class(p)
    p.add_argument("--height-bound", type=int, default=5)


def _add_units(p) -> None:
    _add_input(p)
    _add_class(p)
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--sqrt", type=int, default=None, metavar="D")
    p.add_argument("--zeta", type=int, default=None, metavar="D")
    p.add_argument("--min-poly", type=str, default=None, help='ascending coefficients, e.g. "[-1,-1,1]"')
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=cmd_units)


def _add_graded_action(p) -> None:
    _add_input(p)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_graded_action)


def _add_hall_basis(p) -> None:
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--class", dest="class_c", type=int, required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_hall_basis)


def _add_demo(p) -> None:
    p.add_argument("name")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_demo)


# the help width a non-terminal gets; fixed, so no parser queries the terminal
HELP_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)

# name: (the line the top-level help gives it, the function adding its arguments)
SUBCOMMANDS = {
    "decide": ("run the component criterion", _add_decide),
    "porteous": ("the flat c = 1 criterion", _add_porteous),
    "decompose": ("report the Q-irreducible component profiles", _add_decompose),
    "no-cert": ("exhaustive empty-search report for NO verdicts", _add_no_cert),
    "units": ("search a number field for c-hyperbolic units", _add_units),
    "graded-action": ("induced action on the free nilpotent gradeds", _add_graded_action),
    "hall-basis": ("Hall basis dimensions and elements", _add_hall_basis),
    "demo": ("run a named corpus entry", _add_demo),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="anosov",
        description="Decide whether an infra-nilmanifold holonomy datum admits an "
        "Anosov diffeomorphism, and construct verified witness matrices.",
        formatter_class=HELP_FORMATTER,
    )
    subparser = functools.partial(argparse.ArgumentParser, formatter_class=HELP_FORMATTER)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=subparser)
    for name, (line, add) in SUBCOMMANDS.items():
        add(sub.add_parser(name, help=line))
    return parser


def subcommand_parser(name: str) -> argparse.ArgumentParser:
    """The named subcommand's parser alone, as build_parser's would be."""
    parser = argparse.ArgumentParser(prog=f"anosov {name}", formatter_class=HELP_FORMATTER)
    SUBCOMMANDS[name][1](parser)
    return parser


def parse_args(argv: list) -> argparse.Namespace:
    """argv read as build_parser reads it: by the subcommand's parser alone
    when the first argument names one, else by the parser with all of them.
    The parser with all of them reports the arguments a subcommand leaves
    over, so it is built for that error too."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return build_parser().parse_args(argv)
    args, extras = subcommand_parser(argv[0]).parse_known_args(argv[1:])
    if extras:
        build_parser().error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        args.func(args)
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
