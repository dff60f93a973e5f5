"""Command line interface: realize, embed, monodromy, verify-tower.

All inputs and outputs are JSON, and every setting of a run is fixed: the
only flags are the files, -o and embed's --allow-rank-extension. Exit codes:
0 success, 2 verification failure (including a failed verdict in a report,
and a loaded polynomial whose discriminant vanishes identically), 3
numerical instability, 4 input or schema errors, usage errors (an unknown
flag or command, a missing argument) and groups without an exact synthesis.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .embedding import NoSolutionError, SolutionCheckError
from .monodromy import FiberMatchError, StepUnderflowError
from .permgroup import ClosureLimitError, PermGroup, Permutation
from .pipeline import (
    IrreducibilityFailureError,
    VerificationError,
    realize_group,
    run_monodromy,
    run_verify_tower,
    solve_semitop_embedding,
)
from .roots import MultipleRootError, RootFindingError
from .synthesis import SynthesisUnsupported
from .wpoly import BaseSpace, GeometryError, WeierstrassPoly

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_NUMERICAL = 3
EXIT_INPUT = 4

_NUMERICAL_ERRORS = (StepUnderflowError, FiberMatchError, RootFindingError,
                     MultipleRootError)


class InputError(RuntimeError):
    pass


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise InputError(f"{path}: file not found") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc


def _schema(path: str, data, key: str):
    if key not in data:
        raise InputError(f"{path}: missing field '{key}'")
    return data[key]


def _load_group(path: str) -> PermGroup:
    data = _load_json(path)
    try:
        degree = _schema(path, data, "degree")
        generators = _schema(path, data, "generators")
        if not isinstance(generators, list):
            raise ValueError("generators must be a JSON list")
        return PermGroup.from_json({"degree": degree, "generators": generators})
    except (ValueError, TypeError, KeyError) as exc:
        raise InputError(f"{path}: bad group: {exc}") from exc


def _load_polynomial(path: str) -> tuple[WeierstrassPoly, Optional[BaseSpace]]:
    """Accept either a bare polynomial or a combined realization artifact."""
    data = _load_json(path)
    space = None
    if isinstance(data, dict) and "polynomial" in data:
        if "base_space" in data:
            space = _parse_space(path, data["base_space"])
        data = data["polynomial"]
    try:
        poly = WeierstrassPoly.from_json(
            {"degree": _schema(path, data, "degree"),
             "coeffs": _schema(path, data, "coeffs")})
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        raise InputError(f"{path}: bad polynomial: {exc}") from exc
    return poly, space


def _parse_space(path: str, data) -> BaseSpace:
    try:
        return BaseSpace.from_json(data)
    except (ValueError, TypeError, KeyError, IndexError,
            ZeroDivisionError) as exc:
        raise InputError(f"{path}: bad base space: {exc}") from exc


def _load_space(path: Optional[str]) -> Optional[BaseSpace]:
    if path is None:
        return None
    return _parse_space(path, _load_json(path))


def _load_images(path: str, label: str) -> tuple[Permutation, ...]:
    data = _load_json(path)
    if isinstance(data, dict):
        data = _schema(path, data, "gen_images")
    if not isinstance(data, list):
        raise InputError(f"{path}: bad {label} images: expected a JSON list")
    try:
        return tuple(Permutation.from_json(p) for p in data)
    except (ValueError, TypeError) as exc:
        raise InputError(f"{path}: bad {label} images: {exc}") from exc


def _emit(payload: dict, output: Optional[str]):
    text = json.dumps(payload, indent=2, sort_keys=False)
    if output and output != "-":
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cmd_realize(args) -> int:
    group = _load_group(args.group)
    space = _load_space(args.base_space)
    poly, report = realize_group(group, space)
    _emit({"schema_version": report.schema_version,
           "polynomial": poly.to_json(),
           "base_space": BaseSpace.from_json(report.inputs["base_space"]).to_json(),
           "report": report.to_json()}, args.output)
    return EXIT_OK


def _cmd_embed(args) -> int:
    poly, embedded_space = _load_polynomial(args.polynomial)
    space = _load_space(args.base_space) or embedded_space
    if space is None:
        raise InputError("a base space is required (flag --base-space or a "
                         "combined polynomial artifact)")
    group = _load_group(args.group)
    phi_images = _load_images(args.phi, "phi")
    out_poly, report = solve_semitop_embedding(
        poly, space, group, phi_images,
        allow_rank_extension=args.allow_rank_extension)
    _emit({"schema_version": report.schema_version,
           "polynomial": out_poly.to_json(),
           "base_space": report.artifacts["extended_base_space"],
           "report": report.to_json()}, args.output)
    return EXIT_OK


def _cmd_monodromy(args) -> int:
    poly, embedded_space = _load_polynomial(args.polynomial)
    space = _load_space(args.base_space) or embedded_space
    if space is None:
        raise InputError("a base space is required")
    report = run_monodromy(poly, space)
    _emit(report.to_json(), args.output)
    return EXIT_OK if report.all_passed() else EXIT_VERIFICATION


def _cmd_verify_tower(args) -> int:
    h_poly, h_space = _load_polynomial(args.h_polynomial)
    g_poly, g_space = _load_polynomial(args.g_polynomial)
    space = _load_space(args.base_space) or h_space or g_space
    if space is None:
        raise InputError("a base space is required")
    group = _load_group(args.group)
    phi_images = _load_images(args.phi, "phi")
    psi_images = _load_images(args.psi, "psi")
    report = run_verify_tower(h_poly, g_poly, space, group, phi_images,
                              psi_images)
    _emit(report.to_json(), args.output)
    return EXIT_OK if report.all_passed() else EXIT_VERIFICATION


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 4, as every other input
    error does; argparse's own code 2 would read as a verification failure.
    Its subparsers are of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"input error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="splitcover",
        description="Deck groups, embedding problems, and Weierstrass "
                    "polynomial realizations over a disc with holes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-o", "--output", help="write the JSON result here "
                                              "instead of stdout")

    p = sub.add_parser("realize", help="realize a finite group as a deck group")
    p.add_argument("group", help="PermGroup JSON file")
    p.add_argument("--base-space", help="BaseSpace JSON file (default layout "
                                        "if omitted)")
    common(p)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("embed", help="solve a semi-topological embedding problem")
    p.add_argument("polynomial", help="base polynomial JSON (bare or combined)")
    p.add_argument("--base-space", help="BaseSpace JSON file")
    p.add_argument("--group", required=True, help="the covering group H (JSON)")
    p.add_argument("--phi", required=True,
                   help="generator images of the surjection onto the deck "
                        "group of the base polynomial (JSON)")
    p.add_argument("--allow-rank-extension", default=True,
                   action=argparse.BooleanOptionalAction,
                   help="append base-space holes when no preimage assignment "
                        "generates H")
    common(p)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("monodromy", help="track a polynomial's monodromy")
    p.add_argument("polynomial", help="polynomial JSON (bare or combined)")
    p.add_argument("--base-space", help="BaseSpace JSON file")
    common(p)
    p.set_defaults(func=_cmd_monodromy)

    p = sub.add_parser("verify-tower", help="check a restriction triangle "
                                            "between two polynomials")
    p.add_argument("h_polynomial", help="covering polynomial JSON")
    p.add_argument("g_polynomial", help="base polynomial JSON")
    p.add_argument("--base-space", help="BaseSpace JSON file")
    p.add_argument("--group", required=True, help="the group H (JSON)")
    p.add_argument("--phi", required=True, help="generator images of phi (JSON)")
    p.add_argument("--psi", required=True, help="generator images of psi (JSON)")
    common(p)
    p.set_defaults(func=_cmd_verify_tower)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (IrreducibilityFailureError, GeometryError, ClosureLimitError,
            ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (VerificationError, SolutionCheckError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except NoSolutionError as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except SynthesisUnsupported as exc:
        print(f"unsupported group: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
