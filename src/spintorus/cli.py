"""Command-line front end.

Verbs:

    build    print an algebra / module summary for each k
    verify   run the verification suites and emit a report
    torsion  count or enumerate n-torsion points
    act      apply an element expression to a point
    dual     cross the duality (point -> bundle or bundle -> point)
    report   re-emit a previously saved JSON report

Every value the commands print uses the same literal syntax the parsers
accept, so any reported failure can be replayed by feeding its inputs
back through `act` or `dual`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from ._version import __version__
from .action import act as apply_action
from .action import translation_system
from .clifford import Signature, as_signed_blade, element_order, generator_group
from .errors import SpinTorusError
from .exprs import evaluate_element, parse_bundle, parse_gaussian, parse_point
from .matrices import Matrix
from .picard import bundle_action, bundle_to_point, point_to_bundle
from .spinrep import build_generators, verify_algebra_iso
from .suite import (
    ALL_SUITES,
    SuiteConfig,
    VerificationReport,
    emit_report,
    report_from_document,
    run_suite,
)
from .torus import (
    DEFAULT_ENUMERATION_CAP,
    LatticeSpec,
    PolarizationData,
    torsion_count,
    torsion_points,
)


def _k_range(text: str) -> tuple[int, ...]:
    """Accept '2', '1,3' or '1..3' (inclusive)."""
    text = text.strip()
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            values = tuple(range(lo, hi + 1))
        else:
            values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse k range {text!r}") from exc
    if not values or any(v < 1 for v in values) or list(values) != sorted(set(values)):
        raise argparse.ArgumentTypeError(
            f"k range must be strictly increasing positive integers, got {text!r}"
        )
    return values


def _signature(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("signature must look like 'p,q'")
    try:
        p, q = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError("signature must look like 'p,q'") from exc
    return p, q


def _load_lattice(path: str, k: int) -> LatticeSpec:
    """Read a JSON matrix of Gaussian-rational strings; columns are generators."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError("lattice file must hold a JSON matrix (list of rows)")
    rows = []
    for row in data:
        parsed = []
        for cell in row:
            if not isinstance(cell, str):
                raise ValueError("lattice entries must be strings like '1/2+1/2i'")
            parsed.append(parse_gaussian(cell))
        rows.append(parsed)
    return LatticeSpec(k, Matrix(rows))


def _matrix_literal(m: Matrix) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in m.entries()) + "]"


def _single_k(args: argparse.Namespace) -> int:
    ks = args.k
    if len(ks) != 1:
        raise ValueError("this command needs a single k")
    return ks[0]


def _resolve_signature(args: argparse.Namespace, k: int) -> Signature:
    if getattr(args, "signature", None) is not None:
        sig = Signature(*args.signature)
        if sig.k != k:
            raise ValueError(f"signature {args.signature} does not match k={k}")
        return sig
    return Signature(2 * k, 0)


def _resolve_lattice(args: argparse.Namespace, k: int) -> LatticeSpec:
    if getattr(args, "lattice", None) is not None:
        return _load_lattice(args.lattice, k)
    return LatticeSpec.default(k)


def _cmd_build(args: argparse.Namespace) -> int:
    if (args.signature is not None or args.lattice is not None) and len(args.k) != 1:
        raise ValueError("an explicit signature or lattice needs a single k")
    for k in args.k:
        sig = _resolve_signature(args, k)
        lattice = _resolve_lattice(args, k)
        table = build_generators(k, sig)
        group = generator_group(sig)
        orders = {1: 0, 2: 0, 4: 0}
        for g in group:
            orders[element_order(g, sig)] += 1
        iso = verify_algebra_iso(table)
        print(f"k={k}  signature ({sig.p},{sig.q})")
        print(f"  blades: {1 << sig.n}   signed-blade group: {len(group)} "
              f"(orders 1/2/4: {orders[1]}/{orders[2]}/{orders[4]})")
        print(f"  module dimension: {table.dim}   construction: {table.description}")
        print(f"  blade-image rank: {iso.spanning_rank} of {iso.expected_rank}"
              + ("  (isomorphism onto the matrix algebra)" if iso.independent else ""))
        print(f"  lattice: {'default Z[i]^' + str(lattice.dim) if lattice.is_default else _matrix_literal(lattice.basis)}")
        for index, gamma in enumerate(table.gamma, start=1):
            print(f"  gamma[{index}] = {_matrix_literal(gamma)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "all":
        suites = ALL_SUITES
    else:
        suites = tuple(args.suite.split(","))
    k = args.k
    lattice = None
    if args.lattice is not None:
        if len(k) != 1:
            raise ValueError("an explicit lattice needs a single k")
        lattice = _load_lattice(args.lattice, k[0])
    config = SuiteConfig(
        ks=k,
        signature=args.signature,
        lattice=lattice,
        seed=args.seed,
        cap=args.cap,
        suites=suites,
        strict=args.strict,
    )
    report = run_suite(config)
    if args.json is not None:
        payload = emit_report(report, "json", include_timings=args.timings)
        Path(args.json).write_bytes(payload)
    return _write_report(report, args)


def _write_report(report: VerificationReport, args: argparse.Namespace) -> int:
    """Print the report; the exit code is 1 if a check failed or, with --strict, the audit has an index gap."""
    sys.stdout.write(
        emit_report(report, args.format, include_timings=args.timings).decode("utf-8")
    )
    failed = not report.all_passed()
    if args.strict and report.index_gap():
        print("strict: the endomorphism audit reports a proper containment", file=sys.stderr)
        failed = True
    return 1 if failed else 0


def _cmd_torsion(args: argparse.Namespace) -> int:
    k = _single_k(args)
    lattice = _resolve_lattice(args, k)
    total = torsion_count(args.n, k)
    print(f"n={args.n} k={k}: {total} points")
    if args.count_only:
        return 0
    for point in torsion_points(args.n, lattice, cap=args.cap):
        print(str(point))
    return 0


def _cmd_act(args: argparse.Namespace) -> int:
    k = _single_k(args)
    sig = _resolve_signature(args, k)
    lattice = _resolve_lattice(args, k)
    table = build_generators(k, sig)
    element = evaluate_element(args.element, sig)
    point = parse_point(args.point, k, lattice)
    image = apply_action(element, point, table)
    print(f"image: {image}")
    if args.orbit:
        g = as_signed_blade(element)
        if g is None:
            raise ValueError("--orbit needs a signed blade like 'e1*e2' or 'i*e1'")
        if element_order(g, sig) < 2:
            raise ValueError("--orbit needs an actor of order at least 2")
        system = translation_system(g, point, table)
        print(f"order: {system.order}")
        print(f"M: {system.first_translation}")
        print(f"N: {system.second_translation}")
        for step, q in enumerate(system.orbit):
            print(f"orbit[{step}]: {q}")
    return 0


def _cmd_dual(args: argparse.Namespace) -> int:
    k = _single_k(args)
    sig = _resolve_signature(args, k)
    lattice = _resolve_lattice(args, k)
    pol = PolarizationData.default(lattice)
    text = args.value.strip()
    actor = None
    if args.act is not None:
        actor = evaluate_element(args.act, sig)
        table = build_generators(k, sig)
    if text.startswith("["):
        bundle = parse_bundle(text, k)
        if actor is not None:
            bundle = bundle_action(actor, bundle, table, pol)
            print(f"bundle: {bundle}")
        point = bundle_to_point(bundle, pol)
        print(f"point: {point}")
    else:
        point = parse_point(text, k, lattice)
        if actor is not None:
            point = apply_action(actor, point, table)
            print(f"point: {point}")
        bundle = point_to_bundle(point, pol)
        print(f"bundle: {bundle}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    doc = json.loads(Path(args.json).read_text())
    return _write_report(report_from_document(doc), args)


def _add_common(parser: argparse.ArgumentParser, default_k: str) -> None:
    parser.add_argument(
        "--k", type=_k_range, default=_k_range(default_k),
        help="k value or range: '2', '1,3', '1..3' (default %(default)s)",
    )
    parser.add_argument(
        "--signature", type=_signature, default=None, metavar="P,Q",
        help="generator squares: P of +1 then Q of -1 (needs a single k)",
    )
    parser.add_argument(
        "--lattice", default=None, metavar="FILE",
        help="JSON matrix of Gaussian-rational strings; columns generate the lattice",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="spintorus",
        description="Exact Clifford-algebra actions on Gaussian tori.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="print an algebra / module summary")
    _add_common(p_build, "1..3")
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    _add_common(p_verify, "1..3")
    p_verify.add_argument("--seed", type=int, default=1729)
    p_verify.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p_verify.add_argument(
        "--suite", default="all",
        help="one of %s, a comma list, or 'all'" % ", ".join(ALL_SUITES),
    )
    p_verify.add_argument("--json", default=None, metavar="PATH",
                          help="also write the JSON report to PATH")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--timings", action="store_true",
                          help="include wall-clock ms in the JSON (breaks byte-stability)")
    p_verify.add_argument("--strict", action="store_true",
                          help="fail when the endomorphism audit finds a proper containment")
    p_verify.set_defaults(func=_cmd_verify)

    p_torsion = sub.add_parser("torsion", help="count or list n-torsion points")
    p_torsion.add_argument("n", type=int)
    _add_common(p_torsion, "1")
    p_torsion.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p_torsion.add_argument("--count-only", action="store_true")
    p_torsion.set_defaults(func=_cmd_torsion)

    p_act = sub.add_parser("act", help="apply an element expression to a point")
    p_act.add_argument("element", help="expression like '(1+i)*e3 - i'")
    p_act.add_argument("point", help="point literal like '1/4, 1/2+1/2i'")
    _add_common(p_act, "1")
    p_act.add_argument("--orbit", action="store_true",
                       help="also print the translation system of a signed blade")
    p_act.set_defaults(func=_cmd_act)

    p_dual = sub.add_parser("dual", help="map a point to its bundle class, or back")
    p_dual.add_argument("value", help="point literal, or bundle literal like '[0, 0, 1/2, 0]'")
    _add_common(p_dual, "1")
    p_dual.add_argument("--act", default=None, metavar="EXPR",
                        help="apply this element before crossing the duality")
    p_dual.set_defaults(func=_cmd_dual)

    p_report = sub.add_parser("report", help="re-emit a saved JSON report")
    p_report.add_argument("--json", required=True, metavar="PATH")
    p_report.add_argument("--format", choices=("text", "json"), default="text")
    p_report.add_argument("--timings", action="store_true")
    p_report.add_argument("--strict", action="store_true")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpinTorusError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
