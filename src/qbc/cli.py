"""Command-line front end for protocol analysis, sweeps and simulation.

Subcommands: ``analyze``, ``sweep``, ``simulate``, ``cointoss``, ``check``
and ``make-spec``.  All output is deterministic: numbers carry 17
significant digits, key/column order is fixed, and every command honors
``--seed``, so identical invocations produce byte-identical files.

Exit codes: 0 success; 1 bound or inequality violation found by ``check``;
2 a usage error: argparse's, any :class:`~qbc.errors.QbcError` (the library
raises one for every input it refuses, each naming the broken invariant)
or an ``OSError`` (an unwritable ``--out``); 3 a numeric failure: a
``ValueError`` from NumPy (``LinAlgError`` among them; the package raises no
plain ``ValueError`` of its own) or a ``FloatingPointError``.
Exits 2 and 3 print ``Name: message`` on stderr.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .cointoss import CoinTossProtocol, biases, fair_toss_protocol, toss_statistics
from .distinguish import inequalities_at
from .errors import ParamOutOfRange, QbcError
from .protocol import (
    CheatingAlice,
    HelstromBob,
    HonestAlice,
    HonestBob,
    estimate_statistics,
    exact_statistics,
    honest_reduced_states,
    optimal_cheat_kit,
    security_report,
)
from .specfile import dumps_deterministic, format_float, parse_protocol_spec, protocol_to_spec
from .tradeoff import (
    FAMILY_KINDS,
    Curve,
    TradeoffPoint,
    check_bounds,
    curve_i_slack,
    curve_value,
    family_protocol,
    sweep,
    uniform_grid,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_ALICE_CHOICES = {
    "honest0": HonestAlice(0),
    "honest1": HonestAlice(1),
    "cheat": CheatingAlice(),
}
_BOB_CHOICES = {"honest": HonestBob(), "helstrom": HelstromBob()}


def _cell(value) -> str:
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _key_value_text(doc: dict) -> str:
    return "".join(f"{key} = {_cell(value)}\n" for key, value in doc.items())


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit_doc(doc: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        _emit(dumps_deterministic({"schemaVersion": 1, **doc}) + "\n", out)
    elif fmt == "csv":
        _emit(_csv_text(list(doc.keys()), [list(doc.values())]), out)
    else:
        _emit(_key_value_text(doc), out)


# --------------------------------------------------------------------------
# handlers


def _cmd_analyze(args) -> int:
    p = parse_protocol_spec(args.spec)
    report = security_report(p)
    kit = optimal_cheat_kit(p)
    doc = {
        "dimProof": p.dim_proof,
        "dimToken": p.dim_token,
        "traceDistance": report.trace_distance,
        "fidelity": report.fidelity,
        "gMax": report.g_max,
        "cMax": report.c_max,
        "perBitSuccess": kit.per_bit_success,
        "curveISlack": curve_i_slack(report.g_max, report.c_max),
    }
    _emit_doc(doc, args.format, args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    kind = FAMILY_KINDS[args.family]
    params = uniform_grid(kind, args.points)
    points = sweep(kind, params)
    header = ["param", "gMax", "cMax", *(f"curve{curve.value}" for curve in Curve)]
    rows = [
        [pt.family_param, pt.g_max, pt.c_max, *(curve_value(curve, pt.g_max) for curve in Curve)]
        for pt in points
    ]
    if args.format == "json":
        doc = {
            "schemaVersion": 1,
            "family": args.family,
            "points": [dict(zip(header, row)) for row in rows],
        }
        _emit(dumps_deterministic(doc) + "\n", args.out)
    else:
        _emit(_csv_text(header, rows), args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    p = parse_protocol_spec(args.spec)
    alice = _ALICE_CHOICES[args.alice]
    bob = _BOB_CHOICES[args.bob]
    stats = estimate_statistics(p, alice, bob, args.runs, args.seed)
    predicted_estimate, predicted_unveil = exact_statistics(p, alice, bob)
    doc = {
        "alice": args.alice,
        "bob": args.bob,
        "runs": stats.n_runs,
        "seed": args.seed,
        "pEstimate": stats.p_estimate,
        "pEstimateStderr": stats.p_estimate_stderr,
        "pEstimatePredicted": predicted_estimate,
        "pUnveil": stats.p_unveil,
        "pUnveilStderr": stats.p_unveil_stderr,
        "pUnveilPredicted": predicted_unveil,
    }
    _emit_doc(doc, args.format, args.out)
    return EXIT_OK


def _cointoss_base(args) -> CoinTossProtocol:
    if args.param is not None and args.family is None:
        raise ParamOutOfRange("--param requires --family")
    if args.spec is not None:
        if args.family is not None:
            raise ParamOutOfRange("give a spec file or --family, not both")
        return CoinTossProtocol(parse_protocol_spec(args.spec))
    if args.family is not None:
        if args.param is None:
            raise ParamOutOfRange("--family requires --param")
        return CoinTossProtocol(family_protocol(FAMILY_KINDS[args.family](args.param)))
    return fair_toss_protocol()


def _cmd_cointoss(args) -> int:
    ct = _cointoss_base(args)
    report = biases(ct)
    stats = toss_statistics(ct, args.cheater, args.runs, args.seed)
    predicted = {
        "none": 0.5,
        "alice": 0.5 + report.alpha,
        "bob": 0.5 - report.beta,
    }[args.cheater]
    doc = {
        "cheater": args.cheater,
        "runs": stats.n_tosses,
        "seed": args.seed,
        "alpha": report.alpha,
        "beta": report.beta,
        "aliceWinRate": stats.alice_win_rate,
        "bobWinRate": stats.bob_win_rate,
        "aliceWinStderr": stats.alice_win_stderr,
        "aliceWinPredicted": predicted,
        "aliceCaughtRate": stats.alice_caught_rate,
    }
    _emit_doc(doc, args.format, args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.spec is None and not args.point:
        raise ParamOutOfRange("check needs a spec path and/or --point entries")
    lines: list[str] = []
    violated = False
    points = []
    if args.spec is not None:
        p = parse_protocol_spec(args.spec)
        report = security_report(p)
        inequality_report = inequalities_at(
            report.trace_distance, report.fidelity, *honest_reduced_states(p)
        )
        for check in inequality_report.checks:
            if check.applicable:
                status = "OK" if check.satisfied else "VIOLATION"
                lines.append(f"{status} {check.name} slack={format_float(check.slack)}")
        violated = not inequality_report.all_satisfied()
        points.append((report.g_max, report.c_max))
    points += args.point or []

    for g, c in points:
        bound_violations = check_bounds(TradeoffPoint(g, c, float("nan")))
        if bound_violations:
            violated = True
            for message in bound_violations:
                lines.append(f"VIOLATION point gMax={format_float(g)} cMax={format_float(c)} {message}")
        else:
            lines.append(f"OK point gMax={format_float(g)} cMax={format_float(c)} above_curve_I")

    _emit("".join(line + "\n" for line in lines), args.out)
    return EXIT_VIOLATION if violated else EXIT_OK


def _cmd_make_spec(args) -> int:
    p = family_protocol(FAMILY_KINDS[args.family](args.param))
    _emit(dumps_deterministic(protocol_to_spec(p)) + "\n", args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads every negative float literal as a value.

    Before Python 3.13 argparse takes a token for a negative number only in
    the forms ``-5`` and ``-0.5``.  ``check --point -1e-10 0.5`` then read
    ``-1e-10`` (or ``-inf``) as an unknown option, so the point never
    reached its range check.  Subcommand parsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qbc",
        description="Analyze and simulate purification bit-commitment protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="closed-form security report for a spec file")
    analyze.add_argument("spec", help="protocol spec file (JSON)")
    analyze.add_argument("--format", choices=["text", "json"], default="text")
    analyze.add_argument("--out", default=None)
    analyze.set_defaults(handler=_cmd_analyze)

    sweep_cmd = sub.add_parser("sweep", help="trade-off curve sweep for a protocol family")
    sweep_cmd.add_argument("--family", choices=sorted(FAMILY_KINDS), required=True)
    sweep_cmd.add_argument("--points", type=int, default=101)
    sweep_cmd.add_argument("--format", choices=["csv", "json"], default="csv")
    sweep_cmd.add_argument("--out", default=None)
    sweep_cmd.set_defaults(handler=_cmd_sweep)

    simulate = sub.add_parser("simulate", help="Monte Carlo cheat statistics for a spec file")
    simulate.add_argument("spec", help="protocol spec file (JSON)")
    simulate.add_argument("--alice", choices=sorted(_ALICE_CHOICES), default="honest0")
    simulate.add_argument("--bob", choices=sorted(_BOB_CHOICES), default="honest")
    simulate.add_argument("--runs", type=int, default=100_000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--format", choices=["csv", "json", "text"], default="csv")
    simulate.add_argument("--out", default=None)
    simulate.set_defaults(handler=_cmd_simulate)

    cointoss = sub.add_parser("cointoss", help="coin-toss biases and Monte Carlo win rates")
    cointoss.add_argument("spec", nargs="?", default=None, help="base protocol spec file")
    cointoss.add_argument("--family", choices=sorted(FAMILY_KINDS), default=None)
    cointoss.add_argument("--param", type=float, default=None)
    cointoss.add_argument("--cheater", choices=["none", "alice", "bob"], default="none")
    cointoss.add_argument("--runs", type=int, default=100_000)
    cointoss.add_argument("--seed", type=int, default=0)
    cointoss.add_argument("--format", choices=["csv", "json", "text"], default="csv")
    cointoss.add_argument("--out", default=None)
    cointoss.set_defaults(handler=_cmd_cointoss)

    check = sub.add_parser("check", help="verify distance/fidelity inequalities and bounds")
    check.add_argument("spec", nargs="?", default=None, help="protocol spec file")
    check.add_argument(
        "--point",
        nargs=2,
        type=float,
        action="append",
        metavar=("G", "C"),
        help="a (gMax, cMax) point to test against the universal bound",
    )
    check.add_argument("--out", default=None)
    check.set_defaults(handler=_cmd_check)

    make_spec = sub.add_parser("make-spec", help="write the spec file of a family protocol")
    make_spec.add_argument("--family", choices=sorted(FAMILY_KINDS), required=True)
    make_spec.add_argument("--param", type=float, required=True)
    make_spec.add_argument("--out", default=None)
    make_spec.set_defaults(handler=_cmd_make_spec)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except (OSError, ValueError, FloatingPointError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, (QbcError, OSError)) else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
