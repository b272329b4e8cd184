"""Command-line front end.

Subcommands:
  verify        run verification suites against a group, emit a JSON/CSV report
  yen           relativize an operator against a frame
  frame-change  apply the localized frame-change map inside a scenario
  twirl         group-average an operator
  reconstruct   triangular reconstruction of a relative state

Exit codes: 0 all checks pass, 1 at least one check failed, 2 invalid input.
A numerical failure (``np.linalg.LinAlgError``) is not invalid input and
propagates.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import io as qio
from .builtins import BUILTIN_NAMES
from .groups import GroupError
from .opequiv import EffectContext, g_twirl, invariant_subspace
from .operators import HermitianBasis
from .quantum import UnitaryRep
from .relativize import YenMap
from .suites import SUITES, run_checks


class InputError(Exception):
    """User-supplied files or flags are invalid (exit code 2)."""


def _resolve_group(spec: str):
    try:
        if spec.startswith("builtin:"):
            return qio.resolve_group(spec)
        return qio.group_from_json(qio.load_json(Path(spec)))
    except (qio.FormatError, GroupError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _write_report(report: dict, out: Optional[str], fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        buf = _io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "claim", "pass", "max_deviation", "trials", "runtime_ms"])
        for rec in report["checks"]:
            writer.writerow([rec["name"], rec["claim"], rec["pass"],
                             f"{rec['max_deviation']:.3e}", rec["trials"],
                             rec["runtime_ms"]])
        text = buf.getvalue()
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    group = _resolve_group(args.group)
    suites = []
    for s in args.suite:
        suites.extend(part for part in s.split(",") if part)
    report = run_checks(group, suites or ["all"], tol=args.tol, seed=args.seed,
                        trials=args.trials)
    _write_report(report, args.out, args.format)
    failed = report["summary"]["failed"]
    if failed:
        for rec in report["checks"]:
            if "error" in rec:
                print(f"FAIL {rec['name']}: {rec['error']}", file=sys.stderr)
            elif not rec["pass"]:
                dev = rec["max_deviation"]
                verdict = "nan" if np.isnan(dev) else f"{dev:.3e} > tol {args.tol:.1e}"
                print(f"FAIL {rec['name']}: deviation {verdict} "
                      f"at {json.dumps(rec['witness'], sort_keys=True)}", file=sys.stderr)
        return 1
    return 0


def _load_frame(args):
    try:
        doc = qio.load_json(Path(args.frame))
        return qio.frame_from_json(doc, base=Path(args.frame).parent)
    except qio.FormatError as exc:
        raise InputError(str(exc)) from exc


def _system_rep(group, spec: str) -> UnitaryRep:
    try:
        if spec in ("left_regular", "left_right"):
            return qio.rep_from_json(group, spec)
        return qio.rep_from_json(group, qio.load_json(Path(spec)))
    except qio.FormatError as exc:
        raise InputError(str(exc)) from exc


def cmd_yen(args) -> int:
    frame = _load_frame(args)
    sys_rep = _system_rep(frame.group, args.system)
    try:
        operand = qio.operator_from_json(qio.load_json(Path(args.operator)))
    except qio.FormatError as exc:
        raise InputError(str(exc)) from exc
    ym = YenMap(frame, sys_rep)
    result = ym.apply(operand)
    doc = {"result": qio.operator_to_json(result)}
    if sys_rep.dim ** 2 <= 256:
        ctx = EffectContext([ym.apply(b) for b in HermitianBasis(sys_rep.dim).matrices],
                            dim=ym.dim_total)
        doc["context"] = ctx.report()
    qio.dump_json(doc, args.out) if args.out else print(json.dumps(doc, indent=2))
    return 0


def cmd_twirl(args) -> int:
    group = _resolve_group(args.group)
    rep = _system_rep(group, args.rep)
    try:
        operand = qio.operator_from_json(qio.load_json(Path(args.operator)))
    except qio.FormatError as exc:
        raise InputError(str(exc)) from exc
    result = g_twirl(rep, operand)
    doc = {"result": qio.operator_to_json(result)}
    if rep.dim ** 2 <= 4096:
        doc["context"] = invariant_subspace(rep).report()
    qio.dump_json(doc, args.out) if args.out else print(json.dumps(doc, indent=2))
    return 0


def cmd_frame_change(args) -> int:
    from .framechange import frame_change

    try:
        scenario = qio.scenario_from_json(qio.load_json(Path(args.scenario)),
                                          base=Path(args.scenario).parent)
        state = qio.operator_from_json(qio.load_json(Path(args.state)))
    except qio.FormatError as exc:
        raise InputError(str(exc)) from exc
    # unset indices mean the first and second frames in either basis
    base = 1 if args.one_based else 0
    src = 0 if args.src is None else args.src - base
    dst = 1 if args.dst is None else args.dst - base
    moved = frame_change(scenario, src, dst, state)
    doc = {"result": qio.operator_to_json(moved.matrix),
           "context": moved.context.report()}
    qio.dump_json(doc, args.out) if args.out else print(json.dumps(doc, indent=2))
    return 0


def cmd_reconstruct(args) -> int:
    from .framechange import triangular_reconstruction

    try:
        frame1 = qio.frame_from_json(qio.load_json(Path(args.frame1)),
                                     base=Path(args.frame1).parent)
        frame2 = qio.frame_from_json(qio.load_json(Path(args.frame2)),
                                     base=Path(args.frame2).parent)
        rho = qio.operator_from_json(qio.load_json(Path(args.state)))
        omega = qio.operator_from_json(qio.load_json(Path(args.joint)))
        sys_rep = _system_rep(frame1.group, args.system)
    except qio.FormatError as exc:
        raise InputError(str(exc)) from exc
    result = triangular_reconstruction(frame1, frame2, rho, sys_rep, omega)
    doc = {"result": qio.operator_to_json(result)}
    qio.dump_json(doc, args.out) if args.out else print(json.dumps(doc, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrframes",
        description="Finite-group quantum reference frame calculus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run verification suites against a group")
    p.add_argument("--group", required=True,
                   help=f"builtin:NAME ({', '.join(BUILTIN_NAMES)}) or a group JSON file")
    p.add_argument("--suite", action="append", default=[],
                   help=f"suite selection ({', '.join(SUITES)} or 'all'); repeatable")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--out", default=None, help="report path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("yen", help="relativize an operator against a frame")
    p.add_argument("--frame", required=True, help="frame JSON file")
    p.add_argument("--system", default="left_regular",
                   help="system rep: left_regular, left_right, or a rep JSON file")
    p.add_argument("--operator", required=True, help="operator JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_yen)

    p = sub.add_parser("twirl", help="group-average an operator")
    p.add_argument("--group", required=True)
    p.add_argument("--rep", default="left_regular")
    p.add_argument("--operator", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_twirl)

    p = sub.add_parser("frame-change", help="apply the localized frame-change map")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--state", required=True, help="state JSON on the source complement")
    p.add_argument("--src", type=int, default=None, help="source frame (default: the first)")
    p.add_argument("--dst", type=int, default=None, help="target frame (default: the second)")
    p.add_argument("--zero-based", action="store_false", dest="one_based",
                   help="treat --src/--dst as zero-based indices")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_frame_change, one_based=True)

    p = sub.add_parser("reconstruct", help="triangular reconstruction of a relative state")
    p.add_argument("--frame1", required=True)
    p.add_argument("--frame2", required=True)
    p.add_argument("--state", required=True, help="state relative to the first frame")
    p.add_argument("--joint", required=True, help="joint two-frame state JSON")
    p.add_argument("--system", default="left_regular")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reconstruct)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError:
        raise  # a numerical failure is not bad input
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
