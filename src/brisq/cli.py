"""Command line interface.

Verbs:
    brisq run scenario.json     resolve one scenario
    brisq sweep scenario.json   run the scenario's sweep grid
    brisq check                 run the built-in reference device and
                                compare against its documented values

Exit codes: 0 success, 2 malformed scenario or arguments, 3 physical
failure (no phase-matching solution, unstable coupling, degenerate
linewidth, cutoff too small, a result beyond the float range), 4 oracle
deviation beyond tolerance (in a run or in any sweep row) or a failed
reference check.

Identical inputs produce bit-identical outputs on one platform: the
pipeline is deterministic and serialization uses repr-exact floats.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from typing import Any

from .errors import PhysicsError, ScenarioError
from .pipeline import (
    RunReport,
    Scenario,
    SweepReport,
    flatten,
    load_scenario,
    reference_checks,
    reference_scenario,
    run,
    sweep,
)

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_PHYSICS = 3
EXIT_MISMATCH = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brisq",
        description="Photon-phonon squeezing in Brillouin waveguides",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_io_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", metavar="FILE",
                       help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report format (default json)")

    for verb, text in (("run", "resolve one scenario"),
                       ("sweep", "run the scenario sweep grid")):
        verb_parser = sub.add_parser(verb, help=text)
        verb_parser.add_argument("scenario", help="scenario JSON file")
        add_io_flags(verb_parser)
        verb_parser.add_argument("--oracle", choices=("on", "off"),
                                 help="override the scenario's oracle block")
        verb_parser.add_argument("--db", action="store_true",
                                 help="add quadrature variances in dB")

    check_parser = sub.add_parser(
        "check", help="run the reference device and verify documented values")
    add_io_flags(check_parser)
    return parser


def _apply_oracle_override(scenario: Scenario, override: str | None) -> Scenario:
    if override is None:
        return scenario
    oracle = dataclasses.replace(scenario.oracle, enabled=(override == "on"))
    return dataclasses.replace(scenario, oracle=oracle)


def _csv_text(rows: list[dict[str, Any]]) -> str:
    fieldnames: list[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as stream:
            stream.write(text)


def _json_text(payload: Any) -> str:
    return json.dumps(payload, indent=2, allow_nan=False)


def _render_run(report: RunReport, fmt: str) -> str:
    if fmt == "json":
        return _json_text(report.to_dict())
    return _csv_text([flatten(report.to_dict())])


def _render_sweep(report: SweepReport, fmt: str) -> str:
    if fmt == "json":
        payload = {"parameter": report.parameter,
                   "scenario": report.scenario,
                   "rows": list(report.rows)}
        return _json_text(payload)
    return _csv_text([dict(row) for row in report.rows])


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "run":
            scenario = _apply_oracle_override(load_scenario(args.scenario),
                                              args.oracle)
            report = run(scenario, with_decibels=args.db)
            _emit(_render_run(report, args.format), args.out)
            if report.oracle is not None and not report.oracle["ok"]:
                print(
                    f"oracle deviation {report.oracle['deviation']:.3e} "
                    f"exceeds tolerance {report.oracle['tolerance']:.3e}",
                    file=sys.stderr,
                )
                return EXIT_MISMATCH
            return EXIT_OK

        if args.verb == "sweep":
            scenario = _apply_oracle_override(load_scenario(args.scenario),
                                              args.oracle)
            report = sweep(scenario, with_decibels=args.db)
            _emit(_render_sweep(report, args.format), args.out)
            misses = sum(row.get("oracle_ok") is False for row in report.rows)
            if misses:
                print(f"oracle deviation beyond tolerance in {misses} of "
                      f"{len(report.rows)} rows", file=sys.stderr)
                return EXIT_MISMATCH
            return EXIT_OK

        # check
        report = run(reference_scenario())
        rows = reference_checks(report)
        for row in rows:
            status = "PASS" if row["ok"] else "FAIL"
            print(f"check {row['name']}: {status} "
                  f"(value {row['value']:.6g}, expected {row['expected']:.6g}, "
                  f"{row['kind']} tolerance {row['tolerance']:.2g})")
        if args.out:
            _emit(_json_text(rows) if args.format == "json" else _csv_text(rows),
                  args.out)
        return EXIT_OK if all(row["ok"] for row in rows) else EXIT_MISMATCH

    except ScenarioError as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return EXIT_SCENARIO
    except PhysicsError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
