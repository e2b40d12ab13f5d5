"""Command line interface.

Verbs:
    brisq run scenario.json     resolve one scenario
    brisq sweep scenario.json   run the scenario's sweep grid
    brisq check                 run the built-in reference device and
                                compare against its documented values

Exit codes: 0 success, 2 malformed scenario or arguments, or an --out
file or stdout that cannot be written, 3 physical failure (unstable
coupling, degenerate linewidth, cutoff too small, a result beyond the
float range), 4 oracle deviation beyond tolerance (in a run or in any
sweep row) or a failed reference check.

Identical inputs produce bit-identical outputs on one platform: the
pipeline is deterministic and serialization uses repr-exact floats.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from typing import Any, Sequence

from .errors import PhysicsError, ScenarioError
from .pipeline import load_scenario, reference_checks, run, sweep
from .squeezing import QUAD_KEYS

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


def _decibels(squeezing: float) -> float:
    """A quadrature's variance in dB relative to vacuum, 10*log10(var / 0.5)."""
    return 10.0 * math.log10((squeezing + 0.5) / 0.5)


def _flatten(value: Any, prefix: str = "") -> dict[str, Any]:
    """Nested dicts and lists as one CSV row with dotted keys."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return {prefix: value}
    out: dict[str, Any] = {}
    for key, item in items:
        out.update(_flatten(item, f"{prefix}.{key}" if prefix else str(key)))
    return out


def _write(payload: Any, rows: Sequence[dict[str, Any]], fmt: str,
           out: str | None) -> None:
    """Write JSON of payload or CSV of rows to the file out, or to stdout.

    The CSV header is the union of the rows' keys in first-seen order.
    A file or stdout that cannot be written is a ScenarioError naming
    it.
    """
    if fmt == "json":
        text = json.dumps(payload, indent=2, allow_nan=False)
    else:
        fieldnames = list(dict.fromkeys(key for row in rows for key in row))
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
    if out is None:
        _write_stdout(text if text.endswith("\n") else text + "\n")
        return
    try:
        with open(out, "w", encoding="utf-8") as stream:
            stream.write(text)
    except OSError as err:
        raise ScenarioError(f"cannot write {out!r}: {err.strerror}") from err


def _write_stdout(text: str) -> None:
    """Write text to stdout and flush it, so that a failed write shows
    here, as a ScenarioError, and not at interpreter shutdown."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as err:
        raise ScenarioError(f"cannot write '<stdout>': {err.strerror}") from err


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "check":
            rows = reference_checks()
            if args.out is not None:
                _write(rows, rows, args.format, args.out)
            _write_stdout("".join(
                f"check {row['name']}: {'PASS' if row['ok'] else 'FAIL'} "
                f"(value {row['value']:.6g}, expected {row['expected']:.6g}, "
                f"{row['kind']} tolerance {row['tolerance']:.2g})\n"
                for row in rows))
            return EXIT_OK if all(row["ok"] for row in rows) else EXIT_MISMATCH

        scenario = load_scenario(args.scenario)
        if args.oracle is not None:
            scenario = dataclasses.replace(scenario, oracle=dataclasses.replace(
                scenario.oracle, enabled=args.oracle == "on"))
        if args.verb == "run":
            report = run(scenario)
            payload = report.to_dict()
            if args.db:
                payload["decibels"] = {
                    quad: _decibels(report.analytic.squeezing[quad])
                    for quad in QUAD_KEYS}
            _write(payload, [_flatten(payload)], args.format, args.out)
            if report.oracle is not None and not report.oracle["ok"]:
                print(
                    f"oracle deviation {report.oracle['deviation']:.3e} "
                    f"exceeds tolerance {report.oracle['tolerance']:.3e}",
                    file=sys.stderr,
                )
                return EXIT_MISMATCH
            return EXIT_OK

        rows = sweep(scenario)
        for row in rows:
            if args.db and row["status"] == "ok":
                row.update({f"db_{quad}": _decibels(row[f"S_{quad}"])
                            for quad in QUAD_KEYS})
        _write({"parameter": scenario.sweep.parameter,
                "scenario": scenario.to_dict(), "rows": rows},
               rows, args.format, args.out)
        misses = sum(row.get("oracle_ok") is False for row in rows)
        if misses:
            print(f"oracle deviation beyond tolerance in {misses} of "
                  f"{len(rows)} rows", file=sys.stderr)
            return EXIT_MISMATCH
        return EXIT_OK

    except ScenarioError as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return EXIT_SCENARIO
    except PhysicsError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
