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
pipeline is deterministic and serialization uses repr-exact floats. A
sweep writes each row as it is computed; its CSV header is fixed first.

A process loads only what its verb uses: numpy is imported at the Fock
oracle's first array, so `check`, a sweep or a run with the oracle off,
and a run whose oracle takes the pure-Python vacuum series (the
reference device's does) never load it. No verb loads `dataclasses` or
`inspect`: brisq's records are plain classes, whose methods are not
generated at start-up. Nor `csv`: brisq writes its CSV lines itself.
The `brisq` console script and `python -m brisq.cli` enter through
entry(), which exits without a last garbage collection of the import
heap; main(argv) serves in-process callers and leaves the collector as
it was.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import math
import operator
import sys
from typing import Any, Iterable, Iterator, NoReturn, Sequence

from .errors import PhysicsError, ScenarioError
from .pipeline import load_scenario, reference_checks, run, sweep, sweep_columns
from .squeezing import QUAD_KEYS

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_PHYSICS = 3
EXIT_MISMATCH = 4

_DB_KEYS = tuple(f"db_{quad}" for quad in QUAD_KEYS)
_S_CELLS = operator.itemgetter(*(f"S_{quad}" for quad in QUAD_KEYS))
_HALVES = (0.5,) * len(QUAD_KEYS)
_TENS = (10.0,) * len(QUAD_KEYS)


# one parser per process, built at the first main() call: parse_args
# leaves it as it was and returns a fresh namespace each time
@functools.cache
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


def _decibel_cells(squeezings: Iterable[float]) -> Iterator[float]:
    """_decibels of each of the len(QUAD_KEYS) squeezings, in its order
    of operations, with no Python call per value."""
    return map(operator.mul, _TENS, map(math.log10, map(
        operator.truediv, map(operator.add, squeezings, _HALVES), _HALVES)))


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


def _field(cell: Any) -> str:
    """A CSV field: None is empty, and text holding a comma, a quote, CR
    or LF is quoted, its quotes doubled."""
    text = "" if cell is None else str(cell)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _line(cells: Sequence[Any]) -> str:
    """The cells as one line of csv.writer's excel dialect, CRLF-ended.

    The cells joined as text are the line, unless it shows a field that
    needs _field: a quote, CR or LF, a None, or more commas than go
    between the cells. A line of one empty field is written "".
    """
    line = ",".join(map(str, cells))
    if ('"' in line or "\r" in line or "\n" in line or "None" in line
            or line.count(",") >= len(cells) or not line):
        line = ",".join(map(_field, cells))
        if not line and len(cells) == 1:
            line = '""'
    return line + "\r\n"


def _csv(header: Sequence[str], rows: Iterable[dict[str, Any]]) -> Iterator[str]:
    """CSV of the rows under the header, a line as each row arrives; a
    row leaves the columns it lacks empty."""
    yield _line(header)
    blanks = ("",) * len(header)
    for row in rows:
        yield _line([*map(row.get, header, blanks)])


# the sweep grid's place in a sweep header while the rest is rendered, and
# the C encoder's rendering of the grid's items four levels deep
_GRID = "@sweep.values@"
_GRID_ITEMS = json.JSONEncoder(allow_nan=False, separators=(",\n        ", ": ")).encode


def _json_header(header: dict[str, Any]) -> str:
    """json.dumps(header, indent=2, allow_nan=False), the sweep grid at
    header["scenario"]["sweep"]["values"] rendered by the C encoder.

    The grid is a list four levels deep, so indent=2 puts its items on
    lines of eight spaces and its closing bracket on a line of six: the
    C encoder, given those separators, writes its items, and the rest
    goes through json.dumps with the grid's place held by _GRID. Any
    other header, a grid holding a container or a value the encoder
    refuses, or one whose text might hold _GRID's, goes through
    json.dumps whole, which writes it or raises as it would.
    """
    try:
        scenario = header["scenario"]
        sweep = scenario["sweep"]
        grid = sweep["values"]
        # "[" marks a grid that cannot be spliced, as a nested list would
        items = _GRID_ITEMS(grid)[1:-1] if type(grid) is list and grid else "["
    except (LookupError, TypeError, ValueError):
        items = "["
    if "[" not in items and "{" not in items:
        text = json.dumps({**header, "scenario": {**scenario, "sweep": {
            **sweep, "values": _GRID}}}, indent=2, allow_nan=False)
        place = f'"{_GRID}"'
        if text.count(place) == 1:
            return text.replace(place, f"[\n        {items}\n      ]")
    return json.dumps(header, indent=2, allow_nan=False)


def _json_sweep(header: dict[str, Any], rows: Iterable[dict[str, Any]]) -> Iterator[str]:
    """json.dumps({**header, "rows": [*rows]}, indent=2, allow_nan=False)
    in pieces, each row rendered as it arrives.

    The header, not empty, goes through _json_header. Each row (there is
    at least one) is a non-empty dict of scalars, with no container to
    check for cycles; it goes through JSONEncoder without indent, the C
    encoder, given the separators that indent=2 puts between a row's
    items, so its keys and values are written as json.dumps writes them
    and a NaN or infinity raises ValueError.
    """
    head = _json_header(header)
    yield head[:-2] + ',\n  "rows": ['  # head ends in "\n}"
    encode = json.JSONEncoder(allow_nan=False, check_circular=False,
                              separators=(",\n      ", ": ")).encode
    separator = "\n"
    for row in rows:
        yield f"{separator}    {{\n      {encode(row)[1:-1]}\n    }}"
        separator = ",\n"
    yield "\n  ]\n}"


def _write(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks, as they come, to the file out, or to stdout
    followed by a newline if the text has no final one.

    The file is opened before the first chunk is asked for. A file or
    stdout that cannot be opened, written or flushed is a ScenarioError
    naming it; stdout is flushed here, so that a failed write shows
    here and not at interpreter shutdown.
    """
    try:
        with (open(out, "w", encoding="utf-8") if out is not None
              else contextlib.nullcontext(sys.stdout)) as stream:
            chunk = "\n"
            for chunk in chunks:
                stream.write(chunk)
            if out is None and not chunk.endswith("\n"):
                stream.write("\n")
            stream.flush()
    except OSError as err:
        name = "<stdout>" if out is None else out
        raise ScenarioError(f"cannot write {name!r}: {err.strerror}") from err


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "check":
            rows = reference_checks()
            if args.out is not None:
                _write(_csv(list(rows[0]), rows) if args.format == "csv"
                       else [json.dumps(rows, indent=2, allow_nan=False)], args.out)
            _write(["".join(
                f"check {row['name']}: {'PASS' if row['ok'] else 'FAIL'} "
                f"(value {row['value']:.6g}, expected {row['expected']:.6g}, "
                f"{row['kind']} tolerance {row['tolerance']:.2g})\n"
                for row in rows)], None)
            return EXIT_OK if all(row["ok"] for row in rows) else EXIT_MISMATCH

        scenario = load_scenario(args.scenario)
        if args.oracle is not None:
            scenario = scenario.replace(
                oracle=scenario.oracle.replace(enabled=args.oracle == "on"))
        if args.verb == "run":
            report = run(scenario)
            payload = report.to_dict()
            if args.db:
                payload["decibels"] = {
                    quad: _decibels(value)
                    for quad, value in report.analytic.squeezing.items()}
            if args.format == "csv":
                payload = _flatten(payload)
                _write(_csv(list(payload), [payload]), args.out)
            else:
                _write([json.dumps(payload, indent=2, allow_nan=False)], args.out)
            if report.oracle is not None and not report.oracle["ok"]:
                print(
                    f"oracle deviation {report.oracle['deviation']:.3e} "
                    f"exceeds tolerance {report.oracle['tolerance']:.3e}",
                    file=sys.stderr,
                )
                return EXIT_MISMATCH
            return EXIT_OK

        misses = 0

        def finished(rows: Iterable[dict[str, Any]]) -> Iterator[dict[str, Any]]:
            nonlocal misses
            for row in rows:
                if args.db and row["status"] == "ok":
                    row.update(zip(_DB_KEYS, _decibel_cells(_S_CELLS(row))))
                misses += row.get("oracle_ok") is False
                yield row

        # the rows go to the output as they are computed, in either format
        rows = finished(sweep(scenario))
        if args.format == "csv":
            header = sweep_columns(scenario) + (_DB_KEYS if args.db else ())
            _write(_csv(header, rows), args.out)
        else:
            _write(_json_sweep({"parameter": scenario.sweep.parameter,
                                "scenario": scenario.to_dict()}, rows), args.out)
        if misses:
            print(f"oracle deviation beyond tolerance in {misses} of "
                  f"{len(scenario.sweep.values)} rows", file=sys.stderr)
            return EXIT_MISMATCH
        return EXIT_OK

    except ScenarioError as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return EXIT_SCENARIO
    except PhysicsError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_PHYSICS


def entry() -> NoReturn:
    """The process entry point: main() on sys.argv, then exit with its code.

    gc.freeze() first moves every live object out of the collector's
    reach, so interpreter exit does not walk the import heap (numpy's,
    after an oracle run) in a last collection: on a 2-vCPU VM that cut
    the exit of a ~180 ms cold process from ~26 to 4-8 ms. An object
    still alive at exit may then not be finalized, which CPython does
    not promise anyway; nothing depends on it, because _write has
    flushed and closed every output before main returns.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
