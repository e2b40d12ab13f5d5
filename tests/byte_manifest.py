"""The byte contract: a fixed matrix of CLI invocations, each pinned by its
exit code and the SHA-256 of its stdout, its stderr and its --out file.

Every output is hashed twice: as written, and with the oracle's table and
deviation values masked, since those may move by rounding when a
numerical kernel or the numpy and BLAS under it change.
tests/test_byte_manifest.py replays the matrix in process through
cli.main and compares the masked hashes with the blessed file,
tests/golden/manifest.json; this script lists every hash that moved.

    python tests/byte_manifest.py                 list what moved
    python tests/byte_manifest.py --dump DIR      ... and write every output under DIR
    python tests/byte_manifest.py --bless         rewrite the blessed file
    python tests/byte_manifest.py --against DIR   print each value that moved
                                                  since DIR's dump, with its ulp distance

Run with src on PYTHONPATH. To show what a change moves, dump at the
parent commit first, then run with --against (and --bless) on the change.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import difflib
import hashlib
import io
import json
import re
import struct
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"
SCENARIOS = ROOT / "scenarios"
GRID_SEED = 4401
STREAMS = ("stdout", "stderr", "out")

# the oracle values that may move by rounding, by their dotted path: a run's
# oracle.table.* and oracle.deviation, a sweep row's oracle_deviation, and
# check's "oracle deviation" row; the same paths tests/test_golden.py loosens
LOOSE = re.compile(r"(^|\.)oracle\.(table\.|deviation$)|oracle_deviation$"
                   r"|oracle deviation\.value$")
# the same values in text: check's summary line and a run's exit-4 message
LOOSE_TEXT = re.compile(r"(?m)(^check oracle deviation: \w+ \(value )[^,]+"
                        r"|(^oracle deviation )\S+(?= exceeds)")
MASK = "~"
# every masked value's path or line names a table or a deviation
MASKABLE = re.compile(r"deviation|\btable\b")

# scenario files made from the committed ones: (name, source, edit); the
# first six are the malformed files CI feeds the console script
EDITS = (
    ("bool_u", "backward_10ghz", ("waveguide", "u", True)),
    ("nan_flux_in", "backward_10ghz", ("drive", "flux_in", float("nan"))),
    ("huge_temperature", "backward_10ghz", ("thermal", "temperature", int("9" * 400))),
    ("str_k_pump", "backward_10ghz", (None, "k_pump", "fast")),
    ("str_sweep_value", "flux_sweep",
     (None, "sweep", {"parameter": "drive.flux_in", "values": ["x"]})),
    ("geometry_sweep", "flux_sweep", (None, "sweep", {"parameter": "geometry", "values": [1.0]})),
    ("unstable", "backward_10ghz", (None, "geometry", "forward")),
    ("tight_oracle", "backward_10ghz", (None, "oracle", {"enabled": True, "tolerance": 1e-16})),
    ("tight_sweep_oracle", "flux_sweep",
     (None, "oracle", {"enabled": True, "tolerance": 1e-16})),
    ("null_k_pump", "backward_10ghz", (None, "k_pump", None)),
)


def matrix(grid_files: list[str]) -> list[list[str]]:
    """Every invocation, its paths written with {scenarios} and {work}."""
    out = ["--out", "{work}/out"]
    argvs = []
    for verb in ("run", "sweep"):
        for name in ("backward_10ghz", "flux_sweep", "threshold_sweep"):
            for fmt in ("json", "csv"):
                for db in ([], ["--db"]):
                    for oracle in ([], ["--oracle", "on"], ["--oracle", "off"]):
                        for dest in ([], out):
                            argvs.append([verb, f"{{scenarios}}/{name}.json", "--format", fmt,
                                          *db, *oracle, *dest])
    argvs += [["check"], ["check", "--format", "json", *out], ["check", "--format", "csv", *out]]
    for name in grid_files:
        for fmt in ("json", "csv"):
            for db in ([], ["--db"]):
                argvs.append(["sweep", f"{{work}}/{name}", "--oracle", "off",
                              "--format", fmt, *db, *out])
    for name, source, _ in EDITS:
        verb = "sweep" if "sweep" in name else "run"
        argvs.append([verb, f"{{work}}/{name}.json"])
    argvs += [["run", "{work}/null_k_pump.json", "--format", "csv", "--db"],
              ["run", "{work}/missing.json"],
              ["run", "{scenarios}/backward_10ghz.json", "--out", "{work}"]]
    return argvs


def prepare(work: Path) -> list[str]:
    """Write the edited scenarios and one seed's analytic_grid files under
    work, and return the grid files' names."""
    for name, source, (block, key, value) in EDITS:
        raw = json.loads((SCENARIOS / f"{source}.json").read_text(encoding="utf-8"))
        (raw[block] if block else raw)[key] = value
        (work / f"{name}.json").write_text(json.dumps(raw), encoding="utf-8")
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    grid = workloads.generate("analytic_grid", GRID_SEED, work / "grid")
    return [f"grid/{entry['scenario']}" for entry in grid["files"]]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _mask_json(value, path=""):
    if isinstance(value, dict):
        return {key: _mask_json(item, f"{path}.{key}" if path else str(key))
                for key, item in value.items()}
    if isinstance(value, list):
        return [_mask_json(item, f"{path}.{label}" if path else str(label))
                for label, item in ((item.get("name", index) if isinstance(item, dict)
                                     else index, item) for index, item in enumerate(value))]
    return MASK if LOOSE.search(path) else value


def masked(text: str, fmt: str) -> str:
    """text with the oracle's table and deviation values replaced by MASK.

    A report is parsed and written back the way brisq writes it; one
    that does not come back byte for byte is left as it is, so a change
    of layout shows in both hashes. Every masked path names a table or a
    deviation, so a text naming neither is left as it is too.
    """
    if not MASKABLE.search(text):
        return text
    if fmt == "json":
        body = text[:-1] if text.endswith("}\n") or text.endswith("]\n") else text
        try:
            parsed = json.loads(body)
        except ValueError:
            return text
        if json.dumps(parsed, indent=2) != body:
            return text
        return json.dumps(_mask_json(parsed), indent=2) + text[len(body):]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text, newline="")))
        buffer = io.StringIO(newline="")
        csv.writer(buffer).writerows(rows)
        if not rows or buffer.getvalue() != text:
            return text
        header = rows[0]
        name = header.index("name") if "name" in header else None
        for row in rows[1:]:
            for index, column in enumerate(header[:len(row)]):
                label = f"{row[name]}.{column}" if name is not None else column
                if LOOSE.search(column) or LOOSE.search(label):
                    row[index] = MASK
        buffer = io.StringIO(newline="")
        csv.writer(buffer).writerows(rows)
        return buffer.getvalue()
    return LOOSE_TEXT.sub(lambda match: (match[1] or match[2]) + MASK, text)


def invoke(argv: list[str], work: Path) -> tuple[int, dict[str, str | None]]:
    """cli.main on argv with its placeholders filled; its exit code and
    its texts, paths written back as placeholders."""
    from brisq import cli

    places = {"{scenarios}": str(SCENARIOS), "{work}": str(work)}
    args = [arg.replace("{scenarios}", places["{scenarios}"])
            .replace("{work}", places["{work}"]) for arg in argv]
    out_path = work / "out"
    out_path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(args)
    texts = {"stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
             "out": (out_path.read_bytes().decode("utf-8")
                     if "--out" in argv and out_path.is_file() else None)}
    for stream, text in texts.items():
        if text is not None:
            for placeholder, place in places.items():
                text = text.replace(place, placeholder)
            texts[stream] = text
    return code, texts


def _format(argv: list[str], stream: str) -> str:
    """How a stream of argv is written: json, csv or text."""
    if stream == "stderr" or (argv[0] == "check" and stream == "stdout"):
        return "text"
    return argv[argv.index("--format") + 1] if "--format" in argv else "json"


def replay(work: Path, dump: Path | None = None) -> list[dict]:
    """Run the matrix with its files under work; one entry per invocation.
    With dump, every output is also written there, named by entry index."""
    entries = []
    for index, argv in enumerate(matrix(prepare(work))):
        code, texts = invoke(argv, work)
        entry = {"argv": argv, "exit": code}
        for stream in STREAMS:
            text = texts[stream]
            entry[stream] = None if text is None else [
                digest(text), digest(masked(text, _format(argv, stream)))]
            if dump is not None and text is not None:
                (dump / f"{index:03d}.{stream}").write_text(text, encoding="utf-8")
        entries.append(entry)
    return entries


def load() -> list[dict]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))["entries"]


def write(entries: list[dict]) -> None:
    lines = ",\n".join(f"    {json.dumps(entry)}" for entry in entries)
    MANIFEST.write_text(
        '{\n  "about": "written by tests/byte_manifest.py --bless; each stream '
        'is [sha256 as written, sha256 with the oracle table and deviation masked]",\n'
        f'  "grid_seed": {GRID_SEED},\n  "entries": [\n{lines}\n  ]\n}}\n', encoding="utf-8")


def moved(blessed: list[dict], entries: list[dict], which: int) -> list[str]:
    """One line per exit code or stream that differs, comparing hash
    `which` (0 as written, 1 masked)."""
    lines = []
    old_by_argv = {json.dumps(entry["argv"]): entry for entry in blessed}
    for entry in entries:
        key = json.dumps(entry["argv"])
        old = old_by_argv.pop(key, None)
        if old is None:
            lines.append(f"new: {key}")
            continue
        if old["exit"] != entry["exit"]:
            lines.append(f"exit {old['exit']} -> {entry['exit']}: {key}")
        for stream in STREAMS:
            pair, old_pair = entry[stream], old[stream]
            if (pair is None) != (old_pair is None) or (
                    pair is not None and pair[which] != old_pair[which]):
                lines.append(f"{stream}: {key}")
    lines += [f"gone: {key}" for key in old_by_argv]
    return lines


NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")


def _ordinal(value: float) -> int:
    """value's place among the doubles, so that neighbours differ by 1."""
    bits = struct.unpack("<q", struct.pack("<d", value))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def value_moves(old: str, new: str) -> list[str]:
    """Each number of old that new writes differently, with its distance
    in ulps, or a diff when the text around the numbers changed."""
    if NUMBER.split(old) != NUMBER.split(new):
        return list(difflib.unified_diff(old.splitlines(), new.splitlines(),
                                         "blessed", "now", n=0, lineterm=""))[:40]
    lines = []
    for before, after in zip(NUMBER.findall(old), NUMBER.findall(new)):
        if before != after:
            ulps = abs(_ordinal(float(before)) - _ordinal(float(after)))
            lines.append(f"  {before} -> {after} ({ulps} ulp)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bless", action="store_true", help="rewrite the blessed file")
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="write every output under DIR")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="print each value that moved since DIR's dump")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        work = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        dump = args.dump
        if dump is None and args.against is not None:
            dump = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        if dump is not None:
            dump.mkdir(parents=True, exist_ok=True)
        entries = replay(work, dump)
        blessed = load() if MANIFEST.is_file() else []
        exact, loose = moved(blessed, entries, 0), moved(blessed, entries, 1)
        for line in exact:
            print(("" if line in loose else "oracle values only, ") + line)
        if args.against is not None:
            for index, entry in enumerate(entries):
                for stream in STREAMS:
                    old_file = args.against / f"{index:03d}.{stream}"
                    if entry[stream] is None or not old_file.is_file():
                        continue
                    old = old_file.read_text(encoding="utf-8")
                    if digest(old) != entry[stream][0]:
                        new = (dump / f"{index:03d}.{stream}").read_text(encoding="utf-8")
                        print(f"{stream} of {json.dumps(entry['argv'])}:")
                        print("\n".join(value_moves(old, new)))
    if args.bless:
        write(entries)
        print(f"blessed {len(entries)} invocations into {MANIFEST.relative_to(ROOT)}")
    return 0 if args.bless or not exact else 1


if __name__ == "__main__":
    sys.exit(main())
