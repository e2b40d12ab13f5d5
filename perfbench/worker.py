"""Serves one workload in a fresh process and reports what it measured.

    python perfbench/worker.py serve DIR --seconds S --trace 0|1
    python perfbench/worker.py probe DIR

DIR holds the generator's manifest.json and inputs. `serve` runs a
closed loop with one client (the next request starts when the previous
one ends) for S seconds and prints one JSON line; a workload whose
manifest names `pass_seconds` instead serves as many whole passes over
its requests as fit in S at that nominal cost. With --trace 1 the
first half runs untraced and the second half with spans, so the
tracing overhead is measured in the same process. `probe` imports
brisq, completes the workload's cold request, prints "ready" and exits;
the parent times it from spawn to that line.

cli_mix requests are `python -m brisq.cli` child processes; the other
workloads call brisq in this process. Every request's output is checked
outside its timed span, and each failure is counted by kind. Between
requests, also outside their spans, the loop times speed.reference_unit;
in-process latencies are reported scaled to its nominal speed (see
speed.py), with the raw wall times beside them.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import model
from speed import Gauge

ROOT = Path(__file__).resolve().parent.parent
FAIL_KINDS = ("oracle_miss", "cutoff_too_small", "unexpected_error",
              "wrong_value", "exit_code")
WARMUP_S = 1.0            # untimed requests first: caches, BLAS threads, clocks


def program_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def parse_importtime(text: str) -> dict:
    """Cumulative ms per module from `python -X importtime` stderr, plus
    `brisq_self_ms` (self time of brisq's own modules) and `total_ms`
    (every top-level import, interpreter start-up modules included)."""
    out = {"brisq_self_ms": 0.0, "total_ms": 0.0}
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, raw = line[len("import time:"):].split("|")
        name = raw.strip()
        out[name] = float(cum_us) / 1e3
        if raw[1:2] != " ":   # nested imports are indented
            out["total_ms"] += float(cum_us) / 1e3
        if name == "brisq" or name.startswith("brisq."):
            out["brisq_self_ms"] += float(self_us) / 1e3
    return out


class Request:
    """One timed call plus the check of its output (run after the clock)."""

    def __init__(self, call, check, prepare=None):
        self.call = call
        self.check = check            # (result, error) -> (ops, [fail kinds])
        self.prepare = prepare


class Tally:
    """Per-request latencies and ops, with the failures by kind."""

    def __init__(self, scaled: bool = True) -> None:
        self.scaled = scaled
        self.latencies: list[float] = []
        self.ends: list[float] = []
        self.gauge = Gauge()
        self.ops = 0
        self.failed = 0
        self.fails: Counter = Counter()
        self.unexpected: Counter = Counter()

    def summary(self) -> dict:
        scaled = [latency * self.gauge.scale(end)
                  for latency, end in zip(self.latencies, self.ends)] \
            if self.scaled else self.latencies
        out = {"requests": len(self.latencies), "ops": self.ops, "failed": self.failed,
               "scaled": self.scaled,
               "busy_s": sum(self.latencies),
               "reference_ms_p50": self.gauge.reference_ms_p50(),
               "fails": dict(self.fails), "unexpected": dict(self.unexpected)}
        for prefix, latencies in (("", scaled), ("wall_", self.latencies)):
            qs = statistics.quantiles(latencies, n=10, method="inclusive") \
                if len(latencies) > 1 else [latencies[0]] * 9
            out[prefix + "latency_ms_p50"] = qs[4] * 1e3
            out[prefix + "latency_ms_p90"] = qs[8] * 1e3
            out[prefix + "ops_per_s"] = self.ops / sum(latencies)
        return out


def serve(requests: list[Request], seconds: float, tally: Tally, tracer=None,
          cycle: int = 1, count: int | None = None) -> None:
    """Closed loop over requests from the first one, for `seconds`.

    The loop stops on a multiple of `cycle` requests, so a run holds
    whole cycles of a mix whose requests differ widely in cost. With
    `count` it stops after exactly that many requests instead.
    """
    tally.gauge.sample()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        request = requests[i % len(requests)]
        i += 1
        if request.prepare is not None:
            request.prepare()
        if tracer is not None:
            tracer.request_id = i
        error = None
        began = time.perf_counter()
        try:
            result = request.call()
        except Exception as exc:   # counted and reported, never fatal to the run
            result, error = None, exc
        end = time.perf_counter()
        tally.latencies.append(end - began)
        tally.ends.append(end)
        ops, fails = request.check(result, error)
        tally.ops += ops
        tally.failed += len(fails)
        tally.fails.update(fails)
        if error is not None and "unexpected_error" in fails:
            tally.unexpected[type(error).__name__] += 1
        tally.gauge.maybe_sample()
        if count is not None:
            if i == count:
                return
        elif i % cycle == 0 and time.perf_counter() >= deadline:
            return


# -- workloads ---------------------------------------------------------------

class CliMix:
    """Fresh CLI processes, checked against the same call made in-process."""

    # The reference unit runs in this process, which waits while a CLI
    # process runs: scaling by it widened the spread of runs from 0.07
    # to 0.12 of the median, so CLI requests report wall time.
    SCALED = False

    def __init__(self, directory: Path, manifest: dict, cold_only: bool = False):
        import brisq.cli

        self.directory = directory
        self.env = program_env()
        self.importtime = False       # set for the traced half
        self.import_share: list[float] = []
        self.rss_mb: list[float] = []
        self.output_bytes: list[int] = []
        self.expected = {}
        for kind, args in manifest["requests"].items():
            out = directory / f"expected_{kind}"
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                code = brisq.cli.main(list(args) + ["--out", str(out)])
            rows = 1
            if args[0] == "sweep":
                rows = len(json.loads(out.read_text(encoding="utf-8"))["rows"])
            self.expected[kind] = (code, out.read_bytes(), stdout.getvalue().encode(), rows)
        self.by_kind = {kind: self._request(kind, args)
                        for kind, args in manifest["requests"].items()}
        self.requests = [self.by_kind[kind] for kind in manifest["order"]]
        self.cold = self.by_kind[manifest["cold"]]

    def _request(self, kind: str, args: list[str]) -> Request:
        out = self.directory / f"out_{kind}"
        stdout_path = self.directory / f"stdout_{kind}"
        stderr_path = self.directory / f"stderr_{kind}"
        command = ["-m", "brisq.cli", *args, "--out", str(out)]
        code, out_bytes, stdout_bytes, rows = self.expected[kind]

        def prepare():
            out.unlink(missing_ok=True)

        def call():
            flags = ["-X", "importtime"] if self.importtime else []
            with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
                began = time.perf_counter()
                proc = subprocess.Popen([sys.executable, *flags, *command], cwd=ROOT,
                                        env=self.env, stdout=so, stderr=se)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - began
                proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0, wall

        def check(result, error):
            if error is not None:
                return rows, ["unexpected_error"] * rows
            got_code, rss_mb, wall = result
            self.rss_mb.append(rss_mb)
            if self.importtime:
                imports = parse_importtime(stderr_path.read_text(errors="replace"))
                self.import_share.append(imports["total_ms"] / 1e3 / wall)
            if got_code != code:
                return rows, ["exit_code"] * rows
            got = out.read_bytes() if out.exists() else b""
            self.output_bytes.append(len(got))
            if got != out_bytes or stdout_path.read_bytes() != stdout_bytes:
                return rows, ["wrong_value"] * rows
            return rows, []

        return Request(call, check, prepare)

    def peak_rss_mb(self) -> float:
        return statistics.median(self.rss_mb)

    def extras(self) -> dict:
        return {"cli.output_bytes": statistics.fmean(self.output_bytes) if self.output_bytes else 0.0,
                "share.import_pct": 100.0 * statistics.median(self.import_share)
                if self.import_share else 0.0}


class AnalyticGrid:
    """cli.main sweeps with the oracle off; rows checked against closed forms."""

    SCALED = True

    def __init__(self, directory: Path, manifest: dict, cold_only: bool = False):
        import brisq.cli

        self.cli = brisq.cli
        self.output_bytes: list[int] = []
        self.rows_error: Counter = Counter()
        self.cold = self._request(directory, manifest["files"][manifest["cold"]])
        if not cold_only:
            self.requests = [self._request(directory, entry) for entry in manifest["files"]]

    def _request(self, directory: Path, entry: dict) -> Request:
        scenario = json.loads((directory / entry["scenario"]).read_text(encoding="utf-8"))
        values = scenario.pop("sweep")["values"]
        parameter, fmt, with_db = entry["parameter"], entry["format"], entry["db"]
        out = directory / f"out.{fmt}"
        args = ["sweep", str(directory / entry["scenario"]), "--oracle", "off",
                "--format", fmt, "--out", str(out)] + (["--db"] if with_db else [])
        rows = len(values)

        def prepare():
            out.unlink(missing_ok=True)

        def call():
            return self.cli.main(args)

        def check(code, error):
            if error is not None:
                return rows, ["unexpected_error"] * rows
            if code != 0:
                return rows, ["exit_code"] * rows
            text = out.read_text(encoding="utf-8")
            self.output_bytes.append(len(text.encode()))
            got = json.loads(text)["rows"] if fmt == "json" else list(csv.DictReader(io.StringIO(text)))
            fails = ["wrong_value"] * abs(len(got) - rows)
            for row, value in zip(got, values):
                if row.get("status") == "error":
                    self.rows_error[row.get("error_type")] += 1
                kind = model.check_sweep_row(row, scenario, parameter, value, with_db)
                if kind is not None:
                    fails.append(kind)
            return rows, fails

        return Request(call, check, prepare)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def extras(self) -> dict:
        return {"cli.output_bytes": statistics.fmean(self.output_bytes) if self.output_bytes else 0.0,
                "pipeline.rows_error.Unstable": self.rows_error["Unstable"],
                "pipeline.rows_error.other": sum(self.rows_error.values()) - self.rows_error["Unstable"]}


class OracleRamp:
    """run() with the oracle on; each run must report oracle.ok."""

    SCALED = True

    def __init__(self, directory: Path, manifest: dict, cold_only: bool = False):
        import brisq.pipeline
        from brisq.errors import CutoffTooSmall

        self.pipeline = brisq.pipeline
        self.cutoff_error = CutoffTooSmall
        self.cutoffs: list[int] = []
        self.attempted = 0
        self.oracle_ok = 0
        load = brisq.pipeline.load_scenario
        self.cold = self._request(load(str(directory / manifest["cold"])))
        if not cold_only:
            self.requests = [self._request(load(str(directory / name)))
                             for name in manifest["files"]]

    def _request(self, scenario) -> Request:
        def call():
            return self.pipeline.run(scenario)

        def check(report, error):
            self.attempted += 1
            if error is not None:
                return 1, ["cutoff_too_small" if isinstance(error, self.cutoff_error)
                           else "unexpected_error"]
            self.cutoffs.append(report.oracle["cutoff"])
            if not report.oracle["ok"]:
                return 1, ["oracle_miss"]
            self.oracle_ok += 1
            return 1, []

        return Request(call, check)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def extras(self) -> dict:
        return {"focksim.cutoff_p50": statistics.median(self.cutoffs) if self.cutoffs else 0,
                "focksim.cutoff_max": max(self.cutoffs, default=0),
                "focksim.oracle_ok_ratio": self.oracle_ok / max(self.attempted, 1)}


WORKLOADS = {
    "cli_mix": CliMix,
    "analytic_grid": AnalyticGrid,
    "oracle_ramp": OracleRamp,
}


def load(directory: Path, cold_only: bool = False):
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    return WORKLOADS[manifest["workload"]](directory, manifest, cold_only)


# -- per-layer summary -------------------------------------------------------

def layer_summary(tracer, busy_s: float) -> dict:
    """Self time per span name and per module, as shares of request time."""
    import numpy as np
    from tracing import MODULES

    spans = {}
    module_ns = dict.fromkeys(MODULES, 0)
    for name, stats in tracer.summary().items():
        self_ns = stats["self_ns"]
        if not stats["calls"]:
            continue
        p50, p90 = np.percentile(self_ns, [50, 90])
        spans[name] = {"calls": stats["calls"], "raised": stats["raised"],
                       "self_ms": float(self_ns.sum()) / 1e6,
                       "self_us_p50": float(p50) / 1e3, "self_us_p90": float(p90) / 1e3}
        module_ns[name.partition(".")[0]] += int(self_ns.sum())
    busy_ns = busy_s * 1e9
    shares = {module: 100.0 * ns / busy_ns for module, ns in module_ns.items()}
    return {"spans": spans, "shares": shares}


def cmd_serve(directory: Path, seconds: float, trace: bool) -> dict:
    import envinfo
    from tracing import Tracer, installed

    workload = load(directory)
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    cycle = manifest["cycle"]

    def count(span_s: float) -> int | None:
        if "pass_seconds" not in manifest:
            return None
        return max(1, round(span_s / manifest["pass_seconds"])) * len(workload.requests)

    serve(workload.requests, WARMUP_S, Tally())
    untraced = Tally(workload.SCALED)
    result = {"env": None, "untraced": None, "traced": None, "layers": None}
    if not trace:
        serve(workload.requests, seconds, untraced, cycle=cycle, count=count(seconds))
    else:
        serve(workload.requests, seconds / 2, untraced, cycle=cycle, count=count(seconds / 2))
        traced = Tally(workload.SCALED)
        tracer = Tracer()
        if isinstance(workload, CliMix):
            workload.importtime = True   # its requests run in other processes
        with installed(tracer):
            serve(workload.requests, seconds / 2, traced, tracer, cycle=cycle,
                  count=count(seconds / 2))
        result["traced"] = traced.summary()
        result["layers"] = layer_summary(tracer, result["traced"]["busy_s"])
    result["untraced"] = untraced.summary()
    result["peak_rss_mb"] = workload.peak_rss_mb()
    result["extras"] = workload.extras()
    result["env"] = envinfo.environment(ROOT)
    return result


def cmd_probe(directory: Path) -> None:
    workload = load(directory, cold_only=True)
    workload.cold.call()
    print("ready", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("serve", "probe"))
    parser.add_argument("directory", type=Path)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "probe":
        cmd_probe(args.directory)
        return 0
    print(json.dumps(cmd_serve(args.directory, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
