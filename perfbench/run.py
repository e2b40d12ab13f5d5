"""brisq benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

Run from the root of a checkout. For each workload it generates seeded
inputs under .perfbench/, times SETUP_PROBES cold starts (fresh
interpreter -> import brisq -> first request done), then serves the
workload for S seconds in a fresh worker process (worker.py) and checks
every output. In-process latencies are scaled to the nominal speed of a
reference unit of work timed beside them (speed.py); raw wall times are
printed too. Every metric is printed by name with its unit, with the
environment and the failures by kind; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"} holding the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).

"correct" is false when an output disagrees with the benchmark's own
reference, an exit code differs from the in-process call, or an error
was not one the program documents. Oracle misses and CutoffTooSmall are
failures the program reports itself: they count in "failed" and in
ok_ratio, but do not make the run incorrect.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads
from tracing import MODULES, SPANS
from worker import FAIL_KINDS, ROOT, parse_importtime, program_env

SETUP_PROBES = 7
IMPORT_PROBES = 3
WORKER_GRACE_S = 150.0
# failures the program declares itself, as opposed to wrong outputs
DECLARED_FAILURES = {"oracle_miss", "cutoff_too_small"}

END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)
IMPORTS = ("numpy_ms", "scipy_linalg_ms", "scipy_constants_ms", "brisq_self_ms",
           "brisq_ms", "process_ms")
PER_LAYER = (
    [(f"{span}.{field}", unit) for span in SPANS
     for field, unit in (("calls", "count"), ("self_ms", "ms"), ("self_us_p50", "us"))]
    + [("bogoliubov.diagonalize.raised", "count"),
       ("focksim.squeezed_vacuum.self_us_p90", "us"),
       ("focksim.cutoff_p50", "levels"),
       ("focksim.cutoff_max", "levels"),
       ("focksim.oracle_ok_ratio", "ratio"),
       ("cli.output_bytes", "bytes"),
       ("pipeline.rows_error.Unstable", "count"),
       ("pipeline.rows_error.other", "count")]
    + [(f"import.{name}", "ms") for name in IMPORTS]
    + [(f"share.{layer}_pct", "%") for layer in ("import",) + MODULES + ("other",)]
    + [("trace.ops_per_s_untraced", "1/s"),
       ("trace.ops_per_s_traced", "1/s"),
       ("trace.overhead_pct", "%"),
       ("speed.reference_us_p50", "us")]
    + [(f"fail.{kind}", "count") for kind in FAIL_KINDS]
    + [("error_ratio", "ratio")]
)


class BenchError(RuntimeError):
    """The benchmark could not run or measure; no result is printed."""


def _wait(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"child {proc.args[:4]} exceeded {timeout:.0f} s") from None


def setup_probe(workload: str, directory: Path) -> float:
    """Seconds from spawning an interpreter to its first request done."""
    env = program_env()
    if workload == "cli_mix":
        args = workloads.CLI_REQUESTS["run_json"] + ["--out", str(directory / "setup_out")]
        began = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "brisq.cli", *args], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=WORKER_GRACE_S)
        elapsed = time.perf_counter() - began
        if done.returncode != 0:
            raise BenchError(f"cold CLI request exited {done.returncode}")
        return elapsed
    began = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "worker.py"), "probe",
                             str(directory)], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - began
        proc.stdout.read()
    finally:
        proc.stdout.close()
        _wait(proc, WORKER_GRACE_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup probe for {workload} failed (exit {proc.returncode})")
    return elapsed


def import_probe() -> dict:
    """`python -X importtime -c "import brisq"`: import costs in ms."""
    began = time.perf_counter()
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import brisq"],
                          cwd=ROOT, env=program_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=WORKER_GRACE_S)
    wall_ms = (time.perf_counter() - began) * 1e3
    if done.returncode != 0:
        raise BenchError("import brisq failed:\n" + done.stderr[-2000:])
    imports = parse_importtime(done.stderr)
    return {"numpy_ms": imports.get("numpy", 0.0),
            "scipy_linalg_ms": imports.get("scipy.linalg", 0.0),
            "scipy_constants_ms": imports.get("scipy.constants", 0.0),
            "brisq_self_ms": imports["brisq_self_ms"],
            "brisq_ms": imports.get("brisq", 0.0),
            "process_ms": wall_ms}


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def serve(directory: Path, seconds: float, trace: bool) -> dict:
    proc = subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "worker.py"), "serve",
                             str(directory), "--seconds", str(seconds),
                             "--trace", str(int(trace))],
                            cwd=ROOT, env=program_env(), stdout=subprocess.PIPE, text=True)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _wait(proc, seconds + WORKER_GRACE_S)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def per_layer(served: dict, imports: dict, fails: dict, attempted: int, failed: int) -> dict:
    traced, untraced = served["traced"], served["untraced"]
    spans = served["layers"]["spans"]
    values = {}
    for span in SPANS:
        stats = spans.get(span, {"calls": 0, "self_ms": 0.0, "self_us_p50": 0.0})
        for field in ("calls", "self_ms", "self_us_p50"):
            values[f"{span}.{field}"] = stats[field]
    values["bogoliubov.diagonalize.raised"] = spans.get("bogoliubov.diagonalize", {}).get("raised", 0)
    values["focksim.squeezed_vacuum.self_us_p90"] = spans.get(
        "focksim.squeezed_vacuum", {}).get("self_us_p90", 0.0)
    for name in ("focksim.cutoff_p50", "focksim.cutoff_max", "focksim.oracle_ok_ratio",
                 "cli.output_bytes", "pipeline.rows_error.Unstable",
                 "pipeline.rows_error.other"):
        values[name] = served["extras"].get(name, 0)
    for name in IMPORTS:
        values[f"import.{name}"] = imports[name]
    shares = dict(served["layers"]["shares"])
    # Only a CLI request pays for imports, measured in its own process.
    shares["import"] = served["extras"].get("share.import_pct", 0.0)
    shares["other"] = 100.0 - sum(shares.values())
    for layer in ("import",) + MODULES + ("other",):
        values[f"share.{layer}_pct"] = shares[layer]
    values["trace.ops_per_s_untraced"] = untraced["ops_per_s"]
    values["trace.ops_per_s_traced"] = traced["ops_per_s"]
    values["trace.overhead_pct"] = 100.0 * (untraced["ops_per_s"] / traced["ops_per_s"] - 1.0)
    values["speed.reference_us_p50"] = untraced["reference_ms_p50"] * 1e3
    for kind in FAIL_KINDS:
        values[f"fail.{kind}"] = fails.get(kind, 0)
    values["error_ratio"] = failed / attempted
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    directory = scratch / workload
    manifest = workloads.generate(workload, seed, directory)
    setups = [setup_probe(workload, directory) for _ in range(SETUP_PROBES)]
    steal_before, total_before = cpu_ticks()
    served = serve(directory, seconds, trace)
    steal_after, total_after = cpu_ticks()
    served["env"]["cpu_steal_pct"] = (100.0 * (steal_after - steal_before)
                                      / max(total_after - total_before, 1))
    tallies = [served["untraced"]] + ([served["traced"]] if trace else [])
    attempted = sum(t["ops"] for t in tallies)
    failed = sum(t["failed"] for t in tallies)
    fails: dict[str, int] = {}
    unexpected: dict[str, int] = {}
    for t in tallies:
        for kind, count in t["fails"].items():
            fails[kind] = fails.get(kind, 0) + count
        for kind, count in t["unexpected"].items():
            unexpected[kind] = unexpected.get(kind, 0) + count
    untraced = served["untraced"]
    if trace:
        imports_runs = [import_probe() for _ in range(IMPORT_PROBES)]
        imports = {name: statistics.median(run[name] for run in imports_runs)
                   for name in IMPORTS}
        values = per_layer(served, imports, fails, attempted, failed)
        units = dict(PER_LAYER)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "latency_ms_p50": untraced["latency_ms_p50"],
            "latency_ms_p90": untraced["latency_ms_p90"],
            "ops_per_s": untraced["ops_per_s"],
            "ok_ratio": 1.0 - untraced["failed"] / untraced["ops"],
            "peak_rss_mb": served["peak_rss_mb"],
        }
        units = dict(END_TO_END)
    return {"workload": workload, "why": manifest["why"], "seed": seed, "seconds": seconds,
            "trace": trace, "requests": sum(t["requests"] for t in tallies),
            "attempted": attempted, "failed": failed, "fails": fails,
            "unexpected": unexpected,
            "correct": set(fails) <= DECLARED_FAILURES,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
            "env": served["env"], "setups": setups, "scaled": untraced["scaled"],
            "wall": {name: untraced["wall_" + name]
                     for name in ("latency_ms_p50", "latency_ms_p90", "ops_per_s")},
            "reference_ms_p50": untraced["reference_ms_p50"]}


def report(result: dict) -> None:
    tag = f"[{result['workload']}]"
    print(f"{tag} {result['why']}")
    print(f"{tag} seed {result['seed']}, {result['seconds']:g} s, closed loop with one client, "
          f"{'traced' if result['trace'] else 'untraced'}; {result['requests']} requests, "
          f"{result['attempted']} ops, ~{result['requests'] // 10} requests beyond p90; "
          f"setup_s from {len(result['setups'])} cold starts")
    for name, metric in result["metrics"].items():
        print(f"{tag} {name} = {metric['value']:.6g} {metric['unit']}")
    wall = ", ".join(f"{name} {value:.6g}" for name, value in result["wall"].items())
    print(f"{tag} the reference unit took {result['reference_ms_p50']:.4g} ms (median); "
          + (f"latencies and ops_per_s above are at its nominal {speed.NOMINAL_S * 1e3:g} ms, "
             f"wall times were: {wall}" if result["scaled"] else "times above are wall times"))
    kinds = ", ".join(f"{kind} {count}" for kind, count in sorted(result["fails"].items()))
    print(f"{tag} failed {result['failed']} of {result['attempted']} ops"
          + (f": {kinds}" if kinds else ""))
    if result["unexpected"]:
        print(f"{tag} unexpected errors by type: {result['unexpected']}")
    print(f"{tag} correct = {str(result['correct']).lower()}")
    print(f"{tag} env {json.dumps(result['env'], sort_keys=True)}")


def check_checkout() -> None:
    for needed in ("src/brisq/__init__.py", "src/brisq/cli.py", "scenarios/backward_10ghz.json",
                   "scenarios/flux_sweep.json"):
        if not (ROOT / needed).is_file():
            raise BenchError(f"{needed} is missing: run from the root of a brisq checkout")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="brisq benchmark")
    parser.add_argument("--workload", required=True, choices=list(workloads.WHY) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WHY) if args.workload == "all" else [args.workload]
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        check_checkout()
        compileall.compile_dir(str(ROOT / "src"), quiet=1)
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace), scratch)
                   for name in names]
    except (BenchError, subprocess.SubprocessError, OSError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass    # another run still uses it
    for result in results:
        report(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in results for name, metric in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
