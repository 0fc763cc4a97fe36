"""digraphlab benchmark: verify-full, chi-sparse and hom-deep.

Usage, from the root of a checkout:

    python3 bench/run.py --workload chi-sparse --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --seed 1 --seconds 40     # every workload in turn

Each workload runs in a fresh process of its own (bench/workload.py), one
at a time and single-threaded, so its set-up time and peak memory belong to
it alone.  Set-up time is measured from here, from starting the process to
its `ready` line, over several set-up-only processes plus the measuring
one; the median is reported.

With `--trace 0` the result carries the end-to-end metrics of
BENCHMARK.json; with `--trace 1` the per-layer metrics, taken from spans
recorded around digraphlab's public functions.  The last line printed is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workload import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "workload.py"

#: Set-up-only processes started before the measuring one; the first is a
#: warm-up (it may compile bytecode) and is not counted.
SETUP_PROBES = 7

#: The whole command must end within this many seconds.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _spawn(args: list[str], deadline: float):
    """Start a workload process; return it and the seconds until its `ready` line."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        took = perf_counter() - t0
        if line.strip() != "ready":
            proc.wait(timeout=max(1.0, deadline - perf_counter()))
            raise BenchError(f"workload process exited during set-up (code {proc.returncode})")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, took


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("workload process ran past the deadline and was stopped")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Set-up probes, then one measuring process; returns its parsed result."""
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setup = []
    for k in range(SETUP_PROBES):
        proc, took = _spawn(common + ["--setup-only"], deadline)
        _finish(proc, deadline)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited with code {proc.returncode}")
        if k:
            setup.append(took)
    proc, took = _spawn(common + ["--trace", str(int(trace))], deadline)
    setup.append(took)
    out = _finish(proc, deadline)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"workload process printed no result (code {proc.returncode})")
    result = json.loads(lines[-1])
    if result["correct"] and proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    result["setup_s"] = statistics.median(setup)
    result["setup_samples"] = setup
    return result


def metrics_of(result: dict, trace: bool) -> dict[str, float]:
    if trace:
        return result["layers"]
    attempted = result["attempted"]
    return {
        "wall_s": result["pass_s"],
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "ops_ok_share": (attempted - result["failed"]) / attempted,
    }


def load_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(workload: str, result: dict, trace: bool, units: dict[str, str]) -> dict:
    """Metrics named and united as in BENCHMARK.json; prints a summary."""
    if not result["correct"]:
        return {}
    values = metrics_of(result, trace)
    if set(values) != set(units):
        raise BenchError(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    passes = result["passes"]
    print(
        f"{workload}: {len(passes)} pass(es) of {result['ops_per_pass']} operations, "
        f"attempted {result['attempted']}, failed {result['failed']} {result['failures']}"
    )
    print(f"  pass times (s): {', '.join(f'{p:.3f}' for p in passes)}")
    print(f"  set-up samples (s): {', '.join(f'{s:.4f}' for s in result['setup_samples'])}")
    for name, value in values.items():
        print(f"  {name:44s} {value:14.6f} {units[name]}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all, in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    trace = bool(args.trace)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    deadline = perf_counter() + DEADLINE_S * len(workloads)

    if not (ROOT / "src" / "digraphlab" / "__init__.py").is_file():
        print(f"bench: no digraphlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        units = load_units(trace)
        results = {}
        for w in workloads:
            results[w] = run_workload(w, args.seed, args.seconds, trace, deadline)
        metrics: dict = {}
        for w, result in results.items():
            shown = report(w, result, trace, units)
            if args.workload:
                metrics = shown
            else:
                metrics.update({f"{w}.{k}": v for k, v in shown.items()})
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    correct = all(r["correct"] for r in results.values())
    out = {
        "correct": correct,
        "attempted": sum(r.get("attempted", 0) for r in results.values()),
        "failed": sum(r.get("failed", 0) for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(out), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
