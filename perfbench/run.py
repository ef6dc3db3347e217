"""windvecm benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload grid-d6 --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout. Each workload runs in a fresh
Python process whose environment has the BLAS-thread and worker variables
removed, so the program's own defaults are measured. ``--trace 0`` prints
the end-to-end metrics (set-up is repeated SETUP_REPEATS times, each in its
own process, and the median reported); ``--trace 1`` prints the per-layer
metrics of a traced run. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. ``--workload all``
runs every workload in turn and prints one table instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("grid-d6", "grid-d6-w2", "refit-d6")

#: Variables that would override the program's own thread and worker policy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "WINDVECM_WORKERS")

#: Set-ups per end-to-end run, each in a fresh process; the median is
#: reported. The extra ones run half before and half after the measured
#: process, so that they sample the host's speed across the whole run.
SETUP_REPEATS = 5

#: A run must end within 180 s; leave room for reporting.
DEADLINE_S = 170.0

#: The end-to-end metrics under the names the study's users know them by.
ALIASES = {
    "grid-d6": {"ops_per_s": "fits_per_s"},
    "grid-d6-w2": {"ops_per_s": "fits_per_s"},
    "refit-d6": {"ops_per_s": "fits_per_s", "p50_ms": "refit_p50_ms", "tail_ms": "refit_p99_ms"},
}


class BenchError(Exception):
    pass


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _stop(proc: subprocess.Popen) -> None:
    """Kill the worker's process group, pool workers included, and wait."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def _run_worker(args, deadline: float, setup_only: bool) -> dict:
    tag = f"{args.workload}-s{args.seed}-{os.getpid()}-{time.monotonic_ns()}"
    workdir = OUT / tag
    result = OUT / f"{tag}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--refs", str(args.refs),
        "--workdir", str(workdir), "--result", str(result),
        "--spans", str(OUT / f"spans-{args.workload}-s{args.seed}.jsonl"),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the workload started")
    # A session of its own, so that a timeout also stops the pool workers.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError(f"workload process did not finish within {timeout:.0f} s") from None
    except BaseException:
        _stop(proc)      # interrupted or terminated: take the worker group down too
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    try:
        if proc.returncode != 0 or not result.exists():
            sys.stderr.write(stdout[-4000:] + stderr[-4000:])
            raise BenchError(f"workload process exited with code {proc.returncode}")
        sys.stderr.write(stderr[-4000:])
        return json.loads(result.read_text(encoding="utf-8"))
    finally:
        result.unlink(missing_ok=True)


def run_workload(args) -> dict:
    """Run one workload; returns the worker's result plus run-level fields."""
    deadline = time.monotonic() + DEADLINE_S
    extra = 0 if args.trace else SETUP_REPEATS - 1
    setups = [_run_worker(args, deadline, setup_only=True)["setup_s"] for _ in range(extra // 2)]
    res = _run_worker(args, deadline, setup_only=False)
    if not args.trace:
        setups.append(res["setup_s"])
        setups += [
            _run_worker(args, deadline, setup_only=True)["setup_s"]
            for _ in range(extra - extra // 2)
        ]
        res["metrics"]["setup_s"] = statistics.median(setups)
    res["provenance"].update(
        git_sha=_git_sha(),
        nproc=os.cpu_count(),
        inherited_thread_vars={k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    )
    return res


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _report(workload: str, res: dict, units: dict) -> None:
    error_frac = res["failed"] / res["attempted"]
    print(f"workload {workload}: {res['calls']} calls, {res['attempted']} ops "
          f"(op = {res['op']}), error_frac {error_frac:g} ratio")
    aliases = ALIASES[workload]
    for name, value in res["metrics"].items():
        alias = f"  [{aliases[name]}]" if name in aliases else ""
        print(f"  {name:38s} {value:14.6g} {units[name]}{alias}")
    print("provenance " + json.dumps(res["provenance"], sort_keys=True))


def _check_checkout() -> None:
    package = ROOT / "src" / "windvecm" / "__init__.py"
    if not package.is_file():
        raise BenchError(f"no windvecm source at {package.parent}; run from a source checkout")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the smoke test")
    parser.add_argument("--refs", type=Path, default=HERE / "refs",
                        help="directory of stored reference results")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        _check_checkout()
        units = _units()
        OUT.mkdir(exist_ok=True)
        if args.workload == "all":
            return _run_all(args, units)
        res = run_workload(args)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    _report(args.workload, res, units)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }))
    return 0


def _run_all(args, units: dict) -> int:
    rows = []
    for workload in WORKLOADS:
        args.workload = workload
        res = run_workload(args)
        _report(workload, res, units)
        rows.append((workload, res))
    print()
    print(f"{'workload':12s} {'metric':14s} {'value':>12s} unit")
    for workload, res in rows:
        named = {ALIASES[workload].get(k, k): (v, units[k]) for k, v in res["metrics"].items()}
        named["error_frac"] = (res["failed"] / res["attempted"], "ratio")
        for name, (value, unit) in named.items():
            print(f"{workload:12s} {name:14s} {value:12.6g} {unit}")
    return 0 if all(res["failed"] == 0 for _, res in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
