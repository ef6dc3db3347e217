"""One workload in a fresh process: set up, measure, verify, report.

Started by run.py, never by hand. Set-up time counts from the first line of
this file, so it includes importing numpy, scipy and windvecm. The result is
written as JSON to the file named by --result.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import INGEST_BOUNDARIES, Tracer  # noqa: E402

#: Every per-layer metric reported with --trace 1 (units are in
#: BENCHMARK.json). Times and counts are per trace unit (one backtest
#: command, one batch of refit requests), except the ingest.* metrics: they
#: are of the one load_panel call in set-up, traced apart. A layer the
#: workload does not reach reads 0.
PER_LAYER = (
    "linalg.lstsq.calls",
    "linalg.lstsq.self_s",
    "linalg.lstsq_per_fit",
    "lstsq.solve_ls.calls",
    "lstsq.solve_ls.self_s",
    "lstsq.singular",
    "vecm.fit_vecm.calls",
    "vecm.fit_vecm.self_s",
    "vecm.johansen_eigen.calls",
    "vecm.johansen_eigen.self_s",
    "panel.window.self_s",
    "panel.build_design.self_s",
    "var.forecast_var.self_s",
    "vecm.forecast_vecm.self_s",
    "metrics.loss.self_s",
    "backtest.run_cell.self_s",
    "backtest.fit.ok_frac",
    "backtest.fail.InsufficientDataError",
    "backtest.fail.SingularDesignError",
    "backtest.fail.SingularMomentError",
    "backtest.run_grid.self_s",
    "backtest.workers.cpu_s",
    "backtest.workers.busy_frac",
    "proc.cpu_s",
    "proc.cpu_per_wall",
    "cli.load_source_s",
    "cli.write_s",
    "simulate.generate.self_s",
    "ingest.load_panel.self_s",
    "ingest.read_file.self_s",
    "ingest.rows_read",
    "ingest.gaps_filled",
    "ingest.duplicates_resolved",
    "trace.uncovered_s",
    "trace.overhead_s",
    "trace.overhead_frac",
)


#: Shortest block of calls one throughput sample is taken over.
BLOCK_S = 1.0


class Tally:
    """Operations attempted and failed, and per-call wall times."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []

    def run(self, wl, n_calls=None, seconds=None) -> float:
        """Make calls until n_calls are done or seconds have passed (at
        least one). Only the call itself is timed; returns its wall sum."""
        start = time.perf_counter()
        wall = 0.0
        done = 0
        while True:
            t0 = time.perf_counter()
            try:
                outcome = wl.call()
            except Exception:
                traceback.print_exc()
                outcome = None
            t1 = time.perf_counter()
            wall += t1 - t0
            done += 1
            self.latencies.append(t1 - t0)
            self.attempted += wl.ops_per_call
            self.failed += wl.ops_per_call if outcome is None else wl.verify(outcome)
            if n_calls is not None and done >= n_calls:
                return wall
            if seconds is not None and time.perf_counter() - start >= seconds:
                return wall


def _cpu() -> tuple[float, float]:
    """(own CPU seconds, CPU seconds of waited-for child processes)."""
    t = os.times()
    return t.user + t.system, t.children_user + t.children_system


def _peak_rss_mb(workers: int) -> float:
    """Own peak RSS plus, per pool worker, the largest worker's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * child) / 1024.0


def block_throughput(latencies: list[float], ops_per_call: int) -> float:
    """Median operations per second over consecutive blocks of calls that
    each last at least BLOCK_S; a shorter trailing block is dropped. One
    slow call then moves the figure less than it moves a plain mean, and a
    block of many short calls still contains their tail."""
    rates, ops, spent = [], 0, 0.0
    for lat in latencies:
        ops += ops_per_call
        spent += lat
        if spent >= BLOCK_S:
            rates.append(ops / spent)
            ops, spent = 0, 0.0
    return statistics.median(rates) if rates else ops / spent


def measure(wl, seconds: float) -> dict:
    tally = Tally()
    tally.run(wl, seconds=seconds)
    peak = _peak_rss_mb(wl.workers)
    tally.failed += wl.finish()
    lat_ms = [x * 1e3 for x in tally.latencies]
    return {
        "tally": tally,
        "metrics": {
            "ops_per_s": block_throughput(tally.latencies, wl.ops_per_call),
            "p50_ms": statistics.median(lat_ms),
            "tail_ms": float(np.percentile(lat_ms, wl.tail_percentile)),
            "peak_rss_mb": peak,
        },
        "calls": len(lat_ms),
    }


def measure_traced(wl, seconds: float, spans_path: Path, setup_tracer: Tracer) -> dict:
    """Alternate untraced and traced trace units until seconds have passed.

    The untraced units give the CPU figures and the overhead reference; the
    traced units give the spans. Everything is reported per trace unit, but
    the ingest.* self times, which come from setup_tracer.
    """
    tally = Tally()
    tracer = Tracer()
    unit = wl.trace_calls()
    untraced, traced, cpu_own, cpu_children = [], [], 0.0, 0.0
    workers_cpu = 0.0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        own0, ch0 = _cpu()
        untraced.append(tally.run(wl, n_calls=unit))
        own1, ch1 = _cpu()
        cpu_own += own1 - own0
        cpu_children += ch1 - ch0
        with tracer.installed():
            traced.append(tally.run(wl, n_calls=unit))
        workers_cpu += _cpu()[1] - ch1
    tally.failed += wl.finish()
    units = len(traced)
    tracer.dump(spans_path)
    setup_tracer.dump(spans_path.with_name(spans_path.stem + "-setup.jsonl"))

    total, own, root = tracer.layer_times()
    per = lambda x: x / units  # noqa: E731
    calls = {k: v / units for k, v in tracer.calls.items()}
    fits = calls.get("vecm.fit_vecm", 0)
    grid_s = per(total.get("backtest.run_grid", 0.0))
    m = {name: 0.0 for name in PER_LAYER}
    m.update({
        "linalg.lstsq.calls": calls.get("linalg.lstsq", 0),
        "linalg.lstsq_per_fit": calls.get("linalg.lstsq", 0) / fits if fits else 0.0,
        "lstsq.solve_ls.calls": calls.get("lstsq.solve_ls", 0),
        "lstsq.singular": tracer.raised[("lstsq.solve_ls", "SingularDesignError")] / units,
        "vecm.fit_vecm.calls": fits,
        "vecm.johansen_eigen.calls": calls.get("vecm.johansen_eigen", 0),
        "backtest.workers.cpu_s": per(workers_cpu),
        "backtest.workers.busy_frac":
            per(workers_cpu) / (wl.workers * grid_s) if wl.workers > 1 and grid_s else 0.0,
        "proc.cpu_s": per(cpu_own + cpu_children),
        "proc.cpu_per_wall": (cpu_own + cpu_children) / sum(untraced),
        "cli.load_source_s": per(total.get("cli.load_source", 0.0)),
        "cli.write_s": per(own.get("cli.cmd_backtest", 0.0)),
        "trace.uncovered_s": per(sum(traced) - root),
        "trace.overhead_s": statistics.median(t - u for t, u in zip(traced, untraced)),
    })
    m["trace.overhead_frac"] = m["trace.overhead_s"] / statistics.median(untraced)
    own_setup = setup_tracer.layer_times()[1]
    for name in PER_LAYER:
        if not name.endswith(".self_s"):
            continue
        layer = name.removesuffix(".self_s")
        if layer.startswith("ingest."):
            m[name] = own_setup.get(layer, 0.0)
        else:
            m[name] = per(own.get(layer, 0.0))
    m.update(wl.counts())
    metrics = {name: m[name] for name in PER_LAYER}
    return {"tally": tally, "metrics": metrics, "calls": len(tally.latencies)}


def provenance(workers: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "windvecm": str(workloads.program_root()),
        "workers": workers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--refs", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](
        workloads.SIZES[args.size], args.seed, workdir, Path(args.refs)
    )
    setup_tracer = Tracer()
    if args.trace:
        with setup_tracer.installed(INGEST_BOUNDARIES):
            wl.setup()
    else:
        wl.setup()
    setup_s = time.perf_counter() - START
    result = {"setup_s": setup_s}
    if not args.setup_only:
        if args.trace:
            out = measure_traced(wl, args.seconds, Path(args.spans), setup_tracer)
        else:
            out = measure(wl, args.seconds)
            out["metrics"]["setup_s"] = setup_s
        tally = out["tally"]
        result.update(
            attempted=tally.attempted,
            failed=tally.failed,
            calls=out["calls"],
            op=wl.op,
            metrics=out["metrics"],
            provenance=provenance(wl.workers),
        )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
