"""Regenerate the stored reference results the benchmark verifies against.

    python3 perfbench/make_refs.py [--size full|tiny] [--out DIR] [--seeds 0,1,...]

A reference is what the current code produces for one input seed: every
grid cell's counts, failure list and losses, and every refit forecast path.
Regenerate only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def grid_reference(sizes: workloads.Sizes, seed: int) -> dict:
    captured = workloads.CapturedGrid()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            spec = Path(tmp) / "spec.json"
            workloads.write_grid_spec(sizes, seed, spec)
            argv = workloads.grid_argv(sizes, spec, seed, 1, Path(tmp) / "out")
            code, result = workloads.run_grid_command(argv, captured)
    finally:
        captured.close()
    if code != 0:
        raise SystemExit(f"backtest failed for seed {seed}")
    return {
        "seed": seed,
        "origins": [int(o) for o in result.origins],
        "cells": workloads.grid_record_rows(result),
    }


def write_refs(sizes: workloads.Sizes, out: Path, seeds) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        (out / f"grid-s{seed}.json").write_text(
            json.dumps(grid_reference(sizes, seed)) + "\n", encoding="utf-8"
        )
        with tempfile.TemporaryDirectory() as tmp:
            paths = workloads.refit_reference(sizes, seed, Path(tmp))
        (out / f"refit-s{seed}.json").write_text(
            json.dumps({"seed": seed, "paths": paths}) + "\n", encoding="utf-8"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--out", type=Path, default=HERE / "refs")
    parser.add_argument("--seeds", default=",".join(map(str, range(workloads.N_REF_SEEDS))))
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    write_refs(workloads.SIZES[args.size], args.out, seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
