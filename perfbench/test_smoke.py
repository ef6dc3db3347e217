"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload prints every metric of BENCHMARK.json with its
unit, that the seed code verifies clean, that a corrupted reference shows up
as failed operations, and that the benchmark refuses to run without the
program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, refs: Path, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", str(SEED),
         "--seconds", "0.2", "--size", "tiny", "--refs", str(refs), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def refs(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("refs")
    subprocess.run(
        [sys.executable, str(HERE / "make_refs.py"), "--size", "tiny", "--out", str(out),
         "--seeds", str(SEED)],
        cwd=ROOT, check=True, capture_output=True, timeout=170,
    )
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(refs, workload, trace, kind):
    res = _result(_bench("--workload", workload, "--trace", str(trace), refs=refs))
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    if trace == 0:
        assert all(v["value"] > 0 for v in res["metrics"].values())
    elif workload.startswith("grid") or workload == "refit-d6":
        assert res["metrics"]["linalg.lstsq_per_fit"]["value"] == (
            3.0 if workload != "grid-d6-w2" else 0.0
        )


def _corrupt(src: Path, dst: Path) -> None:
    shutil.copytree(src, dst)
    grid = dst / f"grid-s{SEED}.json"
    ref = json.loads(grid.read_text())
    ref["cells"][0][6] *= 1.01                     # MAE of the first cell
    grid.write_text(json.dumps(ref))
    refit = dst / f"refit-s{SEED}.json"
    ref = json.loads(refit.read_text())
    ref["paths"][0][0][0] += 1.0                   # first value of the first path
    refit.write_text(json.dumps(ref))


@pytest.mark.parametrize("workload", ["grid-d6", "grid-d6-w2", "refit-d6"])
def test_corrupted_reference_raises_error_frac(refs, tmp_path, workload):
    bad = tmp_path / "refs"
    _corrupt(refs, bad)
    proc = _bench("--workload", workload, refs=bad)
    res = _result(proc)
    assert not res["correct"] and res["failed"] >= 1
    error_frac = float(proc.stdout.split("error_frac ")[1].split()[0])
    assert error_frac > 0
    assert error_frac == pytest.approx(res["failed"] / res["attempted"], rel=1e-5)


def test_refuses_to_run_without_program_source(refs, tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "grid-d6", refs=refs, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
