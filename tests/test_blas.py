"""Fits and grids run on one OpenBLAS thread; the import path carries no scipy."""

import functools
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import SRC

import windvecm
from windvecm import _blas, cointegrated_spec, fit_var, fit_vecm, generate
from windvecm import backtest
from windvecm import vecm as vecm_mod

needs_openblas = pytest.mark.skipif(
    _blas.get_num_threads() is None, reason="numpy's bundled OpenBLAS not found"
)
needs_forked_workers = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork" or not Path("/proc/self/status").exists(),
    reason="pool workers are not forked, or /proc is missing",
)

def run_python(code: str, **env) -> str:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.fixture
def two_threads(monkeypatch):
    """An unset thread environment and a count of 2 outside any fit."""
    for name in _blas._ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    _, set_threads = _blas._openblas()
    before = _blas.get_num_threads()
    set_threads(2)
    yield set_threads
    set_threads(before)


def small_grid():
    """A d = 3 panel and a two-unit grid (T = 96, p = 1 and 2)."""
    panel = generate(cointegrated_spec(d=3, r_true=1, n_obs=300, seed=0))
    config = backtest.BacktestConfig(T_grid=(96,), p_grid=(1, 2), r_grid=(0, 1), n_origins=2)
    return panel, config


def os_threads() -> int:
    """Number of OS threads of this process."""
    status = Path("/proc/self/status").read_text().splitlines()
    return int(next(line.split()[1] for line in status if line.startswith("Threads:")))


_eval_unit = backtest._eval_unit


def probed_unit(out_dir: Path, unit):
    """`_eval_unit` that writes the BLAS count and OS threads around the unit."""
    before = [_blas.get_num_threads(), os_threads()]
    records = _eval_unit(unit)
    after = [_blas.get_num_threads(), os_threads()]
    (out_dir / f"{os.getpid()}-{unit[0]}-{unit[1]}.json").write_text(json.dumps(before + after))
    return records


def spy_on_solve_ls(monkeypatch) -> list:
    """Record the thread count each time a fit calls solve_ls."""
    seen = []
    real = vecm_mod.solve_ls

    def spy(*args, **kwargs):
        seen.append(_blas.get_num_threads())
        return real(*args, **kwargs)

    monkeypatch.setattr(vecm_mod, "solve_ls", spy)
    return seen


@needs_openblas
def test_fits_run_on_one_thread_and_restore_the_count(two_threads, monkeypatch):
    panel = generate(cointegrated_spec(d=3, r_true=1, n_obs=300, seed=0))
    seen = spy_on_solve_ls(monkeypatch)
    fit_vecm(panel, p=2, r=1)
    assert _blas.get_num_threads() == 2
    assert seen == [1]
    fit_var(panel, p=2)
    assert _blas.get_num_threads() == 2
    assert seen == [1, 1]
    with pytest.raises(windvecm.InsufficientDataError):
        fit_vecm(panel.window(0, 5), p=2, r=1)
    assert _blas.get_num_threads() == 2


@needs_openblas
def test_nested_scope_restores_the_outer_value(two_threads):
    with _blas.one_blas_thread():
        assert _blas.get_num_threads() == 1
        two_threads(3)
        with _blas.one_blas_thread():
            assert _blas.get_num_threads() == 1
        assert _blas.get_num_threads() == 3
    assert _blas.get_num_threads() == 2


@needs_openblas
def test_user_thread_setting_is_kept_inside_a_fit():
    code = (
        "from windvecm import _blas, cointegrated_spec, fit_vecm, generate\n"
        "from windvecm import vecm\n"
        "real = vecm.solve_ls\n"
        "def spy(*a, **k):\n"
        "    print(_blas.get_num_threads())\n"
        "    return real(*a, **k)\n"
        "vecm.solve_ls = spy\n"
        "print(_blas.get_num_threads())\n"
        "fit_vecm(generate(cointegrated_spec(d=3, r_true=1, n_obs=300, seed=0)), p=2, r=1)\n"
    )
    # OpenBLAS caps the variable at the core count.
    expected = str(min(2, os.cpu_count()))
    assert run_python(code, OPENBLAS_NUM_THREADS="2").split() == [expected, expected]


@needs_openblas
@needs_forked_workers
def test_grid_workers_start_at_one_thread_and_start_none(two_threads, monkeypatch, tmp_path):
    monkeypatch.setattr(backtest, "_eval_unit", functools.partial(probed_unit, tmp_path))
    panel, config = small_grid()
    backtest.run_grid(panel, config, workers=2)
    seen = {f.name: json.loads(f.read_text()) for f in tmp_path.glob("*.json")}
    assert sorted(name.split("-", 1)[1] for name in seen) == ["96-1.json", "96-2.json"]
    assert all(probe == [1, 1, 1, 1] for probe in seen.values()), seen
    assert _blas.get_num_threads() == 2


@needs_openblas
@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_forked_workers)])
def test_grid_restores_the_count_after_an_error(two_threads, monkeypatch, workers):
    def failing_unit(panel, origins, config, unit):
        raise RuntimeError(f"unit {unit} failed")

    monkeypatch.setattr(backtest, "_grid_unit", failing_unit)
    with pytest.raises(RuntimeError, match="failed"):
        backtest.run_grid(*small_grid(), workers=workers)
    assert _blas.get_num_threads() == 2


@needs_openblas
@needs_forked_workers
def test_user_thread_setting_is_kept_in_grid_workers():
    code = (
        "import os\n"
        "from windvecm import _blas, backtest, cointegrated_spec, generate\n"
        "real = backtest._eval_unit\n"
        "def probe(unit):\n"
        "    before = _blas.get_num_threads()\n"
        "    records = real(unit)\n"
        "    os.write(1, f'worker {before} {_blas.get_num_threads()}\\n'.encode())\n"
        "    return records\n"
        "backtest._eval_unit = probe\n"
        "panel = generate(cointegrated_spec(d=3, r_true=1, n_obs=300, seed=0))\n"
        "config = backtest.BacktestConfig(T_grid=(96,), p_grid=(1, 2), r_grid=(0, 1),"
        " n_origins=2)\n"
        "backtest.run_grid(panel, config, workers=2)\n"
        "print('parent', _blas.get_num_threads())\n"
    )
    n = str(min(2, os.cpu_count()))
    lines = run_python(code, OPENBLAS_NUM_THREADS="2").splitlines()
    assert sorted(lines) == ["parent " + n] + ["worker " + n + " " + n] * 2


# Workers started by spawn or forkserver import this script again, so the
# patch below is in place wherever a fit runs.
PROBE_SCRIPT = """\
import multiprocessing, os, sys
from windvecm import _blas, backtest, cointegrated_spec, generate

real_fit = backtest.fit_vecm

def probed_fit(*args, **kwargs):
    os.write(1, f"fit {_blas.get_num_threads()}\\n".encode())
    return real_fit(*args, **kwargs)

backtest.fit_vecm = probed_fit

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    panel = generate(cointegrated_spec(d=3, r_true=1, n_obs=300, seed=0))
    config = backtest.BacktestConfig(T_grid=(96,), p_grid=(1, 2), r_grid=(0, 1), n_origins=2)
    backtest.run_grid(panel, config, workers=2)
"""


@needs_openblas
@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_every_worker_fit_starts_at_one_thread(method, tmp_path):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method} is not available")
    script = tmp_path / "probe_grid.py"
    script.write_text(PROBE_SCRIPT)
    env = {k: v for k, v in os.environ.items() if k not in _blas._ENV_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script), method], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    # 2 units x 2 ranks x 2 origins, each fit seen before fit_vecm's own scope
    assert proc.stdout.split("\n") == ["fit 1"] * 8 + [""]


@functools.lru_cache(maxsize=1)
def _modules_after_import() -> tuple[str, ...]:
    code = "import sys, windvecm, windvecm.cli\nprint(' '.join(sys.modules))\n"
    return tuple(run_python(code).split())


# The process-pool stack and OpenSSL load only when a grid or fingerprint
# needs them, so a serial fit never pays for them.
@pytest.mark.parametrize("package", ["scipy", "multiprocessing", "concurrent", "_hashlib"])
def test_import_loads_none_of(package):
    assert [m for m in _modules_after_import() if m.split(".")[0] == package] == []


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_grid_records_are_the_same_under_every_start_method(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method} is not available")
    code = (
        "import multiprocessing\n"
        "from windvecm import backtest, cointegrated_spec, generate\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "panel = generate(cointegrated_spec(d=3, r_true=1, n_obs=300, seed=0))\n"
        "config = backtest.BacktestConfig(T_grid=(10, 96), p_grid=(1, 2), r_grid=(0, 1, 3),"
        " n_origins=3)\n"
        "def key(result):\n"
        "    return [(c.T, c.p, c.r, c.mae, c.mse, c.per_origin_abs.tobytes(),\n"
        "             c.per_origin_sq.tobytes(), c.origins_ok.tobytes(), c.failures)\n"
        "            for c in result.records]\n"
        "serial = key(backtest.run_grid(panel, config))\n"
        "pooled = key(backtest.run_grid(panel, config, workers=2))\n"
        "print(multiprocessing.get_start_method(), len(serial), pooled == serial,\n"
        "      any(c[-1] for c in serial), all(c[-1] for c in serial))\n"
    )
    # 12 cells, all equal; some have failed origins, some have none.
    assert run_python(code) == f"{method} 12 True True False"
