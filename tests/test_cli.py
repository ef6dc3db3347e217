import concurrent.futures
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import SRC, clipped_panel

from windvecm import (
    _blas,
    cointegrated_spec,
    generate,
    read_model,
    save_wide,
    spec_from_json,
    spec_to_json,
    vecm_to_var,
)
from windvecm.cli import main
from windvecm.panel import MAX_ABS_VALUE


@pytest.fixture()
def sim_spec_file(tmp_path):
    spec = cointegrated_spec(d=3, r_true=1, n_obs=700, seed=11)
    path = tmp_path / "spec.json"
    path.write_text(spec_to_json(spec))
    return path


def test_fit_writes_persistence_model(tmp_path, sim_spec_file):
    out = tmp_path / "model.txt"
    code = main(["fit", "--sim", str(sim_spec_file), "--p", "1", "--rank", "0",
                 "--det", "none", "--out", str(out)])
    assert code == 0
    model = read_model(out)
    var = vecm_to_var(model)
    assert np.array_equal(var.phi[0], np.eye(3))


def test_fit_full_rank_equals_var_fit(tmp_path, sim_spec_file):
    out_vecm = tmp_path / "vecm.txt"
    out_var = tmp_path / "var.txt"
    assert main(["fit", "--sim", str(sim_spec_file), "--p", "2", "--rank", "3",
                 "--out", str(out_vecm)]) == 0
    assert main(["fit", "--sim", str(sim_spec_file), "--p", "2",
                 "--out", str(out_var)]) == 0
    vecm = read_model(out_vecm)
    var = read_model(out_var)
    implied = vecm_to_var(vecm)
    for a, b in zip(implied.phi, var.phi):
        assert np.abs(a - b).max() <= 1e-8
    assert np.abs(implied.psi - var.psi).max() <= 1e-8


def test_fit_insufficient_data_nonzero_exit(tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    rows = ["timestamp,region,value"]
    for i in range(10):
        rows.append(f"2020-01-01T{i // 4:02d}:{15 * (i % 4):02d},a,{float(i)}")
    data.write_text("\n".join(rows))
    code = main(["fit", "--data", str(data), "--p", "7",
                 "--out", str(tmp_path / "m.txt")])
    assert code != 0
    assert "InsufficientDataError" in capsys.readouterr().err


def test_backtest_outputs_and_determinism(tmp_path, sim_spec_file):
    args = ["backtest", "--sim", str(sim_spec_file), "--window", "96,192",
            "--p", "1,2", "--rank", "0,1,3", "--horizon", "4",
            "--origins", "20", "--seed", "3", "--out"]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    for name in ("grid.csv", "grid_long.csv", "origins.csv", "metadata.csv",
                 "summary_mae.txt", "summary_mae.csv",
                 "summary_mse.txt", "summary_mse.csv"):
        assert (out1 / name).exists()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    grid = (out1 / "grid.csv").read_text().splitlines()
    assert grid[0] == "T,p,r,n_ok,n_failed,mae,mse"
    assert len(grid) == 1 + 2 * 2 * 3
    long_rows = (out1 / "grid_long.csv").read_text().splitlines()
    assert long_rows[0] == "T,p,r,metric,value"
    table = (out1 / "summary_mae.txt").read_text()
    assert "T/96 (=length in days)" in table
    assert "Best p" in table and "Best r" in table
    assert "Improvement to best VAR" in table


_FORKSERVER_MAIN = (
    "import multiprocessing as mp, sys; mp.set_start_method('forkserver'); "
    "from windvecm.cli import main; sys.exit(main(sys.argv[1:]))"
)
#: Ways to run a backtest as a fresh process: the interpreter's arguments up
#: to the command's own flags, and the environment variables set.
_BACKTEST_WAYS = {
    "serial": (["-m", "windvecm.cli", "backtest"], {}),
    "workers-2": (["-m", "windvecm.cli", "backtest", "--workers", "2"], {}),
    "workers-2-blas-2": (["-m", "windvecm.cli", "backtest", "--workers", "2"],
                         {"OPENBLAS_NUM_THREADS": "2"}),
    "workers-2-forkserver": (["-c", _FORKSERVER_MAIN, "backtest", "--workers", "2"], {}),
}


@pytest.mark.parametrize("source", ["spec", "clipped"])
def test_backtest_writes_the_same_files_every_way_it_runs(tmp_path, sim_spec_file, source):
    # The entry point under PYTHONWARNINGS=error, serially, in a pool of
    # forked workers, the same with two OpenBLAS threads in the environment,
    # and in a pool started by forkserver. On the clipped panel, fits fail
    # with both singular classes.
    if source == "spec":
        flags = ["--sim", str(sim_spec_file), "--window", "96", "--p", "1,2", "--origins", "3"]
    else:
        data = tmp_path / "clipped.csv"
        save_wide(clipped_panel(cointegrated_spec(d=3, r_true=1, n_obs=3000, seed=11), 0.25),
                  data)
        flags = ["--data", str(data), "--window", "96,192", "--p", "1,2", "--horizon", "4",
                 "--origins", "20", "--seed", "3"]
    env = {k: v for k, v in os.environ.items() if k not in _blas._ENV_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error"
    written = {}
    for way, (argv, extra) in _BACKTEST_WAYS.items():
        out = tmp_path / way
        proc = subprocess.run([sys.executable, *argv, *flags, "--out", str(out)],
                              capture_output=True, text=True, timeout=120,
                              env={**env, **extra})
        assert proc.returncode == 0 and proc.stderr == "", (way, proc.stderr)
        written[way] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(written["serial"]) == 8
    for way, files in written.items():
        assert files == written["serial"], way


def test_backtest_persistence_only_grid(tmp_path, sim_spec_file):
    out = tmp_path / "bt"
    assert main(["backtest", "--sim", str(sim_spec_file), "--window", "96",
                 "--p", "1", "--rank", "0", "--det", "none", "--horizon", "4",
                 "--origins", "15", "--seed", "1", "--out", str(out)]) == 0
    rows = (out / "grid.csv").read_text().splitlines()
    assert len(rows) == 2
    t, p, r, n_ok, n_failed, mae_s, mse_s = rows[1].split(",")
    assert (t, p, r, n_ok, n_failed) == ("96", "1", "0", "15", "0")
    # oracle: persistence errors computed directly
    from windvecm import generate, sample_origins, spec_from_json, mae

    spec = spec_from_json(sim_spec_file.read_text())
    panel = generate(spec)
    origins = sample_origins(panel.n_obs, 96, 4, 15, seed=1)
    errors = [panel.values[o + 1 : o + 5] - np.tile(panel.values[o], (4, 1))
              for o in origins]
    assert float(mae_s) == pytest.approx(mae(errors), abs=1e-12)


def test_backtest_from_data_files(tmp_path):
    # CSV in -> grid out, through ingestion
    rng = np.random.default_rng(9)
    from windvecm import TimeSeriesPanel, save_wide

    values = rng.standard_normal((400, 2)).cumsum(axis=0) + 100.0
    data = tmp_path / "panel.csv"
    save_wide(TimeSeriesPanel.from_values(values, labels=("n", "s")), data)
    out = tmp_path / "bt"
    assert main(["backtest", "--data", str(data), "--window", "96",
                 "--p", "1,2", "--rank", "0,1,2", "--horizon", "4",
                 "--origins", "12", "--seed", "2", "--out", str(out)]) == 0
    grid = (out / "grid.csv").read_text().splitlines()
    assert len(grid) == 1 + 6
    # long form carries one row per surviving cell and metric
    long_rows = (out / "grid_long.csv").read_text().splitlines()[1:]
    scored = sum(1 for line in grid[1:] if line.split(",")[5] != "")
    assert len(long_rows) == 2 * scored


def test_combine_command_runs_and_reports(tmp_path, sim_spec_file, capsys):
    out = tmp_path / "comb"
    code = main(["combine", "--sim", str(sim_spec_file),
                 "--model-a", "2,3", "--model-b", "2,1",
                 "--window", "192", "--origins", "30", "--horizon", "4",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "model A (p=2, r=3)" in text
    assert "equal-weight combination" in text
    for name in ("A", "B"):
        for kind in ("absolute", "squared"):
            assert f"DM combined vs {name} ({kind}): statistic" in text
    assert (out / "combine.csv").read_text().startswith("model,mae,mse")


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_backtest_rejects_fewer_than_one_worker(tmp_path, sim_spec_file, capsys,
                                                monkeypatch, workers):
    from windvecm import backtest

    def no_work(*args, **kwargs):
        raise AssertionError("no grid unit or pool may start")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
    monkeypatch.setattr(backtest, "_grid_unit", no_work)
    code = main(["backtest", "--sim", str(sim_spec_file), "--window", "96",
                 "--p", "1", "--origins", "3", "--workers", workers,
                 "--out", str(tmp_path / "bt")])
    assert code == 1
    assert f"InvalidInputError: workers must be at least 1, got {workers}" in (
        capsys.readouterr().err
    )


def test_fit_rejects_negative_max_gap(tmp_path, capsys):
    data = tmp_path / "gap.csv"
    data.write_text("\n".join([
        "timestamp,east,west",
        "2020-01-01T00:00,1,10",
        "2020-01-01T00:15,NA,12",
        "2020-01-01T00:30,3,14",
    ]))
    out = tmp_path / "m.txt"
    code = main(["fit", "--data", str(data), "--max-gap", "-3", "--p", "1",
                 "--out", str(out)])
    assert code == 1
    assert "InvalidInputError: max_gap_slots must be >= 0, got -3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source, found", [("data", 1), ("sim", 3)])
def test_expected_region_count_holds_for_either_source(tmp_path, sim_spec_file, capsys,
                                                       source, found):
    if source == "data":
        data = tmp_path / "one.csv"
        data.write_text("timestamp,region,value\n2020-01-01T00:00,a,1\n")
        flags = ["--data", str(data)]
    else:
        flags = ["--sim", str(sim_spec_file)]
    out = tmp_path / "m.txt"
    code = main(["fit", *flags, "--expected-regions", "6", "--p", "1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"windvecm: SchemaError: expected 6 regions, found {found}\n"
    assert not out.exists()


def test_combine_reports_no_change_against_a_zero_mae(tmp_path, capsys):
    # A constant panel: persistence (p=1, r=0) is exact, so both models have
    # MAE 0 and the relative change has no base.
    from windvecm import TimeSeriesPanel, save_wide

    data = tmp_path / "flat.csv"
    save_wide(TimeSeriesPanel.from_values(np.full((200, 2), 5.0), labels=("n", "s")), data)
    code = main(["combine", "--data", str(data),
                 "--model-a", "1,0", "--model-b", "1,0",
                 "--window", "96", "--origins", "20", "--horizon", "4"])
    assert code == 0
    text = capsys.readouterr().out
    assert "model A (p=1, r=0):  MAE 0  MSE 0" in text
    assert "MAE change vs A: --  vs B: --" in text


def test_combine_identical_models_degenerate_dm(tmp_path, sim_spec_file, capsys):
    code = main(["combine", "--sim", str(sim_spec_file),
                 "--model-a", "2,1", "--model-b", "2,1",
                 "--window", "96", "--origins", "20", "--horizon", "4"])
    assert code == 0
    assert "degenerate variance" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("backtest", ["--p", "1,x"], "expected comma-separated integers, got '1,x'"),
        ("combine", ["--model-a", "1,2,3", "--model-b", "1,0", "--window", "96"],
         "expected 'p,r', got '1,2,3'"),
        ("backtest", ["--window", "96,,192"],
         "expected comma-separated integers, got '96,,192'"),
        ("backtest", ["--p", "2,"], "expected comma-separated integers, got '2,'"),
        ("combine", ["--model-a", "4,,3", "--model-b", "1,0", "--window", "96"],
         "expected comma-separated integers, got '4,,3'"),
    ],
    ids=["backtest-list", "combine-pair", "backtest-empty-entry", "backtest-trailing-comma",
         "combine-pair-empty-entry"],
)
def test_malformed_integer_flag_is_a_usage_error(sim_spec_file, capsys, command, flags,
                                                 message):
    with pytest.raises(SystemExit) as info:
        main([command, "--sim", str(sim_spec_file), *flags])
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_data_and_sim_are_exclusive(tmp_path, sim_spec_file):
    with pytest.raises(SystemExit):
        main(["fit", "--sim", str(sim_spec_file), "--data", "x.csv",
              "--p", "1", "--out", str(tmp_path / "m.txt")])


def _transposed_spec(keys=("alpha", "beta")) -> str:
    """A valid d = 3, r_true = 2 spec with the matrices `keys` written 2 x 3."""
    payload = json.loads(spec_to_json(cointegrated_spec(d=3, r_true=2, seed=0)))
    for key in keys:
        payload[key] = [list(col) for col in zip(*payload[key])]
    return json.dumps(payload)


# d = 2, r_true = 0 in `spec_to_json`'s layout, up to the field under test
_SPEC_2X0 = '"d": 2, "r_true": 0, "alpha": [[], []], "beta": [[], []]'
_COV_2 = '"noise_cov": [[1, 0], [0, 1]]'


@pytest.mark.parametrize(
    "payload, message",
    [
        ("[1, 2, 3]", "spec JSON must be an object, got list"),
        ('{"d": 2, "r_true": 1, "alpha": [1, 2, 3], "beta": [[1], [0]],'
         f' {_COV_2}, "n_obs": 300}}',
         "alpha must be a d x r_true = 2 x 1 nested list, got shape (3,)"),
        (f'{{{_SPEC_2X0}, "gamma": [[[0.1, 0], [0]]], {_COV_2}, "n_obs": 300}}',
         "spec JSON field has a wrong type or size"),
        (f'{{{_SPEC_2X0}, {_COV_2}, "n_obs": "many"}}',
         "field 'n_obs' must be an integer, got 'many'"),
        (f'{{{_SPEC_2X0}, "gamma": [[[NaN, 0], [0, 0]]], {_COV_2}, "n_obs": 300}}',
         "spec arrays contain NaN or infinite entries"),
        (f'{{{_SPEC_2X0}, {_COV_2}, "n_obs": 300, "seed": -3}}',
         "seed must be >= 0, got -3"),
        (f'{{{_SPEC_2X0}, {_COV_2}, "n_obs": 700.9}}',
         "field 'n_obs' must be an integer, got 700.9"),
        (f'{{{_SPEC_2X0}, {_COV_2}, "n_obs": true}}',
         "field 'n_obs' must be an integer, got True"),
        (f'{{{_SPEC_2X0}, {_COV_2}, "n_obs": 300, "seed": 1.5}}',
         "field 'seed' must be an integer, got 1.5"),
        (f'{{"d": 2.5, "r_true": 0, "alpha": [[], []], "beta": [[], []], {_COV_2},'
         ' "n_obs": 300}', "field 'd' must be an integer, got 2.5"),
        (f'{{"d": 2, "r_true": false, "alpha": [[], []], "beta": [[], []], {_COV_2},'
         ' "n_obs": 300}', "field 'r_true' must be an integer, got False"),
        (f'{{{_SPEC_2X0}, {_COV_2}, "n_obs": "300"}}',
         "field 'n_obs' must be an integer, got '300'"),
        (f'{{"d": 2, "r_true": -1, "alpha": [[1], [0]], "beta": [[1], [0]], {_COV_2},'
         ' "n_obs": 300}', "needs d >= 1 and r_true >= 0, got 2 and -1"),
        (f'{{{_SPEC_2X0}, "gama": [[[0.1, 0], [0, 0.1]]], {_COV_2}, "n_obs": 300}}',
         "unknown spec JSON field(s): 'gama'"),
        # read row-major into a scrambled 3 x 2 matrix, a different valid process
        (_transposed_spec(),
         "alpha must be a d x r_true = 3 x 2 nested list, got shape (2, 3)"),
        (_transposed_spec(keys=("beta",)),
         "alpha/beta must both be d x r_true, got (3, 2) and (2, 3)"),
        ('{"d": 2, "r_true": 1, "alpha": [-0.4, 0.4], "beta": [[1], [-1]],'
         f' {_COV_2}, "n_obs": 300}}',
         "alpha must be a d x r_true = 2 x 1 nested list, got shape (2,)"),
        (f'{{{_SPEC_2X0}, {_COV_2}, "n_obs": 300.0}}',
         "field 'n_obs' must be an integer, got 300.0"),
        (f'{{{_SPEC_2X0}, {_COV_2}, "n_obs": 1e300}}',
         "field 'n_obs' must be an integer, got 1e+300"),
        # d must match alpha before it sizes the default zero start
        (f'{{"d": {2**62}, "r_true": 0, "alpha": [[], []], "beta": [[], []], {_COV_2},'
         ' "n_obs": 300}',
         f"alpha must be a d x r_true = {2**62} x 0 nested list, got shape (2, 0)"),
        (f'{{{_SPEC_2X0}, {_COV_2}, "n_obs": 300, "initial": [[0], [0]]}}',
         "initial state must have 2 entries"),
        # integers numpy refuses before it allocates anything
        (f'{{{_SPEC_2X0}, {_COV_2}, "n_obs": {2**62}}}',
         f"n_obs {2**62} is too large: its path cannot be allocated"),
        (f'{{{_SPEC_2X0}, {_COV_2}, "n_obs": {2**70}}}',
         f"n_obs {2**70} is too large: its path cannot be allocated"),
    ],
    ids=["not-an-object", "alpha-size", "ragged-gamma", "n_obs-type", "nan-gamma",
         "negative-seed", "fractional-n_obs", "bool-n_obs", "fractional-seed",
         "fractional-d", "bool-r_true", "string-n_obs", "negative-r_true",
         "misspelt-gamma", "transposed-alpha-beta", "transposed-beta", "flat-alpha", "float-n_obs",
         "huge-float-n_obs", "d-2**62-without-initial", "nested-initial", "n_obs-2**62", "n_obs-2**70"],
)
def test_backtest_malformed_spec_exits_1(tmp_path, capsys, payload, message):
    spec = tmp_path / "spec.json"
    spec.write_text(payload)
    code = main(["backtest", "--sim", str(spec), "--window", "96", "--p", "1",
                 "--origins", "3", "--out", str(tmp_path / "bt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("windvecm: InvalidSpecError: ") and err.count("\n") == 1
    assert message in err


GOLDEN_COMBINE_CONSTANT = """\
combination study: T=192, H=4, 30 origins (0 failed)
model A (p=2, r=3):  MAE 4.01851  MSE 8.93871
model B (p=2, r=1):  MAE 4.03105  MSE 8.80451
equal-weight combination: MAE 3.99936  MSE 8.69346
MAE change vs A: -0.48%  vs B: -0.79%
DM combined vs A (absolute): statistic -0.3094, p-value 0.757 (n=30)
DM combined vs B (absolute): statistic -0.5133, p-value 0.6078 (n=30)
DM combined vs A (squared): statistic -0.9157, p-value 0.3598 (n=30)
DM combined vs B (squared): statistic -0.3997, p-value 0.6894 (n=30)
"""

GOLDEN_COMBINE_CONSTANT_CSV = """\
model,mae,mse
a,4.0185054949424739,8.9387074737350041
b,4.0310452012273466,8.8045057824962054
combined,3.9993561647827156,8.6934579840669404
"""

GOLDEN_COMBINE_NONE_CLIP = """\
combination study: T=96, H=4, 20 origins (0 failed)
model A (p=2, r=1):  MAE 9.10204  MSE 67.9659
model B (p=1, r=0):  MAE 9.24993  MSE 68.817
equal-weight combination: MAE 9.08058  MSE 68.1243
MAE change vs A: -0.24%  vs B: -1.83%
DM combined vs A (absolute): statistic -0.2804, p-value 0.7792 (n=20)
DM combined vs B (absolute): statistic -2.5702, p-value 0.01016 (n=20)
DM combined vs A (squared): statistic +0.6024, p-value 0.5469 (n=20)
DM combined vs B (squared): statistic -2.6729, p-value 0.00752 (n=20)
"""

GOLDEN_COMBINE_NONE_CLIP_CSV = """\
model,mae,mse
a,9.1020430021485161,67.965873096644771
b,9.2499270338219137,68.81698234083342
combined,9.080583863055697,68.12427490039326
"""


@pytest.mark.parametrize(
    "flags, report, csv",
    [
        (["--model-a", "2,3", "--model-b", "2,1", "--window", "192",
          "--origins", "30", "--horizon", "4", "--seed", "5"],
         GOLDEN_COMBINE_CONSTANT, GOLDEN_COMBINE_CONSTANT_CSV),
        (["--model-a", "2,1", "--model-b", "1,0", "--window", "96",
          "--origins", "20", "--horizon", "4", "--seed", "2", "--det", "none", "--clip0"],
         GOLDEN_COMBINE_NONE_CLIP, GOLDEN_COMBINE_NONE_CLIP_CSV),
    ],
    ids=["det-constant", "det-none-clip0"],
)
def test_combine_output_is_pinned(tmp_path, sim_spec_file, capsys, flags, report, csv):
    # The report is printed and written verbatim. combine.csv carries the
    # same scores at 17 significant digits; those last digits come out of
    # LAPACK fits and may move across BLAS builds, so its values are held
    # to 1e-12 relative while every name and the layout are exact.
    out = tmp_path / "comb"
    assert main(["combine", "--sim", str(sim_spec_file), *flags, "--out", str(out)]) == 0
    assert capsys.readouterr().out == report + f"files in {out}\n"
    assert (out / "combine.txt").read_text() == report
    got = (out / "combine.csv").read_text().splitlines()
    want = csv.splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        name, *values = got_row.split(",")
        want_name, *want_values = want_row.split(",")
        assert name == want_name
        assert [float(v) for v in values] == pytest.approx(
            [float(v) for v in want_values], rel=1e-12
        )
    # On one machine a rerun writes the same bytes.
    rerun = tmp_path / "rerun"
    assert main(["combine", "--sim", str(sim_spec_file), *flags, "--out", str(rerun)]) == 0
    for name in ("combine.txt", "combine.csv"):
        assert (rerun / name).read_bytes() == (out / name).read_bytes()


def test_corrupted_reading_exits_1_before_writing(tmp_path, capsys):
    # One reading of 1e160 in an otherwise clean file is refused at its line
    # by ingest, before a fit runs or an output file is written.
    from windvecm import save_wide

    data = tmp_path / "bad.csv"
    save_wide(generate(cointegrated_spec(d=3, r_true=1, n_obs=700, seed=3)), data)
    lines = data.read_text().splitlines()
    fields = lines[451].split(",")   # data row 450, on line 452 of the file
    fields[2] = "1e160"
    lines[451] = ",".join(fields)
    data.write_text("\n".join(lines) + "\n")
    model, out = tmp_path / "m.txt", tmp_path / "bt"
    commands = (
        ["fit", "--data", str(data), "--p", "1", "--rank", "0", "--out", str(model)],
        ["backtest", "--data", str(data), "--window", "96", "--p", "1,2",
         "--horizon", "4", "--origins", "40", "--out", str(out)],
    )
    for argv in commands:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        assert capsys.readouterr().err.startswith("windvecm: ParseError: line 452: ")
    assert not model.exists() and not out.exists()


@pytest.mark.parametrize("rank, error", [("1", "SingularMomentError"),
                                         ("0", "SingularDesignError")])
def test_fit_on_corrupted_reading_exits_1(tmp_path, capsys, rank, error):
    # Readings at the value bound in two series of one row are accepted, and
    # make the level moments singular and the lagged differences collinear.
    from windvecm import TimeSeriesPanel, save_wide

    panel = generate(cointegrated_spec(d=3, r_true=1, n_obs=700, seed=3))
    values = panel.values.copy()
    values[450, [1, 2]] = MAX_ABS_VALUE
    data = tmp_path / "bad.csv"
    save_wide(TimeSeriesPanel(values, panel.timestamps, panel.labels), data)
    out = tmp_path / "m.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", "--data", str(data), "--p", "2", "--rank", rank,
                     "--out", str(out)])
    assert code == 1
    assert f"windvecm: {error}: " in capsys.readouterr().err
    assert not out.exists()

def test_fit_has_no_seed_flag(tmp_path, sim_spec_file, capsys):
    # Fitting draws nothing at random; only backtest and combine sample origins.
    with pytest.raises(SystemExit):
        main(["fit", "--sim", str(sim_spec_file), "--p", "1", "--seed", "3",
              "--out", str(tmp_path / "m.txt")])
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden"
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[+-]\d+)?")
_SHA256 = re.compile(r"\b[0-9a-f]{64}\b")


def _assert_same_layout(got: str, want: str) -> None:
    """Names and layout exact, numbers at 1e-12 relative (their last of 17
    digits come out of LAPACK fits and may move across BLAS builds)."""
    assert _NUMBER.sub("#", got) == _NUMBER.sub("#", want)
    assert [float(x) for x in _NUMBER.findall(got)] == pytest.approx(
        [float(x) for x in _NUMBER.findall(want)], rel=1e-12
    )


@pytest.mark.parametrize(
    "case, flags",
    [
        ("det-constant", ["--window", "96,192", "--p", "1,2", "--rank", "0,1,3",
                          "--horizon", "4", "--origins", "20", "--seed", "3"]),
        ("det-none-clip0", ["--window", "96", "--p", "1,2", "--horizon", "4",
                            "--origins", "10", "--seed", "2", "--det", "none", "--clip0"]),
        # a constant panel: T = 4 is too short for any fit, and at T = 96 only
        # r = 0 fits, so the summaries carry an all-failed row and "--" gains
        ("all-failed-T", ["--window", "4,96", "--p", "1", "--horizon", "4",
                          "--origins", "10"]),
        # a wind-like panel, floored at 0 below each series' 25 % quantile:
        # r > 0 cells fail on 6 of 20 origins (singular moments or designs)
        ("clipped", ["--window", "96,192", "--p", "1,2", "--horizon", "4",
                     "--origins", "20", "--seed", "3"]),
    ],
)
def test_backtest_output_is_pinned(tmp_path, sim_spec_file, capsys, case, flags):
    from windvecm import TimeSeriesPanel, load_panel, save_wide
    from windvecm.backtest import data_fingerprint

    if case == "all-failed-T":
        written = TimeSeriesPanel.from_values(np.full((200, 2), 5.0), labels=("n", "s"))
    elif case == "clipped":
        written = clipped_panel(cointegrated_spec(d=3, r_true=1, n_obs=3000, seed=11), 0.25)
    else:
        written = None
    if written is None:
        source = ["--sim", str(sim_spec_file)]
        panel = generate(spec_from_json(sim_spec_file.read_text()))
    else:
        data = tmp_path / "data.csv"
        save_wide(written, data)
        source, panel = ["--data", str(data)], load_panel(data)[0]
    out = tmp_path / "bt"
    assert main(["backtest", *source, *flags, "--out", str(out)]) == 0
    want_dir = GOLDEN / case
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in want_dir.iterdir())
    for want_path in want_dir.iterdir():
        got = (out / want_path.name).read_text(encoding="utf-8")
        # The data hash is checked against the panel, not pinned: a simulated
        # panel's last bits may move across BLAS builds.
        assert _SHA256.findall(got) == (
            [data_fingerprint(panel)] if want_path.name == "metadata.csv" else []
        )
        _assert_same_layout(_SHA256.sub("<sha256>", got),
                            _SHA256.sub("<sha256>", want_path.read_text(encoding="utf-8")))
    tables = [(out / f"summary_{m}.txt").read_text(encoding="utf-8") for m in ("mae", "mse")]
    assert "\n".join(tables) + "\n" in capsys.readouterr().out


@pytest.mark.parametrize("model", [["--rank", "0"], []], ids=["vecm-r0", "var"])
def test_fit_writes_no_model_file_with_non_finite_values(tmp_path, model):
    # A reading at the value bound in the last row is only ever a response;
    # its squared residual stays finite, so the model file is written and
    # reads back with a finite residual covariance.
    from windvecm import TimeSeriesPanel, save_wide

    panel = generate(cointegrated_spec(d=3, r_true=1, n_obs=700, seed=3))
    values = panel.values.copy()
    values[-1, 1] = MAX_ABS_VALUE
    data = tmp_path / "bad.csv"
    save_wide(TimeSeriesPanel(values, panel.timestamps, panel.labels), data)
    out = tmp_path / "m.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", "--data", str(data), "--p", "1", *model, "--out", str(out)])
    assert code == 0
    resid_cov = read_model(out).resid_cov
    assert np.all(np.isfinite(resid_cov)) and resid_cov[1, 1] > 1e190


def _forbid_fits(monkeypatch):
    """Make any fit or worker pool started by `windvecm.backtest` fail the test."""
    from windvecm import backtest

    def no_work(*args, **kwargs):
        raise AssertionError("no fit or pool may start")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
    monkeypatch.setattr(backtest, "fit_vecm", no_work)


@pytest.mark.parametrize(
    "case, error",
    [("missing-data", "FileNotFoundError"), ("non-utf8-data", "UnicodeDecodeError"),
     ("out-is-a-file", "FileExistsError"), ("out-below-a-file", "FileExistsError"),
     ("combine-out-is-a-file", "FileExistsError")],
)
def test_os_and_decoding_errors_exit_1_with_one_line(tmp_path, sim_spec_file, capsys,
                                                     monkeypatch, case, error):
    data = tmp_path / "panel.csv"
    if case == "non-utf8-data":
        data.write_bytes(b"timestamp,a\n2020-01-01T00:00,\xff1\n")
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    if case == "out-is-a-file" or case == "out-below-a-file":
        # Refused before any fit, not when the files are written after the grid.
        _forbid_fits(monkeypatch)
        out = taken if case == "out-is-a-file" else taken / "sub"
        argv = ["backtest", "--sim", str(sim_spec_file), "--window", "96", "--p", "1",
                "--origins", "3", "--out", str(out)]
    elif case == "combine-out-is-a-file":
        _forbid_fits(monkeypatch)
        argv = ["combine", "--sim", str(sim_spec_file), "--model-a", "1,0",
                "--model-b", "2,1", "--window", "96", "--origins", "3", "--out", str(taken)]
    else:
        argv = ["fit", "--data", str(data), "--p", "1", "--out", str(tmp_path / "m.txt")]
    assert main(argv) == 1
    stdout, err = capsys.readouterr()
    assert err.startswith(f"windvecm: {error}: ") and err.count("\n") == 1
    assert stdout == ""


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("backtest", ["--window", "96,96", "--p", "1,1", "--rank", "0", "--origins", "3"],
         "T_grid repeats a value: [96, 96]"),
        ("backtest", ["--window", "96", "--p", "1,2,1", "--origins", "3"],
         "p_grid repeats a value: [1, 2, 1]"),
        ("backtest", ["--window", "96", "--p", "1", "--rank", "0,0", "--origins", "3"],
         "r_grid repeats a value: [0, 0]"),
        ("backtest", ["--window", "96", "--p", "1", "--rank", "0,4", "--origins", "3"],
         "r_grid exceeds panel dimension d=3"),
        ("combine", ["--model-a", "1,0", "--model-b", "2,1", "--window", "96",
                     "--origins", "0"], "need at least one origin"),
        # model A would fit every origin before model B failed at its first
        ("combine", ["--model-a", "7,2", "--model-b", "1,4", "--window", "96",
                     "--origins", "3"], "model (p=1, r=4) needs p >= 1 and 0 <= r <= d=3"),
        ("combine", ["--model-a", "7,2", "--model-b", "0,1", "--window", "96",
                     "--origins", "3"], "model (p=0, r=1) needs p >= 1 and 0 <= r <= d=3"),
        ("combine", ["--model-a", "7,2", "--model-b", "1,-1", "--window", "96",
                     "--origins", "3"], "model (p=1, r=-1) needs p >= 1 and 0 <= r <= d=3"),
        ("backtest", ["--window", "96", "--p", "1", "--origins", "3", "--seed", "-1"],
         "origin seed must be >= 0, got -1"),
        ("combine", ["--model-a", "1,0", "--model-b", "2,1", "--window", "96",
                     "--origins", "3", "--seed", "-1"], "origin seed must be >= 0, got -1"),
        # no window of fewer than max(p) + 2 rows can be fitted
        ("combine", ["--model-a", "1,0", "--model-b", "2,1", "--window", "0",
                     "--origins", "3"], "window T=0 must be >= max(p) + 2 = 4"),
        ("combine", ["--model-a", "2,0", "--model-b", "1,1", "--window", "3",
                     "--origins", "3"], "window T=3 must be >= max(p) + 2 = 4"),
        # model A would fit one origin before forecasting refused the horizon
        ("combine", ["--model-a", "1,0", "--model-b", "2,1", "--window", "96",
                     "--origins", "3", "--horizon", "0"], "horizon must be >= 1"),
    ],
    ids=["repeated-T", "repeated-p", "repeated-r", "rank-above-d", "combine-no-origins",
         "combine-rank-above-d", "combine-order-0", "combine-negative-rank",
         "negative-seed", "combine-negative-seed", "combine-window-0",
         "combine-window-below-order", "combine-horizon-0"],
)
def test_bad_study_input_exits_1_before_any_fit(tmp_path, sim_spec_file, capsys,
                                                monkeypatch, command, flags, message):
    _forbid_fits(monkeypatch)
    out = tmp_path / "out"
    code = main([command, "--sim", str(sim_spec_file), *flags, "--out", str(out)])
    assert code == 1
    assert f"windvecm: InvalidInputError: {message}\n" == capsys.readouterr().err
    assert not out.exists()


def test_combine_with_few_origins_reports_no_dm_test(sim_spec_file, capsys):
    code = main(["combine", "--sim", str(sim_spec_file), "--model-a", "1,0",
                 "--model-b", "2,1", "--window", "96", "--origins", "5"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("DM ")] == [
        f"DM combined vs {name} ({kind}): not computed "
        "(need at least 10 paired losses, got 5)"
        for kind in ("absolute", "squared") for name in ("A", "B")
    ]
