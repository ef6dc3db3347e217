"""Cointegrated VAR (VECM) forecasting for multivariate power time series.

The library estimates error-correction models with a selectable
cointegrating rank, converts exactly between the error-correction and
levels-VAR representations, forecasts recursively, and scores models with a
rolling-origin backtest over calibration length, order and rank grids.
"""

from .backtest import (
    BacktestConfig,
    BacktestGridResult,
    CellRecord,
    CellResult,
    CombinationResult,
    TSummary,
    run_cell,
    run_combination,
    run_grid,
    sample_origins,
    summarize_best,
)
from .errors import (
    DegenerateVarianceError,
    InsufficientDataError,
    InsufficientHistoryError,
    InsufficientRangeError,
    InvalidInputError,
    InvalidRankError,
    InvalidSpecError,
    NoOverlapError,
    NonFiniteForecastError,
    ParseError,
    SchemaError,
    SingularDesignError,
    SingularMomentError,
    WindVecmError,
)
from .ingest import IngestReport, load_panel, save_wide
from .metrics import (
    DmTestResult,
    ForecastPath,
    dm_test,
    mae,
    mse,
    per_origin_loss,
)
from .model_io import read_model, write_model
from .panel import (
    DeterministicSpec,
    TimeSeriesPanel,
    build_design,
    difference,
)
from .simulate import (
    DgpSpec,
    cointegrated_spec,
    generate,
    random_walk_spec,
    spec_from_json,
    spec_to_json,
)
from .var import VarModel, companion_matrix, forecast_var
from .vecm import VecmModel, fit_var, fit_vecm, forecast_vecm, var_to_vecm, vecm_to_var

__version__ = "0.1.0"

__all__ = [
    "BacktestConfig",
    "BacktestGridResult",
    "CellRecord",
    "CellResult",
    "CombinationResult",
    "DeterministicSpec",
    "DgpSpec",
    "DmTestResult",
    "ForecastPath",
    "IngestReport",
    "TSummary",
    "TimeSeriesPanel",
    "VarModel",
    "VecmModel",
    "DegenerateVarianceError",
    "InsufficientDataError",
    "InsufficientHistoryError",
    "InsufficientRangeError",
    "InvalidInputError",
    "InvalidRankError",
    "InvalidSpecError",
    "NoOverlapError",
    "NonFiniteForecastError",
    "ParseError",
    "SchemaError",
    "SingularDesignError",
    "SingularMomentError",
    "WindVecmError",
    "build_design",
    "cointegrated_spec",
    "companion_matrix",
    "difference",
    "dm_test",
    "fit_var",
    "fit_vecm",
    "forecast_var",
    "forecast_vecm",
    "generate",
    "load_panel",
    "mae",
    "mse",
    "per_origin_loss",
    "random_walk_spec",
    "read_model",
    "run_cell",
    "run_combination",
    "run_grid",
    "sample_origins",
    "save_wide",
    "spec_from_json",
    "spec_to_json",
    "summarize_best",
    "var_to_vecm",
    "vecm_to_var",
    "write_model",
]
