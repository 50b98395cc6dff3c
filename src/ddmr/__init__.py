"""Data-driven interpolatory model reduction for discrete-time SISO systems.

From input-output data alone: decide at which interpolation points the data
pins down the transfer-function value (rank tests on stacked Hankel
matrices), recover those values, and fit a minimal real rational interpolant
as a reduced-order difference-equation model.
"""

from .datasets import builtin_dataset, rl_circuit
from .informativity import (
    DEFAULT_REL_TOL,
    InformativityVerdict,
    RankTolerance,
    informative_sweep,
    is_informative,
    power_vector,
    transfer_value_from_data,
)
from .interpolation import (
    InterpolationCheck,
    InterpolationPair,
    PairSet,
    ReducedModel,
    conjugate_close,
    interpolate_minimal,
    verify_interpolation,
)
from .signals import DataSet, TimeSeries, hankel, hankel_trimmed, load_csv, save_csv
from .systems import (
    SystemParams,
    TransferValue,
    eval_transfer,
    explains_data,
    poly_zero_tol,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_REL_TOL",
    "DataSet",
    "InformativityVerdict",
    "InterpolationCheck",
    "InterpolationPair",
    "PairSet",
    "RankTolerance",
    "ReducedModel",
    "SystemParams",
    "TimeSeries",
    "TransferValue",
    "builtin_dataset",
    "conjugate_close",
    "eval_transfer",
    "explains_data",
    "hankel",
    "hankel_trimmed",
    "informative_sweep",
    "interpolate_minimal",
    "is_informative",
    "load_csv",
    "poly_zero_tol",
    "power_vector",
    "rl_circuit",
    "save_csv",
    "simulate",
    "transfer_value_from_data",
    "verify_interpolation",
]
