"""Desk-scale lab for SVD-initialized low-rank adapters.

Build adapters (osora and its baselines) over dense weights, train them on
toy matrix-recovery tasks, verify their gradients against finite differences,
merge them back into single matrices, count their parameters against model
shape presets, and round-trip them through a trainable-only checkpoint.
"""

from .accounting import (
    ParamReport,
    ShapePreset,
    count_trainable,
    frozen_elements,
    get_preset,
    list_presets,
    param_ratio,
    report,
    scaling_sweep,
)
from .adapters import (
    METHODS,
    OSORA_FAMILY,
    AdapterMethod,
    AdapterState,
    build_adapter,
    clone_state,
    effective_weight,
    forward,
    load_trainable,
    merge,
    trainable_slots,
    trainable_vector,
    weight_digest,
)
from .checkpoint import load, load_snapshot, save, save_snapshot
from .errors import (
    CorruptPayload,
    DigestMismatch,
    DimensionMismatch,
    IoFailure,
    LengthMismatch,
    NonFiniteInput,
    NonFiniteLoss,
    OsoraError,
    RankOutOfRange,
    VersionUnsupported,
)
from .gradients import LossGrad, finite_diff, gradient, loss_mse
from .linalg import SvdFactors, jacobi_svd, random_matrix, svd_truncated
from .training import STANDARD_TASK, ToyTask, TrainConfig, TrainRun, make_task, train

__version__ = "0.1.0"

__all__ = [
    "AdapterMethod",
    "AdapterState",
    "CorruptPayload",
    "DigestMismatch",
    "DimensionMismatch",
    "IoFailure",
    "LengthMismatch",
    "LossGrad",
    "METHODS",
    "NonFiniteInput",
    "NonFiniteLoss",
    "OSORA_FAMILY",
    "OsoraError",
    "ParamReport",
    "RankOutOfRange",
    "STANDARD_TASK",
    "ShapePreset",
    "SvdFactors",
    "ToyTask",
    "TrainConfig",
    "TrainRun",
    "VersionUnsupported",
    "build_adapter",
    "clone_state",
    "count_trainable",
    "effective_weight",
    "finite_diff",
    "forward",
    "frozen_elements",
    "get_preset",
    "gradient",
    "jacobi_svd",
    "list_presets",
    "load",
    "load_snapshot",
    "load_trainable",
    "loss_mse",
    "make_task",
    "merge",
    "param_ratio",
    "random_matrix",
    "report",
    "save",
    "save_snapshot",
    "scaling_sweep",
    "svd_truncated",
    "train",
    "trainable_slots",
    "trainable_vector",
    "weight_digest",
]
