"""Toy teacher-student matrix tasks and a deterministic full-batch training loop.

A task plants a known low-rank gap between a seeded base weight w0 and a
teacher w_target: the top r_gap singular components of w0 are replaced by a
randomly row-scaled, randomly re-weighted copy of themselves. An osora
adapter of rank r_gap can therefore represent the teacher exactly (zero
achievable loss); smaller ranks and single-vector ablations cannot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adapters import AdapterState, clone_state, load_trainable, trainable_vector
from .errors import DimensionMismatch, NonFiniteLoss, RankOutOfRange
from .gradients import _stepper
from .linalg import random_matrix, svd_truncated

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Child-seed slots for task generation streams.
_SLOT_W0 = 10
_SLOT_O_STAR = 11
_SLOT_S_STAR = 12
_SLOT_PROBES = 13

# Standard task used by the CLI and the ablation suites: small enough for CI,
# large enough that the joint / only_s / only_o variants separate cleanly.
STANDARD_TASK = {"d": 32, "k": 32, "r_gap": 4, "n": 64}


@dataclass
class ToyTask:
    w0: np.ndarray
    w_target: np.ndarray
    probes: np.ndarray  # k x n
    targets: np.ndarray  # d x n, equal to w_target @ probes
    seed: int
    r_gap: int


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    lr: float
    optimizer: str = "adam"

    def __post_init__(self):
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be sgd or adam, got {self.optimizer!r}")
        if self.steps < 0 or not math.isfinite(self.lr):
            raise ValueError("steps must be >= 0 and lr finite")


@dataclass
class TrainRun:
    config: TrainConfig
    loss_trace: np.ndarray  # length steps + 1, loss_trace[0] is the init loss
    final_state: AdapterState


def make_task(d: int, k: int, r_gap: int, seed: int, n: int | None = None) -> ToyTask:
    """Seeded task whose w0-to-teacher gap sits in w0's own top-r_gap subspace."""
    if r_gap < 1 or r_gap > min(d, k):
        raise RankOutOfRange(f"r_gap {r_gap} outside [1, {min(d, k)}]")
    if n is None:
        n = 2 * max(d, k)
    if n < d:
        raise DimensionMismatch(f"need at least d={d} probe columns, got {n}")
    w0 = random_matrix(d, k, (seed, _SLOT_W0), "gaussian")
    f = svd_truncated(w0, r_gap)
    o_star = np.random.default_rng((seed, _SLOT_O_STAR)).uniform(0.5, 1.5, d)
    s_star = f.s_r * np.random.default_rng((seed, _SLOT_S_STAR)).uniform(0.5, 1.5, r_gap)
    w_target = f.residual + o_star[:, None] * ((f.u_r * s_star) @ f.v_r.T)
    probes = np.random.default_rng((seed, _SLOT_PROBES)).standard_normal((k, n))
    return ToyTask(w0=w0, w_target=w_target, probes=probes, targets=w_target @ probes, seed=seed, r_gap=r_gap)


def train(state: AdapterState, task: ToyTask, config: TrainConfig) -> TrainRun:
    """Full-batch gradient descent on the adapter's trainable vector.

    Deterministic for fixed (state, task, config); the input state is left
    untouched and the returned run owns its final state.
    """
    if state.d != task.w0.shape[0] or state.k != task.w0.shape[1]:
        raise DimensionMismatch(
            f"adapter is {state.d}x{state.k} but task weight is {task.w0.shape[0]}x{task.w0.shape[1]}"
        )
    work = clone_state(state)
    step_at = _stepper(work, task.probes, task.targets)
    theta = trainable_vector(work)
    trace = np.empty(config.steps + 1)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for step in range(config.steps):
        lg = step_at(work)
        trace[step] = lg.loss
        if not math.isfinite(lg.loss):
            raise NonFiniteLoss(f"loss became non-finite at step {step}")
        g = lg.flat()
        if config.optimizer == "sgd":
            theta = theta - config.lr * g
        else:
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
            m_hat = m / (1.0 - ADAM_BETA1 ** (step + 1))
            v_hat = v / (1.0 - ADAM_BETA2 ** (step + 1))
            theta = theta - config.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        load_trainable(work, theta)
    trace[config.steps] = step_at(work).loss
    if not math.isfinite(trace[config.steps]):
        raise NonFiniteLoss(f"loss became non-finite at step {config.steps}")
    return TrainRun(config=config, loss_trace=trace, final_state=work)
