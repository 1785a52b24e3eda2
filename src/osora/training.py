"""Toy teacher-student matrix tasks and a deterministic full-batch training loop.

A task plants a known low-rank gap between a seeded base weight w0 and a
teacher w_target: the top r_gap singular components of w0, as svd_truncated
returns them, are replaced by a randomly row-scaled, randomly re-weighted
copy of themselves. An osora adapter of rank r_gap is built from the same
factors, so it can represent the teacher exactly (zero achievable loss)
even when the top-r SVD stopped at its cap short of w0's exact top
subspace; smaller ranks and single-vector ablations cannot.

`train` steps over the task's probes compressed by one QR, X^T = Q R with
m = min(n, k) columns: the k x m R^T, the d x m targets Y Q and the scalar
tail ||Y - (Y Q) Q^T||^2, added to every step's loss with the task's true n
(see `gradients`). So each step works on d x m planes, not d x n. A ToyTask
is frozen and holds read-only copies of its arrays, so no write reaches what
its planes were made from: it makes them (not Q) at its first train and keeps
them, and keeps `base`, the read-only d x m product w0 R^T, from the first
train of an adapter whose frozen w0 holds the task's w0 values. Every such
adapter's train reads it; an adapter over any other weight forms its own.
Its `factors`, w0's top-r_gap SVD, come the same way, lazily, from
the registry that SVD-initialised builds share (`make_task` fills the cache
with the factors it planted the gap in). `dataclasses.replace` makes a new
task, which compresses its own probes, forms its own w0 R^T and decomposes
its own w0. `gradient`, `loss_mse` and `finite_diff` still take the raw probes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .adapters import AdapterState, _read_only, _shared_svd, _slot_views, clone_state, trainable_vector, weight_digest
from .errors import DimensionMismatch, InvalidConfig, NonFiniteLoss, RankOutOfRange
from .gradients import _check_pair, _stepper
from .linalg import SvdFactors, as_real_array, check_fits, check_integers, check_seed, random_matrix

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


@dataclass(frozen=True)
class ToyTask:
    """A task over read-only copies of the arrays it is given; fields cannot be reassigned."""

    w0: np.ndarray
    w_target: np.ndarray
    probes: np.ndarray  # k x n
    targets: np.ndarray  # d x n, equal to w_target @ probes in make_task's tasks
    seed: int
    r_gap: int

    def __post_init__(self):
        for name in ("w0", "w_target", "probes", "targets"):
            a = as_real_array(getattr(self, name), name).copy()
            _read_only(a)
            object.__setattr__(self, name, a)

    @cached_property
    def factors(self) -> SvdFactors:
        """w0's top-r_gap factors, shared with SVD-initialised adapters of rank r_gap over w0 while this task lives."""
        return _shared_svd(self.w0, weight_digest(self.w0), self.r_gap)

    @cached_property
    def planes(self) -> tuple[np.ndarray, np.ndarray, int, float]:
        """(R^T, Y Q, n, tail) for the probes X^T = Q R and targets Y; R^T and Y Q are read-only."""
        x, y = _check_pair(self.probes, self.targets)
        q, r = np.linalg.qr(x.T)
        rt, yq = np.ascontiguousarray(r.T), y @ q
        # The tail from the residual itself: a task's Y = W X lies in the row
        # space of X, so ||Y||^2 - ||Y Q||^2 would cancel to noise.
        resid = yq @ q.T
        resid -= y
        flat = resid.ravel()
        _read_only(rt, yq)
        return rt, yq, x.shape[1], float(flat @ flat)

    @cached_property
    def base(self) -> np.ndarray:
        """w0 @ R^T, read-only: the base product of every adapter whose w0 holds this task's w0 values."""
        rt = self.planes[0]
        if rt.shape[0] != self.w0.shape[1]:
            raise DimensionMismatch(f"expected probes {self.w0.shape[1]} x n, got {rt.shape[0]} rows")
        base = np.matmul(self.w0, rt)
        _read_only(base)
        return base


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    lr: float
    optimizer: str = "adam"

    def __post_init__(self):
        if self.optimizer not in ("sgd", "adam"):
            raise InvalidConfig(f"optimizer must be sgd or adam, got {self.optimizer!r}")
        # bool is an Integral and a Real, but True is no step count or learning rate.
        if isinstance(self.steps, bool) or not isinstance(self.steps, numbers.Integral) or self.steps < 0:
            raise InvalidConfig(f"steps must be an integer >= 0, got {self.steps!r}")
        check_fits("loss trace", self.steps + 1)
        if isinstance(self.lr, bool) or not isinstance(self.lr, numbers.Real) or not math.isfinite(self.lr):
            raise InvalidConfig(f"lr must be a finite real number, got {self.lr!r}")


@dataclass
class TrainRun:
    config: TrainConfig
    loss_trace: np.ndarray  # length steps + 1, loss_trace[0] is the init loss
    final_state: AdapterState


def make_task(d: int, k: int, r_gap: int, seed: int, n: int | None = None) -> ToyTask:
    """Seeded task whose w0-to-teacher gap sits in the span of w0's top-r_gap factors.

    The factors are svd_truncated's, shared with every SVD-initialised build of
    rank r_gap over w0: w0's own top-r_gap subspace when `task.factors.converged`,
    otherwise the nearby subspace the capped top-r path returned. Like every
    ToyTask, it holds read-only copies of its arrays.
    """
    check_integers(d=d, k=k, r_gap=r_gap)
    if d < 1 or k < 1:
        raise DimensionMismatch(f"d and k must be >= 1, got {d}x{k}")
    check_seed(seed)
    if r_gap < 1 or r_gap > min(d, k):
        raise RankOutOfRange(f"r_gap {r_gap} outside [1, {min(d, k)}]")
    if n is None:
        n = 2 * max(d, k)
    check_integers(n=n)
    if n < d:
        raise DimensionMismatch(f"need at least d={d} probe columns, got {n}")
    check_fits("probes or targets", max(d, k), n)
    w0 = random_matrix(d, k, (seed, _SLOT_W0), "gaussian")
    f = _shared_svd(w0, weight_digest(w0), r_gap)
    o_star = np.random.default_rng((seed, _SLOT_O_STAR)).uniform(0.5, 1.5, d)
    s_star = f.s_r * np.random.default_rng((seed, _SLOT_S_STAR)).uniform(0.5, 1.5, r_gap)
    w_target = (w0 - (f.u_r * f.s_r) @ f.v_r.T) + o_star[:, None] * ((f.u_r * s_star) @ f.v_r.T)
    probes = np.random.default_rng((seed, _SLOT_PROBES)).standard_normal((k, n))
    targets = w_target @ probes
    task = ToyTask(w0=w0, w_target=w_target, probes=probes, targets=targets, seed=seed, r_gap=r_gap)
    task.factors  # cached while f keeps its registry entry alive, so no second SVD runs
    return task


def train(state: AdapterState, task: ToyTask, config: TrainConfig) -> TrainRun:
    """Full-batch gradient descent on the adapter's trainable vector.

    Deterministic for fixed (state, task, config); the input state is left
    untouched and the returned run owns its final state, whose active slots
    are views of one flat vector.
    """
    work = clone_state(state)
    # The active slots become views of theta, so each update lands in work in place.
    theta = trainable_vector(work)
    work.trainable.update(_slot_views(work, theta))
    trace = np.empty(config.steps + 1)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    g, tmp, m_hat = (np.empty_like(theta) for _ in range(3))
    # A diverging run, or targets whose squares overflow, overflow here; the loss check raises NonFiniteLoss.
    with np.errstate(over="ignore", invalid="ignore"):
        step_at = _stepper(work, *task.planes, base=task.base if np.array_equal(work.frozen["w0"], task.w0) else None)
        for step in range(config.steps):
            loss = trace[step] = step_at(work, g)
            if not math.isfinite(loss):
                raise NonFiniteLoss(f"loss became non-finite at step {step}")
            if config.optimizer == "sgd":
                theta -= np.multiply(config.lr, g, out=g)
            else:
                # The moment updates and lr * m_hat / (sqrt(v_hat) + eps), operation by operation.
                m *= ADAM_BETA1
                m += np.multiply(1.0 - ADAM_BETA1, g, out=tmp)
                v *= ADAM_BETA2
                np.multiply(1.0 - ADAM_BETA2, g, out=tmp)
                v += np.multiply(tmp, g, out=tmp)
                np.divide(m, 1.0 - ADAM_BETA1 ** (step + 1), out=m_hat)
                np.divide(v, 1.0 - ADAM_BETA2 ** (step + 1), out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += ADAM_EPS
                np.multiply(config.lr, m_hat, out=m_hat)
                theta -= np.divide(m_hat, tmp, out=m_hat)
        trace[config.steps] = step_at(work, g)
    if not math.isfinite(trace[config.steps]):
        raise NonFiniteLoss(f"loss became non-finite at step {config.steps}")
    return TrainRun(config=config, loss_trace=trace, final_state=work)
