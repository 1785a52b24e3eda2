"""Analytic gradients of the probe-set squared-error loss, plus a finite-difference oracle.

The loss over n probe columns X (k x n) with targets Y (d x n) is

    L = 1/(2n) * sum_i ||forward(x_i) - y_i||^2

so the gradient with respect to the dense update is G = R X^T, where
R = (pred - Y)/n is the scaled residual. No step forms G. Each method's record
in the adapters table gives `fixed`, the products of its frozen tensors with
the probes (w0 X or w0_res X, v_r^T X, a_base X), and `grad`, which chains R
and X through r x n products: for osora, with H = G v_r = R (v_r^T X)^T,

    dL/ds_r = diag(u_r^T diag(o) H)
    dL/do   = rowwise sum of H * u_r diag(s_r)

so a step costs O(r n (d + k)), not O(d k n). The dora-style magnitude
rescale contributes the usual normalized-row Jacobian (the row-norm
denominator is differentiated, not detached): dL/dm = rowwise sum of R * P
over the row norms, P the prediction before the rescale, and the update
gradient becomes diag(scale) G - diag(c) w_eff, whose second term each
magnitude record chains through `grad_rows`. osora_dora expands its row norms
and w_eff v_r over w0_res v_r, which leans on v_r being orthonormal; dora
forms w_eff = w0 + B A, the one d x k array a step makes.

`gradient` computes the probe products and runs one step; `training.train`
computes them once per call and runs the same step body at every step.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .adapters import (
    _TABLE,
    AdapterState,
    _dora_scale,
    _row_dots,
    clone_state,
    forward,
    load_trainable,
    trainable_slots,
    trainable_vector,
)
from .errors import DimensionMismatch

FD_STEP = 1e-6


@dataclass
class LossGrad:
    """Loss value plus per-tensor gradient slices, keyed in flat-layout order."""

    loss: float
    slices: dict[str, np.ndarray]

    def flat(self) -> np.ndarray:
        return np.concatenate([g.ravel() for g in self.slices.values()])


def _check_probes(state: AdapterState, x_probes, y_targets) -> tuple[np.ndarray, np.ndarray]:
    x = np.ascontiguousarray(x_probes, dtype=np.float64)
    y = np.ascontiguousarray(y_targets, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise DimensionMismatch(f"probe/target column counts differ: {x.shape} vs {y.shape}")
    if x.shape[0] != state.k or y.shape[0] != state.d:
        raise DimensionMismatch(f"expected probes {state.k} x n and targets {state.d} x n")
    return x, y


def loss_mse(state: AdapterState, x_probes, y_targets) -> float:
    x, y = _check_probes(state, x_probes, y_targets)
    resid = forward(state, x) - y
    return 0.5 / x.shape[1] * float((resid * resid).sum())


def _step(state: AdapterState, fx: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray) -> LossGrad:
    """Loss and gradient at state, given fx = fixed(state.frozen, x)."""
    entry = _TABLE[state.method.tag]
    fz, t = state.frozen, state.trainable
    r = fx["base"] + entry.apply(fz, t, fx, x)  # forward's expression, before any rescale
    if entry.magnitude:
        norms, w = entry.norms(fz, t, fx)
        scale = _dora_scale(state, norms)
        unscaled, r = r, scale[:, None] * r
    r -= y
    n = x.shape[1]
    loss = 0.5 / n * float((r * r).sum())
    r /= n
    full: dict[str, np.ndarray] = {}
    if entry.magnitude:
        inv = np.where(norms > 0.0, 1.0 / np.where(norms > 0.0, norms, 1.0), 0.0)
        full["m"] = _row_dots(r, unscaled) * inv
        r *= scale[:, None]
        rows = entry.grad_rows(fz, t, scale * full["m"] * inv, w)
        full.update({name: g - rows[name] for name, g in entry.grad(fz, t, fx, r, x).items()})
    else:
        full.update(entry.grad(fz, t, fx, r, x))
    return LossGrad(loss=loss, slices={name: full[name] for name in trainable_slots(state)})


def _stepper(state: AdapterState, x_probes, y_targets) -> Callable[[AdapterState], LossGrad]:
    """The loss and gradient over fixed probes, for state and any adapter sharing its frozen tensors.

    Checks the probes and computes their products with the frozen tensors once.
    """
    x, y = _check_probes(state, x_probes, y_targets)
    fx = _TABLE[state.method.tag].fixed(state.frozen, x)
    return lambda st: _step(st, fx, x, y)


def gradient(state: AdapterState, x_probes, y_targets) -> LossGrad:
    """Analytic gradient for any method, in flat-layout slot order."""
    return _stepper(state, x_probes, y_targets)(state)


def finite_diff(state: AdapterState, x_probes, y_targets, h: float = FD_STEP) -> LossGrad:
    """Central-difference gradient over the flat trainable vector."""
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    x, y = _check_probes(state, x_probes, y_targets)
    work = clone_state(state)
    theta0 = trainable_vector(work)
    loss0 = loss_mse(work, x, y)
    grad = np.empty_like(theta0)
    theta = theta0.copy()
    for i in range(theta0.size):
        theta[i] = theta0[i] + h
        load_trainable(work, theta)
        loss_plus = loss_mse(work, x, y)
        theta[i] = theta0[i] - h
        load_trainable(work, theta)
        loss_minus = loss_mse(work, x, y)
        theta[i] = theta0[i]
        grad[i] = (loss_plus - loss_minus) / (2.0 * h)
    slices: dict[str, np.ndarray] = {}
    pos = 0
    for name in trainable_slots(state):
        shape = state.trainable[name].shape
        n = state.trainable[name].size
        slices[name] = grad[pos : pos + n].reshape(shape).copy()
        pos += n
    return LossGrad(loss=loss0, slices=slices)
