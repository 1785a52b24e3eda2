"""Analytic gradients of the probe-set squared-error loss, plus a finite-difference oracle.

The loss over n probe columns X (k x n) with targets Y (d x n) is

    L = 1/(2n) * sum_i ||forward(x_i) - y_i||^2

so the gradient with respect to the dense update is G = (1/n) (pred - Y) X^T.
`gradient` computes G once and chains it through the method's record in the
adapters table. For the svd-based adapters the two diagonal extractions are

    dL/ds_r = diag(u_r^T diag(o) G v_r)
    dL/do   = diag(G v_r diag(s_r) u_r^T)   (rowwise sum of G * u_r diag(s_r) v_r^T)

and the dora-style magnitude rescale contributes the usual normalized-row
Jacobian (the row-norm denominator is differentiated, not detached).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapters import (
    _TABLE,
    AdapterState,
    _dora_backward,
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


# A function of its own so that resid is freed before the chain rule runs.
# Inlined into gradient, resid stayed alive and the same arithmetic ran 6 to
# 18 % slower for vera and osora_dora at 128x128, n=256 (numpy 2.4.6, one BLAS
# thread): the allocation order of the 128 KiB temporaries changed.
def _loss_and_update_grad(state, x, y):
    resid = forward(state, x) - y
    n = x.shape[1]
    loss = 0.5 / n * float((resid * resid).sum())
    return loss, (resid @ x.T) / n


def gradient(state: AdapterState, x_probes, y_targets) -> LossGrad:
    """Analytic gradient for any method, in flat-layout slot order."""
    x, y = _check_probes(state, x_probes, y_targets)
    loss, g = _loss_and_update_grad(state, x, y)
    entry = _TABLE[state.method.tag]
    full: dict[str, np.ndarray] = {}
    if entry.magnitude:
        g, full["m"] = _dora_backward(state, g)
    full.update(entry.grad(state.frozen, state.trainable, g))
    return LossGrad(loss=loss, slices={name: full[name] for name in trainable_slots(state)})


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
