"""Analytic gradients of the probe-set squared-error loss, plus a finite-difference oracle.

The loss over n probe columns X (k x n) with targets Y (d x n) is

    L = 1/(2n) * sum_i ||forward(x_i) - y_i||^2

so the gradient with respect to the dense update is G = R X^T, where
R = (pred - Y)/n is the scaled residual. No step forms G. Each method's record
in the adapters table states its update once, as the product of `left`
(d x q) and `right` (q x k), and gives `fixed`, the products of its frozen
tensors with the probes (w0 X, v_r^T X, a_base X). A step forms left and
Z = right X once each (vera, osora and osora_dora read Z off a fixed
product), writes left Z into the plane, and hands both to `grad`, which
chains R and X through q x n products (the initial values an update
subtracts are constants). For osora, with H = G v_r = R (v_r^T X)^T,

    dL/ds_r = diag(u_r^T diag(o) H)
    dL/do   = rowwise sum of H * u_r diag(s_r)

and osora_k the same two sums with v_r for u_r and H = G^T u_r = X (u_r^T R)^T,
so a step costs O(r n (d + k)), not O(d k n); `training.train` narrows n, and
for osora_k d, to r where a factor of the update is frozen. The dora-style magnitude
rescale contributes the usual normalized-row Jacobian (the row-norm
denominator is differentiated, not detached): dL/dm = rowwise sum of R * P
over the row norms, P = base + left Z the prediction before the rescale, and
the update gradient becomes diag(scale) G - diag(c) w_eff. The first term
puts diag(scale) on the d x r or r x k side of each product, as osora's o
already is, and the second each magnitude record chains through `grad_rows`.
The row sums of R * P are those of R * base plus rowwise (R Z^T) * left, a d x q
product the gradient already holds. The record's `row_norms` gives the row
norms and the rows `grad_rows` reads, row i times 2^-e_i as its norm was, so
the step passes c 2^e, exactly, or c where no row was rescaled. The rows are
dora's w_eff = w0 + B A, the one d x k array a step makes, or osora_dora's
w_eff v_r = w0 v_r + left.

Every method's prediction is M X for a d x k matrix M of its tensors (a
magnitude method's rescale depends on its weights, not on the probes), so
with X^T = Q R (Q n x m orthonormal, m = min(n, k)) the loss splits as

    L = 1/(2n) * (||M R^T - Y Q||^2 + ||Y - (Y Q) Q^T||^2)

and G = (M X - Y) X^T = (M R^T - Y Q) R: the step over the k x m probes R^T
with targets Y Q, the task's true n and the constant tail is the step over
X and Y. The same holds for any other orthonormal basis: where every row of
the update lies in the row space of an r x k frozen W (osora's v_r^T, vera's
a_base), (W R^T)^T = Q_w T makes the r-column planes R^T Q_w, Y Q Q_w and the
base's w0 R^T Q_w, and where every column lies in the span of an orthonormal
d x r U (osora_k's u_r), U^T Y Q and U^T w0 R^T make the r-row ones over a
d = r view of the adapter (U -> I_r). The residual's part off either span
does not change with the trainables, so it joins the tail, and G keeps its
products with the frozen factor. `training.train` steps over the planes a
`ToyTask` keeps, projected so where its record names a span; `gradient`,
`loss_mse` and `finite_diff` step over the raw probes, the last two asking the
step for its loss alone, so the loss has one formula wherever it is taken.

Each of them binds its step once per call: the method record, the probe
products, the views of the flat gradient vector and one d x m workspace plane
(m = min(n, k) for `train`, n for the others; a projected run's plane is
d x r, or r x m for osora_k). Every step writes into the plane: left Z goes
in, `fixed`'s base product is added to make the prediction, a magnitude
method scales its rows in place, and subtracting Y leaves the residual
pred - Y. The base product w0 X is the one d x k x m product of a
call; `train` takes it from the task, which makes w0 R^T once and hands it to
every adapter whose w0 holds the task's w0 values. The loss is one dot product
of that plane with itself, plus the tail, and the 1/n of R is applied to the
slot gradients, which are r, d or k long or d x r, r x k, so the residual
plane is never rescaled. Each slot gradient, a magnitude method's already less
its row term, is written straight into its view of the flat vector the
optimizer reads. osora and vera scale the rows of left, not of the d x m
product. So a step makes no d x m array and passes over one only to fill it,
to read it for the loss and the row sums of dL/dm, and to multiply it into the
gradient products. What it still makes are q x m and d x q (or k x r)
products, vectors of length d, k or r, and dora's d x k w_eff.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .adapters import (
    _TABLE,
    AdapterState,
    _predict,
    _row_dots,
    _slot_views,
    clone_state,
    trainable_count,
    trainable_vector,
)
from .errors import DimensionMismatch, InvalidConfig
from .linalg import as_real_array

FD_STEP = 1e-6


@dataclass
class LossGrad:
    """Loss value plus per-tensor gradient slices, keyed in flat-layout order."""

    loss: float
    slices: dict[str, np.ndarray]

    def flat(self) -> np.ndarray:
        return np.concatenate([g.ravel() for g in self.slices.values()])


def _check_pair(x_probes, y_targets) -> tuple[np.ndarray, np.ndarray]:
    """Probes and targets as float64 arrays, both 2-D with the same n >= 1 columns."""
    x = as_real_array(x_probes, "probes")
    y = as_real_array(y_targets, "targets")
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise DimensionMismatch(f"probe/target column counts differ: {x.shape} vs {y.shape}")
    if x.shape[1] < 1:
        raise DimensionMismatch("need at least one probe column, got 0")
    return x, y


def _check_probes(state: AdapterState, x_probes, y_targets) -> tuple[np.ndarray, np.ndarray]:
    """_check_pair's arrays, refused unless they are k x n probes and d x n targets for state."""
    x, y = _check_pair(x_probes, y_targets)
    if x.shape[0] != state.k or y.shape[0] != state.d:
        raise DimensionMismatch(f"expected probes {state.k} x n and targets {state.d} x n")
    return x, y


def _stepper(state: AdapterState, x_probes, y_targets, n=None, tail=0.0, base=None, g=None) -> Callable[[bool], float]:
    """step(grad) -> the loss over fixed probes at state's current trainables; step(True) writes the gradient into g.

    Binds once per run what holds between steps: state's method record and
    dicts, the probes' products with the frozen tensors (base, if given, is
    w0 @ x, which the caller holds), the d x m workspace (m probe columns) and
    the views of g, a flat vector in trainable_vector's layout. step(False)
    takes the same loss and forms no gradient; with g None it is the only step.
    Raw probes leave n to their column count and tail at 0; compressed ones
    (R^T, Y Q) pass the true n and the tail ||Y - (Y Q) Q^T||^2, the constant
    part of the loss's squared sum. The step is not reentrant: run one at a time.
    """
    x, y = _check_probes(state, x_probes, y_targets)
    n = x.shape[1] if n is None else n
    entry, fz, t = _TABLE[state.method.tag], state.frozen, state.trainable
    fx = entry.fixed(fz, x, base)
    # Plane r: the prediction, rescaled in place by a magnitude method, then the residual.
    r = np.empty(y.shape)
    flat = r.reshape(-1)
    out = None if g is None else _slot_views(state, g)

    def step(grad: bool) -> float:
        left, z, rows, scale = _predict(entry, fz, t, fx, x, r)
        np.subtract(r, y, out=r)
        loss = 0.5 / n * (float(flat @ flat) + tail)
        if not grad:
            return loss
        # r is the residual pred - Y, not R = r/n; the 1/n goes on the small slot gradients.
        if entry.magnitude:
            w, e, pos, safe = rows
            grads = entry.grad(fz, t, left, z, r, x, fx, scale)
            # dL/dm_i = r_i . P_i / (n norms_i), P = base + left @ z the prediction before the rescale;
            # grad returns the r_i . (left @ z)_i half.
            inv = np.where(pos, 1.0 / safe, 0.0)
            g_m = np.multiply((_row_dots(r, fx["base"]) + grads.pop("m")) / n, inv, out=out["m"])
            c = scale * g_m * inv
            row_grads = entry.grad_rows(fz, t, c if e is None else np.ldexp(c, e), w)
            for name, slot_grad in grads.items():
                np.subtract(slot_grad / n, row_grads[name], out=out[name])
        else:
            for name, slot_grad in entry.grad(fz, t, left, z, r, x, fx).items():
                if name in out:  # an ablation trains one slot of the pair
                    np.divide(slot_grad, n, out=out[name])
        return loss

    return step


def gradient(state: AdapterState, x_probes, y_targets) -> LossGrad:
    """Analytic gradient for any method, in flat-layout slot order."""
    g = np.empty(trainable_count(state.method, state.d, state.k))
    loss = _stepper(state, x_probes, y_targets, g=g)(True)
    return LossGrad(loss=loss, slices=_slot_views(state, g))


def loss_mse(state: AdapterState, x_probes, y_targets) -> float:
    """The loss a step over the raw probes takes, with no gradient formed."""
    return _stepper(state, x_probes, y_targets)(False)


def finite_diff(state: AdapterState, x_probes, y_targets, h: float = FD_STEP) -> LossGrad:
    """Central-difference gradient over the flat trainable vector."""
    if isinstance(h, bool) or not isinstance(h, numbers.Real) or not (math.isfinite(h) and h > 0.0):
        raise InvalidConfig(f"step must be a positive finite number, got {h!r}")
    work = clone_state(state)
    theta0 = trainable_vector(work)
    theta = theta0.copy()
    work.trainable.update(_slot_views(work, theta))  # so each write to theta lands in work
    step = _stepper(work, x_probes, y_targets)
    loss0 = step(False)
    grad = np.empty_like(theta0)
    for i in range(theta0.size):
        theta[i] = theta0[i] + h
        loss_plus = step(False)
        theta[i] = theta0[i] - h
        loss_minus = step(False)
        theta[i] = theta0[i]
        grad[i] = (loss_plus - loss_minus) / (2.0 * h)
    return LossGrad(loss=loss0, slices=_slot_views(state, grad))
