"""Dense linear algebra kernels: one-sided Jacobi SVD, column norms, seeded generators.

Everything operates on C-contiguous float64 numpy arrays and is deterministic:
identical input bytes always produce identical output bytes, which the
checkpoint format relies on to rebuild frozen factors from a seed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, RankOutOfRange

# Sweep controls for the one-sided Jacobi loop: a column pair is converged
# once its inner product is below JACOBI_TOL * ||w||_F and below
# JACOBI_TOL * ||a_p|| * ||a_q||; the relative test keeps small singular
# pairs orthogonal to roundoff. Hard cap of 60 cyclic sweeps.
JACOBI_MAX_SWEEPS = 60
JACOBI_TOL = 1e-14
_ROUNDOFF_FLOOR = 1e-15

# Columns whose post-sweep norm is below this (relative to ||w||_F) carry no
# reliable direction; they are replaced by an orthonormal completion.
_DEFICIENT_REL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-contiguous float64 2-D array with positive dimensions."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatch(f"{name} must be 2-D with positive dims, got shape {m.shape}")
    return m


def check_finite(a: np.ndarray, name: str = "input") -> None:
    if not np.isfinite(a).all():
        raise NonFiniteInput(f"{name} contains NaN or Inf entries")


def fro_norm(a: np.ndarray) -> float:
    return math.sqrt(float((a * a).sum()))


def random_matrix(rows: int, cols: int, seed: int | Sequence[int], scheme: str = "uniform_scaled") -> np.ndarray:
    """Deterministic seeded matrix.

    uniform_scaled draws from uniform(-a, a) with a = sqrt(6 / (rows + cols));
    gaussian draws standard normal entries scaled by 1 / sqrt(cols).
    """
    if rows < 1 or cols < 1:
        raise DimensionMismatch(f"rows and cols must be >= 1, got {rows}x{cols}")
    rng = np.random.default_rng(seed)
    if scheme == "uniform_scaled":
        bound = math.sqrt(6.0 / (rows + cols))
        out = rng.uniform(-bound, bound, size=(rows, cols))
    elif scheme == "gaussian":
        out = rng.standard_normal(size=(rows, cols)) / math.sqrt(cols)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return np.ascontiguousarray(out)


@dataclass
class SvdFactors:
    """Truncated rank-r factors of a weight matrix plus the frozen remainder.

    u_r is d x r, s_r a descending nonnegative length-r vector, v_r is k x r,
    and residual = w - u_r @ diag(s_r) @ v_r.T at construction time.
    """

    u_r: np.ndarray
    s_r: np.ndarray
    v_r: np.ndarray
    residual: np.ndarray
    rank: int


def _fill_deficient_columns(u: np.ndarray, deficient: list[int]) -> None:
    # Replace direction-free columns with unit vectors orthogonal to all others.
    # Candidate = the standard basis vector with the largest residual after
    # two Gram-Schmidt passes; deterministic (first maximum wins).
    d, m = u.shape
    fixed = [j for j in range(m) if j not in set(deficient)]
    for j in deficient:
        best_vec, best_norm = None, -1.0
        for i in range(d):
            v = np.zeros(d)
            v[i] = 1.0
            for _ in range(2):
                for c in fixed:
                    v -= (u[:, c] @ v) * u[:, c]
            nv = math.sqrt(float(v @ v))
            if nv > best_norm + 1e-12:
                best_vec, best_norm = v, nv
        u[:, j] = best_vec / best_norm
        fixed.append(j)


def jacobi_svd(w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full thin SVD via cyclic one-sided Jacobi rotations.

    Returns (u, s, v) with u of shape d x m, s of length m = min(d, k)
    descending, v of shape k x m, and w == u @ diag(s) @ v.T to machine
    precision. Sweeps run until every column pair passes both the absolute
    and the relative convergence tests (see JACOBI_TOL) or the sweep cap is
    hit. Columns of u carry the sign convention that their largest-magnitude
    entry is positive, with v flipped to compensate.
    """
    m0 = as_matrix(w, "svd input")
    check_finite(m0, "svd input")
    d, k = m0.shape
    if d < k:
        v, s, u = jacobi_svd(np.ascontiguousarray(m0.T))
        return u, s, v

    a = m0.copy()
    v = np.eye(k)
    fro = fro_norm(a)
    tol_abs = JACOBI_TOL * fro
    if fro > 0.0:
        for _ in range(JACOBI_MAX_SWEEPS):
            # Running estimate of the squared column norms, updated in O(1) per
            # rotation and recomputed here each sweep, which corrects drift.
            # The update is clamped at zero: on a null column of an exactly
            # rank-deficient w it can round below zero and break the sqrt.
            sq = (a * a).sum(axis=0)
            rotations = 0
            for p in range(k - 1):
                for q in range(p + 1, k):
                    gamma = float(a[:, p] @ a[:, q])
                    scale = math.sqrt(float(sq[p]) * float(sq[q]))
                    if abs(gamma) <= tol_abs and abs(gamma) <= JACOBI_TOL * scale:
                        continue
                    if abs(gamma) <= _ROUNDOFF_FLOOR * scale:
                        continue  # below roundoff, rotation would be a no-op
                    rotations += 1
                    zeta = (float(sq[q]) - float(sq[p])) / (2.0 * gamma)
                    t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                    c = 1.0 / math.sqrt(1.0 + t * t)
                    s = t * c
                    ap = a[:, p].copy()
                    a[:, p] = c * ap - s * a[:, q]
                    a[:, q] = s * ap + c * a[:, q]
                    sq[p] = max(sq[p] - t * gamma, 0.0)
                    sq[q] = max(sq[q] + t * gamma, 0.0)
                    vp = v[:, p].copy()
                    v[:, p] = c * vp - s * v[:, q]
                    v[:, q] = s * vp + c * v[:, q]
            if rotations == 0:
                break

    norms = np.sqrt((a * a).sum(axis=0))
    order = np.argsort(-norms, kind="stable")
    a = a[:, order]
    v = v[:, order]
    s_vals = norms[order]

    u = np.zeros((d, k))
    deficient = []
    cutoff = _DEFICIENT_REL * fro
    for j in range(k):
        if s_vals[j] > cutoff:
            u[:, j] = a[:, j] / s_vals[j]
        else:
            s_vals[j] = 0.0
            deficient.append(j)
    if deficient:
        _fill_deficient_columns(u, deficient)

    # Sign convention: largest-magnitude entry of each u column positive.
    for j in range(k):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0.0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]

    return (np.ascontiguousarray(u), np.ascontiguousarray(s_vals), np.ascontiguousarray(v))


def svd_truncated(w, r: int) -> SvdFactors:
    """Top-r singular factors of w and the residual w - u_r @ diag(s_r) @ v_r.T."""
    m = as_matrix(w, "svd input")
    max_rank = min(m.shape)
    if r < 1 or r > max_rank:
        raise RankOutOfRange(f"rank {r} outside [1, {max_rank}] for shape {m.shape}")
    u, s, v = jacobi_svd(m)
    u_r = np.ascontiguousarray(u[:, :r])
    s_r = np.ascontiguousarray(s[:r])
    v_r = np.ascontiguousarray(v[:, :r])
    residual = m - (u_r * s_r) @ v_r.T
    return SvdFactors(u_r=u_r, s_r=s_r, v_r=v_r, residual=residual, rank=r)
