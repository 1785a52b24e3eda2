"""Dense linear algebra kernels: one-sided Jacobi SVD and seeded generators.

On rank-deficient input the SVD never rotates two null columns against each
other, and one complete QR of the kept columns of u completes the null ones.

Everything operates on C-contiguous float64 numpy arrays and is deterministic:
identical input bytes always produce identical output bytes, which the
checkpoint format relies on to rebuild frozen factors from a seed.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, NonFiniteInput, RankOutOfRange

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


def check_integers(**values) -> None:
    """Raise InvalidConfig unless every value is an integer; bool is an Integral, but True is no count."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InvalidConfig(f"{name} must be an integer, got {value!r}")


def check_seed(seed) -> None:
    """Raise InvalidConfig unless seed is an integer in [0, 2**64), the checkpoint's u64 seed field."""
    check_integers(seed=seed)
    if not 0 <= seed < 2**64:
        raise InvalidConfig(f"seed must be in [0, 2**64), got {seed}")


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
    check_integers(rows=rows, cols=cols)
    if rows < 0 or cols < 0:
        raise InvalidConfig(f"rows and cols must be non-negative, got {rows}x{cols}")
    for entry in seed if isinstance(seed, Sequence) and not isinstance(seed, (str, bytes)) else [seed]:
        if isinstance(entry, bool) or not isinstance(entry, numbers.Integral) or entry < 0:
            raise InvalidConfig(f"seed must be a non-negative integer or a sequence of them, got {seed!r}")
    if rows < 1 or cols < 1:
        raise DimensionMismatch(f"rows and cols must be >= 1, got {rows}x{cols}")
    rng = np.random.default_rng(seed)
    if scheme == "uniform_scaled":
        bound = math.sqrt(6.0 / (rows + cols))
        out = rng.uniform(-bound, bound, size=(rows, cols))
    elif scheme == "gaussian":
        out = rng.standard_normal(size=(rows, cols)) / math.sqrt(cols)
    else:
        raise InvalidConfig(f"unknown scheme {scheme!r}")
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


def _fill_deficient_columns(u: np.ndarray, kept: int) -> None:
    # The direction-free columns from `kept` on become the next columns of one
    # complete QR of the kept ones, so u stays orthonormal.
    q, _ = np.linalg.qr(u[:, :kept], mode="complete")
    u[:, kept:] = q[:, kept : u.shape[1]]


def jacobi_svd(w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full thin SVD via cyclic one-sided Jacobi rotations.

    Returns (u, s, v) with u of shape d x m, s of length m = min(d, k)
    descending, v of shape k x m, and w == u @ diag(s) @ v.T to machine
    precision. Sweeps run until every column pair passes both the absolute
    and the relative convergence tests (see JACOBI_TOL) or the sweep cap is
    hit. Columns of u carry the sign convention that their largest-magnitude
    entry is positive, with v flipped to compensate.

    Null columns, at or below 1e-12 * ||w||_F, get s exactly 0, are never
    rotated against each other, and take their u columns from one complete QR
    of the kept ones. Neither path runs on full-rank input.
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
    # A rotation never grows the smaller of its columns, so columns with squared
    # norms at most cutoff^2 / k hold at most cutoff^2 together and no rotation
    # among them lifts one above the cutoff: a pair of them is skipped. For the
    # same reason a null column p stays null through its row of pairs, so its
    # test is taken once per row.
    null_sq = (_DEFICIENT_REL * fro) ** 2 / k
    # Column views, bound once: the rotations update them, and so a and v, in
    # place through two scratch columns per matrix, allocated once per call.
    a_cols = [a[:, j] for j in range(k)]
    v_cols = [v[:, j] for j in range(k)]
    a_t1, a_t2 = np.empty(d), np.empty(d)
    v_t1, v_t2 = np.empty(k), np.empty(k)
    if fro > 0.0:
        for _ in range(JACOBI_MAX_SWEEPS):
            # Running estimate of the squared column norms, updated in O(1) per
            # rotation and recomputed here each sweep, which corrects drift. It
            # is a list of Python floats: they round exactly as numpy float64
            # scalars do, so the factors keep their bytes, but each read and
            # write costs a list access instead of a numpy scalar op.
            # The update is clamped at zero: on a null column of an exactly
            # rank-deficient w it can round below zero and break the sqrt.
            sq = (a * a).sum(axis=0).tolist()
            rotations = 0
            for p in range(k - 1):
                ap_col, vp_col = a_cols[p], v_cols[p]
                sq_p = sq[p]
                p_null = sq_p <= null_sq
                for q in range(p + 1, k):
                    sq_q = sq[q]
                    if p_null and sq_q <= null_sq:
                        continue
                    aq_col = a_cols[q]
                    gamma = float(ap_col @ aq_col)
                    abs_gamma = abs(gamma)
                    scale = math.sqrt(sq_p * sq_q)
                    if abs_gamma <= tol_abs and abs_gamma <= JACOBI_TOL * scale:
                        continue
                    if abs_gamma <= _ROUNDOFF_FLOOR * scale:
                        continue  # below roundoff, rotation would be a no-op
                    rotations += 1
                    zeta = (sq_q - sq_p) / (2.0 * gamma)
                    t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                    c = 1.0 / math.sqrt(1.0 + t * t)
                    s = t * c
                    # In place through the scratch columns, with the same four
                    # products and two sums of the old values as p' = c*p - s*q
                    # and q' = s*p + c*q, so the factor bytes that checkpoints
                    # rebuild are unchanged.
                    np.multiply(ap_col, s, out=a_t1)
                    np.multiply(aq_col, s, out=a_t2)
                    aq_col *= c
                    aq_col += a_t1
                    ap_col *= c
                    ap_col -= a_t2
                    vq_col = v_cols[q]
                    np.multiply(vp_col, s, out=v_t1)
                    np.multiply(vq_col, s, out=v_t2)
                    vq_col *= c
                    vq_col += v_t1
                    vp_col *= c
                    vp_col -= v_t2
                    sq_p = sq[p] = max(sq_p - t * gamma, 0.0)
                    sq[q] = max(sq_q + t * gamma, 0.0)
            if rotations == 0:
                break

    norms = np.sqrt((a * a).sum(axis=0))
    order = np.argsort(-norms, kind="stable")
    a = a[:, order]
    v = v[:, order]
    s_vals = norms[order]

    kept = int((s_vals > _DEFICIENT_REL * fro).sum())  # a prefix, since s_vals is sorted
    s_vals[kept:] = 0.0
    u = np.zeros((d, k))
    u[:, :kept] = a[:, :kept] / s_vals[:kept]
    if kept < k:
        _fill_deficient_columns(u, kept)

    # Sign convention: largest-magnitude entry of each u column positive
    # (argmax takes the first of tied entries; negation is exact).
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(k)] < 0.0
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0

    return (np.ascontiguousarray(u), np.ascontiguousarray(s_vals), np.ascontiguousarray(v))


def svd_truncated(w, r: int) -> SvdFactors:
    """Top-r singular factors of w and the residual w - u_r @ diag(s_r) @ v_r.T."""
    check_integers(rank=r)
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
