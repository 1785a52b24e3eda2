"""Dense linear algebra kernels: one-sided Jacobi SVD, top-r SVD and seeded generators.

On rank-deficient input the SVD never rotates two null columns against each
other, and one complete QR of the kept columns of u completes the null ones.

svd_truncated takes one of three paths, chosen from the shape and rank alone
(svd_path): below LAPACK_MIN_DIM the full Jacobi SVD, sliced; above it
LAPACK's full SVD (numpy.linalg.svd), sliced, with the Jacobi SVD's
conventions; and, where the rank is small against a shape of at least
TOP_R_MIN_DIM, a seeded block power iteration whose Rayleigh-Ritz step takes
LAPACK's SVD of the small projection Q^T w. The Jacobi loop runs only below
LAPACK_MIN_DIM. Every path reports the residual certificate of the factors
it returns.

Everything operates on C-contiguous float64 numpy arrays and is deterministic:
identical input bytes always produce identical output bytes within one numpy,
BLAS and LAPACK build, which the checkpoint format relies on to rebuild frozen
factors from a seed.
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

# Singular values at or below this (relative to ||w||_F) carry no reliable
# direction and become exactly 0; the Jacobi SVD replaces their u columns by
# an orthonormal completion.
_DEFICIENT_REL = 1e-12

# Full LAPACK path: taken when min(d, k) >= LAPACK_MIN_DIM and the top-r path
# is not. Below it the Jacobi loop runs, whose factor bytes checkpoints of
# those shapes rebuild.
LAPACK_MIN_DIM = 128

# Top-r path: taken when min(d, k) >= TOP_R_MIN_DIM and 2 * (r + TOP_R_OVERSAMPLE)
# <= min(d, k). TOP_R_MIN_DIM is the smallest min(d, k) at which power
# iteration beat LAPACK's gesdd on decaying spectra (table in the README's
# "Scale"). A block of r + TOP_R_OVERSAMPLE columns, drawn from the fixed
# seed TOP_R_SEED (so the factors depend on w and r alone), goes through power
# iterations, each one product with w and one with w^T, re-orthonormalised by
# QR. Every TOP_R_CHECK_EVERY iterations LAPACK's SVD of the projection Q^T w,
# with jacobi_svd's null cut on its values, gives Ritz factors; they are
# certified once every pair has
# max(||w v_i - s_i u_i||, ||w^T u_i - s_i v_i||) <= TOP_R_TOL * s_1, and the
# loop stops uncertified after TOP_R_MAX_ITERATIONS.
TOP_R_MIN_DIM = 256
TOP_R_OVERSAMPLE = 8
TOP_R_TOL = 1e-12
TOP_R_CHECK_EVERY = 8
TOP_R_MAX_ITERATIONS = 512
TOP_R_SEED = 0x05057A


def as_real_array(a, name: str = "input") -> np.ndarray:
    """Coerce to a C-contiguous float64 array; InvalidConfig unless every entry is a real number."""
    try:
        arr = np.asarray(a)
        if arr.dtype.kind in "biufO":  # not complex, text or dates; an object entry must convert to float
            return np.ascontiguousarray(arr, dtype=np.float64)
    except (TypeError, ValueError):  # ragged nesting, or an entry with no real value
        pass
    raise InvalidConfig(f"{name} must be an array of real numbers, got {type(a).__name__}")


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-contiguous float64 2-D array with positive dimensions."""
    m = as_real_array(a, name)
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


def pow2_exponent(a: np.ndarray) -> int:
    """The e that puts the largest magnitude in a * 2**-e in [0.5, 1); 0 for a zero or empty a.

    Squares of that exact rescaling neither overflow nor underflow, so a norm taken on it is the
    plain norm, bit for bit, wherever a's own squares stay in range. Makes no temporary the size of a.
    """
    return math.frexp(max(float(a.max(initial=0.0)), -float(a.min(initial=0.0))))[1]


def fro_norm(a: np.ndarray) -> float:
    """||a||_F, squared on the power-of-two rescaling of pow2_exponent."""
    e = pow2_exponent(a)
    b = np.ldexp(a, -e)
    return float(np.ldexp(math.sqrt(float((b * b).sum())), e))


def check_fro_norm(a: np.ndarray, name: str = "input") -> None:
    """NonFiniteInput unless the finite a has a finite ||a||_F."""
    with np.errstate(over="ignore"):  # an overflow reads as Inf and is refused below
        if fro_norm(a) == math.inf:
            raise NonFiniteInput(f"{name} has a Frobenius norm past the largest float")


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
    iterations counts the Jacobi sweeps (jacobi path) or power iterations
    (top-r path) that ran, and is 0 on the LAPACK path; converged is False
    when the path stopped at its cap instead of at its convergence test.
    certificate is max_i max(||w v_i - s_i u_i||, ||w^T u_i - s_i v_i||) / s_1
    over the returned factors, and 0 for a zero w.
    """

    u_r: np.ndarray
    s_r: np.ndarray
    v_r: np.ndarray
    residual: np.ndarray
    rank: int
    iterations: int
    converged: bool
    certificate: float


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
    hit. The factor on the longer side (u when d >= k, v when d < k) carries
    the sign convention that each column's largest-magnitude entry is
    positive, with the other factor flipped to compensate.

    Null columns, at or below 1e-12 * ||w||_F, get s exactly 0, are never
    rotated against each other, and take their u columns from one complete QR
    of the kept ones. Neither path runs on full-rank input.
    """
    return _jacobi(w)[:3]


def _jacobi(w) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, bool]:
    """jacobi_svd's (u, s, v), the number of sweeps run, and whether they stopped below the cap."""
    m0 = as_matrix(w, "svd input")
    check_finite(m0, "svd input")
    d, k = m0.shape
    if d < k:
        v, s, u, sweeps, converged = _jacobi(np.ascontiguousarray(m0.T))
        return u, s, v, sweeps, converged

    check_fro_norm(m0, "svd input")
    # The sweep runs on pow2_exponent's rescaling of w and scales s back exactly,
    # so the factors keep an unscaled sweep's bytes wherever w's squares stay in range.
    e = pow2_exponent(m0)
    # a and v are the row blocks of one C-ordered (d+k) x k array, so one
    # rotation of a stacked column pair turns both. The a-block column views
    # keep a d x k array's stride, so the pair test's dots sum as before.
    av = np.empty((d + k, k))
    a, v = av[:d], av[d:]
    np.ldexp(m0, -e, out=a)
    v[...] = np.eye(k)
    fro = fro_norm(a)
    tol_abs = JACOBI_TOL * fro
    # A rotation never grows the smaller of its columns, so columns with squared
    # norms at most cutoff^2 / k hold at most cutoff^2 together and no rotation
    # among them lifts one above the cutoff: a pair of them is skipped. For the
    # same reason a null column p stays null through its row of pairs, so its
    # test is taken once per row.
    null_sq = (_DEFICIENT_REL * fro) ** 2 / k
    # Column views, bound once: the rotations update the stacked ones, and so
    # a and v, in place through two scratch columns allocated once per call.
    a_cols = [a[:, j] for j in range(k)]
    av_cols = [av[:, j] for j in range(k)]
    t1, t2 = np.empty(d + k), np.empty(d + k)
    sweeps, converged = 0, fro == 0.0
    if fro > 0.0:
        for sweeps in range(1, JACOBI_MAX_SWEEPS + 1):
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
                ap_col, p_col = a_cols[p], av_cols[p]
                sq_p = sq[p]
                p_null = sq_p <= null_sq
                for q in range(p + 1, k):
                    sq_q = sq[q]
                    if p_null and sq_q <= null_sq:
                        continue
                    gamma = float(ap_col @ a_cols[q])
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
                    # One stacked pair in place through the scratch columns,
                    # with the same four products and two sums of the old
                    # values as p' = c*p - s*q and q' = s*p + c*q, so the
                    # factor bytes that checkpoints rebuild are unchanged.
                    q_col = av_cols[q]
                    np.multiply(p_col, s, out=t1)
                    np.multiply(q_col, s, out=t2)
                    q_col *= c
                    q_col += t1
                    p_col *= c
                    p_col -= t2
                    sq_p = sq[p] = max(sq_p - t * gamma, 0.0)
                    sq[q] = max(sq_q + t * gamma, 0.0)
            if rotations == 0:
                converged = True
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
    s_vals = np.ldexp(s_vals, e)
    if kept < k:
        _fill_deficient_columns(u, kept)

    _fix_signs(u, v)

    return (np.ascontiguousarray(u), np.ascontiguousarray(s_vals), np.ascontiguousarray(v), sweeps, converged)


def _fix_signs(u: np.ndarray, v: np.ndarray) -> None:
    # Largest-magnitude entry of each u column positive, v flipped to match
    # (argmax takes the first of tied entries; negation is exact).
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0.0
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0


def svd_path(d: int, k: int, r: int) -> str:
    """The SVD path svd_truncated takes for a d x k weight at rank r: "jacobi", "lapack" or "top_r"."""
    m = min(d, k)
    if m < LAPACK_MIN_DIM:
        return "jacobi"
    return "top_r" if m >= TOP_R_MIN_DIM and 2 * (r + TOP_R_OVERSAMPLE) <= m else "lapack"


def _rel_residual(a: np.ndarray, v: np.ndarray, u: np.ndarray, s: np.ndarray) -> float:
    """max_i ||a v_i - s_i u_i|| / s_1, divided before squaring so a tiny a does not underflow to 0."""
    return float(np.sqrt((((a @ v - u * s) / s[0]) ** 2).sum(axis=0)).max())


def _certificate(a: np.ndarray, u: np.ndarray, s: np.ndarray, v: np.ndarray) -> float:
    """max of both relative residuals of the factors (u, s, v) of a; 0 when s_1 = 0, a zero a's exact case."""
    return 0.0 if s[0] == 0.0 else max(_rel_residual(a, v, u, s), _rel_residual(a.T, u, v, s))


def _lapack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """jacobi_svd's (u, s, v) of a finite matrix, by LAPACK's gesdd, with the Jacobi SVD's conventions.

    It runs on the tall side, takes the null cut, completes the null columns of
    u by _fill_deficient_columns and fixes the signs on the longer side. The kept
    columns are exactly 0 on a's all-zero rows (of u) and columns (of v), as the
    Jacobi sweep leaves them, where gesdd leaves roundoff.
    """
    d, k = a.shape
    if d < k:
        v, s, u = _lapack(np.ascontiguousarray(a.T))
        return u, s, v
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    v = np.ascontiguousarray(vt.T)
    kept = int((s > _DEFICIENT_REL * fro_norm(a)).sum())  # jacobi_svd's null cut; a prefix, as s is sorted
    s[kept:] = 0.0
    u[~a.any(axis=1), :kept] = 0.0
    v[~a.any(axis=0), :kept] = 0.0
    if kept < k:
        _fill_deficient_columns(u, kept)
    _fix_signs(u, v)
    return u, s, v


def _top_r(a: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, float]:
    """Top-r (u, s, v) of a finite matrix by seeded block power iteration.

    Also returns the iterations run and the certificate of the factors returned.
    """
    d, k = a.shape
    if d < k:  # run on the tall side, so the sign convention lands where jacobi_svd puts it
        v, s, u, iterations, certificate = _top_r(np.ascontiguousarray(a.T), r)
        return u, s, v, iterations, certificate
    at = a.T
    q = np.random.default_rng(TOP_R_SEED).standard_normal((k, r + TOP_R_OVERSAMPLE))
    for iterations in range(1, TOP_R_MAX_ITERATIONS + 1):
        q, _ = np.linalg.qr(a @ q)
        if iterations % TOP_R_CHECK_EVERY == 0 or iterations == TOP_R_MAX_ITERATIONS:
            b = q.T @ a
            ub, sb, vbt = np.linalg.svd(b, full_matrices=False)
            sb[sb <= _DEFICIENT_REL * fro_norm(b)] = 0.0  # jacobi_svd's null cut
            u, s, v = q @ ub[:, :r], sb[:r], vbt[:r].T
            certificate = _certificate(a, u, s, v)
            if certificate <= TOP_R_TOL or iterations == TOP_R_MAX_ITERATIONS:
                break
        q, _ = np.linalg.qr(at @ q)
    _fix_signs(u, v)
    return u, s, v, iterations, certificate


def svd_truncated(w, r: int) -> SvdFactors:
    """Top-r singular factors of w and the residual w - u_r @ diag(s_r) @ v_r.T.

    The path comes from svd_path: the factors are the leading columns of
    jacobi_svd below LAPACK_MIN_DIM, and of LAPACK's full SVD with the same
    conventions above it, where iterations is 0; at top-r shapes they come
    from the power iteration, which reports in `converged` whether its
    certificate met TOP_R_TOL. Every path runs on pow2_exponent's rescaling
    of w, so no product overflows and the Jacobi factors keep their bytes.
    The residual is exact for the factors returned.
    """
    check_integers(rank=r)
    m = as_matrix(w, "svd input")
    max_rank = min(m.shape)
    if r < 1 or r > max_rank:
        raise RankOutOfRange(f"rank {r} outside [1, {max_rank}] for shape {m.shape}")
    check_finite(m, "svd input")
    check_fro_norm(m, "svd input")
    e = pow2_exponent(m)
    a = np.ldexp(m, -e)
    path = svd_path(*m.shape, r)
    if path == "top_r":
        u, s, v, iterations, certificate = _top_r(a, r)
        converged = certificate <= TOP_R_TOL
    elif path == "lapack":
        u, s, v = _lapack(a)
        iterations, converged = 0, True
    else:
        u, s, v, iterations, converged = _jacobi(a)
    u_r, s_r, v_r = u[:, :r].copy(), s[:r].copy(), v[:, :r].copy()  # each owns exactly its entries
    if path != "top_r":
        certificate = _certificate(a, u_r, s_r, v_r)
    s_r = np.ldexp(s_r, e)
    residual = m - (u_r * s_r) @ v_r.T
    return SvdFactors(
        u_r=u_r,
        s_r=s_r,
        v_r=v_r,
        residual=residual,
        rank=r,
        iterations=iterations,
        converged=converged,
        certificate=certificate,
    )
