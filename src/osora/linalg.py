"""Dense linear algebra kernels: one-sided Jacobi SVD, top-r SVD and seeded generators.

Every SVD runs one pipeline. The input is checked and rescaled by the power of
two that puts its largest magnitude in [0.5, 1) (pow2_exponent), so no product
overflows and the factors keep their bytes under any power-of-two scaling of w.
_factor hands the tall side (w or w^T) to one of three kernels, chosen from
the shape and rank alone (svd_path): below LAPACK_MIN_DIM the one-sided Jacobi
sweep; above it LAPACK's full SVD (numpy.linalg.svd); and, where the rank is
small against a shape of at least TOP_R_MIN_DIM, a seeded block power
iteration whose Rayleigh-Ritz step takes LAPACK's SVD of the small projection
Q^T w. A kernel only factors. _factor finishes every path alike: values at or
below 1e-12 * ||w||_F become exactly 0 (the null cut); the kept columns are
exactly 0 on w's all-zero rows (of u) and columns (of v); one complete QR of
the kept columns of u completes the null ones; and each column of the factor
on the longer side gets its largest-magnitude entry positive. svd_truncated
slices the finished factors and reports the residual certificate of the ones
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
# direction and become exactly 0; _factor replaces their u columns by an
# orthonormal completion.
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
# QR. Every TOP_R_CHECK_EVERY iterations LAPACK's SVD of the projection Q^T w
# gives Ritz factors; they are certified once every pair has
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
    and residual = w - u_r @ diag(s_r) @ v_r.T at construction time. Every
    path finishes its factors alike (see the module docstring): null values
    exactly 0 with their u columns completed by QR, exact zeros on w's
    all-zero rows and columns, signs fixed on the longer side.
    iterations counts the Jacobi sweeps (jacobi path) or power iterations
    (top-r path) that ran, and is 0 on the LAPACK path; converged is False
    when the kernel stopped at its cap instead of at its convergence test.
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


def _fix_signs(u: np.ndarray, v: np.ndarray) -> None:
    # Largest-magnitude entry of each u column positive, v flipped to match
    # (argmax takes the first of tied entries; negation is exact).
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0.0
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0


def _svd_input(w) -> tuple[np.ndarray, int]:
    """(w * 2**-e, e) with e = pow2_exponent(w); NonFiniteInput unless w and ||w||_F are finite."""
    m = as_matrix(w, "svd input")
    check_finite(m, "svd input")
    check_fro_norm(m, "svd input")
    e = pow2_exponent(m)
    return np.ldexp(m, -e), e


def _factor(a: np.ndarray, path: str, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, bool]:
    """(u, s, v, iterations, converged) of a checked, rescaled a, by the kernel of `path`.

    The kernel factors a's tall side; this finishes its factors alike on every
    path (see the module docstring) and returns u and v contiguous.
    """
    wide = a.shape[0] < a.shape[1]
    t = np.ascontiguousarray(a.T) if wide else a
    # Looked up at each call, so a kernel replaced on the module is the one that runs.
    kernel = {"jacobi": _jacobi, "lapack": _lapack, "top_r": _top_r}[path]
    u, s, v, iterations, converged = kernel(t, r)
    kept = int((s > _DEFICIENT_REL * fro_norm(t)).sum())  # the null cut; a prefix, as s is descending
    s[kept:] = 0.0
    # Exact zeros where t is zero, as the Jacobi sweep leaves them and gesdd and the power iteration do not.
    u[~t.any(axis=1), :kept] = 0.0
    v[~t.any(axis=0), :kept] = 0.0
    if kept < s.size:
        _fill_deficient_columns(u, kept)
    _fix_signs(u, v)
    if wide:
        u, v = v, u
    return np.ascontiguousarray(u), s, np.ascontiguousarray(v), iterations, converged


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
    a, e = _svd_input(w)
    u, s, v, _, _ = _factor(a, "jacobi", min(a.shape))
    return u, np.ldexp(s, e), v


def _jacobi(m: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, bool]:
    """Jacobi factors (u, s, v) of all of the tall m, the sweeps run, and whether they stopped below the cap.

    u holds the swept columns over their norms s, sorted descending; a column
    of norm 0 is divided by 1.
    """
    d, k = m.shape
    # a and v are the row blocks of one C-ordered (d+k) x k array, so one
    # rotation of a stacked column pair turns both. The a-block column views
    # keep a d x k array's stride, so the pair test's dots sum as before.
    av = np.empty((d + k, k))
    a, v = av[:d], av[d:]
    a[...] = m
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
    s_vals = norms[order]
    return a[:, order] / np.where(s_vals > 0.0, s_vals, 1.0), s_vals, v[:, order], sweeps, converged


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


def _lapack(a: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, bool]:
    """LAPACK's gesdd factors (u, s, v) of all of a, in 0 iterations."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return u, s, vt.T, 0, True


def _top_r(a: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, bool]:
    """Top-r (u, s, v) of a by seeded block power iteration, the iterations run, and whether they were certified."""
    at = a.T
    q = np.random.default_rng(TOP_R_SEED).standard_normal((a.shape[1], r + TOP_R_OVERSAMPLE))
    for iterations in range(1, TOP_R_MAX_ITERATIONS + 1):
        q, _ = np.linalg.qr(a @ q)
        if iterations % TOP_R_CHECK_EVERY == 0 or iterations == TOP_R_MAX_ITERATIONS:
            ub, sb, vbt = np.linalg.svd(q.T @ a, full_matrices=False)
            u, s, v = q @ ub[:, :r], sb[:r], vbt[:r].T
            converged = _certificate(a, u, s, v) <= TOP_R_TOL
            if converged or iterations == TOP_R_MAX_ITERATIONS:
                break
        q, _ = np.linalg.qr(at @ q)
    return u, s, v, iterations, converged


def svd_truncated(w, r: int) -> SvdFactors:
    """Top-r singular factors of w and the residual w - u_r @ diag(s_r) @ v_r.T.

    The kernel comes from svd_path; the factors are the leading r columns of
    the pipeline's finished ones. `converged` reports whether the kernel met
    its convergence test, and the certificate is that of the factors returned.
    The residual is exact for them.
    """
    check_integers(rank=r)
    m = as_matrix(w, "svd input")
    max_rank = min(m.shape)
    if r < 1 or r > max_rank:
        raise RankOutOfRange(f"rank {r} outside [1, {max_rank}] for shape {m.shape}")
    a, e = _svd_input(m)
    u, s, v, iterations, converged = _factor(a, svd_path(*m.shape, r), r)
    u_r, s_r, v_r = u[:, :r].copy(), s[:r].copy(), v[:, :r].copy()  # each owns exactly its entries
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
