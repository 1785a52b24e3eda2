import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osora import (
    AdapterMethod,
    DimensionMismatch,
    InvalidConfig,
    NonFiniteInput,
    RankOutOfRange,
    build_adapter,
    forward,
    jacobi_svd,
    random_matrix,
    svd_truncated,
)
from conftest import SVD_PATH_CASES, truncation_residual
from osora import linalg
from osora.checkpoint import _SVD_PATH_CODES
from osora.cli import main, write_matrix
from osora.linalg import JACOBI_MAX_SWEEPS, svd_path


def reassembly_error(w, f):
    # oracle: rebuild w from the truncated factors plus the residual
    rebuilt = (f.u_r * f.s_r) @ f.v_r.T + truncation_residual(w, f)
    return np.sqrt(((rebuilt - w) ** 2).sum())


class TestSvdTruncated:
    def test_identity_full_rank(self):
        f = svd_truncated(np.eye(2), 2)
        assert np.allclose(f.s_r, [1.0, 1.0])
        assert np.abs(truncation_residual(np.eye(2), f)).max() <= 1e-15

    def test_diagonal_rank_one_is_forced(self):
        f = svd_truncated(np.diag([3.0, 1.0]), 1)
        assert f.s_r.tolist() == [3.0]
        assert f.u_r.ravel().tolist() == [1.0, 0.0]
        assert f.v_r.ravel().tolist() == [1.0, 0.0]
        assert np.array_equal(truncation_residual(np.diag([3.0, 1.0]), f), np.diag([0.0, 1.0]))

    def test_seeded_reassembly(self):
        w = random_matrix(8, 6, 11, "gaussian")
        f = svd_truncated(w, 3)
        assert reassembly_error(w, f) <= 1e-10

    def test_full_rank_residual_is_zero(self):
        w = random_matrix(9, 12, 4, "uniform_scaled")
        f = svd_truncated(w, 9)
        assert np.abs(truncation_residual(w, f)).max() <= 1e-10

    def test_singular_values_descending_nonnegative(self):
        w = random_matrix(15, 10, 2, "gaussian")
        f = svd_truncated(w, 10)
        assert (f.s_r >= 0).all()
        assert (np.diff(f.s_r) <= 0).all()

    def test_sign_convention(self):
        u, _, _ = jacobi_svd(random_matrix(12, 7, 8, "gaussian"))
        for j in range(u.shape[1]):
            assert u[np.argmax(np.abs(u[:, j])), j] > 0

    def test_rank_out_of_range(self):
        w = np.eye(3)
        with pytest.raises(RankOutOfRange):
            svd_truncated(w, 0)
        with pytest.raises(RankOutOfRange):
            svd_truncated(w, 4)

    def test_non_integer_rank(self):
        with pytest.raises(InvalidConfig):
            svd_truncated(np.eye(3), 2.5)

    def test_boolean_rank(self):
        with pytest.raises(InvalidConfig):
            svd_truncated(np.eye(3), True)

    def test_non_finite_input(self):
        w = np.eye(3)
        w[1, 1] = np.nan
        with pytest.raises(NonFiniteInput):
            svd_truncated(w, 1)

    @pytest.mark.parametrize("w", [np.ones(3), np.empty((0, 3)), np.empty((3, 0))], ids=["1d", "no_rows", "no_cols"])
    def test_weight_that_is_no_matrix(self, w):
        with pytest.raises(DimensionMismatch):
            svd_truncated(w, 1)

    @pytest.mark.parametrize("path,d,k,r", SVD_PATH_CASES)
    def test_norm_past_the_squarable_range_is_refused(self, path, d, k, r):
        # At 1e100 and 1e200 the squares of ||w||_F overflow, but every path
        # runs on a power-of-two rescaling, so the factors are right, also at
        # ||w||_F = 1.5e308. Only a weight whose ||w||_F itself overflows is
        # refused: its entries are finite, but sigma_1 may not be.
        base = random_matrix(d, k, 3, "gaussian")
        for w in (base * 1e100, base * 1e200, base / np.linalg.norm(base) * 1.5e308):
            f = svd_truncated(w, r)
            assert f.converged
            assert np.abs(f.s_r - np.linalg.svd(w, compute_uv=False)[:r]).max() <= 1e-12 * f.s_r[0]
        huge = base / np.abs(base).max() * 1e308
        with pytest.raises(NonFiniteInput):
            svd_truncated(huge, r)
        with pytest.raises(NonFiniteInput):
            jacobi_svd(huge)

    @pytest.mark.parametrize("scale", [1e-100, 1e-160, 1e-200, 1e-300])
    @pytest.mark.parametrize("path,d,k,r", SVD_PATH_CASES)
    def test_tiny_weights_decompose(self, path, d, k, r, scale):
        # The squared norms of these weights underflow. Unscaled, the sweep
        # returned s_r = 0 or stopped at its cap, and a certificate taken
        # unscaled passed on residuals that had underflowed, all marked converged.
        w = random_matrix(d, k, 3, "gaussian") * scale
        f = svd_truncated(w, r)
        s = np.linalg.svd(w, compute_uv=False)
        assert f.converged
        assert np.abs(f.s_r - s[:r]).max() <= 1e-12 * s[0]
        assert np.abs(f.u_r.T @ f.u_r - np.eye(r)).max() <= 1e-12
        assert np.abs(f.v_r.T @ f.v_r - np.eye(r)).max() <= 1e-12

    def test_rank_deficient_input_keeps_orthonormal_factors(self):
        # rank-1 matrix decomposed at full requested rank
        w = np.outer(np.arange(1.0, 5.0), np.arange(1.0, 4.0))
        f = svd_truncated(w, 3)
        assert np.abs(f.u_r.T @ f.u_r - np.eye(3)).max() <= 1e-10
        assert np.abs(f.v_r.T @ f.v_r - np.eye(3)).max() <= 1e-10
        assert reassembly_error(w, f) <= 1e-10

    def test_zero_matrix(self):
        f = svd_truncated(np.zeros((4, 3)), 2)
        assert f.s_r.tolist() == [0.0, 0.0]
        assert np.abs(f.u_r.T @ f.u_r - np.eye(2)).max() == 0.0


class TestSvdProperties:
    @pytest.mark.parametrize("d,k,seed", [(16, 12, 0), (12, 16, 1), (25, 25, 2), (40, 9, 3), (7, 31, 4)])
    def test_orthonormality(self, d, k, seed):
        w = random_matrix(d, k, seed, "gaussian")
        f = svd_truncated(w, min(d, k))
        r = f.rank
        assert np.abs(f.u_r.T @ f.u_r - np.eye(r)).max() <= 1e-10
        assert np.abs(f.v_r.T @ f.v_r - np.eye(r)).max() <= 1e-10

    @pytest.mark.parametrize("d,k,seed", [(20, 14, 5), (32, 32, 6), (10, 24, 7)])
    def test_full_reconstruction(self, d, k, seed):
        w = random_matrix(d, k, seed, "gaussian")
        u, s, v = jacobi_svd(w)
        err = np.sqrt((((u * s) @ v.T - w) ** 2).sum()) / np.sqrt((w * w).sum())
        assert err <= 1e-12

    def test_known_spectrum(self, rng):
        # assemble w = Q1 diag(sigma) Q2^T from independent orthogonal factors
        q1 = np.linalg.qr(rng.standard_normal((18, 18)))[0]
        q2 = np.linalg.qr(rng.standard_normal((13, 13)))[0]
        sigma = np.geomspace(4.0, 0.02, 13)
        w = (q1[:, :13] * sigma) @ q2.T
        _, s, _ = jacobi_svd(w)
        assert np.abs(s - sigma).max() / np.abs(sigma).max() <= 1e-8

    def test_deterministic_bytes(self):
        w = random_matrix(14, 9, 21, "uniform_scaled")
        a = jacobi_svd(w)
        b = jacobi_svd(w.copy())
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 7),
        k=st.integers(1, 7),
        seed=st.integers(0, 2**16),
        entries=st.integers(0, 4),
    )
    def test_invariants_on_arbitrary_small_matrices(self, d, k, seed, entries):
        # coarse integer-grid entries so exact rank deficiency shows up often
        w = np.random.default_rng(seed).integers(-entries, entries + 1, size=(d, k)).astype(float)
        r = min(d, k)
        f = svd_truncated(w, r)
        assert np.abs(f.u_r.T @ f.u_r - np.eye(r)).max() <= 1e-10
        assert np.abs(f.v_r.T @ f.v_r - np.eye(r)).max() <= 1e-10
        assert (np.diff(f.s_r) <= 1e-12).all()
        assert reassembly_error(w, f) <= 1e-10 * (1.0 + np.abs(w).max())
        assert np.isfinite(f.u_r).all() and np.isfinite(truncation_residual(w, f)).all()

    @pytest.mark.parametrize("tall", [True, False])
    @settings(max_examples=25, deadline=None)
    @given(
        short=st.integers(6, 16),
        extra=st.integers(0, 8),
        r=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_exact_low_rank_products(self, tall, short, extra, r, seed):
        # A(d x r) @ B(r x k) has exactly r nonzero singular values; the null
        # columns it leaves behind are where the running squared norms drift.
        # Their values are exactly 0, their u columns come from the QR
        # completion, and a rerun gives the same bytes.
        d, k = (short + extra, short) if tall else (short, short + extra)
        w = random_matrix(d, r, (seed, 1), "gaussian") @ random_matrix(r, k, (seed, 2), "gaussian")
        u, s, v = jacobi_svd(w)
        m = min(d, k)
        assert np.abs(u.T @ u - np.eye(m)).max() <= 1e-12
        assert np.abs(v.T @ v - np.eye(m)).max() <= 1e-12
        assert (s[:r] > 0.0).all() and (s[r:] == 0.0).all()
        assert np.sqrt((((u * s) @ v.T - w) ** 2).sum()) <= 1e-10 * np.sqrt((w * w).sum())
        again = jacobi_svd(w.copy())
        assert all(a.tobytes() == b.tobytes() for a, b in zip((u, s, v), again))


def _zero_rows(d, k, rows, seed):
    w = random_matrix(d, k, seed, "gaussian")
    w[rows, :] = 0.0
    return w


def _zero_cols(d, k, cols, seed):
    w = random_matrix(d, k, seed, "gaussian")
    w[:, cols] = 0.0
    return w


def _repeated(d, k, r, seed):
    # 2.5 times an orthogonal matrix, masked to r columns: r equal singular values
    q = np.linalg.qr(random_matrix(d, d, (seed, 1), "gaussian"))[0]
    mask = np.zeros((d, k))
    mask[np.arange(r), np.arange(r)] = 1.0
    return (2.5 * q) @ mask @ np.linalg.qr(random_matrix(k, k, (seed, 2), "gaussian"))[0]


class TestDeficientPath:
    """jacobi_svd's full factors over null columns: s exactly 0, u completed by QR, orthonormal and rerun-stable."""

    @staticmethod
    def check(w, rank):
        u, s, v = jacobi_svd(w)
        eye = np.eye(min(w.shape))
        assert np.abs(u.T @ u - eye).max() <= 1e-12
        assert np.abs(v.T @ v - eye).max() <= 1e-12
        assert np.abs(u[:, :rank].T @ u[:, rank:]).max(initial=0.0) <= 1e-12  # filled against kept
        assert (s[:rank] > 0.0).all() and (s[rank:] == 0.0).all()
        again = jacobi_svd(w.copy())
        assert all(a.tobytes() == b.tobytes() for a, b in zip((u, s, v), again))
        return u, s, v

    @pytest.mark.parametrize(
        "w,rank",
        [
            (_zero_rows(14, 10, [0, 3, 4, 8, 9, 13], 51), 8),
            (_zero_rows(10, 14, [2, 5, 7], 52), 7),
            (_zero_cols(14, 10, [1, 6], 53), 8),
            (_zero_cols(10, 14, [0, 2, 3, 9, 11, 12], 54), 8),
        ],
        ids=["tall_zero_rows", "wide_zero_rows", "tall_zero_cols", "wide_zero_cols"],
    )
    def test_zero_rows_and_columns(self, w, rank):
        self.check(w, rank)

    @pytest.mark.parametrize("d,k,r", [(20, 12, 5), (12, 20, 5), (16, 16, 9)])
    def test_repeated_singular_values(self, d, k, r):
        w = _repeated(d, k, r, 55)
        _, s, _ = self.check(w, r)
        assert np.abs(s[:r] - 2.5).max() <= 1e-12

    @pytest.mark.parametrize("shape", [(7, 4), (4, 7)], ids=["tall", "wide"])
    def test_all_zero(self, shape):
        self.check(np.zeros(shape), 0)


@pytest.mark.pinned
def test_full_rank_factor_bytes_are_pinned():
    # SHA-256 of jacobi_svd's (u, s, v) over seeded full-rank inputs. No column
    # of these comes near the deficiency cutoff, so the bytes are those of the
    # plain cyclic sweep: the null-pair skip and the QR completion never run.
    # They hold only where they were recorded: numpy 2.4.6 with its bundled
    # OpenBLAS 0.3.31, Python 3.11, x86-64. Another numpy or BLAS build may sum
    # in another order and move them while the code is correct; re-record them
    # there. test_deterministic_bytes checks run-to-run equality anywhere.
    h = hashlib.sha256()
    for i, (d, k) in enumerate([(64, 64), (16, 64), (56, 56), (8, 56), (40, 28), (33, 7), (12, 16)]):
        for arr in jacobi_svd(random_matrix(d, k, (60, i), ("gaussian", "uniform_scaled")[i % 2])):
            h.update(arr.tobytes())
    assert h.hexdigest() == "bca5375c0b417bed3a3ed83efa9a20e8925e2775a404231974c0054e25b7fe74"


def _low_rank(d, k, r, seed):
    return random_matrix(d, r, (seed, 1), "gaussian") @ random_matrix(r, k, (seed, 2), "gaussian")


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["low_rank", "repeated", "zero_rows"]),
    tall=st.booleans(),
    seed=st.integers(0, 2**16),
    j=st.integers(-900, 200),
)
def test_power_of_two_scaling_is_exact(kind, tall, seed, j):
    # The sweep runs on w scaled so its largest entry is in [0.5, 1): 2**j * w
    # runs the same sweep, so u and v keep their bytes and s scales exactly.
    d, k = (10, 7) if tall else (7, 10)
    w = {
        "low_rank": lambda: _low_rank(d, k, 3, seed),
        "repeated": lambda: _repeated(d, k, 4, seed),
        "zero_rows": lambda: _zero_rows(d, k, [1, 4], seed),
    }[kind]()
    u, s, v = jacobi_svd(w)
    u2, s2, v2 = jacobi_svd(2.0**j * w)
    assert u2.tobytes() == u.tobytes() and v2.tobytes() == v.tobytes()
    assert s2.tobytes() == (2.0**j * s).tobytes()


def _two_array_jacobi(w):
    # Reference: the sweep with a and v as two arrays, each rotation updating
    # both through four scratch columns. The library's stacked [a; v] sweep
    # must give the same bytes.
    m0 = np.ascontiguousarray(w, dtype=np.float64)
    d, k = m0.shape
    if d < k:
        v, s, u, sweeps, converged = _two_array_jacobi(np.ascontiguousarray(m0.T))
        return u, s, v, sweeps, converged
    e = math.frexp(float(np.abs(m0).max()))[1]
    a = np.ldexp(m0, -e)
    v = np.eye(k)
    fro = math.sqrt(float((a * a).sum()))
    tol_abs = linalg.JACOBI_TOL * fro
    null_sq = (linalg._DEFICIENT_REL * fro) ** 2 / k
    a_cols = [a[:, j] for j in range(k)]
    v_cols = [v[:, j] for j in range(k)]
    a_t1, a_t2 = np.empty(d), np.empty(d)
    v_t1, v_t2 = np.empty(k), np.empty(k)
    sweeps, converged = 0, fro == 0.0
    if fro > 0.0:
        for sweeps in range(1, JACOBI_MAX_SWEEPS + 1):
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
                    if abs_gamma <= tol_abs and abs_gamma <= linalg.JACOBI_TOL * scale:
                        continue
                    if abs_gamma <= linalg._ROUNDOFF_FLOOR * scale:
                        continue
                    rotations += 1
                    zeta = (sq_q - sq_p) / (2.0 * gamma)
                    t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                    c = 1.0 / math.sqrt(1.0 + t * t)
                    s = t * c
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
                converged = True
                break
    norms = np.sqrt((a * a).sum(axis=0))
    order = np.argsort(-norms, kind="stable")
    a, v, s_vals = a[:, order], v[:, order], norms[order]
    kept = int((s_vals > linalg._DEFICIENT_REL * fro).sum())
    s_vals[kept:] = 0.0
    u = np.zeros((d, k))
    u[:, :kept] = a[:, :kept] / s_vals[:kept]
    s_vals = np.ldexp(s_vals, e)
    if kept < k:
        linalg._fill_deficient_columns(u, kept)
    linalg._fix_signs(u, v)
    return u, s_vals, v, sweeps, converged


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["full_rank", "low_rank", "repeated", "zero_rows", "zero_cols"]),
    short=st.integers(2, 14),
    extra=st.integers(0, 10),
    tall=st.booleans(),
    seed=st.integers(0, 2**16),
    j=st.integers(-900, 200),
)
def test_stacked_sweep_matches_the_two_array_sweep(kind, short, extra, tall, seed, j):
    d, k = (short + extra, short) if tall else (short, short + extra)
    r = max(1, short // 3)
    w = {
        "full_rank": lambda: random_matrix(d, k, seed, ("gaussian", "uniform_scaled")[seed % 2]),
        "low_rank": lambda: _low_rank(d, k, r, seed),
        "repeated": lambda: _repeated(d, k, r, seed),
        "zero_rows": lambda: _zero_rows(d, k, list(range(0, d, 3)), seed),
        "zero_cols": lambda: _zero_cols(d, k, list(range(1, k, 3)), seed),
    }[kind]() * 2.0**j
    a, e = linalg._svd_input(w)
    u, s, v, sweeps, converged = linalg._factor(a, "jacobi")
    got, want = (u, np.ldexp(s, e), v, sweeps, converged), _two_array_jacobi(w)
    for name, x, y in zip("usv", got, want):
        assert x.tobytes() == y.tobytes(), name
    assert got[3:] == want[3:]


@pytest.mark.pinned
def test_deficient_factor_bytes_are_pinned():
    # SHA-256 of jacobi_svd's (u, s, v) over seeded inputs that take the
    # null-pair skip and the QR completion (exact low-rank products, a zero row
    # and column, all zeros), a repeated spectrum, and one full-rank shape with
    # k >= 80. Same build caveat as test_full_rank_factor_bytes_are_pinned.
    zero_row_and_col = _zero_rows(18, 12, [5], 72)
    zero_row_and_col[:, 7] = 0.0
    inputs = [
        _low_rank(26, 14, 3, 70),
        _low_rank(14, 26, 4, 71),
        zero_row_and_col,
        np.zeros((9, 6)),
        _repeated(20, 12, 5, 73),
        random_matrix(96, 80, (74, 0), "uniform_scaled"),
    ]
    h = hashlib.sha256()
    for w in inputs:
        for arr in jacobi_svd(w):
            h.update(arr.tobytes())
    assert h.hexdigest() == "c216dd0a6e7201da74525645c576e6ce5d6be727ca4a2914f2b61f288df47ba6"


def _assert_own_memory(w, outputs):
    # owndata: no factor is a view that keeps a larger work array alive.
    for i, arr in enumerate(outputs):
        assert arr.flags.c_contiguous and arr.flags.writeable and arr.flags.owndata
        assert not np.shares_memory(arr, w)
        for other in outputs[i + 1 :]:
            assert not np.shares_memory(arr, other)


_OWN_MEMORY_INPUTS = {
    "tall": random_matrix(12, 7, 80, "gaussian"),
    "wide": random_matrix(7, 12, 81, "gaussian"),
    "tall_deficient": _low_rank(12, 7, 2, 82),
    "wide_deficient": _low_rank(7, 12, 3, 83),
}


@pytest.mark.parametrize("w", _OWN_MEMORY_INPUTS.values(), ids=_OWN_MEMORY_INPUTS.keys())
def test_outputs_own_their_memory(w):
    # Each output is a fresh array: no scratch column or view of the input may leak out.
    before = w.tobytes()
    first, second = jacobi_svd(w), jacobi_svd(w)
    assert w.tobytes() == before
    _assert_own_memory(w, [*first, *second])


_OWN_MEMORY_TRUNCATED = {
    **{name: (w, 3) for name, w in _OWN_MEMORY_INPUTS.items()},
    "wide_full_rank": (random_matrix(7, 12, 84, "gaussian"), 7),
    **{
        f"{p}_{'tall' if d > k else 'wide'}": (random_matrix(d, k, 85, "gaussian"), r)
        for p, d, k, r in (case.values for case in SVD_PATH_CASES)
    },
}


@pytest.mark.parametrize("w,r", _OWN_MEMORY_TRUNCATED.values(), ids=_OWN_MEMORY_TRUNCATED.keys())
def test_truncated_outputs_own_their_memory(w, r):
    # Each factor owns exactly its own entries: s_r is no view of the full spectrum.
    before = w.tobytes()
    first, second = svd_truncated(w, r), svd_truncated(w, r)
    assert w.tobytes() == before
    outputs = [arr for f in (first, second) for arr in (f.u_r, f.s_r, f.v_r)]
    _assert_own_memory(w, outputs)
    for arr in outputs:
        assert arr.base is None or arr.base.size == arr.size


def _known_spectrum(d, k, sigma, seed):
    # Two Householder reflections on each side of diag(sigma): an exact, stated
    # spectrum and dense singular vectors, built in O(dk) memory and time.
    rng = np.random.default_rng(seed)
    w = np.zeros((d, k))
    w[np.arange(sigma.size), np.arange(sigma.size)] = sigma
    for _ in range(2):
        h = rng.standard_normal(d)
        h /= np.linalg.norm(h)
        w -= 2.0 * np.outer(h, h @ w)
        g = rng.standard_normal(k)
        g /= np.linalg.norm(g)
        w -= 2.0 * np.outer(w @ g, g)
    return w


def _assert_certified(w, f):
    """The top-r factors: orthonormal, sign-fixed on the longer side, meeting the residual certificate."""
    r = f.rank
    eye = np.eye(r)
    assert f.converged
    assert np.abs(f.u_r.T @ f.u_r - eye).max() <= 1e-12
    assert np.abs(f.v_r.T @ f.v_r - eye).max() <= 1e-12
    s1 = f.s_r[0]
    assert np.sqrt(((w @ f.v_r - f.u_r * f.s_r) ** 2).sum(axis=0)).max() <= 1e-12 * s1
    assert np.sqrt(((w.T @ f.u_r - f.v_r * f.s_r) ** 2).sum(axis=0)).max() <= 1e-12 * s1
    lead = f.u_r if w.shape[0] >= w.shape[1] else f.v_r
    assert (lead[np.argmax(np.abs(lead), axis=0), np.arange(r)] > 0.0).all()
    assert reassembly_error(w, f) <= 1e-12 * np.sqrt((w * w).sum())


def _no_jacobi(a):
    raise AssertionError("svd_truncated ran the Jacobi SVD at min(d, k) >= 128")


def test_svd_path_cases_cover_every_path():
    # Every path a checkpoint can name (less the two retired top-r paths) has
    # one tall and one wide row, each on its own path: a new kernel or a moved
    # cut-over fails here, not in the tests that take the rows.
    rows = [case.values for case in SVD_PATH_CASES]
    paths = set(_SVD_PATH_CODES) - {"top_r_jacobi_ritz", "top_r"}
    assert {path for path, *_ in rows} == paths
    for path in paths:
        assert sorted(d > k for p, d, k, _ in rows if p == path) == [False, True], path
    for path, d, k, r in rows:
        assert svd_path(d, k) == path, (d, k, r)


def _path_rows(path):
    """One path's (d, k, r) rows of SVD_PATH_CASES, keyed tall and wide."""
    rows = (case.values for case in SVD_PATH_CASES)
    return {("tall" if d > k else "wide"): (d, k, r) for p, d, k, r in rows if p == path}


class _EveryPath:
    """What _factor's shared finish gives on every path.

    Each path's class runs these tests on its own two rows of SVD_PATH_CASES;
    test_matches_lapack also takes the class's more_inputs.
    """

    path = ""
    more_inputs = {}

    def pytest_generate_tests(self, metafunc):
        rows = _path_rows(self.path)
        if "row" in metafunc.fixturenames:
            metafunc.parametrize("row", rows.values(), ids=rows.keys())
        if "weight" in metafunc.fixturenames:
            inputs = {side: (random_matrix(d, k, (90, d), "gaussian"), r) for side, (d, k, r) in rows.items()}
            inputs.update(self.more_inputs)
            metafunc.parametrize("weight", inputs.values(), ids=inputs.keys())

    def test_matches_lapack(self, weight, monkeypatch):
        # Off the Jacobi path the Jacobi loop never runs; iterations is 0 on the LAPACK path alone.
        w, r = weight
        if self.path != "jacobi":
            monkeypatch.setattr(linalg, "_jacobi", _no_jacobi)
        assert svd_path(*w.shape) == self.path
        f = svd_truncated(w, r)
        _assert_certified(w, f)
        assert f.certificate <= 1e-12 and (f.iterations == 0) == (self.path == "lapack")
        s = np.linalg.svd(w, compute_uv=False)
        assert np.abs(f.s_r - s[:r]).max() <= 1e-12 * s[0]

    def test_exact_rank_two(self, row):
        # The null cut on ||w||_F zeroes the trailing values, and the QR
        # completion keeps u orthonormal over their columns.
        d, k, r = row
        w = _low_rank(d, k, 2, 92)
        f = svd_truncated(w, r)
        _assert_certified(w, f)
        assert (f.s_r[:2] > 0.0).all() and (f.s_r[2:] == 0.0).all()
        assert np.abs(truncation_residual(w, f)).max() <= 1e-12 * f.s_r[0] and f.certificate <= 1e-12

    def test_repeated_singular_values(self, row):
        # Four clusters of equal values; r falls inside the first, where any
        # orthonormal basis of the cluster is a right answer.
        d, k, r = row
        sigma = np.repeat([3.0, 2.0, 1.0, 0.5], min(d, k) // 4)
        w = _known_spectrum(d, k, sigma, 106)
        f = svd_truncated(w, r)
        _assert_certified(w, f)
        assert np.abs(f.s_r - sigma[:r]).max() <= 1e-12 * sigma[0] and f.certificate <= 1e-12

    def test_all_zero(self, row):
        d, k, r = row
        w = np.zeros((d, k))
        f = svd_truncated(w, r)
        _assert_certified(w, f)
        assert f.s_r.tolist() == [0.0] * r and not truncation_residual(w, f).any() and f.certificate == 0.0
        assert np.abs(f.u_r.T @ f.u_r - np.eye(r)).max() == 0.0
        assert f.iterations == 0

    @pytest.mark.parametrize("scale", [2.0**-1000, 1e200], ids=["2^-1000", "1e200"])
    def test_extreme_scales(self, row, scale):
        d, k, r = row
        base = random_matrix(d, k, 107, "gaussian")
        f, g = svd_truncated(base * scale, r), svd_truncated(base, r)
        s = np.linalg.svd(base, compute_uv=False)[:r]
        assert np.abs(f.s_r / scale - s).max() <= 1e-12 * s[0]
        # The rescaling is a power of two: exact at 2^-1000, so the directions are those of the base.
        if scale == 2.0**-1000:
            assert f.u_r.tobytes() == g.u_r.tobytes() and f.v_r.tobytes() == g.v_r.tobytes()
        assert f.certificate <= 1e-12

    def test_sign_convention_on_the_longer_side_and_bitwise_reruns(self, row):
        d, k, r = row
        w = random_matrix(d, k, 108, "uniform_scaled")
        a, b = svd_truncated(w, r), svd_truncated(w.copy(), r)
        for name in ("u_r", "s_r", "v_r"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert (a.iterations, a.converged, a.certificate) == (b.iterations, b.converged, b.certificate)
        lead = a.u_r if d >= k else a.v_r
        assert (lead[np.argmax(np.abs(lead), axis=0), np.arange(r)] > 0.0).all()


class TestJacobiPath(_EveryPath):
    """svd_truncated on the cyclic Jacobi sweep, taken for min(d, k) < 128."""

    path = "jacobi"


@pytest.mark.parametrize(
    "w",
    [
        random_matrix(12, 9, 110, "gaussian"),
        random_matrix(9, 12, 111, "gaussian"),
        _low_rank(12, 9, 3, 112),
        random_matrix(160, 128, 113, "gaussian"),
    ],
    ids=["tall", "wide", "deficient", "lapack"],
)
def test_full_rank_truncation_is_jacobi_svd(w):
    f, (u, s, v) = svd_truncated(w, min(w.shape)), jacobi_svd(w)
    assert (f.u_r.tobytes(), f.s_r.tobytes(), f.v_r.tobytes()) == (u.tobytes(), s.tobytes(), v.tobytes())


def test_below_the_cut_over_slices_jacobi():
    w = random_matrix(127, 127, 95, "gaussian")
    f = svd_truncated(w, 4)
    u, s, v = jacobi_svd(w)
    assert f.u_r.tobytes() == np.ascontiguousarray(u[:, :4]).tobytes()
    assert f.s_r.tobytes() == s[:4].tobytes()
    assert f.v_r.tobytes() == np.ascontiguousarray(v[:, :4]).tobytes()
    assert f.converged and 1 <= f.iterations < JACOBI_MAX_SWEEPS


def test_path_follows_shape():
    assert svd_path(127, 127) == "jacobi"
    assert svd_path(128, 127) == "jacobi"
    assert svd_path(4096, 127) == "jacobi"
    assert svd_path(128, 128) == "lapack"
    assert svd_path(255, 255) == "lapack"
    assert svd_path(4096, 128) == "lapack"
    assert svd_path(128, 4096) == "lapack"
    assert svd_path(256, 256) == "lapack"
    assert svd_path(4096, 256) == "lapack"
    assert svd_path(256, 4096) == "lapack"
    assert svd_path(4096, 4096) == "lapack"


def test_jacobi_sweep_cap_reports_unconverged_factors(monkeypatch, tmp_path, capsys):
    # The sweep cap is the one way an SVD stops short of its convergence test.
    # The factors are then not certified, but every build's update is still
    # exactly zero at init, so a build starts exactly at its base weight.
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    w = random_matrix(12, 9, 7, "gaussian")
    f = svd_truncated(w, 3)
    assert (f.converged, f.iterations) == (False, 1) and f.certificate > 1e-12
    path = tmp_path / "m.txt"
    write_matrix(path, w)
    assert main(["decompose", str(path), "--rank", "3"]) == 0
    assert "converged=false" in capsys.readouterr().out.splitlines()[3].split()
    state = build_adapter(w, AdapterMethod(tag="osora", rank=3), seed=7)
    assert state.frozen.factors.converged is False
    x = np.random.default_rng(7).standard_normal((9, 4))
    assert forward(state, x).tobytes() == (w @ x).tobytes()


class TestLapackPath(_EveryPath):
    """svd_truncated on LAPACK's full SVD, taken for min(d, k) >= 128."""

    path = "lapack"
    more_inputs = {
        "square": (random_matrix(128, 128, (97, 10), "gaussian"), 4),
        "high_rank_wide": (random_matrix(128, 4096, 101, "gaussian"), 57),
        "high_rank_square": (random_matrix(200, 200, 102, "gaussian"), 100),
        "power_255": (_known_spectrum(255, 255, np.arange(1.0, 256.0) ** -0.5, 103), 8),
        "square_256": (random_matrix(256, 256, (97, 10), "gaussian"), 4),
        "exact_rank_two_256": (_low_rank(256, 256, 2, 92), 4),
        "gaussian_256": (random_matrix(256, 256, 99, "gaussian"), 4),
        "power_512": (_known_spectrum(512, 512, np.arange(1.0, 513.0) ** -0.5, 100), 8),  # sigma_i = i^-0.5
    }

    def test_decaying_spectrum_at_scale(self):
        # sigma_i = 1 / i, a decaying spectrum like a pretrained weight's; the
        # full Jacobi SVD of this shape would run for hours.
        sigma = 1.0 / np.arange(1.0, 1025.0)
        w = _known_spectrum(1024, 4096, sigma, 91)
        start = time.perf_counter()
        f = svd_truncated(w, 8)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        _assert_certified(w, f)
        assert np.abs(f.s_r - np.linalg.svd(w, compute_uv=False)[:8]).max() <= 1e-12
        assert np.abs(f.s_r - sigma[:8]).max() <= 1e-12

    def test_flat_spectrum_at_scale_is_certified(self):
        # A gaussian weight's spectrum is flat past sigma_r; LAPACK's full SVD
        # certifies it at any size.
        w = random_matrix(1024, 1024, 99, "gaussian")
        f = svd_truncated(w, 8)
        assert f.converged and f.certificate <= 1e-12

    @pytest.mark.parametrize("shape,r", [((128, 128), 4), ((128, 4096), 57), ((4096, 128), 60), ((256, 256), 4)])
    def test_no_shape_from_128_runs_the_jacobi_loop(self, shape, r, monkeypatch):
        monkeypatch.setattr(linalg, "_jacobi", _no_jacobi)
        w = random_matrix(*shape, 104, "gaussian")
        svd_truncated(w, r)
        jacobi_svd(w)

    @pytest.mark.parametrize("shape,r,budget", [((128, 4096), 57, 1.0), ((200, 200), 100, 0.1)], ids=["wide", "square"])
    def test_high_rank_shapes_are_fast(self, shape, r, budget):
        # The Jacobi loop took 14.4 s and 1.35 s at these shapes.
        w = random_matrix(*shape, 105, "gaussian")
        start = time.perf_counter()
        f = svd_truncated(w, r)
        assert time.perf_counter() - start < budget
        assert np.abs(f.s_r - np.linalg.svd(w, compute_uv=False)[:r]).max() <= 1e-12 * f.s_r[0]

    @pytest.mark.parametrize("path", dict.fromkeys(case.values[0] for case in SVD_PATH_CASES))
    def test_zero_row_and_column_stay_exactly_zero(self, path):
        # gesdd leaves roundoff where w has an all-zero row or column; every
        # path's kept factors carry the exact zeros the Jacobi sweep leaves
        # there, at both of its rows, on a full-rank weight and on one of
        # rank 4 whose null columns the QR completion fills.
        for d, k, r in _path_rows(path).values():
            for w, rank in ((random_matrix(d, k, 109, "gaussian"), r), (_low_rank(d, k, 4, 109), 4)):
                w[[0, 7]] = 0.0
                w[:, [3, 11]] = 0.0
                f = svd_truncated(w, r)
                assert (f.s_r[:rank] > 0.0).all() and (f.s_r[rank:] == 0.0).all()
                assert not f.u_r[~w.any(axis=1), :rank].any() and not f.v_r[~w.any(axis=0), :rank].any()
                assert np.abs(f.u_r.T @ f.u_r - np.eye(r)).max() <= 1e-12
                assert np.abs(f.v_r.T @ f.v_r - np.eye(r)).max() <= 1e-12


def test_jacobi_skips_a_pair_below_the_roundoff_floor():
    # Two d x 2 columns of +-0.75 whose inner product is 30 * 2^-46: above
    # JACOBI_TOL * ||a||_F, so the pair is not converged, but at most
    # _ROUNDOFF_FLOOR * ||a_p|| ||a_q||, so the sweep skips it instead of
    # rotating, and stops after one sweep. The signs of the second column
    # follow the Thue-Morse sequence, so every partial sum of the products
    # stays small and the inner product is exact in any summation order.
    d = 1000
    p = np.random.default_rng(109).choice([-0.75, 0.75], d)
    q = p * np.array([(-1.0) ** bin(i).count("1") for i in range(d)])
    q[0] = np.copysign(0.75 + 10 * 2.0**-44, q[0])
    w = np.column_stack([p, q])
    gamma, fro = float(p @ q), np.sqrt((w * w).sum())
    assert gamma == 30 * 2.0**-46
    assert linalg.JACOBI_TOL * fro < gamma <= linalg._ROUNDOFF_FLOOR * np.sqrt((p @ p) * (q @ q))
    f = svd_truncated(w, 2)
    assert svd_path(d, 2) == "jacobi" and f.iterations == 1 and f.converged
    assert np.abs(f.u_r.T @ f.u_r - np.eye(2)).max() <= 1e-10 and np.abs(f.v_r.T @ f.v_r - np.eye(2)).max() <= 1e-10
    assert np.sqrt((((f.u_r * f.s_r) @ f.v_r.T - w) ** 2).sum()) <= 1e-12 * fro


def test_full_path_reports_its_sweeps():
    f = svd_truncated(random_matrix(9, 6, 96, "gaussian"), 2)
    assert f.converged and 2 <= f.iterations < JACOBI_MAX_SWEEPS and 0.0 < f.certificate <= 1e-12
    z = svd_truncated(np.zeros((5, 4)), 2)
    assert (z.iterations, z.converged, z.certificate) == (0, True, 0.0)


def _factor_digest(w, f):
    h = hashlib.sha256()
    for arr in (f.u_r, f.s_r, f.v_r, truncation_residual(w, f)):
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.pinned
def test_lapack_factor_bytes_are_pinned():
    # SHA-256 of svd_truncated's (u_r, s_r, v_r, residual) at one seeded 128x128
    # gaussian weight, rank 4: the shape and rank of the benchmark's training
    # tasks. Same build caveat as test_full_rank_factor_bytes_are_pinned; the
    # factors come from LAPACK's gesdd.
    w = random_matrix(128, 128, (97, 10), "gaussian")
    f = svd_truncated(w, 4)
    assert (f.iterations, f.converged) == (0, True)
    assert _factor_digest(w, f) == "f5a63a1a43edcd5e1d1987af1b899e9b58261e8448eaee9dacb92862a763c88a"


class TestRandomMatrix:
    def test_deterministic(self):
        a = random_matrix(6, 5, 3, "uniform_scaled")
        b = random_matrix(6, 5, 3, "uniform_scaled")
        assert a.tobytes() == b.tobytes()

    def test_seeds_differ(self):
        a = random_matrix(6, 5, 3, "gaussian")
        b = random_matrix(6, 5, 4, "gaussian")
        assert (a != b).any()

    def test_uniform_bound(self):
        w = random_matrix(64, 64, 7, "uniform_scaled")
        assert np.abs(w).max() <= np.sqrt(6.0 / 128.0)

    def test_gaussian_scaled_by_cols(self):
        w = random_matrix(2000, 16, 9, "gaussian")
        assert abs(w.std() * np.sqrt(16) - 1.0) < 0.05

    def test_bad_args(self):
        with pytest.raises(DimensionMismatch):
            random_matrix(0, 3, 1, "gaussian")
        with pytest.raises(ValueError):
            random_matrix(2, 2, 1, "bogus")

    def test_negative_dims(self):
        with pytest.raises(InvalidConfig):
            random_matrix(-1, 2, 0)

    def test_non_integer_dims(self):
        with pytest.raises(InvalidConfig):
            random_matrix(2.0, 2, 0)

    def test_boolean_dims(self):
        with pytest.raises(InvalidConfig):
            random_matrix(True, 2, 0)

    def test_negative_seed(self):
        with pytest.raises(InvalidConfig):
            random_matrix(2, 2, -1)

    def test_non_integer_seed(self):
        with pytest.raises(InvalidConfig):
            random_matrix(2, 2, 1.5)

    def test_bad_seed_in_sequence(self):
        with pytest.raises(InvalidConfig):
            random_matrix(2, 2, (3, -1))
