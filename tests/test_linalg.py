import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osora import (
    DimensionMismatch,
    InvalidConfig,
    NonFiniteInput,
    RankOutOfRange,
    jacobi_svd,
    random_matrix,
    svd_truncated,
)


def reassembly_error(w, f):
    # oracle: rebuild w from the truncated factors plus the residual
    rebuilt = (f.u_r * f.s_r) @ f.v_r.T + f.residual
    return np.sqrt(((rebuilt - w) ** 2).sum())


class TestSvdTruncated:
    def test_identity_full_rank(self):
        f = svd_truncated(np.eye(2), 2)
        assert np.allclose(f.s_r, [1.0, 1.0])
        assert np.abs(f.residual).max() <= 1e-15

    def test_diagonal_rank_one_is_forced(self):
        f = svd_truncated(np.diag([3.0, 1.0]), 1)
        assert f.s_r.tolist() == [3.0]
        assert f.u_r.ravel().tolist() == [1.0, 0.0]
        assert f.v_r.ravel().tolist() == [1.0, 0.0]
        assert np.array_equal(f.residual, np.diag([0.0, 1.0]))

    def test_seeded_reassembly(self):
        w = random_matrix(8, 6, 11, "gaussian")
        f = svd_truncated(w, 3)
        assert reassembly_error(w, f) <= 1e-10

    def test_full_rank_residual_is_zero(self):
        w = random_matrix(9, 12, 4, "uniform_scaled")
        f = svd_truncated(w, 9)
        assert np.abs(f.residual).max() <= 1e-10

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
        assert np.isfinite(f.u_r).all() and np.isfinite(f.residual).all()

    @pytest.mark.parametrize("tall", [True, False])
    @settings(max_examples=25, deadline=None)
    @given(
        short=st.integers(9, 16),
        extra=st.integers(0, 8),
        r=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_exact_low_rank_products(self, tall, short, extra, r, seed):
        # A(d x r) @ B(r x k) has exactly r nonzero singular values; the null
        # columns it leaves behind are where the running squared norms drift
        d, k = (short + extra, short) if tall else (short, short + extra)
        w = random_matrix(d, r, (seed, 1), "gaussian") @ random_matrix(r, k, (seed, 2), "gaussian")
        u, s, v = jacobi_svd(w)
        m = min(d, k)
        assert np.abs(u.T @ u - np.eye(m)).max() <= 1e-10
        assert np.abs(v.T @ v - np.eye(m)).max() <= 1e-10
        assert (s[r:] <= 1e-10 * s[0]).all()
        assert np.sqrt((((u * s) @ v.T - w) ** 2).sum()) <= 1e-10 * np.sqrt((w * w).sum())


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
    """Null columns: s exactly 0, u completed by QR, factors orthonormal and rerun-stable."""

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

    @pytest.mark.parametrize("tall", [True, False])
    @settings(max_examples=25, deadline=None)
    @given(
        short=st.integers(6, 16),
        extra=st.integers(0, 8),
        r=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_exact_low_rank_products(self, tall, short, extra, r, seed):
        d, k = (short + extra, short) if tall else (short, short + extra)
        w = random_matrix(d, r, (seed, 1), "gaussian") @ random_matrix(r, k, (seed, 2), "gaussian")
        self.check(w, r)

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


@pytest.mark.parametrize(
    "w",
    [
        random_matrix(12, 7, 80, "gaussian"),
        random_matrix(7, 12, 81, "gaussian"),
        _low_rank(12, 7, 2, 82),
        _low_rank(7, 12, 3, 83),
    ],
    ids=["tall", "wide", "tall_deficient", "wide_deficient"],
)
def test_outputs_own_their_memory(w):
    # Each output is a fresh array: no scratch column or view of the input may leak out.
    before = w.tobytes()
    first, second = jacobi_svd(w), jacobi_svd(w)
    assert w.tobytes() == before
    outputs = [*first, *second]
    for i, arr in enumerate(outputs):
        assert arr.flags.c_contiguous and arr.flags.writeable
        assert not np.shares_memory(arr, w)
        for other in outputs[i + 1 :]:
            assert not np.shares_memory(arr, other)


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
