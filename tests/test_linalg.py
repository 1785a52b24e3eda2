import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osora import (
    DimensionMismatch,
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
