import gc
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import osora.adapters
from osora.adapters import (
    _TABLE,
    _Method,
    _scaled_norms,
    O_INITS,
    OSORA_FAMILY,
    effective_weight,
    is_finite,
    trainable_count,
    trainable_slots,
    weight_digest,
)
from osora.linalg import as_matrix
from osora.verify import check_init_identity, check_merge
from conftest import SVD_PATH_CASES, LIVE_BUILDS, assert_frozen_rebuilt_over_shared, perturbed_state, rel_inf
from osora import (
    METHODS,
    AdapterMethod,
    DimensionMismatch,
    InvalidConfig,
    LengthMismatch,
    NonFiniteInput,
    RankOutOfRange,
    TrainConfig,
    build_adapter,
    clone_state,
    count_trainable,
    forward,
    load_trainable,
    make_task,
    merge,
    random_matrix,
    svd_truncated,
    train,
    trainable_vector,
)


class TestBuild:
    def test_osora_on_diagonal_weight(self):
        state = build_adapter(np.diag([2.0, 1.0]), AdapterMethod(tag="osora", rank=1), seed=0)
        assert state.trainable["s_r"].tolist() == [2.0]
        assert state.trainable["o"].tolist() == [1.0, 1.0]
        assert state.frozen["u_r"].ravel().tolist() == state.frozen["v_r"].ravel().tolist() == [1.0, 0.0]
        assert np.array_equal(merge(state), np.diag([2.0, 1.0]))

    def test_lora_forward_is_exactly_base_at_init(self, rng):
        w0 = random_matrix(10, 8, 1, "gaussian")
        state = build_adapter(w0, AdapterMethod(tag="lora", rank=5), seed=2)
        x = rng.standard_normal(8)
        assert np.array_equal(forward(state, x), w0 @ x)

    @pytest.mark.parametrize("tag", METHODS)
    def test_init_identity_all_methods(self, tag, rng):
        w0 = random_matrix(16, 12, 3, "gaussian")
        state = build_adapter(w0, AdapterMethod(tag=tag, rank=4), seed=5)
        for _ in range(100):
            x = rng.standard_normal(12)
            ref = w0 @ x
            assert np.abs(forward(state, x) - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())

    def test_gaussian_o_init_still_starts_at_base(self, rng):
        w0 = random_matrix(9, 9, 4, "gaussian")
        state = build_adapter(w0, AdapterMethod(tag="osora", rank=3, o_init="gaussian"), seed=6)
        x = rng.standard_normal(9)
        ref = w0 @ x
        assert np.abs(forward(state, x) - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())
        assert not np.allclose(state.trainable["o"], 1.0)

    def test_osora_over_rank_deficient_weight_starts_at_base(self, rng):
        # exact rank-2 w0 under a rank-3 adapter: the third singular value is zero
        w0 = random_matrix(10, 2, 7, "gaussian") @ random_matrix(2, 9, 8, "gaussian")
        state = build_adapter(w0, AdapterMethod(tag="osora", rank=3), seed=9)
        for _ in range(20):
            x = rng.standard_normal(9)
            ref = w0 @ x
            assert np.abs(forward(state, x) - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())

    @pytest.mark.parametrize(
        "scale",
        [1e100, 1e200, 1e-170, 1e-300, pytest.param(np.array([1e-200] + [1e100] * 11)[:, None], id="rows_apart")],
    )
    @pytest.mark.parametrize("tag", METHODS)
    def test_weight_past_the_squarable_range(self, tag, scale, rng):
        # The squares of ||w||_F overflow, or those of the entries underflow.
        # The SVD and the row norms of dora and osora_dora run on power-of-two
        # rescalings, so every build starts at w0 @ x, row by row. rows_apart
        # puts row 0 1e-300 below the others, so its squares underflow unless
        # its norm takes its own exponent.
        w0 = random_matrix(12, 8, 3, "gaussian") * scale
        method = AdapterMethod(tag=tag, rank=4)
        x = rng.standard_normal((8, 5))
        ref = w0 @ x
        err = np.abs(forward(build_adapter(w0, method, seed=3), x) - ref).max(axis=1)
        assert (err <= 1e-15 * np.abs(ref).max(axis=1)).all()

    @pytest.mark.parametrize("scale", [1e100, 1e-300, "rows_apart"])
    @pytest.mark.parametrize("path,d,k,r", SVD_PATH_CASES)
    def test_every_build_starts_exactly_at_w0_on_every_path(self, path, d, k, r, scale):
        # Each update is exactly 0 at init, so forward is w0 @ x and merge is
        # w0, value for value (a zero may come back as -0.0), for every method
        # and o_init on every SVD path; rows_apart puts row 0 1e-300 below the
        # others, far below the SVD's absolute error.
        w0 = random_matrix(d, k, 3, "gaussian")
        w0 *= np.array([1e-200] + [1e100] * (d - 1))[:, None] if scale == "rows_apart" else scale
        x = np.random.default_rng(5).standard_normal((k, 5))
        states = [build_adapter(w0, AdapterMethod(tag, r, o_init), seed=3) for tag, o_init in LIVE_BUILDS]
        for (tag, o_init), state in zip(LIVE_BUILDS, states):  # built together, so they share one SVD
            assert np.array_equal(forward(state, x), w0 @ x), (tag, o_init)
            assert np.array_equal(merge(state), w0), (tag, o_init)

    @pytest.mark.parametrize("j", [600, -600, 1000, -1000])
    @pytest.mark.parametrize("tag", ["dora", "osora_dora"])
    def test_row_norms_scale_by_powers_of_two_exactly(self, tag, j):
        # The row norms are taken on the rows times a power of two, so over
        # 2^j w, whose SVD factors are those of w with s scaled by 2^j, the
        # norms are 2^j times those over w, fresh or perturbed. b and s_r carry
        # the weight's scale; the noise on them is scaled with it.
        w = random_matrix(12, 8, 3, "gaussian")
        assert np.array_equal(np.ldexp(np.ldexp(w, j), -j), w)  # no entry of 2^j w is subnormal
        norms = _TABLE[tag].row_norms
        method = AdapterMethod(tag=tag, rank=4)
        state, scaled = build_adapter(w, method, seed=3), build_adapter(np.ldexp(w, j), method, seed=3)
        rng = np.random.default_rng(31)
        for perturbed in (False, True):
            if perturbed:
                for name in trainable_slots(state):
                    noise = 0.2 * rng.standard_normal(state.trainable[name].shape)
                    state.trainable[name] = state.trainable[name] + noise
                    scaled_noise = np.ldexp(noise, j) if name in ("b", "s_r") else noise
                    scaled.trainable[name] = scaled.trainable[name] + scaled_noise
            got = norms(state.frozen, state.trainable)[0]
            assert np.ldexp(got, j).tobytes() == norms(scaled.frozen, scaled.trainable)[0].tobytes()
            ref = np.linalg.norm(effective_weight(state), axis=1)
            assert (np.abs(got - ref) <= 1e-14 * ref).all()

    def test_row_norms_match_the_per_row_rescaling(self):
        # Rows from 2^-560 to 2^560 times a gaussian, and a zero row: those
        # whose squares stay in range skip the rescaling (e = 0), the rest take
        # their own power of two, and every norm has the bytes of rescaling
        # each row by its own largest entry's exponent. Unscaled, the squares
        # of the outermost rows underflow or overflow.
        w = np.random.default_rng(32).standard_normal((81, 40))
        logs = np.linspace(-560, 560, 81).round().astype(int)
        w = np.ldexp(w, logs[:, None])
        w[40] = 0.0
        e_ref = np.frexp(np.abs(w).max(axis=1))[1]
        rescaled = np.ldexp(w, -e_ref[:, None])
        want = np.ldexp(np.sqrt(np.einsum("ij,ij->i", rescaled, rescaled)), e_ref)
        norms, rows, e = _scaled_norms(w.copy())
        assert norms.tobytes() == want.tobytes()
        assert np.ldexp(rows, e[:, None]).tobytes() == w.tobytes()
        assert (e[np.abs(logs) <= 280] == 0).all() and (e[np.abs(logs) >= 320] != 0).all()

    def test_rank_out_of_range(self):
        w0 = random_matrix(4, 6, 0, "gaussian")
        with pytest.raises(RankOutOfRange):
            build_adapter(w0, AdapterMethod(tag="osora", rank=5), seed=0)
        # lora can exceed min(d, k)
        build_adapter(w0, AdapterMethod(tag="lora", rank=5), seed=0)

    def test_method_validation(self):
        with pytest.raises(ValueError):
            AdapterMethod(tag="mystery", rank=1)
        with pytest.raises(ValueError):
            AdapterMethod(tag="lora", rank=2, trainable_set="only_s")
        with pytest.raises(ValueError):
            AdapterMethod(tag="vera", rank=2, o_init="gaussian")
        with pytest.raises(RankOutOfRange):
            AdapterMethod(tag="osora", rank=0)

    @pytest.mark.parametrize("rank", [True, "3", np.float64(2)], ids=["bool", "str", "np_float"])
    def test_non_integer_rank_rejected(self, rank):
        with pytest.raises(InvalidConfig):
            AdapterMethod(tag="osora", rank=rank)
        with pytest.raises(InvalidConfig):
            count_trainable("osora", 8, 8, rank)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True], ids=["negative", "past_u64", "float", "bool"])
    def test_seed_outside_u64_rejected(self, seed):
        with pytest.raises(InvalidConfig):
            build_adapter(np.eye(4), AdapterMethod(tag="osora", rank=1), seed=seed)

    def test_numpy_integers_are_counts_and_seeds(self):
        state = build_adapter(np.eye(4), AdapterMethod(tag="osora", rank=np.int64(2)), seed=np.uint64(2**64 - 1))
        assert trainable_vector(state).size == count_trainable("osora", np.int32(4), 4, np.int64(2)) == 6


    @pytest.mark.parametrize("d,k", [(12, 8), (8, 12)], ids=["tall", "wide"])
    @pytest.mark.parametrize("tag,o_init", LIVE_BUILDS)
    def test_each_record_states_its_update_once(self, tag, o_init, d, k):
        # The update is left @ right, d x q times q x k. A record that reads z
        # off a fixed probe product, not right @ x, states that part twice, so
        # the two must agree.
        state, _ = perturbed_state(tag, d, k, 3, 7, o_init=o_init)
        entry, fz, t = _TABLE[tag], state.frozen, state.trainable
        left, right = entry.left(fz, t), entry.right(fz, t)
        assert left.shape[0] == d and right.shape[1] == k and left.shape[1] == right.shape[0]
        if entry.lift is not None:
            x = np.random.default_rng(8).standard_normal((k, 5))
            want = right @ x
            assert np.abs(entry.lift(fz, t, entry.fixed(fz, x)) - want).max() <= 1e-14 * np.abs(want).max()


class TestForward:
    def test_hand_worked_osora_update(self):
        # w0 = diag(2, 1), rank 1: u = v = e1, s = [2], w0_res = diag(0, 1).
        # With o = [3, 1] the update row-scales to [[6, 0], [0, 0]].
        state = build_adapter(np.diag([2.0, 1.0]), AdapterMethod(tag="osora", rank=1), seed=0)
        load_trainable(state, np.array([2.0, 3.0, 1.0]))  # layout: s_r then o
        y = forward(state, np.array([1.0, 1.0]))
        assert np.allclose(y, [6.0, 1.0], atol=1e-14)
        # dense oracle: assemble diag(o) u diag(s) v^T + w0_res explicitly
        dense = np.diag([3.0, 1.0]) @ np.outer([1.0, 0.0], [1.0, 0.0]) * 2.0 + np.diag([0.0, 1.0])
        assert np.allclose(dense @ [1.0, 1.0], y, atol=1e-14)

    def test_osora_dora_identity_at_init(self, rng):
        w0 = random_matrix(12, 10, 7, "gaussian")
        state = build_adapter(w0, AdapterMethod(tag="osora_dora", rank=3), seed=8)
        x = rng.standard_normal(10)
        assert np.abs(forward(state, x) - w0 @ x).max() <= 1e-10

    def test_batched_forward_matches_columnwise(self, rng):
        # gemm vs gemv accumulation order may differ in the last bit
        state, _ = perturbed_state("vera", 7, 5, 2, 9)
        xs = rng.standard_normal((5, 6))
        batched = forward(state, xs)
        for j in range(6):
            assert rel_inf(batched[:, j], forward(state, xs[:, j])) <= 1e-14

    def test_dimension_mismatch(self):
        state, _ = perturbed_state("lora", 6, 4, 2, 1)
        with pytest.raises(DimensionMismatch):
            forward(state, np.zeros(5))


class TestMerge:
    def test_ones_init_merges_to_base(self):
        w0 = random_matrix(11, 9, 13, "gaussian")
        state = build_adapter(w0, AdapterMethod(tag="osora", rank=4), seed=3)
        assert np.abs(merge(state) - w0).max() <= 1e-12

    def test_merge_checks_fail_on_a_nan_weight(self):
        # a NaN error must fail its gate, not drop out of the running maximum
        state, w0 = perturbed_state("osora", 6, 5, 2, 1)
        nan, probes = np.full_like(w0, np.nan), np.ones((3, 5))
        assert not check_merge([(nan, state, probes)])[0].passed
        assert not check_init_identity([(nan, state, probes)])[0].passed

    def test_lora_zero_b_merges_exactly(self):
        w0 = random_matrix(8, 8, 14, "gaussian")
        state = build_adapter(w0, AdapterMethod(tag="lora", rank=2), seed=4)
        assert np.array_equal(merge(state), w0)

    @pytest.mark.parametrize("tag,weights", [("dora", 2), ("osora_dora", 1)])
    def test_is_finite_takes_the_row_norms_once(self, tag, weights, monkeypatch):
        # is_finite reads the norms the merge divided by instead of taking them again.
        state, _ = perturbed_state(tag, 12, 8, 3, 5)
        norms, formed = [], []
        real_norms, real_weight = osora.adapters._scaled_norms, _Method.weight
        monkeypatch.setattr(osora.adapters, "_scaled_norms", lambda w: norms.append(w.shape) or real_norms(w))
        monkeypatch.setattr(_Method, "weight", lambda *a, **kw: formed.append(1) or real_weight(*a, **kw))
        assert is_finite(state)
        assert (len(norms), len(formed)) == (1, weights)

    @pytest.mark.parametrize("tag", METHODS)
    def test_merge_equivalent_to_forward_after_training(self, tag, rng):
        task = make_task(10, 8, 2, seed=15)
        state = build_adapter(task.w0, AdapterMethod(tag=tag, rank=2), seed=15)
        run = train(state, task, TrainConfig(steps=60, lr=5e-3, optimizer="adam"))
        w = merge(run.final_state)
        for _ in range(50):
            x = rng.standard_normal(8)
            got = forward(run.final_state, x)
            assert np.abs(w @ x - got).max() / (1.0 + np.abs(got).max()) <= 1e-10


class TestTrainableVector:
    def test_osora_flat_length(self):
        state = build_adapter(np.eye(4), AdapterMethod(tag="osora", rank=2), seed=0)
        assert trainable_vector(state).size == 6  # r + d

    def test_only_o_slice_length(self):
        state = build_adapter(np.eye(4), AdapterMethod(tag="osora", rank=2, trainable_set="only_o"), seed=0)
        assert trainable_vector(state).size == 4

    @pytest.mark.parametrize("tag", METHODS)
    def test_roundtrip_preserves_forward_bitwise(self, tag, rng):
        state, _ = perturbed_state(tag, 9, 7, 2, 31)
        x = rng.standard_normal(7)
        before = forward(state, x).tobytes()
        load_trainable(state, trainable_vector(state))
        assert forward(state, x).tobytes() == before

    @pytest.mark.parametrize(
        "tag,trainable_set",
        [(tag, "both") for tag in METHODS] + [("osora", "only_s"), ("osora_k", "only_s"), ("osora", "only_o"), ("osora_k", "only_o")],
    )
    def test_count_from_shapes_matches_built_vector(self, tag, trainable_set):
        method = AdapterMethod(tag=tag, rank=3, trainable_set=trainable_set)
        state = build_adapter(random_matrix(9, 7, 32, "gaussian"), method, seed=33)
        assert trainable_count(method, 9, 7) == trainable_vector(state).size
        if trainable_set == "both":
            assert trainable_count(method, 9, 7) == count_trainable(tag, 9, 7, 3)

    def test_length_mismatch(self):
        state, _ = perturbed_state("osora", 5, 5, 2, 2)
        with pytest.raises(LengthMismatch):
            load_trainable(state, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_vector_rejected_before_install(self, bad):
        state, _ = perturbed_state("osora", 5, 5, 2, 2)
        before = {name: arr.tobytes() for name, arr in state.trainable.items()}
        theta = trainable_vector(state)
        theta[3] = bad
        with pytest.raises(NonFiniteInput):
            load_trainable(state, theta)
        assert {name: arr.tobytes() for name, arr in state.trainable.items()} == before


class TestInvariants:
    def test_frozen_tensors_are_readonly(self):
        state, _ = perturbed_state("osora", 6, 5, 2, 40)
        with pytest.raises(ValueError):
            state.frozen["u_r"][0, 0] = 9.9

    def test_frozen_bytes_survive_training(self):
        task = make_task(12, 12, 3, seed=41)
        state = build_adapter(task.w0, AdapterMethod(tag="osora_dora", rank=3), seed=41)
        before = {name: arr.tobytes() for name, arr in state.frozen.items()}
        run = train(state, task, TrainConfig(steps=100, lr=1e-2, optimizer="adam"))
        for name, blob in before.items():
            assert run.final_state.frozen[name].tobytes() == blob

    def test_update_rank_bounded_by_r(self):
        state, w0 = perturbed_state("osora", 10, 9, 3, 42, scale=0.5)
        delta = merge(state) - state.frozen["w0"]
        tail = svd_truncated(delta, 9).s_r[3:]
        assert np.abs(tail).max() <= 1e-10

    def test_dual_vector_update_not_reachable_with_ones_o(self):
        # rank-1 witness: row-scaled update vs best fit over s alone (o = ones)
        w0 = random_matrix(4, 4, 43, "gaussian")
        f = svd_truncated(w0, 1)
        o_star = np.array([2.0, 0.5, 1.0, 1.5])
        target = o_star[:, None] * ((f.u_r * f.s_r) @ f.v_r.T)
        basis = (f.u_r @ f.v_r.T).ravel()  # the only reachable direction with o = ones
        s_fit, *_ = np.linalg.lstsq(basis[:, None], target.ravel(), rcond=None)
        best = basis * s_fit[0]
        assert np.sqrt(((best - target.ravel()) ** 2).sum()) > 1e-3


class TestLiveRegistry:
    """A rebuild while an adapter over the weight lives: its own frozen dict and trainables over the shared tensors."""

    def test_second_build_shares_frozen_and_starts_at_init(self, svd_calls):
        w0 = random_matrix(9, 7, 60, "gaussian")
        method = AdapterMethod(tag="osora", rank=3)
        first = build_adapter(w0, method, seed=61)
        init = {name: arr.tobytes() for name, arr in first.trainable.items()}
        load_trainable(first, trainable_vector(first) + 0.5)
        first.trainable["o"][0] = 7.0  # in place, too
        second = build_adapter(w0, method, seed=61)
        assert len(svd_calls) == 1
        assert_frozen_rebuilt_over_shared(second, first)
        assert {name: arr.tobytes() for name, arr in second.trainable.items()} == init
        assert all(second.trainable[n] is not first.trainable[n] for n in init)

    def test_training_the_first_leaves_the_second_at_init(self, svd_calls):
        task = make_task(10, 10, 2, seed=62)
        method = AdapterMethod(tag="osora_dora", rank=2)
        first = build_adapter(task.w0, method, seed=62)
        init = trainable_vector(first).tobytes()
        run = train(first, task, TrainConfig(steps=20, lr=1e-2))
        assert trainable_vector(run.final_state).tobytes() != init
        second = build_adapter(task.w0, method, seed=62)
        assert second.frozen.factors is first.frozen.factors
        assert trainable_vector(second).tobytes() == init
        assert len(svd_calls) == 1

    def test_a_clone_keeps_the_entry_alive(self, svd_calls):
        w0 = random_matrix(8, 8, 63, "gaussian")
        method = AdapterMethod(tag="pissa", rank=2)
        first = build_adapter(w0, method, seed=64)
        clone = clone_state(first)
        del first
        gc.collect()
        assert build_adapter(w0, method, seed=64).frozen.factors is clone.frozen.factors
        assert len(svd_calls) == 1

    def test_entry_dies_with_the_last_state(self, svd_calls):
        w0 = random_matrix(8, 6, 65, "gaussian")
        method = AdapterMethod(tag="osora_k", rank=2)
        first = build_adapter(w0, method, seed=66)
        frozen_bytes = {name: arr.tobytes() for name, arr in first.frozen.items()}
        init = trainable_vector(first).tobytes()
        del first
        gc.collect()
        again = build_adapter(w0, method, seed=66)
        assert len(svd_calls) == 2
        assert {name: arr.tobytes() for name, arr in again.frozen.items()} == frozen_bytes
        assert trainable_vector(again).tobytes() == init

    @pytest.mark.parametrize("tag,o_init", LIVE_BUILDS)
    def test_rebuild_of_a_live_adapter_runs_no_svd(self, tag, o_init, svd_calls):
        w0 = random_matrix(9, 7, 69, "gaussian")
        method = AdapterMethod(tag=tag, rank=2, o_init=o_init)
        first = build_adapter(w0, method, seed=69)
        init = {name: arr.tobytes() for name, arr in first.trainable.items()}
        load_trainable(first, trainable_vector(first) + 0.5)
        calls = len(svd_calls)
        second = build_adapter(w0, method, seed=69)
        assert len(svd_calls) == calls
        assert_frozen_rebuilt_over_shared(second, first)
        assert {name: arr.tobytes() for name, arr in second.trainable.items()} == init

    @pytest.mark.parametrize(
        "reshape,fields,seed,same_svd",
        [
            (False, {}, 68, True),
            (False, {"rank": 3}, 67, False),
            (False, {"o_init": "gaussian"}, 67, True),
            (False, {"trainable_set": "only_o"}, 67, True),
            (True, {}, 67, False),
        ],
        ids=["seed", "rank", "o_init", "trainable_set", "shape"],
    )
    def test_nothing_shared_across_keys(self, reshape, fields, seed, same_svd, svd_calls):
        # The SVD factors cross every key but shape and rank.
        w0 = random_matrix(6, 8, 67, "gaussian")
        first = build_adapter(w0, AdapterMethod(tag="osora", rank=2), seed=67)
        w = w0.reshape(8, 6) if reshape else w0  # same bytes, other shape
        other = build_adapter(w, AdapterMethod(**{"tag": "osora", "rank": 2, **fields}), seed=seed)
        if same_svd:
            assert other.frozen["u_r"] is first.frozen["u_r"] and other.frozen["v_r"] is first.frozen["v_r"]
            assert len(svd_calls) == 1
        else:
            assert not any(arr is other_arr for arr in first.frozen.values() for other_arr in other.frozen.values())
            assert len(svd_calls) == 2


SVD_BUILDS = [("pissa", "ones")] + [(tag, o_init) for tag in OSORA_FAMILY for o_init in O_INITS]


class TestSharedFactors:
    def test_task_and_all_seven_builds_run_one_svd(self, svd_calls):
        task = make_task(24, 24, 4, seed=70)
        states = [build_adapter(task.w0, AdapterMethod(tag=tag, rank=4), seed=70) for tag in METHODS]
        assert len(svd_calls) == 1
        svd_tags = {tag for tag, _ in SVD_BUILDS}
        assert [state.frozen.factors is task.factors for state in states] == [tag in svd_tags for tag in METHODS]

    @pytest.mark.parametrize("tag,o_init", SVD_BUILDS)
    def test_shared_build_matches_a_cold_build(self, tag, o_init, rng, svd_calls):
        w0 = random_matrix(12, 9, 71, "gaussian")
        method = AdapterMethod(tag=tag, rank=3, o_init=o_init)
        donor = build_adapter(w0, AdapterMethod(tag="osora" if tag == "pissa" else "pissa", rank=3), seed=72)
        shared = build_adapter(w0, method, seed=73)
        assert shared.frozen.factors is donor.frozen.factors
        x = rng.standard_normal((9, 4))
        want = [forward(shared, x), *shared.frozen.values(), *shared.trainable.values()]
        del donor, shared
        gc.collect()
        cold = build_adapter(w0, method, seed=73)
        assert len(svd_calls) == 2
        got = [forward(cold, x), *cold.frozen.values(), *cold.trainable.values()]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_every_svd_build_freezes_the_shared_w0(self):
        # ... and no array of w0's size of its own, a gaussian o_init included.
        task = make_task(12, 12, 3, seed=74)
        for tag, o_init in SVD_BUILDS:
            state = build_adapter(task.w0, AdapterMethod(tag=tag, rank=3, o_init=o_init), seed=74)
            assert state.frozen["w0"] is task.factors.w0
            assert [name for name, arr in state.frozen.items() if arr.size >= task.w0.size] == ["w0"]

    def test_shared_factors_are_read_only(self):
        task = make_task(10, 8, 2, seed=75)
        for arr in (task.factors.u_r, task.factors.s_r, task.factors.v_r, task.factors.w0):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        fresh = svd_truncated(task.w0, 2)
        assert all(arr.flags.writeable for arr in (fresh.u_r, fresh.s_r, fresh.v_r))

    def test_a_rebuild_after_everything_is_dropped_decomposes_again(self, svd_calls):
        task = make_task(10, 10, 2, seed=76)
        state = build_adapter(task.w0, AdapterMethod(tag="osora", rank=2), seed=76)
        w0 = task.w0
        clone = clone_state(state)
        del task, state
        gc.collect()
        assert build_adapter(w0, AdapterMethod(tag="pissa", rank=2), seed=76).frozen.factors is clone.frozen.factors
        assert len(svd_calls) == 1
        del clone
        gc.collect()
        build_adapter(w0, AdapterMethod(tag="pissa", rank=2), seed=76)
        assert len(svd_calls) == 2


BASE_BUILDS = ("lora", "vera", "dora")


class TestSharedBase:
    def test_each_base_build_freezes_its_own_read_only_copy(self):
        w0 = random_matrix(12, 9, 80, "gaussian")
        states = [build_adapter(w0, AdapterMethod(tag=tag, rank=r), seed=80 + r) for tag in BASE_BUILDS for r in (2, 3)]
        bases = [state.frozen["w0"] for state in states]
        assert len({id(base) for base in bases}) == len(states) and all(base is not w0 for base in bases)
        assert all(base.tobytes() == w0.tobytes() and not base.flags.writeable for base in bases)
        assert all(state.frozen.factors is None for state in states)

    def test_nothing_shared_across_shapes_over_the_same_bytes(self):
        w0 = random_matrix(6, 8, 82, "gaussian")
        wide = build_adapter(w0, AdapterMethod(tag="lora", rank=2), seed=82)
        tall = build_adapter(w0.reshape(8, 6), AdapterMethod(tag="lora", rank=2), seed=82)
        assert tall.frozen["w0"] is not wide.frozen["w0"]
        assert tall.frozen["w0"].shape == (8, 6) and wide.frozen["w0"].shape == (6, 8)


@pytest.mark.parametrize("layout", ["C", "F", ">f8"])
def test_weight_digest_matches_a_copied_hash(layout):
    w = random_matrix(7, 5, 77, "gaussian")
    w = {"C": w, "F": np.asfortranarray(w), ">f8": w.astype(">f8")}[layout]
    assert weight_digest(w) == hashlib.sha256(as_matrix(w).astype("<f8").tobytes()).digest()


@settings(max_examples=30, deadline=None)
@given(
    tag=st.sampled_from(METHODS),
    seed=st.integers(0, 2**16),
    scale=st.floats(0.0, 1.0),
)
def test_merge_matches_forward_for_any_trainables(tag, seed, scale):
    state, _ = perturbed_state(tag, 6, 5, 2, seed, scale=scale)
    w = merge(state)
    x = np.random.default_rng(seed + 1).standard_normal(5)
    got = forward(state, x)
    assert rel_inf(w @ x, got) <= 1e-10
