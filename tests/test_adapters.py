import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import osora.adapters
from osora.adapters import trainable_count
from conftest import perturbed_state, rel_inf
from osora import (
    METHODS,
    AdapterMethod,
    DimensionMismatch,
    LengthMismatch,
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
        assert np.allclose(state.frozen["w0_res"], np.diag([0.0, 1.0]), atol=1e-15)

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

    def test_lora_zero_b_merges_exactly(self):
        w0 = random_matrix(8, 8, 14, "gaussian")
        state = build_adapter(w0, AdapterMethod(tag="lora", rank=2), seed=4)
        assert np.array_equal(merge(state), w0)

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
        delta = merge(state) - state.frozen["w0_res"]
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


@pytest.fixture
def svd_calls(monkeypatch):
    """Count the SVDs that build_adapter runs."""
    calls = []
    real = osora.adapters.svd_truncated

    def counted(w, r):
        calls.append(np.shape(w))
        return real(w, r)

    monkeypatch.setattr(osora.adapters, "svd_truncated", counted)
    return calls


class TestLiveRegistry:
    def test_second_build_shares_frozen_and_starts_at_init(self, svd_calls):
        w0 = random_matrix(9, 7, 60, "gaussian")
        method = AdapterMethod(tag="osora", rank=3)
        first = build_adapter(w0, method, seed=61)
        init = {name: arr.tobytes() for name, arr in first.trainable.items()}
        load_trainable(first, trainable_vector(first) + 0.5)
        first.trainable["o"][0] = 7.0  # in place, too
        second = build_adapter(w0, method, seed=61)
        assert len(svd_calls) == 1
        assert second.frozen is first.frozen
        for name, arr in first.frozen.items():
            assert second.frozen[name] is arr
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
        assert second.frozen is first.frozen
        assert trainable_vector(second).tobytes() == init
        assert len(svd_calls) == 1

    def test_a_clone_keeps_the_entry_alive(self, svd_calls):
        w0 = random_matrix(8, 8, 63, "gaussian")
        method = AdapterMethod(tag="pissa", rank=2)
        first = build_adapter(w0, method, seed=64)
        clone = clone_state(first)
        del first
        gc.collect()
        assert build_adapter(w0, method, seed=64).frozen is clone.frozen
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

    @pytest.mark.parametrize(
        "reshape,fields,seed",
        [
            (False, {}, 68),
            (False, {"rank": 3}, 67),
            (False, {"o_init": "gaussian"}, 67),
            (False, {"trainable_set": "only_o"}, 67),
            (True, {}, 67),
        ],
        ids=["seed", "rank", "o_init", "trainable_set", "shape"],
    )
    def test_nothing_shared_across_keys(self, reshape, fields, seed, svd_calls):
        w0 = random_matrix(6, 8, 67, "gaussian")
        first = build_adapter(w0, AdapterMethod(tag="osora", rank=2), seed=67)
        w = w0.reshape(8, 6) if reshape else w0  # same bytes, other shape
        other = build_adapter(w, AdapterMethod(**{"tag": "osora", "rank": 2, **fields}), seed=seed)
        assert other.frozen is not first.frozen
        assert not any(arr is other_arr for arr in first.frozen.values() for other_arr in other.frozen.values())
        assert len(svd_calls) == 2


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
