import numpy as np
import pytest

from osora import (
    AdapterMethod,
    OsoraError,
    build_adapter,
    count_trainable,
    finite_diff,
    get_preset,
    make_task,
    param_ratio,
    random_matrix,
    save,
    save_snapshot,
    scaling_sweep,
    svd_truncated,
)
from osora.verify import run_scope


def _state_with_seed(seed):
    state = build_adapter(np.eye(4), AdapterMethod(tag="lora", rank=1), seed=0)
    state.seed = seed
    return state


# Every bad setting or argument the public API rejects, one case per raise site.
BAD_CALLS = {
    "count_unknown_method": lambda tmp: count_trainable("nope", 4, 4, 1),
    "count_nonpositive_dims": lambda tmp: count_trainable("lora", 0, 4, 1),
    "count_non_integer_dims": lambda tmp: count_trainable("osora", 8.5, 8, 2),
    "sweep_unsorted_ranks": lambda tmp: scaling_sweep(get_preset("mistral7b_v03"), ["osora"], [2, 1]),
    "ratio_nonpositive_dims": lambda tmp: param_ratio(0, 4, 1),
    "ratio_boolean_rank": lambda tmp: param_ratio(8, 8, True),
    "unknown_preset": lambda tmp: get_preset("nope"),
    "method_unknown_tag": lambda tmp: AdapterMethod(tag="nope", rank=1),
    "method_non_integer_rank": lambda tmp: AdapterMethod(tag="osora", rank=2.0),
    "method_unknown_o_init": lambda tmp: AdapterMethod(tag="osora", rank=1, o_init="zeros"),
    "method_o_init_outside_osora": lambda tmp: AdapterMethod(tag="lora", rank=1, o_init="gaussian"),
    "method_unknown_trainable_set": lambda tmp: AdapterMethod(tag="osora", rank=1, trainable_set="only_x"),
    "method_ablation_outside_osora": lambda tmp: AdapterMethod(tag="lora", rank=1, trainable_set="only_s"),
    "build_negative_seed": lambda tmp: build_adapter(np.eye(4), AdapterMethod(tag="lora", rank=1), seed=-1),
    "save_seed_past_u64": lambda tmp: save(_state_with_seed(2**64), tmp / "a.ckpt"),
    "save_non_integer_seed": lambda tmp: save(_state_with_seed(1.5), tmp / "a.ckpt"),
    "task_non_integer_dims": lambda tmp: make_task(8.0, 8, 2, 0),
    "task_non_integer_probe_count": lambda tmp: make_task(8, 8, 2, 0, n=16.0),
    "task_negative_seed": lambda tmp: make_task(8, 8, 2, seed=-1),
    "snapshot_3d_section": lambda tmp: save_snapshot(
        tmp / "s.ckpt", {"x": np.zeros((1, 1, 1))}, d=1, k=1, rank=1
    ),
    "snapshot_name_past_u16": lambda tmp: save_snapshot(tmp / "s.ckpt", {"x" * 65536: np.zeros(1)}, d=1, k=1, rank=1),
    "snapshot_dims_past_u32": lambda tmp: save_snapshot(tmp / "s.ckpt", {}, d=2**32, k=1, rank=1),
    "snapshot_negative_rank": lambda tmp: save_snapshot(tmp / "s.ckpt", {}, d=1, k=1, rank=-1),
    "snapshot_seed_past_u64": lambda tmp: save_snapshot(tmp / "s.ckpt", {}, d=1, k=1, rank=1, seed=2**64),
    "snapshot_short_digest": lambda tmp: save_snapshot(tmp / "s.ckpt", {}, d=1, k=1, rank=1, digest=b"ab"),
    "snapshot_non_numeric_array": lambda tmp: save_snapshot(
        tmp / "s.ckpt", {"x": np.array(["a", "b"])}, d=1, k=1, rank=1
    ),
    "finite_diff_nonpositive_step": lambda tmp: finite_diff(
        build_adapter(np.eye(2), AdapterMethod(tag="osora", rank=1), 0), np.eye(2), np.eye(2), h=0.0
    ),
    "finite_diff_non_finite_step": lambda tmp: finite_diff(
        build_adapter(np.eye(2), AdapterMethod(tag="osora", rank=1), 0), np.eye(2), np.eye(2), h=float("nan")
    ),
    "random_matrix_unknown_scheme": lambda tmp: random_matrix(2, 2, 0, "nope"),
    "random_matrix_non_integer_dims": lambda tmp: random_matrix(2.0, 2, 0),
    "random_matrix_negative_dims": lambda tmp: random_matrix(-1, 2, 0),
    "random_matrix_negative_seed": lambda tmp: random_matrix(2, 2, -1),
    "svd_non_integer_rank": lambda tmp: svd_truncated(np.eye(3), 2.5),
    "verify_unknown_scope": lambda tmp: run_scope("nope"),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_argument_raises_package_error(call, tmp_path):
    # InvalidConfig is both an OsoraError and a ValueError, so callers catching either still see it.
    with pytest.raises(OsoraError) as info:
        call(tmp_path)
    assert isinstance(info.value, ValueError)
