import numpy as np
import pytest

from conftest import SVD_PATH_CASES
from osora import (
    AdapterMethod,
    OsoraError,
    TrainConfig,
    build_adapter,
    count_trainable,
    finite_diff,
    forward,
    get_preset,
    gradient,
    load,
    load_trainable,
    make_task,
    param_ratio,
    random_matrix,
    report,
    save,
    scaling_sweep,
    svd_truncated,
    train,
    weight_digest,
)
from osora.verify import run_scope


def _lora():
    return build_adapter(np.eye(4), AdapterMethod(tag="lora", rank=1), seed=0)


def _state_with_seed(seed):
    state = _lora()
    state.seed = seed
    return state


def _norm_overflow(d, k, r):
    # Finite entries whose ||w||_F overflows, at one SVD path's row.
    return lambda tmp: svd_truncated(np.full((d, k), 1e308), r)


# Every bad setting or argument the public API rejects, one case per raise site.
BAD_CALLS = {
    "count_unknown_method": lambda tmp: count_trainable("nope", 4, 4, 1),
    "count_nonpositive_dims": lambda tmp: count_trainable("lora", 0, 4, 1),
    "count_non_integer_dims": lambda tmp: count_trainable("osora", 8.5, 8, 2),
    "sweep_unsorted_ranks": lambda tmp: scaling_sweep(get_preset("mistral7b_v03"), ["osora"], [2, 1]),
    "sweep_non_integer_rank": lambda tmp: scaling_sweep(get_preset("qwen2_7b"), ["lora"], [4, "8"]),
    "sweep_preset_name": lambda tmp: scaling_sweep("qwen2_7b", ["lora"], [4]),
    "sweep_no_methods": lambda tmp: scaling_sweep(get_preset("qwen2_7b"), [], [4]),
    "sweep_preset_name_no_methods": lambda tmp: scaling_sweep("qwen2_7b", [], [4]),
    "sweep_methods_none": lambda tmp: scaling_sweep(get_preset("qwen2_7b"), None, [4]),
    "sweep_methods_string": lambda tmp: scaling_sweep(get_preset("qwen2_7b"), "lora", [4]),
    "report_preset_name": lambda tmp: report("qwen2_7b", "lora", 4),
    "ratio_nonpositive_dims": lambda tmp: param_ratio(0, 4, 1),
    "ratio_boolean_rank": lambda tmp: param_ratio(8, 8, True),
    "unknown_preset": lambda tmp: get_preset("nope"),
    "unhashable_preset": lambda tmp: get_preset(["x"]),
    "method_unknown_tag": lambda tmp: AdapterMethod(tag="nope", rank=1),
    "method_non_integer_rank": lambda tmp: AdapterMethod(tag="osora", rank=2.0),
    "method_unknown_o_init": lambda tmp: AdapterMethod(tag="osora", rank=1, o_init="zeros"),
    "method_o_init_outside_osora": lambda tmp: AdapterMethod(tag="lora", rank=1, o_init="gaussian"),
    "method_unknown_trainable_set": lambda tmp: AdapterMethod(tag="osora", rank=1, trainable_set="only_x"),
    "method_ablation_outside_osora": lambda tmp: AdapterMethod(tag="lora", rank=1, trainable_set="only_s"),
    "build_negative_seed": lambda tmp: build_adapter(np.eye(4), AdapterMethod(tag="lora", rank=1), seed=-1),
    "build_method_tag_string": lambda tmp: build_adapter(np.eye(4), "osora", 1),
    "train_config_dict": lambda tmp: train(_lora(), make_task(4, 4, 1, 0), {"steps": 2, "lr": 0.01}),
    "save_path_none": lambda tmp: save(_lora(), None),
    "load_path_none": lambda tmp: load(None, np.eye(4)),
    "save_seed_past_u64": lambda tmp: save(_state_with_seed(2**64), tmp / "a.ckpt"),
    "save_non_integer_seed": lambda tmp: save(_state_with_seed(1.5), tmp / "a.ckpt"),
    "task_non_integer_dims": lambda tmp: make_task(8.0, 8, 2, 0),
    "task_non_integer_probe_count": lambda tmp: make_task(8, 8, 2, 0, n=16.0),
    "task_negative_seed": lambda tmp: make_task(8, 8, 2, seed=-1),
    # Sizes whose byte counts numpy cannot address, so it refuses them before allocating.
    "task_probes_past_address_space": lambda tmp: make_task(4, 4, 2, 0, n=2**62),
    "train_steps_past_address_space": lambda tmp: TrainConfig(steps=10**20, lr=0.1),
    "random_matrix_past_address_space": lambda tmp: random_matrix(2**40, 2**40, 0),
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
    **{f"svd_norm_overflow_{case.id}": _norm_overflow(*case.values[1:]) for case in SVD_PATH_CASES},
    "verify_unknown_scope": lambda tmp: run_scope("nope"),
    "build_non_numeric_weight": lambda tmp: build_adapter("abc", AdapterMethod(tag="lora", rank=1), 0),
    "build_ragged_weight": lambda tmp: build_adapter([[1.0, 2.0], [3.0]], AdapterMethod(tag="lora", rank=1), 0),
    "build_complex_weight": lambda tmp: build_adapter(np.eye(4) * (1 + 1j), AdapterMethod(tag="osora", rank=1), 0),
    "forward_non_numeric_input": lambda tmp: forward(_lora(), "abc"),
    "forward_complex_input": lambda tmp: forward(_lora(), np.ones(4) * 1j),
    "load_trainable_non_numeric": lambda tmp: load_trainable(_lora(), "abc"),
    "gradient_non_numeric_probes": lambda tmp: gradient(_lora(), "abc", np.eye(4)),
    "gradient_complex_targets": lambda tmp: gradient(_lora(), np.eye(4), np.eye(4) * 1j),
    "svd_non_numeric_input": lambda tmp: svd_truncated("abc", 1),
    "digest_non_numeric_weight": lambda tmp: weight_digest("abc"),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_argument_raises_package_error(call, tmp_path):
    # InvalidConfig and NonFiniteInput are both OsoraErrors and ValueErrors,
    # so callers catching either still see them.
    with pytest.raises(OsoraError) as info:
        call(tmp_path)
    assert isinstance(info.value, ValueError)
