import gc
import struct
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import osora.adapters
from conftest import perturbed_state
from osora import (
    AdapterMethod,
    CorruptPayload,
    DigestMismatch,
    IoFailure,
    METHODS,
    OsoraError,
    VersionUnsupported,
    build_adapter,
    clone_state,
    count_trainable,
    forward,
    merge,
    param_ratio,
    random_matrix,
    svd_truncated,
    trainable_vector,
    weight_digest,
)
from osora.checkpoint import (
    HEADER_SIZE,
    load,
    load_snapshot,
    save,
    save_snapshot,
)
from osora.verify import verify_persist


@pytest.mark.parametrize("tag", METHODS)
def test_roundtrip_is_bitwise(tag, tmp_path, rng):
    state, w0 = perturbed_state(tag, 9, 7, 2, 21)
    path = tmp_path / "a.ckpt"
    save(state, path)
    loaded = load(path, w0)
    x = rng.standard_normal(7)
    assert forward(state, x).tobytes() == forward(loaded, x).tobytes()
    assert np.abs(merge(state) - merge(loaded)).max() <= 1e-12
    for name, arr in state.frozen.items():
        assert loaded.frozen[name].tobytes() == arr.tobytes()


@pytest.mark.parametrize("tag,d,k,r", [("osora", 4096, 4096, 512), ("osora", 12, 30, 5)])
def test_payload_size_formula(tag, d, k, r, tmp_path):
    # size check without building the big adapter: formula only for the large case
    if d <= 64:
        state, _ = perturbed_state(tag, d, k, r, 22)
        save(state, tmp_path / "s.ckpt")
        assert (tmp_path / "s.ckpt").stat().st_size == HEADER_SIZE + 8 * (r + d)
    assert 8 * count_trainable(tag, d, k, r) == 8 * (r + d)


def test_osora_payload_independent_of_k(tmp_path):
    sizes = []
    for k in (6, 18):
        state, _ = perturbed_state("osora", 10, k, 3, 23)
        path = tmp_path / f"w{k}.ckpt"
        save(state, path)
        sizes.append(path.stat().st_size)
    assert sizes[0] == sizes[1]


def test_storage_ratio_equals_param_ratio():
    d, k, r = 48, 20, 4
    osora_bytes = 8 * count_trainable("osora", d, k, r)
    lora_bytes = 8 * count_trainable("lora", d, k, r)
    assert osora_bytes / lora_bytes == param_ratio(d, k, r)


def test_digest_tamper_detected(tmp_path):
    state, w0 = perturbed_state("osora", 8, 6, 2, 24)
    path = tmp_path / "t.ckpt"
    save(state, path)
    blob = bytearray(path.read_bytes())
    blob[HEADER_SIZE - 1] ^= 0xFF  # last digest byte
    path.write_bytes(bytes(blob))
    with pytest.raises(DigestMismatch):
        load(path, w0)


def test_wrong_base_weight_detected(tmp_path):
    state, _ = perturbed_state("lora", 8, 6, 2, 25)
    path = tmp_path / "t.ckpt"
    save(state, path)
    with pytest.raises(DigestMismatch):
        load(path, random_matrix(8, 6, 999, "gaussian"))


def test_truncated_payload_detected(tmp_path):
    state, w0 = perturbed_state("vera", 8, 6, 2, 26)
    path = tmp_path / "t.ckpt"
    save(state, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CorruptPayload):
        load(path, w0)


def test_trailing_bytes_detected(tmp_path):
    state, w0 = perturbed_state("vera", 8, 6, 2, 26)
    path = tmp_path / "t.ckpt"
    save(state, path)
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(CorruptPayload):
        load(path, w0)


def test_bad_magic_detected(tmp_path):
    state, w0 = perturbed_state("osora", 8, 6, 2, 27)
    path = tmp_path / "t.ckpt"
    save(state, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptPayload):
        load(path, w0)


def test_future_version_rejected(tmp_path):
    state, w0 = perturbed_state("osora", 8, 6, 2, 28)
    path = tmp_path / "t.ckpt"
    save(state, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 2)
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionUnsupported):
        load(path, w0)


def test_missing_file_raises_io_failure(tmp_path):
    state, w0 = perturbed_state("osora", 8, 6, 2, 29)
    with pytest.raises(IoFailure):
        load(tmp_path / "does_not_exist.ckpt", w0)


def test_ablation_variant_roundtrip(tmp_path, rng):
    state, w0 = perturbed_state("osora", 8, 6, 2, 30, trainable_set="only_o")
    path = tmp_path / "o.ckpt"
    save(state, path)
    assert path.stat().st_size == HEADER_SIZE + 8 * 8  # only the o slice
    loaded = load(path, w0)
    x = rng.standard_normal(6)
    assert forward(state, x).tobytes() == forward(loaded, x).tobytes()


def test_gaussian_o_init_roundtrip(tmp_path, rng):
    state, w0 = perturbed_state("osora_k", 9, 7, 3, 31, o_init="gaussian")
    path = tmp_path / "g.ckpt"
    save(state, path)
    loaded = load(path, w0)
    x = rng.standard_normal(7)
    assert forward(state, x).tobytes() == forward(loaded, x).tobytes()
    assert loaded.method.o_init == "gaussian"


def test_factor_snapshot_roundtrip(tmp_path):
    w = random_matrix(10, 6, 33, "gaussian")
    f = svd_truncated(w, 3)
    path = tmp_path / "factors.snap"
    save_snapshot(path, {"u_r": f.u_r, "s_r": f.s_r, "v_r": f.v_r, "residual": f.residual}, d=10, k=6, rank=3)
    meta, arrays = load_snapshot(path)
    assert meta["d"] == 10 and meta["rank"] == 3
    assert arrays["u_r"].tobytes() == f.u_r.tobytes()
    assert arrays["s_r"].shape == (3,)
    assert arrays["residual"].shape == (10, 6)


def test_snapshot_not_loadable_as_checkpoint(tmp_path):
    state, w0 = perturbed_state("osora", 8, 6, 2, 34)
    path = tmp_path / "full.snap"
    save_snapshot(path, dict(state.frozen), d=8, k=6, rank=2, digest=state.w0_digest)
    with pytest.raises(CorruptPayload):
        load(path, w0)


def _unreachable(*_args):
    raise AssertionError("must not be called on this path")


@pytest.mark.parametrize("offset,value", [(9, 0x7F), (10, 0x7F)], ids=["o_init_code", "trainable_set_code"])
def test_out_of_range_header_code_is_corrupt(offset, value, tmp_path, monkeypatch):
    state, w0 = perturbed_state("osora", 8, 6, 2, 35)
    path = tmp_path / "h.ckpt"
    save(state, path)
    blob = bytearray(path.read_bytes())
    blob[offset] = value
    path.write_bytes(bytes(blob))
    monkeypatch.setattr("osora.checkpoint.build_adapter", _unreachable)  # rejected before any rebuild
    with pytest.raises(CorruptPayload):
        load(path, w0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_payload_is_corrupt(bad, tmp_path, monkeypatch):
    state, w0 = perturbed_state("osora", 8, 6, 2, 36)
    path = tmp_path / "n.ckpt"
    save(state, path)
    path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", bad))
    monkeypatch.setattr("osora.checkpoint.build_adapter", _unreachable)  # rejected before any rebuild
    with pytest.raises(CorruptPayload):
        load(path, w0)


def test_out_of_range_rank_is_corrupt(tmp_path):
    # An only_o payload is d values whatever the rank, so its length cannot catch a bad rank.
    state = build_adapter(random_matrix(9, 7, 40, "gaussian"), AdapterMethod(tag="osora", rank=2, trainable_set="only_o"), seed=40)
    path = tmp_path / "r.ckpt"
    save(state, path)
    blob = bytearray(path.read_bytes())
    blob[20:24] = struct.pack("<I", 50)
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptPayload):
        load(path, random_matrix(9, 7, 40, "gaussian"))


def test_overflowing_payload_is_corrupt(tmp_path):
    state, w0 = perturbed_state("osora", 8, 6, 2, 36)
    theta = trainable_vector(state)
    theta[0] = theta[2] = 1e300  # s_r[0] and o[0]: finite, but their product is not
    path = tmp_path / "big.ckpt"
    save(state, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:HEADER_SIZE] + theta.astype("<f8").tobytes())
    with pytest.raises(CorruptPayload):
        load(path, w0)


@pytest.mark.parametrize("tag", ["dora", "osora_dora"])
def test_overflowing_row_norm_is_corrupt(tag, tmp_path):
    # One finite entry of 1e160 overflows the squared row norms the magnitude
    # rescale divides by, which would turn those merged rows into zeros.
    state, w0 = perturbed_state(tag, 8, 6, 2, 38)
    theta = trainable_vector(state)
    theta[0] = 1e160  # a[0, 0] for dora, s_r[0] for osora_dora
    path = tmp_path / "norm.ckpt"
    save(state, path)
    path.write_bytes(path.read_bytes()[:HEADER_SIZE] + theta.astype("<f8").tobytes())
    with pytest.raises(CorruptPayload):
        load(path, w0)


@pytest.mark.parametrize("tag", METHODS)
def test_load_of_a_live_adapter_runs_no_svd(tag, tmp_path, rng, monkeypatch):
    state, w0 = perturbed_state(tag, 9, 7, 2, 37)
    path = tmp_path / "live.ckpt"
    save(state, path)
    monkeypatch.setattr(osora.adapters, "svd_truncated", _unreachable)
    loaded = load(path, w0)
    assert loaded.frozen is state.frozen
    x = rng.standard_normal((7, 3))
    assert forward(loaded, x).tobytes() == forward(state, x).tobytes()


@pytest.mark.parametrize("tag", METHODS)
def test_cold_rebuild_is_bitwise(tag, tmp_path, rng):
    state, w0 = perturbed_state(tag, 9, 7, 2, 38)
    clone = clone_state(state)
    path = tmp_path / "cold.ckpt"
    save(state, path)
    x = rng.standard_normal((7, 3))
    want_forward = forward(state, x).tobytes()
    want_frozen = {name: arr.tobytes() for name, arr in state.frozen.items()}
    gone = weakref.ref(state.frozen)
    del state, clone
    gc.collect()
    assert gone() is None  # nothing left to share: the load must rebuild
    loaded = load(path, w0)
    assert forward(loaded, x).tobytes() == want_forward
    assert {name: arr.tobytes() for name, arr in loaded.frozen.items()} == want_frozen


def test_verify_persist_runs_the_cold_rebuild(monkeypatch):
    calls = []
    real = osora.adapters.svd_truncated

    def counted(w, r):
        calls.append(np.shape(w))
        return real(w, r)

    monkeypatch.setattr(osora.adapters, "svd_truncated", counted)
    assert all(row.passed for row in verify_persist(seed=3))
    svd_methods = [tag for tag in METHODS if tag == "pissa" or tag.startswith("osora")]
    assert len(calls) == 2 * len(svd_methods)  # one build and one load each; the load shares nothing


@pytest.fixture(scope="module")
def saved_per_method(tmp_path_factory):
    """One live adapter and its checkpoint per method; the live adapter keeps each load off the SVD."""
    saved = {}
    for tag in METHODS:
        state, w0 = perturbed_state(tag, 8, 6, 2, 39)
        path = tmp_path_factory.mktemp("fuzz") / f"{tag}.ckpt"
        save(state, path)
        saved[tag] = (state, w0, path)
    return saved


@settings(max_examples=100, deadline=None)
@given(
    tag=st.sampled_from(METHODS),
    in_header=st.booleans(),
    offset=st.integers(0, 2**16),
    mask=st.integers(1, 255),
)
@example(tag="lora", in_header=True, offset=9, mask=0x7F)  # o_init code out of range
@example(tag="osora", in_header=True, offset=10, mask=0x7F)  # trainable_set code out of range
@example(tag="osora", in_header=False, offset=15, mask=0x40)  # s_r[1], in [1, 2), becomes Inf or NaN
def test_byte_flip_fuzz(saved_per_method, tag, in_header, offset, mask):
    _, w0, path = saved_per_method[tag]
    blob = bytearray(path.read_bytes())
    # Half the flips land in the header, whose 68 bytes would otherwise draw few of them.
    at = offset % HEADER_SIZE if in_header else HEADER_SIZE + offset % (len(blob) - HEADER_SIZE)
    blob[at] ^= mask
    mutated = path.with_suffix(".mutated")
    mutated.write_bytes(bytes(blob))
    try:
        loaded = load(mutated, w0)
    except OsoraError:
        return
    assert np.isfinite(trainable_vector(loaded)).all()
    assert loaded.w0_digest == weight_digest(w0)
    # A flipped exponent can leave a finite value near the float maximum,
    # which plain arithmetic on a unit-scale input would overflow; a small
    # probe keeps that case finite, so only a non-finite adapter that loaded
    # can make this output non-finite.
    x = 1e-3 * np.random.default_rng(at).standard_normal((6, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(merge(loaded)).all()
        assert np.isfinite(forward(loaded, x)).all()
