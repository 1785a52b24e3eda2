import gc
import struct
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import osora.adapters
import osora.checkpoint
from conftest import assert_frozen_rebuilt_over_shared, perturbed_state
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
    load_trainable,
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
from osora.adapters import O_INITS, OSORA_FAMILY
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


@pytest.mark.parametrize("tag", ["vera", "osora"])
def test_largest_u64_seed_round_trips(tag, tmp_path):
    w0 = random_matrix(6, 5, 24, "gaussian")
    state = build_adapter(w0, AdapterMethod(tag=tag, rank=2, o_init="gaussian" if tag == "osora" else "ones"), 2**64 - 1)
    save(state, tmp_path / "u64.ckpt")
    loaded = load(tmp_path / "u64.ckpt", w0)
    assert loaded.seed == 2**64 - 1
    assert trainable_vector(loaded).tobytes() == trainable_vector(state).tobytes()


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
    monkeypatch.setattr("osora.checkpoint._build_adapter", _unreachable)  # rejected before any rebuild
    with pytest.raises(CorruptPayload):
        load(path, w0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_payload_is_corrupt(bad, tmp_path, monkeypatch):
    state, w0 = perturbed_state("osora", 8, 6, 2, 36)
    path = tmp_path / "n.ckpt"
    save(state, path)
    path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", bad))
    monkeypatch.setattr("osora.checkpoint._build_adapter", _unreachable)  # rejected before any rebuild
    with pytest.raises(CorruptPayload):
        load(path, w0)


def test_nonzero_reserved_field_is_corrupt(tmp_path, monkeypatch):
    # The u32 at offset 24 is reserved for a later format code; an older build must refuse it, not ignore it.
    state, w0 = perturbed_state("osora", 8, 6, 2, 41)
    save(state, tmp_path / "c.ckpt")
    save_snapshot(tmp_path / "s.snap", {"s_r": state.trainable["s_r"]}, d=8, k=6, rank=2)
    monkeypatch.setattr("osora.checkpoint._build_adapter", _unreachable)  # rejected before any rebuild
    for name, read in (("c.ckpt", lambda p: load(p, w0)), ("s.snap", load_snapshot)):
        path = tmp_path / name
        blob = bytearray(path.read_bytes())
        blob[24] = 1
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptPayload):
            read(path)


# A two-section snapshot: "s_r" (1-D, 4 values) and then "u_r" (3x2). Section
# one's fields sit at fixed offsets after the header's 68 bytes and the u32
# section count: u16 name length at 72, name at 74, ndim at 77, rows at 78,
# cols at 82, data from 86; section two starts at 118 with its name at 120.
_S_NAME, _S_NDIM, _S_ROWS, _U_NAME = 74, 77, 78, 120


def _snapshot_blob(tmp_path):
    path = tmp_path / "two.snap"
    save_snapshot(path, {"s_r": np.arange(1.0, 5.0), "u_r": np.ones((3, 2))}, d=3, k=2, rank=2)
    return path, bytearray(path.read_bytes())


def _load_mutated(path, blob):
    path.write_bytes(bytes(blob))
    return load_snapshot(path)


def test_snapshot_name_not_utf8_is_corrupt(tmp_path):
    path, blob = _snapshot_blob(tmp_path)
    blob[_S_NAME] = 0xFF
    with pytest.raises(CorruptPayload):
        _load_mutated(path, blob)


@pytest.mark.parametrize("ndim", [0, 3, 9])
def test_snapshot_ndim_other_than_one_or_two_is_corrupt(ndim, tmp_path):
    path, blob = _snapshot_blob(tmp_path)
    blob[_S_NDIM] = ndim
    with pytest.raises(CorruptPayload):
        _load_mutated(path, blob)


def test_snapshot_one_d_section_with_rows_is_corrupt(tmp_path):
    # 2 rows of 2 columns hold the same 4 values as the 1-D section declared.
    path, blob = _snapshot_blob(tmp_path)
    struct.pack_into("<II", blob, _S_ROWS, 2, 2)
    with pytest.raises(CorruptPayload):
        _load_mutated(path, blob)


def test_snapshot_repeated_name_is_corrupt(tmp_path):
    path, blob = _snapshot_blob(tmp_path)
    blob[_U_NAME] = ord("s")
    with pytest.raises(CorruptPayload):
        _load_mutated(path, blob)


@settings(max_examples=200, deadline=None)
@given(in_header=st.booleans(), offset=st.integers(0, 2**16), mask=st.integers(1, 255))
@example(in_header=False, offset=_S_NAME - HEADER_SIZE, mask=0x80)  # name not UTF-8
@example(in_header=False, offset=_U_NAME - HEADER_SIZE, mask=0x06)  # "u_r" becomes a second "s_r"
@example(in_header=False, offset=_S_NDIM - HEADER_SIZE, mask=0x02)  # ndim 1 becomes 3
@example(in_header=False, offset=_S_NDIM - HEADER_SIZE, mask=0x03)  # ndim 1 becomes 2: a 1x4 section
@example(in_header=True, offset=8, mask=0x01)  # method code, which a snapshot does not check
def test_snapshot_byte_flip_fuzz(tmp_path_factory, in_header, offset, mask):
    path, blob = _snapshot_blob(tmp_path_factory.mktemp("snapfuzz"))
    at = offset % HEADER_SIZE if in_header else HEADER_SIZE + offset % (len(blob) - HEADER_SIZE)
    blob[at] ^= mask
    try:
        meta, arrays = _load_mutated(path, blob)
    except OsoraError:
        return
    # Whatever loads has the shapes and values its sections declare: writing
    # it out again reproduces the flipped file's sections byte for byte.
    again = path.with_name("again.snap")
    save_snapshot(again, arrays, d=meta["d"], k=meta["k"], rank=meta["rank"], seed=meta["seed"], digest=meta["digest"])
    assert again.read_bytes()[HEADER_SIZE:] == bytes(blob[HEADER_SIZE:])


def test_load_hashes_the_base_weight_once(tmp_path, monkeypatch):
    state, w0 = perturbed_state("osora", 9, 7, 2, 42)
    path = tmp_path / "d.ckpt"
    save(state, path)
    calls = []

    def counted(w):
        calls.append(np.shape(w))
        return weight_digest(w)

    monkeypatch.setattr(osora.adapters, "weight_digest", counted)
    monkeypatch.setattr(osora.checkpoint, "weight_digest", counted)
    loaded = load(path, w0)
    assert calls == [(9, 7)]
    assert loaded.w0_digest == state.w0_digest


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
def test_load_of_a_live_adapter_runs_no_svd(tag, tmp_path, rng, svd_calls):
    for o_init in O_INITS if tag in OSORA_FAMILY else ("ones",):
        state, w0 = perturbed_state(tag, 9, 7, 2, 37, o_init=o_init)
        path = tmp_path / f"live-{o_init}.ckpt"
        save(state, path)
        calls = len(svd_calls)
        loaded = load(path, w0)
        assert len(svd_calls) == calls
        assert_frozen_rebuilt_over_shared(loaded, state)
        assert not any(loaded.trainable[name] is arr for name, arr in state.trainable.items())
        x = rng.standard_normal((7, 3))
        assert forward(loaded, x).tobytes() == forward(state, x).tobytes()


@pytest.mark.parametrize("tag", METHODS)
def test_cold_rebuild_is_bitwise(tag, tmp_path, rng, svd_calls):
    state, w0 = perturbed_state(tag, 9, 7, 2, 38)
    clone = clone_state(state)
    path = tmp_path / "cold.ckpt"
    save(state, path)
    x = rng.standard_normal((7, 3))
    want_forward = forward(state, x).tobytes()
    want_frozen = {name: arr.tobytes() for name, arr in state.frozen.items()}
    factors = state.frozen.factors
    gone = weakref.ref(state.frozen["w0"] if factors is None else factors)
    del state, clone, factors
    gc.collect()
    assert gone() is None  # nothing left to share: the load must rebuild
    calls = len(svd_calls)
    loaded = load(path, w0)
    assert len(svd_calls) == calls + (loaded.frozen.factors is not None)
    assert forward(loaded, x).tobytes() == want_forward
    assert {name: arr.tobytes() for name, arr in loaded.frozen.items()} == want_frozen


@pytest.mark.parametrize("tag", ["osora", "osora_k", "osora_dora", "pissa"])
def test_cold_rebuild_over_a_rank_deficient_weight(tag, tmp_path, rng, svd_calls):
    # An exact rank-2 weight at adapter rank 4: u_r holds two QR-completed columns.
    w0 = random_matrix(12, 2, (43, 1), "gaussian") @ random_matrix(2, 10, (43, 2), "gaussian")
    state = build_adapter(w0, AdapterMethod(tag=tag, rank=4), 43)
    theta = trainable_vector(state)
    load_trainable(state, theta + 0.2 * rng.standard_normal(theta.size))
    path = tmp_path / "deficient.ckpt"
    save(state, path)
    x = rng.standard_normal((10, 3))
    want_forward = forward(state, x).tobytes()
    want_frozen = {name: arr.tobytes() for name, arr in state.frozen.items()}
    factors = weakref.ref(state.frozen.factors)
    del state
    gc.collect()
    assert factors() is None  # the shared factor entry is gone
    loaded = load(path, w0)
    assert svd_calls == [(12, 10), (12, 10)]  # the build's SVD, and the load's again
    assert not loaded.frozen.factors.s_r[2:].any()
    assert forward(loaded, x).tobytes() == want_forward
    assert {name: arr.tobytes() for name, arr in loaded.frozen.items()} == want_frozen


def test_verify_persist_runs_the_cold_rebuild(svd_calls):
    assert all(row.passed for row in verify_persist(seed=3))
    svd_methods = [tag for tag in METHODS if tag == "pissa" or tag.startswith("osora")]
    assert len(svd_calls) == 2 * len(svd_methods)  # one build and one load each; the load shares nothing


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
@example(tag="pissa", in_header=True, offset=24, mask=0x01)  # reserved header field nonzero
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
