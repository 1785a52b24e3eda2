"""Binary checkpoint format: trainable payload only, frozen factors rebuilt on load.

Format version 1, all integers little-endian. Header (68 bytes):

    offset  size  field
    0       4     magic b"OSRA"
    4       4     format version (u32) = 1
    8       1     method code (u8, index into METHODS)
    9       1     o_init code (u8: 0=ones, 1=gaussian)
    10      1     trainable_set code (u8: 0=both, 1=only_s, 2=only_o)
    11      1     kind (u8: 0=trainable-only checkpoint, 1=debug snapshot)
    12      4     d (u32)
    16      4     k (u32)
    20      4     rank (u32)
    24      4     reserved (u32) = 0
    28      8     seed (u64)
    36      32    SHA-256 of the base weight's row-major f64-LE bytes

A trainable-only checkpoint is the header followed by the flat trainable
vector as f64-LE; nothing else. Before anything is built, loading checks the
digest, the header codes and the payload (its length, and that every value
is finite). It then obtains the frozen tensors through build_adapter,
installs the payload, and checks that the merged weight is finite, as are
the row norms that a magnitude method divides by. While an
adapter of the same weight, method and seed is alive in the process (the one
just saved, say, or a clone of it), the load reuses its frozen tensors and
runs no SVD; otherwise it re-runs the deterministic build (seeded generators
plus the sign-fixed SVD). Either way a reload reproduces the saved adapter
bit for bit.

The debug snapshot (kind=1) appends named tensor sections instead:
u32 section count, then per section u16 name length, name bytes (utf-8),
u8 ndim, u32 rows, u32 cols, and the f64-LE data. save_snapshot is its one
writer and load_snapshot its one reader; it exists for test fixtures and
factor dumps, not for the storage-ratio guarantees.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .adapters import (
    METHODS,
    O_INITS,
    TRAINABLE_SETS,
    AdapterMethod,
    AdapterState,
    build_adapter,
    is_finite,
    load_trainable,
    trainable_count,
    trainable_vector,
    weight_digest,
)
from .errors import CorruptPayload, DigestMismatch, IoFailure, RankOutOfRange, VersionUnsupported
from .linalg import as_matrix

MAGIC = b"OSRA"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIBBBBIIIIQ32s")
HEADER_SIZE = _HEADER.size  # 68

_KIND_CHECKPOINT = 0
_KIND_SNAPSHOT = 1

# Method code 255 marks a snapshot that carries bare factors, not an adapter.
_METHOD_NONE = 255


def _pack_header(state: AdapterState) -> bytes:
    if not 0 <= state.seed < 2**64:
        raise ValueError(f"seed must fit in u64, got {state.seed}")
    m = state.method
    return _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        METHODS.index(m.tag),
        O_INITS.index(m.o_init),
        TRAINABLE_SETS.index(m.trainable_set),
        _KIND_CHECKPOINT,
        state.d,
        state.k,
        m.rank,
        0,
        state.seed,
        state.w0_digest,
    )


def _unpack_header(blob: bytes, path) -> tuple:
    if len(blob) < HEADER_SIZE:
        raise CorruptPayload(f"{path}: file shorter than the {HEADER_SIZE}-byte header")
    magic, version, method_code, o_code, set_code, kind, d, k, rank, _res, seed, digest = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CorruptPayload(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise VersionUnsupported(f"{path}: format version {version}, this build reads {FORMAT_VERSION}")
    return method_code, o_code, set_code, kind, d, k, rank, seed, digest


def _write(path, blob: bytes) -> None:
    try:
        Path(path).write_bytes(blob)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _read(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def save(state: AdapterState, path) -> None:
    """Write header plus the flat trainable vector; no frozen tensors."""
    payload = trainable_vector(state).astype("<f8").tobytes()
    _write(path, _pack_header(state) + payload)


def load(path, w0) -> AdapterState:
    """Rebuild an adapter from a checkpoint against its original base weight."""
    blob = _read(path)
    method_code, o_code, set_code, kind, d, k, rank, seed, digest = _unpack_header(blob, path)
    if kind != _KIND_CHECKPOINT:
        raise CorruptPayload(f"{path}: not a trainable-only checkpoint (kind={kind})")
    if method_code >= len(METHODS):
        raise CorruptPayload(f"{path}: unknown method code {method_code}")
    if o_code >= len(O_INITS):
        raise CorruptPayload(f"{path}: unknown o_init code {o_code}")
    if set_code >= len(TRAINABLE_SETS):
        raise CorruptPayload(f"{path}: unknown trainable_set code {set_code}")
    w = as_matrix(w0, "w0")
    if weight_digest(w) != digest:
        raise DigestMismatch(f"{path}: base weight digest does not match the checkpoint")
    if w.shape != (d, k):
        raise CorruptPayload(f"{path}: header dims {d}x{k} disagree with weight shape {w.shape}")
    try:
        method = AdapterMethod(
            tag=METHODS[method_code],
            rank=rank,
            o_init=O_INITS[o_code],
            trainable_set=TRAINABLE_SETS[set_code],
        )
    except (ValueError, RankOutOfRange) as exc:
        raise CorruptPayload(f"{path}: header names no valid adapter: {exc}") from exc
    expected = trainable_count(method, d, k)
    payload = blob[HEADER_SIZE:]
    if len(payload) != 8 * expected:
        raise CorruptPayload(f"{path}: payload is {len(payload)} bytes, expected {8 * expected}")
    theta = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(theta).all():
        raise CorruptPayload(f"{path}: payload holds NaN or Inf")
    try:
        state = build_adapter(w, method, seed)  # svd_truncated checks the rank before it decomposes
    except RankOutOfRange as exc:
        raise CorruptPayload(f"{path}: header names no valid adapter: {exc}") from exc
    load_trainable(state, theta)
    if not is_finite(state):
        raise CorruptPayload(f"{path}: payload gives a non-finite merged weight or row norm")
    return state


def _pack_sections(arrays: dict[str, np.ndarray]) -> bytes:
    parts = [struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        a = np.ascontiguousarray(arr, dtype=np.float64)
        if a.ndim == 1:
            ndim, rows, cols = 1, 1, a.shape[0]
        elif a.ndim == 2:
            ndim, rows, cols = 2, a.shape[0], a.shape[1]
        else:
            raise ValueError(f"section {name!r} must be 1-D or 2-D")
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)) + encoded)
        parts.append(struct.pack("<BII", ndim, rows, cols))
        parts.append(a.astype("<f8").tobytes())
    return b"".join(parts)


def _unpack_sections(blob: bytes, offset: int, path) -> dict[str, np.ndarray]:
    def take(n):
        nonlocal offset
        if offset + n > len(blob):
            raise CorruptPayload(f"{path}: snapshot sections truncated")
        chunk = blob[offset : offset + n]
        offset += n
        return chunk

    (count,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8")
        ndim, rows, cols = struct.unpack("<BII", take(9))
        data = np.frombuffer(take(8 * rows * cols), dtype="<f8")
        arrays[name] = data.copy() if ndim == 1 else data.reshape(rows, cols).copy()
    if offset != len(blob):
        raise CorruptPayload(f"{path}: {len(blob) - offset} trailing bytes after sections")
    return arrays


def save_snapshot(path, arrays: dict[str, np.ndarray], *, d: int, k: int, rank: int, seed: int = 0, digest: bytes = b"\x00" * 32) -> None:
    """Debug dump of named tensors (factor dumps, fixtures); not size-optimal."""
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, _METHOD_NONE, 0, 0, _KIND_SNAPSHOT, d, k, rank, 0, seed, digest)
    _write(path, header + _pack_sections(arrays))


def load_snapshot(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read any snapshot as (header metadata, named arrays)."""
    blob = _read(path)
    method_code, o_code, set_code, kind, d, k, rank, seed, digest = _unpack_header(blob, path)
    if kind != _KIND_SNAPSHOT:
        raise CorruptPayload(f"{path}: not a snapshot file")
    meta = {"method_code": method_code, "d": d, "k": k, "rank": rank, "seed": seed, "digest": digest}
    return meta, _unpack_sections(blob, HEADER_SIZE, path)
