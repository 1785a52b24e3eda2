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
    24      4     reserved (u32) = 0; any other value is rejected
    28      8     seed (u64)
    36      32    SHA-256 of the base weight's row-major f64-LE bytes

A trainable-only checkpoint is the header followed by the flat trainable
vector as f64-LE; nothing else. Before anything is built, loading checks the
digest, the header codes and the payload (its length, and that every value
is finite). It then builds the frozen tensors through build_adapter's
builder, handing it the checked digest so the weight is hashed once,
installs the payload, and checks that the merged weight is finite, as are
the row norms that a magnitude method divides by. Every load builds its own
frozen dict, over the factors and residual shared per (weight, rank) and the
w0 copy shared per weight (see adapters.py), so it runs no SVD while an
adapter or task over that weight lives (the one just saved, say); the rest
comes again from the seeded generators, and with nothing alive the factors
from the sign-fixed SVD. Either way a reload reproduces the saved adapter
bit for bit.

Because the frozen factors are rebuilt, the SVD's output bytes are part of
the format. Over a full-rank weight they are those of every earlier build.
Over a weight whose SVD has a column at or below 1e-12 * ||w||_F, the SVD now
completes the null columns of u by one QR and no longer rotates null columns
against each other: a checkpoint that an older build saved over such a weight
rebuilds different null-space factors, and kept factors that may differ at
roundoff. A code for the SVD algorithm is to go in the reserved field, which
is why a build refuses any value there that it does not know.

The debug snapshot (kind=1) appends named tensor sections instead:
u32 section count, then per section u16 name length, name bytes (utf-8),
u8 ndim, u32 rows, u32 cols, and the f64-LE data. A 1-D section has ndim 1
and rows 1, a 2-D one ndim 2, and no name repeats; load_snapshot refuses
anything else, and a name that is not UTF-8, as CorruptPayload. save_snapshot
is its one writer and load_snapshot its one reader; it exists for test
fixtures and factor dumps, not for the storage-ratio guarantees.
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
    _build_adapter,
    is_finite,
    load_trainable,
    trainable_count,
    trainable_vector,
    weight_digest,
)
from .errors import CorruptPayload, DigestMismatch, InvalidConfig, IoFailure, RankOutOfRange, VersionUnsupported
from .linalg import as_matrix, check_integers, check_seed

MAGIC = b"OSRA"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIBBBBIIIIQ32s")
HEADER_SIZE = _HEADER.size  # 68

_KIND_CHECKPOINT = 0
_KIND_SNAPSHOT = 1

# Method code 255 marks a snapshot that carries bare factors, not an adapter.
_METHOD_NONE = 255


def _pack_header(state: AdapterState) -> bytes:
    check_seed(state.seed)
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
    magic, version, method_code, o_code, set_code, kind, d, k, rank, reserved, seed, digest = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CorruptPayload(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise VersionUnsupported(f"{path}: format version {version}, this build reads {FORMAT_VERSION}")
    if reserved != 0:
        raise CorruptPayload(f"{path}: reserved header field is {reserved}, this build reads only 0")
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
        state = _build_adapter(w, digest, method, seed)  # svd_truncated checks the rank before it decomposes
    except RankOutOfRange as exc:
        raise CorruptPayload(f"{path}: header names no valid adapter: {exc}") from exc
    load_trainable(state, theta)
    if not is_finite(state):
        raise CorruptPayload(f"{path}: payload gives a non-finite merged weight or row norm")
    return state


def _pack_sections(arrays: dict[str, np.ndarray]) -> bytes:
    parts = [struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise InvalidConfig(f"section name is {len(encoded)} UTF-8 bytes, at most 65535 fit")
        a = np.asarray(arr)
        if a.dtype.kind not in "biuf":
            raise InvalidConfig(f"section {name!r} must hold real numbers, got dtype {a.dtype}")
        a = np.ascontiguousarray(a, dtype=np.float64)
        if a.ndim == 1:
            ndim, rows, cols = 1, 1, a.shape[0]
        elif a.ndim == 2:
            ndim, rows, cols = 2, a.shape[0], a.shape[1]
        else:
            raise InvalidConfig(f"section {name!r} must be 1-D or 2-D")
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
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptPayload(f"{path}: section name is not UTF-8: {exc}") from exc
        if name in arrays:
            raise CorruptPayload(f"{path}: section {name!r} repeats")
        ndim, rows, cols = struct.unpack("<BII", take(9))
        if ndim not in (1, 2):
            raise CorruptPayload(f"{path}: section {name!r} has ndim {ndim}, not 1 or 2")
        if ndim == 1 and rows != 1:
            raise CorruptPayload(f"{path}: 1-D section {name!r} has {rows} rows, not 1")
        data = np.frombuffer(take(8 * rows * cols), dtype="<f8")
        arrays[name] = data.reshape((cols,) if ndim == 1 else (rows, cols)).copy()
    if offset != len(blob):
        raise CorruptPayload(f"{path}: {len(blob) - offset} trailing bytes after sections")
    return arrays


def save_snapshot(path, arrays: dict[str, np.ndarray], *, d: int, k: int, rank: int, seed: int = 0, digest: bytes = b"\x00" * 32) -> None:
    """Debug dump of named tensors (factor dumps, fixtures); not size-optimal."""
    check_integers(d=d, k=k, rank=rank)
    for name, value in (("d", d), ("k", k), ("rank", rank)):
        if not 0 <= value < 2**32:
            raise InvalidConfig(f"{name} must be in [0, 2**32), got {value}")
    check_seed(seed)
    if not isinstance(digest, bytes) or len(digest) != 32:
        raise InvalidConfig(f"digest must be 32 bytes, got {digest!r}")
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
