"""Binary checkpoint format: trainable payload only, frozen factors rebuilt on load.

Format version 1, all integers little-endian. Header (68 bytes):

    offset  size  field
    0       4     magic b"OSRA"
    4       4     format version (u32) = 1
    8       1     method code (u8, index into METHODS)
    9       1     o_init code (u8: 0=ones, 1=gaussian)
    10      1     trainable_set code (u8: 0=both, 1=only_s, 2=only_o)
    11      1     kind (u8: 0; any other value is refused)
    12      4     d (u32)
    16      4     k (u32)
    20      4     rank (u32)
    24      4     SVD path code (u32: 0=jacobi, 2=top_r, 3=lapack; 1 is refused)
    28      8     seed (u64)
    36      32    SHA-256 of the base weight's row-major f64-LE bytes

A trainable-only checkpoint is the header followed by the flat trainable
vector as f64-LE; nothing else. It is the one kind this build writes or
reads: load refuses any other kind byte, the debug snapshots (kind 1) of
older builds included, as CorruptPayload.

Before anything is built, loading checks the digest, the header codes and
the payload (its length, and that every value is finite). It then builds
the frozen tensors through build_adapter's builder, handing it the checked
digest so the weight is hashed once, installs the payload, and checks that
the merged weight is finite, as are the row norms that a magnitude method
divides by. Every load builds its own frozen dict, over the factors and
residual shared per (weight, rank) (see adapters.py), so it runs no SVD
while an adapter or task over that weight lives (the one just saved, say);
the rest, a w0 copy included, comes again from the weight and the seeded
generators, and with nothing alive the factors from the sign-fixed SVD.
Either way a reload reproduces the saved adapter bit for bit.

Because the frozen factors are rebuilt, the SVD's output bytes are part of
the format. Over a full-rank weight they are those of every earlier build.
Over a weight whose SVD has a column at or below 1e-12 * ||w||_F, the SVD now
completes the null columns of u by one QR and no longer rotates null columns
against each other: a checkpoint that an older build saved over such a weight
rebuilds different null-space factors, and kept factors that may differ at
roundoff. At a top-r shape, every path now finishing its factors alike (see
linalg) moved the null cut from ||Q^T w||_F to ||w||_F, took the null columns
of u from the QR completion, and made zero rows and columns exact: top-r
factors over a weight with such a column or an all-zero row or column
rebuild differently from older builds, at roundoff.

The u32 at offset 24 names the SVD path that linalg.svd_path selects for the
header's (d, k, rank), whatever the method, out of three: 0 for the full
Jacobi SVD (min(d, k) < 128), 2 for the top-r power iteration
(min(d, k) >= 256 and 2 * (rank + 8) <= min(d, k)), whose Ritz step takes
LAPACK's SVD of the small projection, and 3 for LAPACK's full SVD at every
other shape with min(d, k) >= 128. Code 1 was the top-r path with its Ritz
step on the Jacobi SVD; no build writes it any more. The paths give different
factor bytes, so load refuses a code that is not the one this build selects
with VersionUnsupported: code 1 at any shape, code 0 or 2 at a LAPACK shape,
which older builds wrote there, and code 0 at a top-r shape. Any other code is
CorruptPayload. Checkpoints of Jacobi shapes load as before, and their bytes
are unchanged. Since the top-r and LAPACK factors come from LAPACK's gesdd, a
cold load under another numpy or LAPACK build may rebuild them differently at
roundoff: the contract is byte-identical reruns within one build.
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
from .errors import CorruptPayload, DigestMismatch, IoFailure, RankOutOfRange, VersionUnsupported
from .linalg import as_matrix, check_seed, svd_path

MAGIC = b"OSRA"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIBBBBIIIIQ32s")
HEADER_SIZE = _HEADER.size  # 68

_KIND_CHECKPOINT = 0

# The SVD path names of linalg.svd_path, indexed by the code at header offset 24.
# Code 1 is the top-r path with its Ritz step on the Jacobi SVD, which no
# build since takes, so no path selects it and load refuses it.
_SVD_PATH_CODES = ("jacobi", "top_r_jacobi_ritz", "top_r", "lapack")


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
        _SVD_PATH_CODES.index(svd_path(state.d, state.k, m.rank)),
        state.seed,
        state.w0_digest,
    )


def _unpack_header(blob: bytes, path) -> tuple:
    if len(blob) < HEADER_SIZE:
        raise CorruptPayload(f"{path}: file shorter than the {HEADER_SIZE}-byte header")
    magic, version, *fields = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CorruptPayload(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise VersionUnsupported(f"{path}: format version {version}, this build reads {FORMAT_VERSION}")
    return fields


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
    method_code, o_code, set_code, kind, d, k, rank, svd_code, seed, digest = _unpack_header(blob, path)
    if kind != _KIND_CHECKPOINT:
        raise CorruptPayload(f"{path}: not a trainable-only checkpoint (kind={kind})")
    if method_code >= len(METHODS):
        raise CorruptPayload(f"{path}: unknown method code {method_code}")
    if o_code >= len(O_INITS):
        raise CorruptPayload(f"{path}: unknown o_init code {o_code}")
    if set_code >= len(TRAINABLE_SETS):
        raise CorruptPayload(f"{path}: unknown trainable_set code {set_code}")
    if svd_code >= len(_SVD_PATH_CODES):
        raise CorruptPayload(f"{path}: unknown SVD path code {svd_code}")
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
    if _SVD_PATH_CODES[svd_code] != svd_path(d, k, rank):
        raise VersionUnsupported(
            f"{path}: saved with the {_SVD_PATH_CODES[svd_code]} SVD path, but this build takes the "
            f"{svd_path(d, k, rank)} path at {d}x{k} rank {rank} and would rebuild other factors"
        )
    try:
        state = _build_adapter(w, digest, method, seed)  # svd_truncated checks the rank before it decomposes
    except RankOutOfRange as exc:
        raise CorruptPayload(f"{path}: header names no valid adapter: {exc}") from exc
    load_trainable(state, theta)
    if not is_finite(state):
        raise CorruptPayload(f"{path}: payload gives a non-finite merged weight or row norm")
    return state
