"""Build, evaluate, and merge low-rank adapters over a frozen base weight.

Supported methods (tags): lora, vera, pissa, osora, osora_k, dora, osora_dora.
Every adapter is constructed so that forward(state, x) == w0 @ x at init, and
every adapter folds into a single dense matrix via merge() with no residual
inference cost. Frozen tensors are stored as read-only arrays; training only
ever touches the trainable dict.

A build over the same weight bytes, shape, method and seed as an adapter
still alive in the process shares that adapter's frozen dict and starts from
copies of its initial trainables, so it runs no second SVD. The build is
deterministic, so either path yields the same bytes. The registry holds its
entries weakly: one lives exactly as long as some state holds its frozen
dict, and never mutating a state's frozen dict is what makes sharing safe.
Only a build or checkpoint load within the process that still holds the
first adapter gains; a load in a fresh process (say, of the adapter.ckpt
that `osora train` wrote) rebuilds in full, as before.

Forward rules, for base weight w0 of shape d x k and column input x:

  lora        y = w0 x + B A x                       A: r x k, B: d x r
  vera        y = w0 x + diag(b) B diag(dv) A x      frozen random A, B
  pissa       y = w0_res x + B A x                   B = u_r sqrt(s), A = sqrt(s) v_r^T
  osora       y = w0_res x + diag(o) u_r diag(s_r) v_r^T x        o in R^d
  osora_k     y = w0_res x + u_r diag(s_r) v_r^T diag(o) x        o in R^k
  dora        row-magnitude rescale of (w0 + B A)
  osora_dora  row-magnitude rescale of the osora effective weight

The dora-style rescale multiplies output row i of the effective weight by
m_i / ||row_i||, one trainable magnitude per output dimension. The magnitude
vector therefore has length d; this is what makes the per-target trainable
counts in accounting.py come out exactly.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, LengthMismatch, NonFiniteInput, RankOutOfRange
from .linalg import as_matrix, check_finite, random_matrix, svd_truncated

METHODS = ("lora", "vera", "pissa", "osora", "osora_k", "dora", "osora_dora")
OSORA_FAMILY = ("osora", "osora_k", "osora_dora")
O_INITS = ("ones", "gaussian")
TRAINABLE_SETS = ("both", "only_s", "only_o")

# Child-seed slots for the per-adapter RNG streams. Frozen: the checkpoint
# format rebuilds frozen tensors from (seed, slot), so these values are part
# of format version 1.
_SLOT_A_BASE = 1
_SLOT_B_BASE = 2
_SLOT_O_GAUSSIAN = 3

_VERA_D_INIT = 0.1


@dataclass(frozen=True)
class AdapterMethod:
    """Method tag plus per-tag settings (rank, O init, ablation slice)."""

    tag: str
    rank: int
    o_init: str = "ones"
    trainable_set: str = "both"

    def __post_init__(self):
        if self.tag not in METHODS:
            raise ValueError(f"unknown method tag {self.tag!r}; expected one of {METHODS}")
        if self.rank < 1:
            raise RankOutOfRange(f"rank must be >= 1, got {self.rank}")
        if self.o_init not in O_INITS:
            raise ValueError(f"o_init must be one of {O_INITS}, got {self.o_init!r}")
        if self.o_init != "ones" and self.tag not in OSORA_FAMILY:
            raise ValueError(f"o_init applies only to {OSORA_FAMILY}, not {self.tag!r}")
        if self.trainable_set not in TRAINABLE_SETS:
            raise ValueError(f"trainable_set must be one of {TRAINABLE_SETS}")
        if self.trainable_set != "both" and self.tag not in ("osora", "osora_k"):
            raise ValueError("only_s / only_o ablations exist only for osora and osora_k")


@dataclass
class AdapterState:
    """Frozen plus trainable tensors for one adapter over one base weight."""

    method: AdapterMethod
    d: int
    k: int
    seed: int
    frozen: dict[str, np.ndarray]
    trainable: dict[str, np.ndarray]
    w0_digest: bytes = field(repr=False, default=b"")


def weight_digest(w0: np.ndarray) -> bytes:
    """SHA-256 of the row-major little-endian float64 bytes of w0."""
    m = as_matrix(w0, "weight")
    return hashlib.sha256(m.astype("<f8").tobytes()).digest()


def _row_norms(w: np.ndarray) -> np.ndarray:
    return np.sqrt((w * w).sum(axis=1))


class _Frozen(dict):
    """Read-only frozen tensors of one build; `init` holds read-only copies of its initial trainables."""

    __slots__ = ("__weakref__", "init")


# (shape, weight digest, method, seed) -> the frozen tensors of a live build.
# The digest leaves the shape out. Two threads racing on one key only repeat
# the build, and both results hold the same bytes.
_LIVE: weakref.WeakValueDictionary[tuple, _Frozen] = weakref.WeakValueDictionary()


def _read_only(tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    for arr in tensors.values():
        arr.setflags(write=False)
    return tensors


def build_adapter(w0, method: AdapterMethod, seed: int) -> AdapterState:
    """Construct an adapter at the identity point: forward(x) == w0 @ x.

    SVD-based methods decompose w0 here, unless a live adapter of the same
    weight, method and seed already did; the residual is computed with the
    initial trainable values and frozen thereafter.
    """
    w = as_matrix(w0, "w0")
    check_finite(w, "w0")
    digest = weight_digest(w)
    key = (w.shape, digest, method, seed)
    frozen = _LIVE.get(key)
    if frozen is None:
        frozen = _build_frozen(w, method, seed)
        _LIVE[key] = frozen
    return AdapterState(
        method=method,
        d=w.shape[0],
        k=w.shape[1],
        seed=seed,
        frozen=frozen,
        trainable={name: arr.copy() for name, arr in frozen.init.items()},
        w0_digest=digest,
    )


def _build_frozen(w: np.ndarray, method: AdapterMethod, seed: int) -> _Frozen:
    d, k = w.shape
    r = method.rank
    tag = method.tag
    frozen: dict[str, np.ndarray] = {}
    trainable: dict[str, np.ndarray] = {}

    if tag in ("lora", "dora"):
        frozen["w0"] = w.copy()
        trainable["a"] = random_matrix(r, k, (seed, _SLOT_A_BASE), "uniform_scaled")
        trainable["b"] = np.zeros((d, r))
        if tag == "dora":
            trainable["m"] = _row_norms(w)
    elif tag == "vera":
        frozen["w0"] = w.copy()
        frozen["a_base"] = random_matrix(r, k, (seed, _SLOT_A_BASE), "uniform_scaled")
        frozen["b_base"] = random_matrix(d, r, (seed, _SLOT_B_BASE), "uniform_scaled")
        trainable["d_vec"] = np.full(r, _VERA_D_INIT)
        trainable["b_vec"] = np.zeros(d)
    elif tag == "pissa":
        f = svd_truncated(w, r)
        root = np.sqrt(f.s_r)
        frozen["w0_res"] = f.residual
        trainable["b"] = np.ascontiguousarray(f.u_r * root)
        trainable["a"] = np.ascontiguousarray(root[:, None] * f.v_r.T)
    elif tag in OSORA_FAMILY:
        f = svd_truncated(w, r)
        o_len = k if tag == "osora_k" else d
        if method.o_init == "gaussian":
            o = random_matrix(o_len, 1, (seed, _SLOT_O_GAUSSIAN), "gaussian").ravel()
        else:
            o = np.ones(o_len)
        s_r = f.s_r.copy()
        core = (f.u_r * s_r) @ f.v_r.T
        delta0 = core * o[None, :] if tag == "osora_k" else o[:, None] * core
        frozen["u_r"] = f.u_r
        frozen["v_r"] = f.v_r
        frozen["w0_res"] = w - delta0
        trainable["s_r"] = s_r
        trainable["o"] = np.ascontiguousarray(o)
        if tag == "osora_dora":
            trainable["m"] = _row_norms(frozen["w0_res"] + delta0)
    else:  # pragma: no cover - tag validated in AdapterMethod
        raise ValueError(tag)

    out = _Frozen(_read_only(frozen))
    out.init = _read_only(trainable)
    return out


def clone_state(state: AdapterState) -> AdapterState:
    """Copy with fresh trainable arrays; frozen tensors are shared (read-only)."""
    return AdapterState(
        method=state.method,
        d=state.d,
        k=state.k,
        seed=state.seed,
        frozen=state.frozen,
        trainable={name: arr.copy() for name, arr in state.trainable.items()},
        w0_digest=state.w0_digest,
    )


def effective_weight(state: AdapterState) -> np.ndarray:
    """Dense base-plus-update weight, before any dora magnitude rescale."""
    t, fz = state.trainable, state.frozen
    tag = state.method.tag
    if tag in ("lora", "dora"):
        return fz["w0"] + t["b"] @ t["a"]
    if tag == "vera":
        return fz["w0"] + (t["b_vec"][:, None] * fz["b_base"]) @ (t["d_vec"][:, None] * fz["a_base"])
    if tag == "pissa":
        return fz["w0_res"] + t["b"] @ t["a"]
    core = (fz["u_r"] * t["s_r"]) @ fz["v_r"].T
    if tag == "osora_k":
        return fz["w0_res"] + core * t["o"][None, :]
    return fz["w0_res"] + t["o"][:, None] * core


def _dora_scale(state: AdapterState, w_eff: np.ndarray) -> np.ndarray:
    norms = _row_norms(w_eff)
    return np.where(norms > 0.0, state.trainable["m"] / np.where(norms > 0.0, norms, 1.0), 0.0)


def forward(state: AdapterState, x) -> np.ndarray:
    """Apply the adapted linear map to x (shape (k,) or (k, n))."""
    xa = np.ascontiguousarray(x, dtype=np.float64)
    single = xa.ndim == 1
    if single:
        xa = xa[:, None]
    if xa.ndim != 2 or xa.shape[0] != state.k:
        raise DimensionMismatch(f"x must have leading dimension {state.k}, got shape {np.shape(x)}")

    t, fz = state.trainable, state.frozen
    tag = state.method.tag
    if tag == "lora":
        y = fz["w0"] @ xa + t["b"] @ (t["a"] @ xa)
    elif tag == "vera":
        y = fz["w0"] @ xa + t["b_vec"][:, None] * (fz["b_base"] @ (t["d_vec"][:, None] * (fz["a_base"] @ xa)))
    elif tag == "pissa":
        y = fz["w0_res"] @ xa + t["b"] @ (t["a"] @ xa)
    elif tag == "osora":
        y = fz["w0_res"] @ xa + t["o"][:, None] * (fz["u_r"] @ (t["s_r"][:, None] * (fz["v_r"].T @ xa)))
    elif tag == "osora_k":
        y = fz["w0_res"] @ xa + fz["u_r"] @ (t["s_r"][:, None] * (fz["v_r"].T @ (t["o"][:, None] * xa)))
    else:  # dora, osora_dora: rescale rows of the effective weight, then apply
        w_eff = effective_weight(state)
        y = _dora_scale(state, w_eff)[:, None] * (w_eff @ xa)
    return y[:, 0] if single else y


def merge(state: AdapterState) -> np.ndarray:
    """Fold the adapter into a single d x k matrix acting exactly like forward()."""
    w_eff = effective_weight(state)
    if state.method.tag in ("dora", "osora_dora"):
        return _dora_scale(state, w_eff)[:, None] * w_eff
    return w_eff


def _slot_names(method: AdapterMethod) -> list[str]:
    tag = method.tag
    if tag in ("osora", "osora_k"):
        tset = method.trainable_set
        if tset == "only_s":
            return ["s_r"]
        if tset == "only_o":
            return ["o"]
        return ["s_r", "o"]
    if tag == "osora_dora":
        return ["s_r", "o", "m"]
    if tag == "vera":
        return ["d_vec", "b_vec"]
    if tag == "dora":
        return ["a", "b", "m"]
    return ["a", "b"]  # lora, pissa


def trainable_slots(state: AdapterState) -> list[str]:
    """Names of trainable tensors in flat-vector layout order."""
    return _slot_names(state.method)


def trainable_count(method: AdapterMethod, d: int, k: int) -> int:
    """Length of the flat trainable vector over a d x k weight, from the shapes alone."""
    r = method.rank
    sizes = {"s_r": r, "d_vec": r, "o": k if method.tag == "osora_k" else d, "m": d, "b_vec": d, "a": r * k, "b": d * r}
    return sum(sizes[name] for name in _slot_names(method))


def trainable_vector(state: AdapterState) -> np.ndarray:
    """Flatten the active trainable tensors into one float64 vector."""
    return np.concatenate([state.trainable[name].ravel() for name in trainable_slots(state)])


def load_trainable(state: AdapterState, flat) -> None:
    """Install a flat vector produced by trainable_vector, in place."""
    vec = np.ascontiguousarray(flat, dtype=np.float64).ravel()
    slots = trainable_slots(state)
    total = trainable_count(state.method, state.d, state.k)
    if vec.size != total:
        raise LengthMismatch(f"expected {total} values for {slots}, got {vec.size}")
    pos = 0
    for name in slots:
        shape = state.trainable[name].shape
        n = state.trainable[name].size
        state.trainable[name] = vec[pos : pos + n].reshape(shape).copy()
        pos += n
