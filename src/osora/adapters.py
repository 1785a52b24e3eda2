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

Each rule above is one record in `_TABLE`, keyed by tag: the frozen base
tensor, the trainable slots in flat-layout order, and the init, dense update,
factored update and per-slot gradient functions, plus `fixed`, the products
of frozen tensors with the probes that the factored update and the gradient
read. dora and osora_dora are the lora and osora records with the magnitude
flag set, a trailing `m` slot, and the row norms of the effective weight.
build_adapter, effective_weight, forward, merge, the slot layout and the
gradients.py train step are each one generic body over that table.
"""

from __future__ import annotations

import hashlib
import weakref
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, LengthMismatch, RankOutOfRange
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


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i of the result is a[i] . b[i], with no a * b temporary."""
    return np.einsum("ij,ij->i", a, b)


def _dora_scale(state: AdapterState, norms: np.ndarray) -> np.ndarray:
    return np.where(norms > 0.0, state.trainable["m"] / np.where(norms > 0.0, norms, 1.0), 0.0)


def _no_products(fz, x) -> dict[str, np.ndarray]:
    return {}


@dataclass(frozen=True)
class _Method:
    """One method: forward(x) = fz[base] @ x + apply(fz, t, fx, x), merged as fz[base] + delta(fz, t).

    `fz` and `t` are an adapter's frozen and trainable dicts, and `fx` is
    fixed(fz, x). A magnitude method instead rescales each row of that merged
    weight to the trainable norm m, its trailing slot.
    """

    base: str  # frozen base tensor: "w0", or "w0_res" for the SVD-initialized methods
    slots: tuple[str, ...]  # trainable slots in flat-layout order
    init: Callable  # (w, method, seed) -> (frozen, trainable), without m
    delta: Callable  # (fz, t) -> dense d x k update
    apply: Callable  # (fz, t, fx, x) -> delta @ x, without forming delta
    grad: Callable  # (fz, t, fx, r, x) -> {slot: gradient} for the update gradient r x^T; without m
    products: Callable = _no_products  # (fz, x) -> frozen-times-probe products that apply and grad read
    # Magnitude methods only: (fz, t, fx) -> (row norms of the effective weight, w),
    # and (fz, t, c, w) -> {slot: gradient} for the update gradient diag(c) w_eff.
    norms: Callable | None = None
    grad_rows: Callable | None = None
    o_axis: int = 0  # the axis of w that the o vector runs along

    @property
    def magnitude(self) -> bool:
        return self.norms is not None

    def fixed(self, fz, x) -> dict[str, np.ndarray]:
        """Products of frozen tensors with the probes x: "base" is fz[base] @ x."""
        return {"base": fz[self.base] @ x, **self.products(fz, x)}


def _with_magnitude(entry: _Method, **fields) -> _Method:
    return replace(entry, slots=entry.slots + ("m",), **fields)


def _lora_init(w: np.ndarray, method: AdapterMethod, seed: int):
    d, k = w.shape
    a = random_matrix(method.rank, k, (seed, _SLOT_A_BASE), "uniform_scaled")
    return {"w0": w.copy()}, {"a": a, "b": np.zeros((d, method.rank))}


def _vera_init(w: np.ndarray, method: AdapterMethod, seed: int):
    d, k = w.shape
    r = method.rank
    frozen = {
        "w0": w.copy(),
        "a_base": random_matrix(r, k, (seed, _SLOT_A_BASE), "uniform_scaled"),
        "b_base": random_matrix(d, r, (seed, _SLOT_B_BASE), "uniform_scaled"),
    }
    return frozen, {"d_vec": np.full(r, _VERA_D_INIT), "b_vec": np.zeros(d)}


def _vera_grad(fz, t, fx, r, x):
    b, ax = fz["b_base"], fx["ax"]
    g_d = _row_dots((b * t["b_vec"][:, None]).T @ r, ax)
    g_b = _row_dots(r, b @ (t["d_vec"][:, None] * ax))
    return {"d_vec": g_d, "b_vec": g_b}


def _pissa_init(w: np.ndarray, method: AdapterMethod, seed: int):
    f = svd_truncated(w, method.rank)
    root = np.sqrt(f.s_r)
    trainable = {"b": np.ascontiguousarray(f.u_r * root), "a": np.ascontiguousarray(root[:, None] * f.v_r.T)}
    return {"w0_res": f.residual}, trainable


def _osora_init(w: np.ndarray, method: AdapterMethod, seed: int):
    entry = _TABLE[method.tag]
    f = svd_truncated(w, method.rank)
    o_len = w.shape[entry.o_axis]
    if method.o_init == "gaussian":
        o = random_matrix(o_len, 1, (seed, _SLOT_O_GAUSSIAN), "gaussian").ravel()
    else:
        o = np.ones(o_len)
    frozen = {"u_r": f.u_r, "v_r": f.v_r}
    trainable = {"s_r": f.s_r.copy(), "o": np.ascontiguousarray(o)}
    # The residual absorbs the initial update, so forward(x) == w0 @ x at init.
    frozen["w0_res"] = w - entry.delta(frozen, trainable)
    return frozen, trainable


def _core(fz, t):
    """u_r diag(s_r) v_r^T, the osora update before the o scaling."""
    return (fz["u_r"] * t["s_r"]) @ fz["v_r"].T


def _osora_grad_gv(fz, t, gv):
    """The osora slot gradients from G v_r (d x r), G the update gradient."""
    return {
        "s_r": np.einsum("ij,ij->j", fz["u_r"] * t["o"][:, None], gv),
        "o": _row_dots(gv, fz["u_r"] * t["s_r"]),
    }


def _osora_k_grad(fz, t, fx, r, x):
    u, v = fz["u_r"], fz["v_r"]
    ur = u.T @ r  # r x n
    return {
        "s_r": _row_dots(ur, (v * t["o"][:, None]).T @ x),
        "o": _row_dots(x, v @ (t["s_r"][:, None] * ur)),
    }


def _dora_norms(fz, t, fx):
    w = t["b"] @ t["a"]
    w += fz["w0"]
    return np.sqrt(_row_dots(w, w)), w


def _osora_dora_norms(fz, t, fx):
    # v_r is orthonormal, so ||w0_res,i + o_i (u_r s_r)_i v_r^T||^2 expands
    # over d x r products; roundoff can take a near-zero row's sum below 0.
    us = fz["u_r"] * t["s_r"]
    o = t["o"]
    sq = fx["w0_res_sq"] + 2.0 * o * _row_dots(fx["w0_res_v"], us) + o * o * _row_dots(us, us)
    return np.sqrt(np.maximum(sq, 0.0)), fx["w0_res_v"] + o[:, None] * us  # w_eff v_r


_LORA = _Method(
    base="w0",
    slots=("a", "b"),
    init=_lora_init,
    delta=lambda fz, t: t["b"] @ t["a"],
    apply=lambda fz, t, fx, x: t["b"] @ (t["a"] @ x),
    grad=lambda fz, t, fx, r, x: {"a": (t["b"].T @ r) @ x.T, "b": r @ (t["a"] @ x).T},
)
_OSORA = _Method(
    base="w0_res",
    slots=("s_r", "o"),
    init=_osora_init,
    delta=lambda fz, t: t["o"][:, None] * _core(fz, t),
    apply=lambda fz, t, fx, x: t["o"][:, None] * (fz["u_r"] @ (t["s_r"][:, None] * fx["vtx"])),
    grad=lambda fz, t, fx, r, x: _osora_grad_gv(fz, t, r @ fx["vtx"].T),
    products=lambda fz, x: {"vtx": fz["v_r"].T @ x},
)
_TABLE: dict[str, _Method] = {
    "lora": _LORA,
    "vera": _Method(
        base="w0",
        slots=("d_vec", "b_vec"),
        init=_vera_init,
        delta=lambda fz, t: (t["b_vec"][:, None] * fz["b_base"]) @ (t["d_vec"][:, None] * fz["a_base"]),
        apply=lambda fz, t, fx, x: t["b_vec"][:, None] * (fz["b_base"] @ (t["d_vec"][:, None] * fx["ax"])),
        grad=_vera_grad,
        products=lambda fz, x: {"ax": fz["a_base"] @ x},
    ),
    "pissa": replace(_LORA, base="w0_res", init=_pissa_init),
    "osora": _OSORA,
    "osora_k": replace(
        _OSORA,
        delta=lambda fz, t: _core(fz, t) * t["o"][None, :],
        apply=lambda fz, t, fx, x: fz["u_r"] @ (t["s_r"][:, None] * (fz["v_r"].T @ (t["o"][:, None] * x))),
        grad=_osora_k_grad,
        products=_no_products,
        o_axis=1,
    ),
    "dora": _with_magnitude(
        _LORA,
        norms=_dora_norms,
        grad_rows=lambda fz, t, c, w: {"a": (t["b"] * c[:, None]).T @ w, "b": c[:, None] * (w @ t["a"].T)},
    ),
    "osora_dora": _with_magnitude(
        _OSORA,
        products=lambda fz, x: {
            **_OSORA.products(fz, x),
            "w0_res_v": fz["w0_res"] @ fz["v_r"],
            "w0_res_sq": _row_dots(fz["w0_res"], fz["w0_res"]),
        },
        norms=_osora_dora_norms,
        grad_rows=lambda fz, t, c, wv: _osora_grad_gv(fz, t, c[:, None] * wv),
    ),
}

# The osora ablations train one slot of the pair and keep the other at its init.
_ABLATION_SLOTS = {"only_s": ("s_r",), "only_o": ("o",)}


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
    entry = _TABLE[method.tag]
    frozen, trainable = entry.init(w, method, seed)
    if entry.magnitude:  # start each row at its own norm, so the rescale is the identity
        trainable["m"] = _row_norms(frozen[entry.base] + entry.delta(frozen, trainable))
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
    entry = _TABLE[state.method.tag]
    return state.frozen[entry.base] + entry.delta(state.frozen, state.trainable)


def forward(state: AdapterState, x) -> np.ndarray:
    """Apply the adapted linear map to x (shape (k,) or (k, n))."""
    xa = np.ascontiguousarray(x, dtype=np.float64)
    single = xa.ndim == 1
    if single:
        xa = xa[:, None]
    if xa.ndim != 2 or xa.shape[0] != state.k:
        raise DimensionMismatch(f"x must have leading dimension {state.k}, got shape {np.shape(x)}")

    entry = _TABLE[state.method.tag]
    if entry.magnitude:  # rescale rows of the effective weight, then apply
        w_eff = effective_weight(state)
        y = _dora_scale(state, _row_norms(w_eff))[:, None] * (w_eff @ xa)
    else:
        fx = entry.fixed(state.frozen, xa)
        y = fx["base"] + entry.apply(state.frozen, state.trainable, fx, xa)
    return y[:, 0] if single else y


def merge(state: AdapterState) -> np.ndarray:
    """Fold the adapter into a single d x k matrix acting exactly like forward()."""
    w_eff = effective_weight(state)
    if _TABLE[state.method.tag].magnitude:
        return _dora_scale(state, _row_norms(w_eff))[:, None] * w_eff
    return w_eff


def is_finite(state: AdapterState) -> bool:
    """Whether merge(state) is finite and no row norm that a magnitude rescale divides by overflows.

    An overflowed norm would turn its row of the merged weight into zeros, which
    are finite, so the merged weight alone cannot show it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if _TABLE[state.method.tag].magnitude and not np.isfinite(_row_norms(effective_weight(state))).all():
            return False
        return bool(np.isfinite(merge(state)).all())


def _slot_names(method: AdapterMethod) -> list[str]:
    return list(_ABLATION_SLOTS.get(method.trainable_set, _TABLE[method.tag].slots))


def trainable_slots(state: AdapterState) -> list[str]:
    """Names of trainable tensors in flat-vector layout order."""
    return _slot_names(state.method)


def trainable_count(method: AdapterMethod, d: int, k: int) -> int:
    """Length of the flat trainable vector over a d x k weight, from the shapes alone."""
    r = method.rank
    o_len = (d, k)[_TABLE[method.tag].o_axis]
    sizes = {"s_r": r, "d_vec": r, "o": o_len, "m": d, "b_vec": d, "a": r * k, "b": d * r}
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
