"""Build, evaluate, and merge low-rank adapters over a frozen base weight.

Supported methods (tags): lora, vera, pissa, osora, osora_k, dora, osora_dora.
Every adapter is its frozen w0 plus an update that is exactly zero at the
build's initial trainables, so forward(state, x) == w0 @ x at init, value for
value, on every SVD path and whatever the scale of each row; every adapter
folds into a single dense matrix via merge() with no residual inference cost.
Frozen tensors are stored as read-only arrays; training only ever touches the
trainable dict.

Builds over one weight share its SVD through one weak registry, `_FACTORS`.
pissa and the osora family freeze the top-r SVD of w0: one entry per (shape,
weight digest, rank) holds read-only u_r, s_r, v_r and the w0 copy they all
freeze, whatever the method, seed, o_init or ablation. `training.make_task`
gets its factors there too, so a task and every SVD-initialised build of rank
r_gap over its weight run one SVD between them. The entry is keyed by the
weight's content digest, so it cannot go stale. lora, vera and dora freeze
their own read-only copy of w0.

Every build and every checkpoint load makes its own frozen dict over the
shared entry, and its own trainables, and runs no SVD while an adapter or a
task over the weight lives. The dict holds its entry (`factors`), so an entry
lives exactly as long as something built on it; never mutating a frozen
tensor is what makes sharing safe. Each build makes the rest,
deterministically: lora's, vera's and dora's w0 copy, vera's seeded draws, the
initial values o0, a0 and b0, osora_dora's w0 v_r and row norms of w0 off
span(v_r), and a magnitude build's initial m. A load in a fresh process (say,
of the adapter.ckpt that `osora train` wrote) decomposes again, to the same bytes.

Each update is one product L R of a d x q factor L and a q x k factor R,
stated once per method: forward(x) is w0 x + L (R x) and merge is w0 + L R.
X0 is X's frozen initial value, * is elementwise, [P, Q] and [P; Q] stack
side by side and on top, and F = o s_r^T - o0 s0^T; every L R is exactly
0 at init (pissa's is (B - B0) A + B0 (A - A0)):

  method      L              R              init
  lora        B              A              A: r x k, B: d x r, B0 = 0
  vera        diag(b) B      diag(dv) A     frozen random A, B; b0 = 0
  pissa       [B - B0, B0]   [A; A - A0]    B0 = u_r sqrt(s), A0 = sqrt(s) v_r^T
  osora       u_r * F        v_r^T          o in R^d
  osora_k     u_r            (v_r * F)^T    o in R^k
  dora, osora_dora: lora's and osora's L, R, and a row-magnitude rescale of w0 + L R

In exact arithmetic these equal the papers' residual forms, w0_res plus the
update, with w0_res = w0 minus the initial update. No w0_res is formed, so the
SVD's absolute error, about eps * ||w0||, reaches no output row at init.

The dora-style rescale multiplies output row i of the effective weight by
m_i / ||row_i||, one trainable magnitude per output dimension. The magnitude
vector therefore has length d; this is what makes the per-target trainable
counts in accounting.py come out exactly. A row whose squares leave a safe
range takes its norm times its own power of two, so norms are right at tiny
and huge scale, row by row; every other row is taken as it is, with the bytes
the rescaling would give.

Each row above is one record in `_TABLE`, keyed by tag, whose fields
`_Method` lists. dora and osora_dora are the lora and osora records with a
trailing `m` slot, whose `row_norms` alone takes the row norms of the
effective weight, and a gradient that folds the row rescale onto its rank-r
factors. build_adapter, effective_weight, merge, the slot layout and the
prediction (`_predict`), which forward and the gradients.py train step both
run, are each one generic body over that table; a step forms L once.
"""

from __future__ import annotations

import hashlib
import weakref
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, LengthMismatch, RankOutOfRange
from .linalg import (
    SvdFactors,
    as_matrix,
    as_real_array,
    check_finite,
    check_integers,
    check_seed,
    random_matrix,
    svd_truncated,
)

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
            raise InvalidConfig(f"unknown method tag {self.tag!r}; expected one of {METHODS}")
        check_integers(rank=self.rank)
        if self.rank < 1:
            raise RankOutOfRange(f"rank must be >= 1, got {self.rank}")
        if self.o_init not in O_INITS:
            raise InvalidConfig(f"o_init must be one of {O_INITS}, got {self.o_init!r}")
        if self.o_init != "ones" and self.tag not in OSORA_FAMILY:
            raise InvalidConfig(f"o_init applies only to {OSORA_FAMILY}, not {self.tag!r}")
        if self.trainable_set not in TRAINABLE_SETS:
            raise InvalidConfig(f"trainable_set must be one of {TRAINABLE_SETS}")
        if self.trainable_set != "both" and self.tag not in ("osora", "osora_k"):
            raise InvalidConfig("only_s / only_o ablations exist only for osora and osora_k")


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
    return hashlib.sha256(memoryview(m.astype("<f8", copy=False))).digest()


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i of the result is a[i] . b[i], with no a * b temporary."""
    return np.einsum("ij,ij->i", a, b)


# A row whose squared sum lies in this range has lost nothing to overflow and
# nothing that rounding could see to underflow, so its norm needs no rescaling.
_ROW_SQ_RANGE = (2.0**-600, 2.0**600)


def _scaled_norms(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(row norms of w, w, e), w's row i scaled by 2**-e_i; e is None where every row's squared sum is in _ROW_SQ_RANGE.

    Else e_i = 0 for an in-range row, and any other row (zero, or squaring past
    either end) is scaled in place by 2**-e_i, its largest entry's exponent, and
    its norm taken there. Scaling by a power of two is exact, so an in-range
    row's norm has the bytes the rescaled one would have, at one row dot's cost.
    """
    sq = _row_dots(w, w)
    kept = (sq >= _ROW_SQ_RANGE[0]) & (sq <= _ROW_SQ_RANGE[1])
    if kept.all():
        return np.sqrt(sq, out=sq), w, None
    e = np.frexp(np.maximum(w.max(axis=1), -w.min(axis=1)))[1]
    e[kept] = 0
    np.ldexp(w, -e[:, None], out=w)  # in place: the one d x k array a dora step makes
    return np.ldexp(np.sqrt(_row_dots(w, w)), e), w, e


def _dora_scale(m: np.ndarray, norms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row scale m / norms, 0 on a zero-norm row; the mask norms > 0; norms with 1 on the zero-norm rows)."""
    pos = norms > 0.0
    safe = np.where(pos, norms, 1.0)
    return np.where(pos, m / safe, 0.0), pos, safe


@dataclass(frozen=True)
class _Method:
    """One method: forward(x) = fz["w0"] @ x + left @ (right @ x), merged as fz["w0"] + left @ right.

    `fz` and `t` are an adapter's frozen and trainable dicts; left(fz, t) is d x q and right(fz, t) q x k, and
    their product, the update, is exactly 0 at the build's trainables. A step forms left once for grad and
    row_norms. A magnitude method rescales each row of both to the trainable norm m, its trailing slot.
    """

    slots: tuple[str, ...]  # trainable slots in flat-layout order
    # (w, method, seed, f) -> (frozen, trainable), without w0 and m; f is the shared _FACTORS entry if svd, else None
    build: Callable
    left: Callable  # (fz, t) -> the d x q factor of the update
    right: Callable  # (fz, t) -> the q x k factor of the update
    # (fz, t, left, z, r, x, fx) -> {slot: gradient} for the update gradient r x^T, without m; a magnitude record's
    # also takes the row scale c, for diag(c) r x^T, and gives under "m" the row dots of r with left @ z.
    grad: Callable
    frozen_size: Callable  # (d, k, r) -> the elements a build freezes beyond the d x k w0
    products: Callable = lambda fz, x: {}  # (fz, x) -> frozen-times-probe products that lift reads
    # (fz, t, fx) -> z, right @ x read off fixed products; None forms right(fz, t) @ x
    lift: Callable | None = None
    # Magnitude methods: (fz, t, c 2**e, w) -> {slot: gradient} for the update gradient diag(c) w_eff,
    # w the rows row_norms returns; and, for osora_dora alone, row_norms' own rule.
    grad_rows: Callable | None = None
    norms: Callable | None = None
    o_axis: int = 0  # the axis of w that the o vector runs along
    # The frozen span of the update: ("rows", fz -> W), W r x k with every row of left @ right in its row space,
    # or ("cols", fz -> U), U d x r orthonormal with every column in its span. None where no factor is frozen,
    # or where a row rescale that depends on trainables moves the residual off that span.
    span: tuple[str, Callable] | None = None
    svd: bool = False  # built over the shared top-r SVD of w0, so its rank is at most min(d, k)

    @property
    def magnitude(self) -> bool:
        return self.slots[-1] == "m"

    def fixed(self, fz, x, base=None) -> dict[str, np.ndarray]:
        """Products of frozen tensors with the probes x: "base" is w0 @ x, or base where the caller holds it."""
        return {"base": np.matmul(fz["w0"], x) if base is None else base, **self.products(fz, x)}

    def weight(self, fz, t, left=None) -> np.ndarray:
        """The effective weight w0 + left @ right as one new d x k array; left is passed where a step formed it."""
        w = (self.left(fz, t) if left is None else left) @ self.right(fz, t)
        w += fz["w0"]
        return w

    def row_norms(self, fz, t, left=None) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(row norms of the effective weight, w, e): w the rows grad_rows reads, row i times 2**-e_i (e None: 2**0)."""
        if self.norms is not None:
            return self.norms(fz, t, self.left(fz, t) if left is None else left)
        return _scaled_norms(self.weight(fz, t, left))


def _lora_init(w: np.ndarray, method: AdapterMethod, seed: int, f: None):
    d, k = w.shape
    a = random_matrix(method.rank, k, (seed, _SLOT_A_BASE), "uniform_scaled")
    return {}, {"a": a, "b": np.zeros((d, method.rank))}


def _vera_init(w: np.ndarray, method: AdapterMethod, seed: int, f: None):
    (d, k), r = w.shape, method.rank
    a_base = random_matrix(r, k, (seed, _SLOT_A_BASE), "uniform_scaled")
    b_base = random_matrix(d, r, (seed, _SLOT_B_BASE), "uniform_scaled")
    return {"a_base": a_base, "b_base": b_base}, {"d_vec": np.full(r, _VERA_D_INIT), "b_vec": np.zeros(d)}


def _vera_grad(fz, t, left, z, r, x, fx):
    # z = diag(d_vec) A X; the d_vec gradient reads A X itself, since no z can be divided by a zero d_vec.
    return {"d_vec": _row_dots(left.T @ r, fx["ax"]), "b_vec": _row_dots(r @ z.T, fz["b_base"])}


def _pissa_init(w: np.ndarray, method: AdapterMethod, seed: int, f: _Shared):
    root = np.sqrt(f.s_r)
    b0, a0 = np.ascontiguousarray(f.u_r * root), np.ascontiguousarray(root[:, None] * f.v_r.T)
    return {"a0": a0, "b0": b0}, {"a": a0.copy(), "b": b0.copy()}


def _osora_init(w: np.ndarray, method: AdapterMethod, seed: int, f: _Shared):
    o_len = w.shape[_TABLE[method.tag].o_axis]
    if method.o_init == "gaussian":
        o = random_matrix(o_len, 1, (seed, _SLOT_O_GAUSSIAN), "gaussian").ravel()
    else:
        o = np.ones(o_len)
    return {"u_r": f.u_r, "v_r": f.v_r, "s0": f.s_r, "o0": o}, {"s_r": f.s_r.copy(), "o": o.copy()}


def _os_factor(fz, t):
    """F = o s_r^T - o0 s0^T, the factor that scales u_r (osora) or v_r (osora_k); exactly 0 at init."""
    return t["o"][:, None] * t["s_r"] - fz["o0"][:, None] * fz["s0"]


def _osora_grads(side, t, p):
    """The osora slot gradients from p = G v_r (side u_r; osora) or G^T u_r (side v_r; osora_k), G the update's."""
    return {
        "s_r": np.einsum("ij,ij->j", side * t["o"][:, None], p),
        "o": _row_dots(p, side * t["s_r"]),
    }


def _dora_grad(fz, t, b, ax, r, x, fx, c):
    gb = r @ ax.T  # d x r; the update's product is B (A X)
    return {"a": ((b * c[:, None]).T @ r) @ x.T, "b": c[:, None] * gb, "m": _row_dots(gb, b)}


def _osora_dora_grad(fz, t, left, vtx, r, x, fx, c):
    gv = r @ vtx.T  # d x r; the update's product is (u_r * F) (v_r^T X)
    return {**_osora_grads(fz["u_r"], t, c[:, None] * gv), "m": _row_dots(gv, left)}


def _osora_dora_init(w: np.ndarray, method: AdapterMethod, seed: int, f: _Shared):
    frozen, trainable = _osora_init(w, method, seed, f)
    frozen["w0_v"] = f.w0 @ f.v_r
    frozen["w0_perp"] = _scaled_norms(f.w0 - frozen["w0_v"] @ f.v_r.T)[0]
    return frozen, trainable


def _osora_dora_norms(fz, t, left):
    # v_r is orthonormal: row i of w_eff is (w_eff v_r)_i v_r^T, w_eff v_r = w0 v_r + left, plus
    # w0's row off span(v_r), of norm w0_perp_i.
    norms, w, e = _scaled_norms(np.concatenate([fz["w0_v"] + left, fz["w0_perp"][:, None]], axis=1))
    return norms, w[:, :-1], e


_LORA = _Method(
    slots=("a", "b"),
    build=_lora_init,
    left=lambda fz, t: t["b"],
    right=lambda fz, t: t["a"],
    grad=lambda fz, t, b, ax, r, x, fx: {"a": (b.T @ r) @ x.T, "b": r @ ax.T},
    frozen_size=lambda d, k, r: 0,
)
_OSORA = _Method(
    slots=("s_r", "o"),
    build=_osora_init,
    left=lambda fz, t: fz["u_r"] * _os_factor(fz, t),
    right=lambda fz, t: fz["v_r"].T,
    grad=lambda fz, t, left, vtx, r, x, fx: _osora_grads(fz["u_r"], t, r @ vtx.T),
    frozen_size=lambda d, k, r: r * (d + k) + d + r,  # u_r, v_r, o0, s0
    products=lambda fz, x: {"vtx": fz["v_r"].T @ x},
    lift=lambda fz, t, fx: fx["vtx"],
    span=("rows", lambda fz: fz["v_r"].T),
    svd=True,
)
_TABLE: dict[str, _Method] = {
    "lora": _LORA,
    "vera": _Method(
        slots=("d_vec", "b_vec"),
        build=_vera_init,
        left=lambda fz, t: t["b_vec"][:, None] * fz["b_base"],
        right=lambda fz, t: t["d_vec"][:, None] * fz["a_base"],
        grad=_vera_grad,
        frozen_size=lambda d, k, r: r * (d + k),  # a_base, b_base
        products=lambda fz, x: {"ax": fz["a_base"] @ x},
        lift=lambda fz, t, fx: t["d_vec"][:, None] * fx["ax"],
        span=("rows", lambda fz: fz["a_base"]),
    ),
    "pissa": replace(
        _LORA,
        build=_pissa_init,
        # (B - B0) A + B0 (A - A0) as one 2r-wide product: both differences are exactly 0 at init
        left=lambda fz, t: np.concatenate([t["b"] - fz["b0"], fz["b0"]], axis=1),
        right=lambda fz, t: np.concatenate([t["a"], t["a"] - fz["a0"]]),
        grad=lambda fz, t, left, z, r, x, fx: _LORA.grad(fz, t, t["b"], z[: t["a"].shape[0]], r, x, fx),
        frozen_size=lambda d, k, r: r * (d + k),  # a0, b0
        svd=True,
    ),
    "osora": _OSORA,
    "osora_k": replace(
        _OSORA,
        left=lambda fz, t: fz["u_r"],
        right=lambda fz, t: (fz["v_r"] * _os_factor(fz, t)).T,
        grad=lambda fz, t, u_r, z, r, x, fx: _osora_grads(fz["v_r"], t, x @ (r.T @ u_r)),
        frozen_size=lambda d, k, r: r * (d + k) + k + r,  # u_r, v_r, o0, s0
        products=lambda fz, x: {},
        lift=None,
        o_axis=1,
        span=("cols", lambda fz: fz["u_r"]),
    ),
    "dora": replace(
        _LORA,
        slots=("a", "b", "m"),
        grad=_dora_grad,
        grad_rows=lambda fz, t, c, w: {"a": (t["b"] * c[:, None]).T @ w, "b": c[:, None] * (w @ t["a"].T)},
    ),
    "osora_dora": replace(
        _OSORA,
        slots=("s_r", "o", "m"),
        build=_osora_dora_init,
        grad=_osora_dora_grad,
        frozen_size=lambda d, k, r: r * (d + k) + d + r + d * r + d,  # osora's, w0_v, w0_perp
        grad_rows=lambda fz, t, c, wv: _osora_grads(fz["u_r"], t, c[:, None] * wv),
        norms=_osora_dora_norms,
        span=None,
    ),
}

# The osora ablations train one slot of the pair and keep the other at its init.
_ABLATION_SLOTS = {"only_s": ("s_r",), "only_o": ("o",)}


class _Frozen(dict):
    """Read-only frozen tensors of one build; `factors` keeps alive the shared SVD entry (None for lora, vera, dora)."""

    __slots__ = ("factors",)


@dataclass
class _Shared(SvdFactors):
    """A `_FACTORS` entry: svd_truncated's factors of a weight, and the read-only copy of it that SVD builds freeze."""

    w0: np.ndarray


# (shape, weight digest, rank) -> the read-only entry of a weight that some
# live task or build holds; a race on one key only repeats the SVD.
_FACTORS: weakref.WeakValueDictionary[tuple, _Shared] = weakref.WeakValueDictionary()


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.setflags(write=False)


def _shared_svd(w: np.ndarray, digest: bytes, r: int) -> _Shared:
    """The entry of w (digest = weight_digest(w)) at rank r, decomposed only if no live task or build holds it.

    Its arrays are read-only; callers keep a reference for as long as they want it shared.
    """
    key = (w.shape, digest, r)
    f = _FACTORS.get(key)
    if f is None:
        f = _Shared(w0=w.copy(), **vars(svd_truncated(w, r)))
        _read_only(f.u_r, f.s_r, f.v_r, f.w0)
        _FACTORS[key] = f
    return f


def build_adapter(w0, method: AdapterMethod, seed: int) -> AdapterState:
    """Construct an adapter at the identity point: forward(x) == w0 @ x.

    SVD-based methods decompose w0 here, unless a live task or SVD-based
    adapter of the same weight and rank already did, and freeze the shared
    copy of w0 with the initial values their update subtracts. lora, vera and
    dora freeze a read-only copy of w0. dora and osora_dora start m at the
    row norms of their effective weight, taken on a power-of-two rescaling.
    """
    if not isinstance(method, AdapterMethod):
        raise InvalidConfig(f"method must be an AdapterMethod, got {method!r}")
    check_seed(seed)
    w = as_matrix(w0, "w0")
    return _build_adapter(w, weight_digest(w), method, seed)


def _build_adapter(w: np.ndarray, digest: bytes, method: AdapterMethod, seed: int) -> AdapterState:
    """build_adapter over a float64 matrix w whose weight_digest the caller has already taken."""
    check_finite(w, "w0")
    entry = _TABLE[method.tag]
    factors = _shared_svd(w, digest, method.rank) if entry.svd else None
    built, trainable = entry.build(w, method, seed, factors)
    frozen = _Frozen(w0=w.copy() if factors is None else factors.w0, **built)
    frozen.factors = factors
    if entry.magnitude:  # start each row at its own norm, so the rescale is the identity
        trainable["m"] = entry.row_norms(frozen, trainable)[0]
    _read_only(*frozen.values())
    return AdapterState(
        method=method, d=w.shape[0], k=w.shape[1], seed=seed, frozen=frozen, trainable=trainable, w0_digest=digest
    )


def clone_state(state: AdapterState) -> AdapterState:
    """Copy with fresh trainable arrays; frozen tensors are shared (read-only)."""
    return replace(state, trainable={name: arr.copy() for name, arr in state.trainable.items()})


def effective_weight(state: AdapterState) -> np.ndarray:
    """Dense base-plus-update weight w0 + L R, before any dora magnitude rescale."""
    return _TABLE[state.method.tag].weight(state.frozen, state.trainable)


def forward(state: AdapterState, x) -> np.ndarray:
    """Apply the adapted linear map to x (shape (k,) or (k, n))."""
    xa = as_real_array(x, "x")
    single = xa.ndim == 1
    if single:
        xa = xa[:, None]
    if xa.ndim != 2 or xa.shape[0] != state.k:
        raise DimensionMismatch(f"x must have leading dimension {state.k}, got shape {np.shape(x)}")

    y = np.empty((state.d, xa.shape[1]))
    entry = _TABLE[state.method.tag]
    _predict(entry, state.frozen, state.trainable, entry.fixed(state.frozen, xa), xa, y)
    return y[:, 0] if single else y


def _predict(entry: _Method, fz, t, fx: dict[str, np.ndarray], x: np.ndarray, out: np.ndarray) -> tuple:
    """Write forward(x) of the adapter with record entry and tensors fz, t into the d x n out; no other d x n array.

    fx is entry.fixed(fz, x). Returns (left, z, rows, scale) for the gradient:
    the update's factor L and z = R x, each formed once, and for a magnitude
    method row_norms' (w, e), _dora_scale's mask and safe divisor, and the row
    scale (else None, None).
    """
    left = entry.left(fz, t)
    z = entry.right(fz, t) @ x if entry.lift is None else entry.lift(fz, t, fx)
    np.matmul(left, z, out=out)
    out += fx["base"]
    if not entry.magnitude:
        return left, z, None, None
    norms, w, e = entry.row_norms(fz, t, left)
    scale, pos, safe = _dora_scale(t["m"], norms)
    out *= scale[:, None]
    return left, z, (w, e, pos, safe), scale


def _merged(state: AdapterState) -> tuple[np.ndarray, np.ndarray | None]:
    """(merge(state), the row norms a magnitude rescale divided by, or None for a method without one)."""
    entry = _TABLE[state.method.tag]
    w_eff = entry.weight(state.frozen, state.trainable)
    if not entry.magnitude:
        return w_eff, None
    norms = entry.row_norms(state.frozen, state.trainable)[0]
    w_eff *= _dora_scale(state.trainable["m"], norms)[0][:, None]
    return w_eff, norms


def merge(state: AdapterState) -> np.ndarray:
    """Fold the adapter into a single d x k matrix acting exactly like forward()."""
    return _merged(state)[0]


def is_finite(state: AdapterState) -> bool:
    """Whether merge(state) is finite and no row norm that a magnitude rescale divides by overflows.

    An overflowed norm would turn its row of the merged weight into zeros, which
    are finite, so the merged weight alone cannot show it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w_eff, norms = _merged(state)
        return bool(np.isfinite(w_eff).all()) and (norms is None or bool(np.isfinite(norms).all()))


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


def _slot_views(state: AdapterState, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Views of a flat vector in trainable_vector's layout, shaped like state's active slots."""
    views, pos = {}, 0
    for name in trainable_slots(state):
        arr = state.trainable[name]
        views[name] = flat[pos : pos + arr.size].reshape(arr.shape)
        pos += arr.size
    return views


def load_trainable(state: AdapterState, flat) -> None:
    """Install a flat vector produced by trainable_vector, in place; a NaN or Inf leaves state as it was."""
    vec = as_real_array(flat, "trainable vector").ravel()
    total = trainable_count(state.method, state.d, state.k)
    if vec.size != total:
        raise LengthMismatch(f"expected {total} values for {trainable_slots(state)}, got {vec.size}")
    check_finite(vec, "trainable vector")
    state.trainable.update({name: view.copy() for name, view in _slot_views(state, vec).items()})
