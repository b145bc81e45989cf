"""Layered and flooding min-sum decoders over the quasi-cyclic structure.

Two engines produce bit-identical results on identical quantized inputs,
each behind its own workspace type:

* ScalarWorkspace: a batched scalar engine (int8 widened to int32, f16, or
  f32) that serves as the reference; its int8 and f32 layered iterations
  run in the compiled kernel of `ldpclab.native` where the host can build
  it, bit-exact with the numpy rows here, and
* PackedWorkspace: rho=4 codeword lanes per 32-bit word on the
  sign-magnitude SWAR kernels, kept to verify the scalar engine.

Both reduce a check row through one driver, in the high-throughput shape
(one sequential scan over the row's columns) or the low-latency shape (alpha
strided partitions folded independently, then butterfly-merged in
log2(alpha) rounds). Both shapes compute the same (m1, m2, signs); only the
argmin tag may differ on ties, where m1 = m2 makes the outputs
tie-independent.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ldpclab import kernels, native
from ldpclab.basegraph import BaseGraph
from ldpclab.channel import F32_MAX
from ldpclab.codec import CRC_POLYS, _syndrome_weights, crc_check

INT8_SAT = 127
F16_SAT = np.float16(65504.0)


class Strategy(str, Enum):
    HIGH_THROUGHPUT = "high_throughput"
    LOW_LATENCY = "low_latency"


class Precision(str, Enum):
    INT8 = "int8"
    F16 = "f16"
    F32 = "f32"


class EarlyStop(str, Enum):
    SYNDROME = "syndrome"
    CRC = "crc"
    NONE = "none"


@dataclass(frozen=True)
class DecodeConfig:
    """Decoder knobs; every stored one takes effect. One partition (high
    throughput, or low latency with alpha=1) is stored as high_throughput
    with alpha=1, so equivalent settings compare and hash equal.
    """

    beta: float = 0.75
    max_iter: int = 20
    strategy: Strategy = Strategy.HIGH_THROUGHPUT
    alpha: int = 4
    rho: int = 1
    precision: Precision = Precision.INT8
    early_stop: EarlyStop = EarlyStop.SYNDROME
    crc_kind: str = "crc24b"

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        strategy = Strategy(self.strategy)
        precision = Precision(self.precision)
        early = EarlyStop(self.early_stop)
        object.__setattr__(self, "strategy", strategy)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "early_stop", early)
        if strategy is Strategy.LOW_LATENCY and (self.alpha < 1 or self.alpha & (self.alpha - 1)):
            raise ValueError("alpha must be a power of two for low latency")
        if strategy is Strategy.HIGH_THROUGHPUT or self.alpha == 1:
            object.__setattr__(self, "strategy", Strategy.HIGH_THROUGHPUT)
            object.__setattr__(self, "alpha", 1)
        if early is not EarlyStop.CRC and self.crc_kind != DecodeConfig.crc_kind:
            raise ValueError("crc_kind applies only with early_stop='crc'")
        if self.crc_kind not in CRC_POLYS:
            raise ValueError(f"unknown crc_kind {self.crc_kind!r}; "
                             f"choose from {sorted(CRC_POLYS)}")
        allowed_rho = (1, 4) if precision is Precision.INT8 else (1,)
        if self.rho not in allowed_rho:
            raise ValueError(
                f"rho={self.rho} is inconsistent with precision {precision.value} "
                f"(allowed: {allowed_rho})"
            )


@dataclass
class DecodeResult:
    """Per-codeword outcome; the traces have one row per iteration run."""

    bits: np.ndarray              # (B, K) hard decisions on information bits
    iterations: np.ndarray        # (B,) iteration each codeword settled at
    success: np.ndarray           # (B,) zero syndrome (and CRC in crc mode)
    syndrome_trace: np.ndarray    # (iterations run, B) unsatisfied checks
    margin_trace: np.ndarray      # (iterations run, B) min |L_v|

    @property
    def syndrome_weight(self) -> np.ndarray:
        """(B,) unsatisfied checks at each codeword's settling iteration."""
        return self.syndrome_trace[self.iterations - 1, np.arange(len(self.iterations))]


# ---------------------------------------------------------------------------
# Check-node core


def _saturation(dtype):
    """Largest magnitude a decoder value of `dtype` holds.

    The widened int8 engine stays within +/-127, f16 within its largest
    finite value; f32 is unbounded (inf). It is also the reduce identity.
    """
    if np.issubdtype(dtype, np.integer):
        return dtype.type(INT8_SAT)
    return F16_SAT if dtype == np.float16 else dtype.type(np.inf)


def _clamp(x: np.ndarray, dtype) -> np.ndarray:
    """Saturate the fresh array `x` in place to the range of `dtype`."""
    sat = _saturation(dtype)
    return x if np.isinf(sat) else np.clip(x, -sat, sat, out=x)


def _reduce(identity, edge_acc, w: int, alpha: int):
    """Merge edges 0..w-1 of a check row into one accumulator.

    `identity` and `edge_acc(j)` come from one arithmetic domain in
    `kernels`. One partition (high throughput) folds the edges in order;
    alpha > 1 (low latency) folds the strided partitions (p, p + alpha, ...)
    independently, then butterfly-merges them.
    """
    def fold(edges):
        acc = identity
        for j in edges:
            acc = kernels.acc_merge(acc, edge_acc(j))
        return acc

    if alpha == 1:
        return fold(range(w))
    return kernels.tree_reduce([fold(range(p, w, alpha)) for p in range(alpha)])[0]


def _minsum(lvc: np.ndarray, beta: float, alpha: int) -> np.ndarray:
    """Min-sum messages for the edges on axis 1 of `lvc`, (B, w, Z) or (N, w).

    Saturation and the beta rule follow the dtype: integers scale by
    floor(beta * magnitude), floats in their own dtype.
    """
    dtype = lvc.dtype
    sat = _saturation(dtype)
    mags = np.abs(lvc)
    signs = lvc < 0
    acc = _reduce(kernels.value_identity(sat),
                  lambda j: kernels.value_edge_acc(mags[:, j], signs[:, j], j, sat),
                  lvc.shape[1], alpha)
    if np.issubdtype(dtype, np.integer):
        b1 = np.floor(beta * acc.m1).astype(dtype)
        b2 = np.floor(beta * acc.m2).astype(dtype)
    else:
        b1 = dtype.type(beta) * acc.m1
        b2 = dtype.type(beta) * acc.m2
    out = np.empty_like(lvc)
    for j in range(lvc.shape[1]):
        mag = np.where(acc.tag == j, b2, b1)
        out[:, j] = np.where(acc.s_vc ^ signs[:, j], -mag, mag)
    return out


def check_node_minsum(inputs, beta: float = 0.75, strategy=Strategy.HIGH_THROUGHPUT,
                      alpha: int = 1) -> np.ndarray:
    """Min-sum check update over the last axis (the row's edges).

    Edge i receives beta-scaled m2 if it contributed the minimum, m1
    otherwise, with the product of the other edges' signs. Integer inputs
    use the fixed-point rule floor(beta * magnitude); float inputs scale in
    their own dtype.
    """
    arr = np.asarray(inputs)
    w = arr.shape[-1]
    if w < 2:
        raise ValueError("a check row needs at least two edges")
    integer = np.issubdtype(arr.dtype, np.integer)
    work = (arr.astype(np.int32) if integer else arr).reshape(-1, w)
    alpha = alpha if Strategy(strategy) is Strategy.LOW_LATENCY else 1
    out = _minsum(work, beta, alpha).reshape(arr.shape)
    return out.astype(arr.dtype) if integer else out


def check_node_exact(inputs) -> np.ndarray:
    """Exact boxplus update 2*atanh(prod tanh(L/2)) over the last axis.

    Float64 oracle; outputs clamp where the product saturates to +/-1.
    """
    arr = np.asarray(inputs, dtype=np.float64)
    if arr.shape[-1] < 2:
        raise ValueError("a check row needs at least two edges")
    t = np.tanh(arr / 2.0)
    out = np.empty_like(arr)
    w = arr.shape[-1]
    for i in range(w):
        others = np.prod(np.delete(t, i, axis=-1), axis=-1)
        others = np.clip(others, -1.0 + 1e-15, 1.0 - 1e-15)
        out[..., i] = 2.0 * np.arctanh(others)
    return out


# ---------------------------------------------------------------------------
# Workspaces: one type per engine


@dataclass
class DecodeWorkspace(ABC):
    """Mutable decode state for one batch; each engine subclasses it.

    An engine supplies `layer` and `posteriors`; the decode loop reads hard
    decisions, the syndrome and the margins from the posteriors alike for
    both.
    """

    bg: BaseGraph
    rows_used: int
    lanes: int
    row_gather: list = field(repr=False)   # per row: (cols, shifts, edge offset, (w, Z) index)

    @property
    def n_edges(self) -> int:
        return int(self.bg.w_r[: self.rows_used].sum())

    @abstractmethod
    def layer(self, r: int, cfg: DecodeConfig) -> None:
        """Update check row r: its messages and the posteriors it touches."""

    @abstractmethod
    def posteriors(self) -> np.ndarray:
        """Signed posteriors L_v, shape (lanes, n_blocks, Z)."""


@dataclass
class ScalarWorkspace(DecodeWorkspace):
    """(B, n_blocks, Z) channel values and posteriors, (B, E, Z) messages."""

    l_b: np.ndarray = field(repr=False)
    l_v: np.ndarray = field(repr=False)
    messages: np.ndarray = field(repr=False)

    def posteriors(self) -> np.ndarray:
        return self.l_v

    def layer(self, r: int, cfg: DecodeConfig) -> None:
        cols, _, e0, idx = self.row_gather[r]
        msgs = self.messages[:, e0:e0 + len(cols), :]
        dtype = self.l_v.dtype
        integer = np.issubdtype(dtype, np.integer)
        with np.errstate(over="ignore"):               # f16 saturates via clamp
            raw = self.l_v[:, cols[:, None], idx] - msgs
            # integers keep the extrinsic unclamped and store what the
            # saturated posterior absorbed on top of it: the next visit
            # subtracts exactly what this one added, so a found codeword stays
            lvc = _clamp(raw.copy() if integer else raw, dtype)
            out = _minsum(lvc, cfg.beta, cfg.alpha)
            if integer:
                upd = _clamp(np.add(out, raw, out=out), dtype)
                np.subtract(upd, raw, out=msgs)
            else:
                upd = _clamp(lvc + out, dtype)
                msgs[...] = out
            self.l_v[:, cols[:, None], idx] = upd


def _beta_lut(beta: float) -> np.ndarray:
    lut = np.floor(beta * np.arange(256)).astype(np.uint32)
    return np.minimum(lut, 255)


@dataclass
class PackedWorkspace(DecodeWorkspace):
    """Sign-magnitude words over (n_blocks, Z, G) and (E, Z, G).

    Lane l of word group g holds codeword 4g + l. A batch that is not a
    multiple of 4 is padded with copies of its last codeword; those lanes
    decode alongside it and are never reported.
    """

    l_v: kernels.PackedWord = field(repr=False)
    messages: kernels.PackedWord = field(repr=False)

    def posteriors(self) -> np.ndarray:
        v = np.moveaxis(self.l_v.values(), (2, 3), (0, 1))      # (G, 4, n_blocks, Z)
        return v.reshape(-1, *v.shape[2:])[: self.lanes]

    def layer(self, r: int, cfg: DecodeConfig) -> None:
        cols, _, e0, idx = self.row_gather[r]
        w = len(cols)
        lv = kernels.PackedWord(self.l_v.mag[cols[:, None], idx],
                                self.l_v.sign[cols[:, None], idx])
        msg = kernels.PackedWord(self.messages.mag[e0:e0 + w],
                                 self.messages.sign[e0:e0 + w])
        raw = kernels.add(lv, kernels.negate(msg))      # |raw| <= 254 fits a lane
        lvc = kernels.saturate(raw)
        acc = _reduce(kernels.packed_identity(),
                      lambda j: kernels.packed_edge_acc(lvc.mag[j], lvc.sign[j], j),
                      w, cfg.alpha)
        lut = _beta_lut(cfg.beta)
        b1 = kernels.apply_lut_u8(acc.m1, lut)
        b2 = kernels.apply_lut_u8(acc.m2, lut)
        # all per-edge selects are elementwise: run them on the (w, Z, G) block
        jw = (np.arange(w, dtype=np.uint32) * np.uint32(0x01010101)).reshape(-1, 1, 1)
        is_min = ~kernels.vcmplt_u8(np.uint32(0), acc.tag ^ jw)
        mag = (is_min & b2) | (~is_min & b1)
        sign = (acc.s_vc ^ lvc.sign) & kernels.vcmplt_u8(np.uint32(0), mag)
        # sat(raw + out), as the scalar engine: a same-sign lane adds onto the
        # saturated extrinsic, so its magnitude sum stays within the byte
        same = ~(raw.sign ^ sign)
        base = kernels.PackedWord((same & lvc.mag) | (~same & raw.mag), raw.sign)
        upd = kernels.sat_add(base, kernels.PackedWord(mag, sign))
        stored = kernels.sat_sub(upd, raw)          # |upd - raw| <= 127: exact
        self.messages.mag[e0:e0 + w] = stored.mag
        self.messages.sign[e0:e0 + w] = stored.sign
        self.l_v.mag[cols[:, None], idx] = upd.mag
        self.l_v.sign[cols[:, None], idx] = upd.sign


def _build_row_gather(bg: BaseGraph, rows_used: int) -> list:
    """Per row: (cols, shifts, edge offset, gather index (w, Z))."""
    meta = []
    offset = 0
    zi = np.arange(bg.z)
    for r in range(rows_used):
        cols, shifts = bg.row_entries(r)
        idx = (zi[None, :] + shifts[:, None]) % bg.z
        meta.append((cols.astype(np.int64), shifts, offset, idx))
        offset += len(cols)
    return meta


def init_workspace(llrs, bg: BaseGraph, cfg: DecodeConfig) -> DecodeWorkspace:
    """Workspace from quantized decoder-domain LLRs of shape (B, n_c) or (n_c,)."""
    arr = np.atleast_2d(llrs)
    if np.issubdtype(arr.dtype, np.floating) and np.isnan(arr).any():
        raise ValueError("LLRs must not be NaN")
    if cfg.precision is Precision.INT8 and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("int8 decoding takes integer LLRs (quantize in int8 mode)")
    if arr.shape[-1] % bg.z:
        raise ValueError("LLR block length must be a multiple of Z")
    rows_used = arr.shape[-1] // bg.z - bg.k_b
    if not 4 <= rows_used <= bg.m_bg:
        raise ValueError(
            f"LLR block length implies rows_used={rows_used}, outside [4, {bg.m_bg}]"
        )
    batch = arr.shape[0]
    if batch == 0:
        raise ValueError("a batch needs at least one codeword")
    dtype, bound = {Precision.INT8: (np.int32, INT8_SAT), Precision.F16: (np.float16, F16_SAT),
                    Precision.F32: (np.float32, F32_MAX)}[cfg.precision]
    lv = arr.astype(dtype).reshape(batch, bg.k_b + rows_used, bg.z)
    # the largest value `quantize` emits; an f32 posterior past it can
    # overflow to inf and NaN, which the syndrome reads as a hard 0
    if not (-bound <= lv.min() and lv.max() <= bound):
        raise ValueError(f"{cfg.precision.value} LLR magnitudes must be finite and "
                         f"at most {bound:g}")
    common = dict(bg=bg, rows_used=rows_used, lanes=batch,
                  row_gather=_build_row_gather(bg, rows_used))
    n_edges = int(bg.w_r[:rows_used].sum())
    if cfg.rho == 4:
        padded = np.pad(lv, [(0, -batch % 4), (0, 0), (0, 0)], mode="edge")
        words = np.moveaxis(padded.reshape(-1, 4, *lv.shape[1:]), (0, 1), (2, 3))
        zeros = np.zeros((n_edges, bg.z, words.shape[2]), dtype=np.uint32)
        return PackedWorkspace(**common, l_v=kernels.pack_values(words),
                               messages=kernels.PackedWord(zeros, zeros.copy()))
    return ScalarWorkspace(**common, l_b=lv.copy(), l_v=lv,
                           messages=np.zeros((batch, n_edges, bg.z), dtype=dtype))


def _scalar_flood(ws: ScalarWorkspace, cfg: DecodeConfig) -> None:
    """One flooding iteration: every row consumes the previous posteriors."""
    dtype = ws.l_v.dtype
    new_msgs = np.empty_like(ws.messages)
    for cols, _, e0, idx in ws.row_gather:
        w = len(cols)
        with np.errstate(over="ignore"):
            lvc = _clamp(ws.l_v[:, cols[:, None], idx] - ws.messages[:, e0:e0 + w, :], dtype)
        new_msgs[:, e0:e0 + w] = _minsum(lvc, cfg.beta, cfg.alpha)
    ws.messages = new_msgs
    # Variable update: L_v = L_b + sum of incoming messages, widened then
    # saturated once per iteration.
    acc = ws.l_b.astype(np.int64 if np.issubdtype(dtype, np.integer) else np.float64)
    for cols, shifts, e0, _ in ws.row_gather:
        for j, (c, s) in enumerate(zip(cols, shifts)):
            acc[:, c, :] += np.roll(ws.messages[:, e0 + j, :], s, axis=-1)
    ws.l_v = _clamp(acc, dtype).astype(dtype)


# ---------------------------------------------------------------------------
# Public decoding entry points


def layered_iteration(ws: DecodeWorkspace, bg: BaseGraph, cfg: DecodeConfig) -> DecodeWorkspace:
    """One full layered pass: rows in ascending order, each feeding the next.

    A scalar int8 or f32 workspace runs the compiled kernel where the host
    can build it; f16, the packed engine and any host without the kernel run
    the numpy rows, its bit-exact oracle.
    """
    if not (isinstance(ws, ScalarWorkspace)
            and native.run_iteration(ws.l_v, ws.messages, ws.bg, ws.rows_used, cfg.beta)):
        for r in range(ws.rows_used):
            ws.layer(r, cfg)
    return ws


def _run_schedule(llrs, bg, cfg, step) -> DecodeResult:
    """Run `step` until every codeword has settled; settled outputs freeze.

    A codeword settles at the first iteration whose hard decision satisfies
    the syndrome (and the CRC in crc mode); the rest settle at max_iter with
    that iteration's hard bits. With early stop off the success test runs
    once, at max_iter. Every iteration's syndrome weights and margins go
    into the result's traces.
    """
    ws = init_workspace(llrs, bg, cfg)
    batch = ws.lanes
    bits = np.zeros((batch, bg.k_b * bg.z), dtype=np.uint8)
    iterations = np.zeros(batch, dtype=np.int64)
    success = np.zeros(batch, dtype=bool)
    weights = np.zeros((cfg.max_iter, batch), dtype=np.int64)
    margins = np.zeros((cfg.max_iter, batch), dtype=np.float64)
    hard = np.empty((batch, (bg.k_b + ws.rows_used) * bg.z), dtype=np.uint8)
    for it in range(1, cfg.max_iter + 1):
        step(ws)
        # one read of the posteriors gives the hard decisions, the syndrome
        # and the margins: compiled for int32 and f32, else these numpy lines
        lv = ws.posteriors()
        if not native.readout(lv, bg, ws.rows_used, hard, weights[it - 1], margins[it - 1]):
            np.less(lv, 0, out=hard.view(bool).reshape(lv.shape))
            weights[it - 1] = _syndrome_weights(hard, bg, ws.rows_used)
            margins[it - 1] = np.abs(lv).min(axis=(1, 2))
        last = it == cfg.max_iter
        if cfg.early_stop is EarlyStop.NONE and not last:
            continue
        live = ~success
        # a zero-margin posterior is an undecided bit (erasure fixed point):
        # the all-zero hard decision it implies is not a found codeword
        found = live & (weights[it - 1] == 0) & (margins[it - 1] > 0)
        if found.any() or last:
            info = hard[:, : bg.k_b * bg.z]
            if cfg.early_stop is EarlyStop.CRC and found.any():
                found[found] = crc_check(info[found], cfg.crc_kind)
            settle = live if last else found
            bits[settle] = info[settle]
            iterations[settle] = it
            success |= found
        if success.all():
            break
    return DecodeResult(bits, iterations, success, weights[:it], margins[:it])


def decode(llrs, bg: BaseGraph, cfg: DecodeConfig) -> DecodeResult:
    """Layered min-sum decode of one batch of quantized LLR blocks.

    `llrs` has shape (n_c,) or (B, n_c) for any B. Packed int8 (rho=4)
    carries four codewords per word inside the decoder and returns the same
    per-codeword results, traces included, as the scalar engine. Early
    termination is checked after every full iteration. The result records
    every iteration's syndrome weight and min |L_v| per codeword.
    """
    return _run_schedule(llrs, bg, cfg, lambda ws: layered_iteration(ws, bg, cfg))


def decode_flooding(llrs, bg: BaseGraph, cfg: DecodeConfig) -> DecodeResult:
    """Flooding-schedule decode: all rows consume the previous iteration."""
    if cfg.rho == 4:
        raise ValueError("flooding decoding runs on the scalar path (rho < 4)")
    return _run_schedule(llrs, bg, cfg, lambda ws: _scalar_flood(ws, cfg))
