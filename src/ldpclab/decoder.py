"""Layered and flooding min-sum decoders over the quasi-cyclic structure.

Two engines produce bit-identical results on identical quantized inputs,
each behind its own workspace type:

* ScalarWorkspace: a batched scalar engine (int8 or f32) that serves
  as the reference; its layered iterations run in the compiled kernel of
  `ldpclab.native` where the host can build it, bit-exact with the numpy
  rows here, and
* PackedWorkspace: rho=4 codeword lanes per 32-bit word on the
  sign-magnitude SWAR kernels, kept to verify the scalar engine.

The scalar engine reduces a check row to (m1, m2, argmin, sign parity) with
whole-array numpy over the edge axis, as the compiled kernel does per edge;
the packed engine folds the row's edges in order through `kernels.acc_merge`.

Both domains saturate at their channel bound (`channel.DOMAINS`): +/-127
for int8, +/-2**64 for f32. A layer feeds the saturated extrinsic
sat(L_v - message) to the check node and writes the posterior
sat(raw + out); where that posterior saturates, the message stores what it
absorbed on top of the extrinsic, sat(raw + out) - raw, so the next visit
subtracts exactly what this one added and a codeword once found is kept.
Only int8's extrinsic (|raw| up to 254) needs more than its domain: the
numpy rows widen it to int32 and the kernel works in int16 scratch, while
int8 posteriors and messages stay bytes; f32 holds twice its bound.

A workspace carries the graph it was made for: past `decode` and
`decode_flooding`, every step of the decode path reads it from there.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from ldpclab import kernels, native
from ldpclab.basegraph import BaseGraph, code_params
from ldpclab.channel import DOMAINS, INT8_MAX
from ldpclab.codec import CRC_POLYS, _syndrome_weights, crc_check


class Precision(str, Enum):
    INT8 = "int8"
    F32 = "f32"


class EarlyStop(str, Enum):
    SYNDROME = "syndrome"
    CRC = "crc"
    NONE = "none"


def checked_count(name: str, value, least: int = 1) -> int:
    """`value` as an int of at least `least`. A bool, anything but an int or
    a numpy integer (a 2.5, a 4.0) and a smaller value raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, not {value!r}")
    return int(value)


@dataclass(frozen=True)
class DecodeConfig:
    """Decoder knobs; every stored one takes effect."""

    beta: float = 0.75
    max_iter: int = 20
    rho: int = 1
    precision: Precision = Precision.INT8
    early_stop: EarlyStop = EarlyStop.SYNDROME
    crc_kind: str = "crc24b"

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        for name in ("max_iter", "rho"):
            object.__setattr__(self, name, checked_count(name, getattr(self, name)))
        precision = Precision(self.precision)
        early = EarlyStop(self.early_stop)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "early_stop", early)
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
    """Per-codeword outcome; the traces have one row per iteration run.

    A codeword's trace column past its settle iteration repeats the settle
    iteration's value: a settled codeword is no longer decoded.
    """

    bits: np.ndarray              # (B, K) hard decisions on information bits
    iterations: np.ndarray        # (B,) iteration each codeword settled at
    success: np.ndarray           # (B,) zero syndrome (and CRC in crc mode)
    syndrome_trace: np.ndarray    # (iterations run, B) unsatisfied checks, held after settling
    margin_trace: np.ndarray      # (iterations run, B) min |L_v|, held after settling

    @property
    def syndrome_weight(self) -> np.ndarray:
        """(B,) unsatisfied checks at each codeword's settling iteration."""
        return self.syndrome_trace[self.iterations - 1, np.arange(len(self.iterations))]


# ---------------------------------------------------------------------------
# Check-node core


_BOUNDS = {np.dtype(dtype): bound for dtype, bound in DOMAINS.values()}


def _bound(dtype):
    """Largest magnitude a decoder value of `dtype` holds: its domain's
    channel bound. Every integer is int8's (`check_node_minsum` widens to
    int32); any other float, such as the float64 that only
    `check_node_minsum` sees, is unbounded."""
    bound = INT8_MAX if np.issubdtype(dtype, np.integer) else _BOUNDS.get(dtype, np.inf)
    return dtype.type(bound)


def _minsum(lvc: np.ndarray, beta: float) -> np.ndarray:
    """Min-sum messages for the edges on axis 1 of `lvc`, (B, w, Z) or (N, w).

    Saturation and the beta rule follow the dtype: integers scale by
    `kernels.beta_lut`, floats in their own dtype. The tag is the first
    argmin; where every edge saturates, m1 == m2 and the tag does not matter.
    """
    dtype = lvc.dtype
    mags = np.minimum(np.abs(lvc), _bound(dtype))
    signs = lvc < 0
    part = np.partition(mags, 1, axis=1)
    m1, m2 = part[:, :1], part[:, 1:2]
    if np.issubdtype(dtype, np.integer):
        lut = kernels.beta_lut(beta)
        b1, b2 = lut[m1], lut[m2]
    else:
        b1, b2 = dtype.type(beta) * m1, dtype.type(beta) * m2
    edge = np.arange(lvc.shape[1]).reshape((-1,) + (1,) * (lvc.ndim - 2))
    mag = np.where(np.argmin(mags, axis=1)[:, None] == edge, b2, b1)
    parity = np.bitwise_xor.reduce(signs, axis=1, keepdims=True)
    return np.where(parity ^ signs, -mag, mag)


def check_node_minsum(inputs, beta: float = 0.75) -> np.ndarray:
    """Min-sum check update over the last axis (the row's edges).

    Edge i receives beta-scaled m2 if it contributed the minimum, m1
    otherwise, with the product of the other edges' signs. Integer inputs
    use the fixed-point rule floor(beta * magnitude) and must lie within
    +/-127, as the decoder's; float inputs scale in their own dtype and must
    not be NaN. Magnitudes saturate at the bound of their decoder domain
    (`channel.DOMAINS`: 127 for integers, 2**64 for f32); any other float
    dtype is unbounded. beta lies in (0, 1], as in `DecodeConfig`.
    """
    arr = np.asarray(inputs)
    w = arr.shape[-1]
    if w < 2:
        raise ValueError("a check row needs at least two edges")
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must be in (0, 1]")
    integer = np.issubdtype(arr.dtype, np.integer)
    if integer and ((arr < -INT8_MAX) | (arr > INT8_MAX)).any():
        raise ValueError(f"integer check-node inputs must be within +/-{INT8_MAX}")
    if not integer and np.isnan(arr).any():
        raise ValueError("check-node inputs must not be NaN")
    work = (arr.astype(np.int32) if integer else arr).reshape(-1, w)
    out = _minsum(work, beta).reshape(arr.shape)
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

    @cached_property
    def row_gather(self) -> list:
        """Per row: (cols, shifts, edge offset, (w, Z) index), built on first
        use by the numpy rows, the packed engine or flooding; the compiled
        kernel never reads it."""
        return _build_row_gather(self.bg, self.rows_used)

    @abstractmethod
    def layer(self, r: int, cfg: DecodeConfig) -> None:
        """Update check row r: its messages and the posteriors it touches."""

    @abstractmethod
    def posteriors(self) -> np.ndarray:
        """Signed posteriors L_v, shape (lanes, n_blocks, Z)."""


@dataclass
class ScalarWorkspace(DecodeWorkspace):
    """(B, n_blocks, Z) posteriors, (B, E, Z) messages."""

    l_v: np.ndarray = field(repr=False)
    messages: np.ndarray = field(repr=False)

    def posteriors(self) -> np.ndarray:
        return self.l_v

    def extrinsic(self, cols, e0: int, idx) -> tuple[np.ndarray, np.ndarray]:
        """A row's extrinsic raw = L_v - message, in int32 for int8 and f32
        for f32, where it neither wraps nor overflows, and raw saturated at
        the bound in the workspace dtype."""
        dtype = self.l_v.dtype
        raw = np.subtract(self.l_v[:, cols[:, None], idx], self.messages[:, e0:e0 + len(cols)],
                          dtype=np.int32 if dtype == np.int8 else np.float32)
        bound = _bound(dtype)
        return raw, np.clip(raw, -bound, bound).astype(dtype)

    def layer(self, r: int, cfg: DecodeConfig) -> None:
        cols, _, e0, idx = self.row_gather[r]
        raw, lvc = self.extrinsic(cols, e0, idx)
        bound = _bound(lvc.dtype)
        out = _minsum(lvc, cfg.beta)
        # out adds onto the unsaturated extrinsic
        total = raw + out
        upd = np.clip(total, -bound, bound)
        # a saturated posterior's message is what it absorbed on top of raw
        self.messages[:, e0:e0 + len(cols)] = np.where(upd == total, out, upd - raw)
        self.l_v[:, cols[:, None], idx] = upd


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
        acc = kernels.packed_identity()
        for j in range(w):
            acc = kernels.acc_merge(acc, kernels.packed_edge_acc(lvc.mag[j], lvc.sign[j], j))
        lut = kernels.beta_lut(cfg.beta)
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
        meta.append((cols, shifts, offset, idx))
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
    rows_used = code_params(bg, bg.z, arr.shape[-1] // bg.z - bg.k_b).rows_used
    batch = arr.shape[0]
    if batch == 0:
        raise ValueError("a batch needs at least one codeword")
    dtype, bound = DOMAINS[cfg.precision.value]
    # the largest value `quantize` emits, where the decoder saturates. Integers
    # are checked in their own dtype, before the cast could wrap them (2**32 + 5
    # to 5); floats after it, where an overflow shows as inf
    integer = cfg.precision is Precision.INT8
    checked = arr if integer else arr.astype(dtype, order="C")
    if not (-bound <= checked.min() and checked.max() <= bound):
        raise ValueError(f"{cfg.precision.value} LLR magnitudes must be finite and "
                         f"at most {bound:g}")
    # C order whatever the input's, as the kernel takes the posteriors
    lv = (arr.astype(dtype, order="C") if integer else checked).reshape(
        batch, bg.k_b + rows_used, bg.z)
    common = dict(bg=bg, rows_used=rows_used, lanes=batch)
    n_edges = int(bg.w_r[:rows_used].sum())
    if cfg.rho == 4:
        padded = np.pad(lv, [(0, -batch % 4), (0, 0), (0, 0)], mode="edge")
        words = np.moveaxis(padded.reshape(-1, 4, *lv.shape[1:]), (0, 1), (2, 3))
        zeros = np.zeros((n_edges, bg.z, words.shape[2]), dtype=np.uint32)
        return PackedWorkspace(**common, l_v=kernels.pack_values(words),
                               messages=kernels.PackedWord(zeros, zeros.copy()))
    return ScalarWorkspace(**common, l_v=lv,
                           messages=np.zeros((batch, n_edges, bg.z), dtype=dtype))


def _scalar_flood(ws: ScalarWorkspace, l_b: np.ndarray, cfg: DecodeConfig) -> None:
    """One flooding iteration: every row consumes the previous posteriors.

    `l_b` holds the channel values, the workspace's posteriors before the
    first iteration.
    """
    dtype = ws.l_v.dtype
    new_msgs = np.empty_like(ws.messages)
    for cols, _, e0, idx in ws.row_gather:
        new_msgs[:, e0:e0 + len(cols)] = _minsum(ws.extrinsic(cols, e0, idx)[1], cfg.beta)
    ws.messages = new_msgs
    # Variable update: L_v = L_b + sum of incoming messages, widened then
    # saturated once per iteration.
    acc = l_b.astype(np.int64 if dtype == np.int8 else np.float64)
    for cols, shifts, e0, _ in ws.row_gather:
        for j, (c, s) in enumerate(zip(cols, shifts)):
            acc[:, c, :] += np.roll(ws.messages[:, e0 + j, :], s, axis=-1)
    bound = _bound(dtype)
    ws.l_v = np.clip(acc, -bound, bound).astype(dtype)


# ---------------------------------------------------------------------------
# Public decoding entry points


def _read_out(ws: DecodeWorkspace, settled: np.ndarray, readout) -> None:
    """The unsettled codewords' rows of `readout` (hard, weights, margins)
    from the posteriors: hard decisions L_v < 0, unsatisfied checks over the
    used rows and min |L_v|; the settled rows are left as they are."""
    hard, weights, margins = readout
    lv = ws.posteriors()
    unsettled = ~settled
    np.less(lv, 0, out=hard.view(bool).reshape(lv.shape), where=unsettled[:, None, None])
    np.copyto(weights, _syndrome_weights(hard, ws.bg, ws.rows_used), where=unsettled)
    np.copyto(margins, np.abs(lv).min(axis=(1, 2)), where=unsettled)


def layered_iteration(ws: DecodeWorkspace, cfg: DecodeConfig, settled: np.ndarray,
                      readout) -> None:
    """One full layered pass: rows in ascending order, each feeding the next,
    then the readout of the codewords not yet settled (see `_read_out`).

    The graph is the workspace's own. A scalar workspace runs the compiled
    kernel where the host can build it, which skips the codewords `settled` marks and reads each other one
    out at the end of its pass (see `native.run_iteration`); the packed
    engine and any host without the kernel run the numpy rows, its
    bit-exact oracle, over every codeword, then `_read_out`.
    """
    if isinstance(ws, ScalarWorkspace) and native.run_iteration(
            ws.l_v, ws.messages, ws.bg, ws.rows_used, cfg.beta, settled, *readout):
        return
    for r in range(ws.rows_used):
        ws.layer(r, cfg)
    _read_out(ws, settled, readout)


def _run_schedule(ws: DecodeWorkspace, cfg, step) -> DecodeResult:
    """Run `step` until every codeword has settled; settled outputs freeze.

    `step(ws, settled, readout)` runs one iteration and writes the rows of
    `readout`, the (hard, weights, margins) of `_read_out`, of the codewords
    the bool mask `settled` does not set; it may leave the settled codewords
    themselves untouched.

    A codeword settles at the first iteration whose hard decision satisfies
    the syndrome (and the CRC in crc mode); the rest settle at max_iter with
    that iteration's hard bits. With early stop off the success test runs
    once, at max_iter. Every iteration's syndrome weights and margins go
    into the result's traces; a settled codeword's readout row is never
    written again, so its trace rows repeat those of its settle iteration.
    """
    batch, bg = ws.lanes, ws.bg
    bits = np.zeros((batch, bg.k_b * bg.z), dtype=np.uint8)
    iterations = np.zeros(batch, dtype=np.int64)
    success = np.zeros(batch, dtype=bool)
    weights = np.zeros((cfg.max_iter, batch), dtype=np.int64)
    margins = np.zeros((cfg.max_iter, batch), dtype=np.float64)
    hard = np.empty((batch, (bg.k_b + ws.rows_used) * bg.z), dtype=np.uint8)
    weight, margin = np.empty(batch, dtype=np.int64), np.empty(batch, dtype=np.float64)
    readout = (hard, weight, margin)
    for it in range(1, cfg.max_iter + 1):
        step(ws, success, readout)
        weights[it - 1], margins[it - 1] = weight, margin
        last = it == cfg.max_iter
        if cfg.early_stop is EarlyStop.NONE and not last:
            continue
        # a zero-margin posterior is an undecided bit (erasure fixed point):
        # the all-zero hard decision it implies is not a found codeword
        found = ~success & (weights[it - 1] == 0) & (margins[it - 1] > 0)
        if found.any() or last:
            info = hard[:, : bg.k_b * bg.z]
            if cfg.early_stop is EarlyStop.CRC and found.any():
                found[found] = crc_check(info[found], cfg.crc_kind)
            settle = ~success if last else found
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
    termination is checked after every full iteration, and a settled
    codeword is retired from the compiled pass. The result records every
    iteration's syndrome weight and min |L_v| per codeword, held at the
    settle iteration's values once the codeword has settled.
    """
    ws = init_workspace(llrs, bg, cfg)
    return _run_schedule(ws, cfg, lambda ws, settled, readout: layered_iteration(
        ws, cfg, settled, readout))


def decode_flooding(llrs, bg: BaseGraph, cfg: DecodeConfig) -> DecodeResult:
    """Flooding-schedule decode: all rows consume the previous iteration."""
    if cfg.rho == 4:
        raise ValueError("flooding decoding runs on the scalar path (rho < 4)")
    ws = init_workspace(llrs, bg, cfg)
    l_b = ws.l_v.copy()

    def step(ws, settled, readout):
        _scalar_flood(ws, l_b, cfg)
        _read_out(ws, settled, readout)

    return _run_schedule(ws, cfg, step)
