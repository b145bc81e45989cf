"""Packed-lane kernels: lane ordering, saturating sign-magnitude arithmetic,
and the associative (min, submin, signs) reduction.

A packed word holds rho=4 unsigned 8-bit magnitude lanes, lane l at bits
[8l, 8l+8); signs travel in a companion word holding 0x00 (positive) or 0xFF
(negative) per lane. Saturated magnitudes never exceed 127. The unsaturated
`add` takes whole-byte magnitudes wherever the signed result fits a lane;
it sums same-sign lanes only, so no lane carries into the next.

All functions are pure and operate elementwise on numpy uint32 arrays of any
shape, mirroring a warp of independent SIMD words. `beta_lut` holds the
fixed-point beta rule that every integer min-sum reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ldpclab.channel import INT8_MAX

_B0 = np.uint32(0x00FF00FF)      # even-lane byte fields
_HI = np.uint32(0x01000100)      # borrow-guard bit per 16-bit field
_S127 = np.uint32(0x7F7F7F7F)    # saturation value in every lane
_ONES = np.uint32(0x01010101)
_FULL = np.uint32(0xFFFFFFFF)


def pack_u8(lanes) -> np.ndarray:
    """Pack (..., 4) uint8 lanes into uint32 words, lane 0 at the low byte."""
    arr = np.asarray(lanes, dtype=np.uint32)
    if arr.shape[-1] != 4:
        raise ValueError("u8x4 packing needs 4 lanes")
    return (arr[..., 0] | (arr[..., 1] << 8) | (arr[..., 2] << 16)
            | (arr[..., 3] << 24))


def unpack_u8(words) -> np.ndarray:
    w = np.asarray(words, dtype=np.uint32)
    out = np.empty(w.shape + (4,), dtype=np.uint8)
    for lane in range(4):
        out[..., lane] = (w >> np.uint32(8 * lane)) & np.uint32(0xFF)
    return out


def vcmplt_u8(a, b) -> np.ndarray:
    """Per-lane unsigned a < b: 0xFF in matching lanes, 0x00 elsewhere.

    Even and odd lanes are compared in separate 16-bit fields; the guard bit
    0x100 survives the subtraction exactly when the lane does not borrow.
    """
    a = np.asarray(a, dtype=np.uint32)
    b = np.asarray(b, dtype=np.uint32)
    lt_even = ((((a & _B0) | _HI) - (b & _B0)) ^ _HI) & _HI
    lt_odd = (((((a >> 8) & _B0) | _HI) - ((b >> 8) & _B0)) ^ _HI) & _HI
    return ((lt_even >> 8) * np.uint32(0xFF)) | (((lt_odd >> 8) * np.uint32(0xFF)) << 8)


def _select(mask, when_set, when_clear):
    return (mask & when_set) | (~mask & when_clear)


def ord_vec(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane unsigned (min, max) of two packed words.

    Mirrors a compare-then-two-bit-selects sequence.
    """
    a = np.asarray(a, dtype=np.uint32)
    b = np.asarray(b, dtype=np.uint32)
    mask = vcmplt_u8(a, b)
    return _select(mask, a, b), _select(mask, b, a)


@dataclass
class PackedWord:
    """rho=4 sign-magnitude lanes: magnitude word plus 0x00/0xFF sign word."""

    mag: np.ndarray
    sign: np.ndarray

    def values(self) -> np.ndarray:
        """Per-lane signed integers, for inspection and tests."""
        mags = unpack_u8(self.mag).astype(np.int32)
        neg = unpack_u8(self.sign) != 0
        return np.where(neg, -mags, mags)


def pack_values(values) -> PackedWord:
    """PackedWord from (..., 4) signed lane values in [-127, 127]."""
    v = np.asarray(values, dtype=np.int32)
    if np.abs(v).max(initial=0) > INT8_MAX:
        raise ValueError("lane magnitude exceeds saturation")
    mag = pack_u8(np.abs(v).astype(np.uint8))
    sign = pack_u8(np.where(v < 0, 0xFF, 0).astype(np.uint8))
    return PackedWord(mag, sign)


def _canonical(mag: np.ndarray, sign: np.ndarray) -> PackedWord:
    # Zero magnitudes carry the positive sign — keeps hard decisions and
    # stored messages identical between packed and scalar paths.
    return PackedWord(mag, sign & vcmplt_u8(np.uint32(0), mag))


def negate(a: PackedWord) -> PackedWord:
    return _canonical(a.mag, ~a.sign)


def add(a: PackedWord, b: PackedWord) -> PackedWord:
    """Per-lane signed add of sign-magnitude operands, unsaturated.

    Same-sign lanes must sum to at most 255. Opposite-sign lanes subtract,
    so their magnitudes may take the whole byte.
    """
    same = ~(a.sign ^ b.sign)
    # only same-sign lanes sum: an opposite-sign lane's sum could pass 255
    # and carry into the next lane
    total = (a.mag & same) + (b.mag & same)
    lo, hi = ord_vec(a.mag, b.mag)
    diff = hi - lo                              # lanes >= 0: no borrow
    b_bigger = vcmplt_u8(a.mag, b.mag)
    sign_diff = _select(b_bigger, b.sign, a.sign)
    return _canonical(_select(same, total, diff), _select(same, a.sign, sign_diff))


def saturate(a: PackedWord) -> PackedWord:
    """Clamp every lane's magnitude to 127; signs are kept."""
    return PackedWord(_select(vcmplt_u8(_S127, a.mag), _S127, a.mag), a.sign)


def sat_add(a: PackedWord, b: PackedWord) -> PackedWord:
    """Per-lane saturating signed add of sign-magnitude operands."""
    return saturate(add(a, b))


def sat_sub(a: PackedWord, b: PackedWord) -> PackedWord:
    """Per-lane saturating signed subtract, a - b."""
    return sat_add(a, negate(b))


def apply_lut_u8(words, lut) -> np.ndarray:
    """Map every 8-bit lane through a 256-entry table (e.g. the beta scale)."""
    w = np.asarray(words, dtype=np.uint32)
    table = np.asarray(lut, dtype=np.uint32)
    if table.shape != (256,):
        raise ValueError("lane lookup table must have 256 entries")
    out = table[w & np.uint32(0xFF)]
    out |= table[(w >> 8) & np.uint32(0xFF)] << 8
    out |= table[(w >> 16) & np.uint32(0xFF)] << 16
    out |= table[w >> 24] << 24
    return out


def beta_lut(beta: float) -> np.ndarray:
    """The fixed-point beta rule floor(beta * m) for m = 0..255, as int32.

    One table serves every integer min-sum: the scalar engine's numpy rows,
    the packed lanes (`apply_lut_u8`) and the compiled kernel (m <= 127).
    """
    return np.floor(beta * np.arange(256)).astype(np.int32)


@dataclass
class PackedAccumulator:
    """Per-lane (m1, m2, message sign, argmin tag) words."""

    m1: np.ndarray
    m2: np.ndarray
    s_vc: np.ndarray
    tag: np.ndarray

    def merge(self, other: "PackedAccumulator") -> "PackedAccumulator":
        # Strictly smaller m1 wins; ties keep self (the lower partition).
        y_wins = vcmplt_u8(other.m1, self.m1)
        m1 = _select(y_wins, other.m1, self.m1)
        loser = _select(y_wins, self.m1, other.m1)
        m2 = ord_vec(loser, ord_vec(self.m2, other.m2)[0])[0]
        return PackedAccumulator(
            m1=m1,
            m2=m2,
            s_vc=self.s_vc ^ other.s_vc,
            tag=_select(y_wins, other.tag, self.tag),
        )


def packed_identity() -> PackedAccumulator:
    """Merge identity: saturated magnitudes, positive signs, sentinel tag.

    Fields are scalar words that broadcast against any edge shape.
    """
    return PackedAccumulator(m1=_S127, m2=_S127, s_vc=np.uint32(0), tag=_FULL)


def packed_edge_acc(mag, sign, edge_index: int) -> PackedAccumulator:
    """Single-edge accumulator for the packed reduce; keeps the given words."""
    return PackedAccumulator(m1=mag, m2=_S127, s_vc=sign,
                             tag=np.uint32(edge_index) * _ONES)


def acc_merge(x: PackedAccumulator, y: PackedAccumulator) -> PackedAccumulator:
    """Associative merge; on m1 ties the x (lower-partition) tag survives.

    Outputs are new arrays; the inputs are never written.
    """
    return x.merge(y)


def tree_reduce(partials: list[PackedAccumulator]) -> list[PackedAccumulator]:
    """Butterfly-merge alpha partials in log2(alpha) rounds.

    The paper's low-latency merge of alpha strided column partitions
    (`planner.Strategy.LOW_LATENCY`). The packed engine folds each row in
    order, which gives the same (m1, m2, signs); this stays as the tested
    reference of that merge, and perfbench's tracing times it with `acc_merge`.
    Every output slot holds the identical fully merged value; the merge
    order is the fixed binary tree, so results are deterministic.
    """
    n = len(partials)
    if n == 0 or n & (n - 1):
        raise ValueError(f"partial count must be a power of two, got {n}")
    cur = list(partials)
    step = 1
    while step < n:
        nxt = []
        for p in range(n):
            q = p ^ step
            lo, hi = (p, q) if p < q else (q, p)
            nxt.append(acc_merge(cur[lo], cur[hi]))
        cur = nxt
        step <<= 1
    return cur
