"""Systematic QC-LDPC encoder, CRC attach/check, puncturing, and syndrome.

All bit vectors are numpy uint8 arrays of 0/1 in natural index order; the
variable with index c*Z + i is circulant position i of base column c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ldpclab.basegraph import BaseGraph, CodeParams, code_params

# CRC generator polynomials, msb-first without the leading x^L term.
CRC_POLYS = {
    "crc24a": (24, 0x864CFB),
    "crc24b": (24, 0x800063),
    "crc16": (16, 0x1021),
}


@dataclass(frozen=True)
class Codeword:
    bits: np.ndarray
    params: CodeParams


@dataclass(frozen=True)
class Syndrome:
    weight: int

    @property
    def satisfied(self) -> bool:
        return self.weight == 0


def _as_bits(x, length: int | None = None) -> np.ndarray:
    bits = np.asarray(x, dtype=np.uint8).ravel()
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("bit vector may only contain 0 and 1")
    if length is not None and len(bits) != length:
        raise ValueError(f"expected {length} bits, got {len(bits)}")
    return bits


def _apply_shift(block: np.ndarray, shift: int) -> np.ndarray:
    # Multiply by the shift-s circulant: output position i reads (i+s) mod Z.
    return np.roll(block, -shift, axis=-1)


def encode(message, bg: BaseGraph, z: int, rows_used: int) -> Codeword:
    """Systematically encode K = Z*k_b message bits.

    The first four base rows form a double-diagonal parity core: their XOR
    isolates the first parity column, the remaining three follow by
    back-substitution, and every extension row then yields its parity block
    directly through its identity column.
    """
    params = code_params(bg, z, rows_used)
    msg = _as_bits(message, params.k)
    bits = encode_batch(msg[None, :], bg, z, rows_used)[0]
    return Codeword(bits=bits, params=params)


def encode_batch(messages, bg: BaseGraph, z: int, rows_used: int) -> np.ndarray:
    """Encode many messages at once; returns (B, n_c) codeword bits.

    Same algorithm as encode(), vectorized so each circulant multiply rolls
    a whole (B, Z) block. The simulation harness lives on this path.
    """
    params = code_params(bg, z, rows_used)
    msgs = np.asarray(messages, dtype=np.uint8)
    if msgs.ndim != 2 or msgs.shape[1] != params.k:
        raise ValueError(f"expected messages of shape (B, {params.k})")
    if not np.isin(msgs, (0, 1)).all():
        raise ValueError("bit vector may only contain 0 and 1")
    batch = len(msgs)
    p0 = bg.core_parity_col
    known = np.zeros((batch, bg.k_b + rows_used, z), dtype=np.uint8)
    known[:, :bg.k_b] = msgs.reshape(batch, bg.k_b, z)
    have = np.zeros(bg.k_b + rows_used, dtype=bool)
    have[: bg.k_b] = True

    # Information contribution of each core row.
    t = np.zeros((batch, 4, z), dtype=np.uint8)
    for r in range(4):
        cols, shifts = bg.row_entries(r)
        for c, s in zip(cols, shifts):
            if c < bg.k_b:
                t[:, r] ^= _apply_shift(known[:, c], s)

    # XOR of the core rows leaves a single circulant at the first parity
    # column (validated at load time).
    known[:, p0] = np.roll(t[:, 0] ^ t[:, 1] ^ t[:, 2] ^ t[:, 3],
                           bg.core_sum_shift, axis=-1)
    have[p0] = True

    # Back-substitute the remaining core columns: each core row has exactly
    # one unknown among p0+1..p0+3 once p0 is known.
    rows_left = list(range(4))
    while rows_left:
        for r in rows_left:
            cols, shifts = bg.row_entries(r)
            unknown = [(c, s) for c, s in zip(cols, shifts)
                       if c >= p0 and not have[c]]
            if len(unknown) > 1:
                continue
            u = t[:, r].copy()
            for c, s in zip(cols, shifts):
                if c >= p0 and have[c]:
                    u ^= _apply_shift(known[:, c], s)
            if not unknown:
                if u.any():
                    raise ValueError(
                        "singular parity core: asset does not encode systematically"
                    )
            else:
                c, s = unknown[0]
                known[:, c] = np.roll(u, s, axis=-1)
                have[c] = True
            rows_left.remove(r)
            break
        else:
            raise ValueError("singular parity core: cannot isolate core columns")

    # Extension rows: identity column gives the parity block outright.
    for r in range(4, rows_used):
        cols, shifts = bg.row_entries(r)
        u = np.zeros((batch, z), dtype=np.uint8)
        for c, s in zip(cols, shifts):
            if c != p0 + r:
                u ^= _apply_shift(known[:, c], s)
        known[:, p0 + r] = u

    bits = known.reshape(batch, params.n_c)
    if _syndrome_weights(bits, bg, rows_used).any():
        raise ValueError("encoder produced a nonzero syndrome (corrupt asset)")
    return bits


def _syndrome_weights(bits2d: np.ndarray, bg: BaseGraph, rows_used: int) -> np.ndarray:
    blocks = bits2d.reshape(len(bits2d), -1, bg.z)
    weights = np.zeros(len(bits2d), dtype=np.int64)
    for r in range(rows_used):
        cols, shifts = bg.row_entries(r)
        acc = np.zeros((len(bits2d), bg.z), dtype=np.uint8)
        for c, s in zip(cols, shifts):
            acc ^= _apply_shift(blocks[:, c], s)
        weights += acc.sum(axis=-1, dtype=np.int64)
    return weights


def syndrome(hard_bits, bg: BaseGraph, z: int, rows_used: int) -> Syndrome:
    """Number of violated parity equations over the first rows_used rows."""
    params = code_params(bg, z, rows_used)
    bits = _as_bits(hard_bits, params.n_c)
    return Syndrome(weight=int(_syndrome_weights(bits[None, :], bg, rows_used)[0]))


def puncture(cw: Codeword) -> np.ndarray:
    """Transmitted bits: drop the first 2Z (punctured) positions."""
    return cw.bits[2 * cw.params.z:].copy()


def depuncture(values, z: int) -> np.ndarray:
    """Restore the punctured positions as erasures (LLR exactly 0)."""
    vals = np.asarray(values, dtype=np.float64).ravel()
    return np.concatenate([np.zeros(2 * z), vals])


def crc_attach(payload, kind: str = "crc24b", k: int | None = None) -> np.ndarray:
    """Append the CRC parity bits of `payload` (transmission bit order)."""
    length, poly = _crc_params(kind)
    bits = _as_bits(payload)
    if k is not None and len(bits) + length > k:
        raise ValueError(
            f"payload of {len(bits)} bits plus {length} CRC bits exceeds K={k}"
        )
    return np.concatenate([bits, _crc_remainder(bits, length, poly)])


def crc_check(bits, kind: str = "crc24b") -> bool:
    """True when the trailing CRC parity matches the leading payload."""
    length, poly = _crc_params(kind)
    data = _as_bits(bits)
    if len(data) < length:
        return False
    # payload(x)*x^L + parity(x) is a multiple of the generator exactly when
    # the parity is correct, so the register drains to zero.
    return not _crc_remainder(data, length, poly).any()


def _crc_params(kind: str) -> tuple[int, int]:
    try:
        return CRC_POLYS[kind]
    except KeyError:
        raise ValueError(f"unknown CRC kind {kind!r}; choose from {sorted(CRC_POLYS)}")


def _crc_remainder(stream: np.ndarray, length: int, poly: int) -> np.ndarray:
    # Bit-serial division of stream(x) * x^length by the generator; the bit
    # is folded in at the register top, so no explicit zero padding is fed.
    reg = 0
    top = 1 << (length - 1)
    mask = (1 << length) - 1
    for b in stream:
        fb = ((reg & top) != 0) ^ int(b)
        reg = ((reg << 1) & mask) ^ (poly if fb else 0)
    out = np.empty(length, dtype=np.uint8)
    for i in range(length):
        out[i] = (reg >> (length - 1 - i)) & 1
    return out
