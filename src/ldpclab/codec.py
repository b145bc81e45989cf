"""Systematic QC-LDPC encoder, CRC attach/check, puncturing, and syndrome.

All bit vectors are numpy uint8 arrays of 0/1 in natural index order; the
variable with index c*Z + i is circulant position i of base column c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ldpclab import native
from ldpclab.basegraph import BaseGraph, CodeParams, code_params
from ldpclab.channel import _binary

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
    bits = _binary(x).ravel()
    if length is not None and len(bits) != length:
        raise ValueError(f"expected {length} bits, got {len(bits)}")
    return bits


def encode(message, bg: BaseGraph, z: int, rows_used: int) -> Codeword:
    """Systematically encode K = Z*k_b message bits.

    The first four base rows form a double-diagonal parity core: their XOR
    isolates the first parity column, the remaining three follow by
    back-substitution in the order fixed when the graph loads, and every
    extension row then yields its parity block directly through its identity
    column.
    """
    params = code_params(bg, z, rows_used)
    msg = _as_bits(message, params.k)
    bits = encode_batch(msg[None, :], bg, z, rows_used)[0]
    return Codeword(bits=bits, params=params)


def encode_batch(messages, bg: BaseGraph, z: int, rows_used: int) -> np.ndarray:
    """Encode many messages at once; returns (B, n_c) codeword bits.

    Same algorithm as encode(), batched: every step is the parity of some
    base rows over the blocks known so far, with the blocks still unknown
    zero. The simulation harness lives on this path.
    """
    params = code_params(bg, z, rows_used)
    msgs = _binary(messages)
    if msgs.ndim != 2 or msgs.shape[1] != params.k:
        raise ValueError(f"expected messages of shape (B, {params.k})")
    batch = len(msgs)
    p0 = bg.core_parity_col
    known = np.zeros((batch, bg.k_b + rows_used, z), dtype=np.uint8)
    known[:, :bg.k_b] = msgs.reshape(batch, bg.k_b, z)

    # With every parity block zero, the core rows' parities are their
    # information contributions; their XOR leaves a single circulant at the
    # first parity column (validated at load time).
    info, _ = _row_parities(known, bg, rows_used, 0, 4)
    known[:, p0] = np.roll(np.bitwise_xor.reduce(info, axis=1), bg.core_sum_shift, axis=-1)
    # Each core row of the load-time order has one unknown core column left.
    for r, c, s in bg.core_order:
        parity, _ = _row_parities(known, bg, rows_used, r, r + 1)
        known[:, c] = np.roll(parity[:, 0], s, axis=-1)
    # Each extension row's own column is a shift-0 identity, and no row
    # references a later extension column (validated at load time): the rows'
    # parities over the other blocks are the extension blocks.
    known[:, p0 + 4:] = _row_parities(known, bg, rows_used, 4, rows_used)[0]

    bits = known.reshape(batch, params.n_c)
    if _syndrome_weights(bits, bg, rows_used).any():
        raise ValueError("encoder produced a nonzero syndrome (corrupt asset)")
    return bits


def _row_parities(blocks: np.ndarray, bg: BaseGraph, rows_used: int, r0: int,
                  r1: int) -> tuple[np.ndarray, np.ndarray]:
    """Parity bits (B, r1 - r0, Z) of base rows r0..r1-1 over the C-contiguous
    uint8 blocks (B, k_b + rows_used, Z) or (B, n_c), and each codeword's
    count of ones among them.

    The compiled kernel computes them; the numpy roll loop, its oracle, runs
    only where the kernel cannot be built.
    """
    got = native.row_parities(blocks, bg, rows_used, r0, r1)
    return _row_parities_numpy(blocks, bg, r0, r1) if got is None else got


def _row_parities_numpy(blocks: np.ndarray, bg: BaseGraph, r0: int,
                        r1: int) -> tuple[np.ndarray, np.ndarray]:
    blocks = blocks.reshape(len(blocks), -1, bg.z)
    parities = np.zeros((len(blocks), r1 - r0, bg.z), dtype=np.uint8)
    for r in range(r0, r1):
        cols, shifts = bg.row_entries(r)
        for c, s in zip(cols, shifts):
            # the shift-s circulant: output position i reads (i + s) mod Z
            parities[:, r - r0] ^= np.roll(blocks[:, c], -s, axis=-1)
    return parities, parities.sum(axis=(1, 2), dtype=np.int64)


def _syndrome_weights(bits2d: np.ndarray, bg: BaseGraph, rows_used: int) -> np.ndarray:
    """Unsatisfied checks per row of the (B, n_c) hard bits: the counts of
    `_row_parities` over every used row.
    """
    return _row_parities(np.ascontiguousarray(bits2d, dtype=np.uint8), bg, rows_used, 0,
                         rows_used)[1]


def syndrome(hard_bits, bg: BaseGraph, z: int, rows_used: int) -> Syndrome:
    """Number of violated parity equations over the first rows_used rows."""
    params = code_params(bg, z, rows_used)
    bits = _as_bits(hard_bits, params.n_c)
    return Syndrome(weight=int(_syndrome_weights(bits[None, :], bg, rows_used)[0]))


def puncture(cw: Codeword) -> np.ndarray:
    """Transmitted bits: drop the first 2Z (punctured) positions."""
    return cw.bits[2 * cw.params.z:].copy()


def crc_attach(payload, kind: str = "crc24b", k: int | None = None) -> np.ndarray:
    """Append the CRC parity bits of `payload` (transmission bit order).

    `payload` is one stream (n,) or a batch of streams (B, n); the result is
    (n + L,) or (B, n + L). `k` bounds the length of each attached stream.
    """
    length, _ = _crc_params(kind)
    bits, single = _bit_rows(payload)
    n = bits.shape[1]
    if k is not None and n + length > k:
        raise ValueError(
            f"payload of {n} bits plus {length} CRC bits exceeds K={k}"
        )
    # size the table for the attached stream, which crc_check sees next
    rem = _crc_remainder(bits, kind, n + length)
    parity = (rem[:, None] >> np.arange(length - 1, -1, -1, dtype=np.uint32)) & 1
    out = np.concatenate([bits, parity.astype(np.uint8)], axis=1)
    return out[0] if single else out


def crc_check(bits, kind: str = "crc24b") -> bool | np.ndarray:
    """True where the trailing CRC parity matches the leading payload.

    One stream (n,) gives a bool, a batch (B, n) a (B,) bool array. A stream
    shorter than the CRC fails.
    """
    length, _ = _crc_params(kind)
    data, single = _bit_rows(bits)
    if data.shape[1] < length:
        ok = np.zeros(len(data), dtype=bool)
    else:
        # payload(x)*x^L + parity(x) is a multiple of the generator exactly
        # when the parity is correct: the whole stream leaves no remainder
        ok = _crc_remainder(data, kind, data.shape[1]) == 0
    return bool(ok[0]) if single else ok


def _crc_params(kind: str) -> tuple[int, int]:
    try:
        return CRC_POLYS[kind]
    except KeyError:
        raise ValueError(f"unknown CRC kind {kind!r}; choose from {sorted(CRC_POLYS)}")


def _bit_rows(x) -> tuple[np.ndarray, bool]:
    """(B, n) uint8 bits from one stream or a batch, and whether it was one."""
    bits = _binary(x)
    if bits.ndim not in (1, 2):
        raise ValueError(f"expected bits of shape (n,) or (B, n), got {bits.shape}")
    return (bits[None, :], True) if bits.ndim == 1 else (bits, False)


# Positional byte tables, one per CRC kind, built for the longest stream
# asked for so far and at most this many bytes; longer streams fold through
# the table in chunks.
_CRC_TABLE_MAX_BYTES = 2048
_CRC_TABLES: dict[str, np.ndarray] = {}


def _crc_table(kind: str, n_bytes: int) -> np.ndarray:
    """(R, 256) uint32 table, R >= min(n_bytes, _CRC_TABLE_MAX_BYTES).

    Entry (R - 1 - j, v) is the remainder of v(x) * x^(8j) * x^L: byte value
    v at byte j counted from the end of the stream. A stream of m <= R bytes
    uses the last m rows.
    """
    rows = min(max(n_bytes, 1), _CRC_TABLE_MAX_BYTES)
    table = _CRC_TABLES.get(kind)
    if table is not None and len(table) >= rows:
        return table
    length, poly = CRC_POLYS[kind]
    top, mask = 1 << (length - 1), (1 << length) - 1
    # basis[i] = x^(i + L) mod g(x) for every bit i counted from the end
    basis, reg = [], poly
    for _ in range(8 * rows):
        basis.append(reg)
        reg = ((reg << 1) & mask) ^ (poly if reg & top else 0)
    basis = np.array(basis, dtype=np.uint32).reshape(rows, 8)[::-1]
    # entry v is the XOR of the basis of v's set bits: add one bit at a time
    table = np.zeros((rows, 256), dtype=np.uint32)
    for b in range(8):
        np.bitwise_xor(table[:, : 1 << b], basis[:, b, None],
                       out=table[:, 1 << b: 2 << b])
    _CRC_TABLES[kind] = table
    return table


def _crc_remainder(bits: np.ndarray, kind: str, size_for: int) -> np.ndarray:
    """(B,) uint32 remainders of stream(x) * x^L for the rows of `bits`.

    The table is sized for streams of `size_for` bits. Zero bits in front
    leave a remainder unchanged, so a stream is padded there to whole bytes.
    """
    length, _ = CRC_POLYS[kind]
    batch, n = bits.shape
    pad = -n % 8
    if pad:
        bits = np.concatenate([np.zeros((batch, pad), dtype=np.uint8), bits], axis=1)
    packed = np.packbits(bits, axis=1)
    table = _crc_table(kind, -(-size_for // 8))
    rows = len(table)
    rem = np.zeros(batch, dtype=np.uint32)
    # Horner over chunks of at most `rows` bytes, the first one the shortest:
    # XORing the remainder so far into the head of the next chunk multiplies
    # it by x^(8 * chunk bytes), as the chunk's own bytes are.
    head = np.arange(length // 8 - 1, -1, -1, dtype=np.uint32) * 8
    start = 0
    for stop in range(packed.shape[1] % rows or rows, packed.shape[1] + 1, rows):
        chunk = packed[:, start:stop]
        if start:
            chunk = chunk.copy()
            chunk[:, : length // 8] ^= (rem[:, None] >> head).astype(np.uint8)
        m = stop - start
        rem = np.bitwise_xor.reduce(table[rows - m:][np.arange(m), chunk], axis=1)
        start = stop
    return rem
