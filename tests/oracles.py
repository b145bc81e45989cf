"""Independent reference implementations the tests check the library against.

Nothing here shares code with the package paths it verifies: encoding is
checked by dense Gaussian elimination over GF(2), CRCs by schoolbook
polynomial division on padded bit arrays, reductions by stable sorting, and
the exact check node by a pairwise log-domain boxplus fold.
"""

from __future__ import annotations

import numpy as np

from ldpclab.basegraph import BaseGraph, expand_to_binary


def gf2_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b over GF(2); returns (n, n_rhs) for b of shape (m, n_rhs)."""
    a = a.astype(np.uint8).copy()
    b = b.astype(np.uint8).copy()
    if b.ndim == 1:
        b = b[:, None]
    m, n = a.shape
    pivot_row_of_col = {}
    row = 0
    for col in range(n):
        pivots = np.flatnonzero(a[row:, col])
        if len(pivots) == 0:
            continue
        piv = row + pivots[0]
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
            b[[row, piv]] = b[[piv, row]]
        sel = a[:, col] == 1
        sel[row] = False
        a[sel] ^= a[row]
        b[sel] ^= b[row]
        pivot_row_of_col[col] = row
        row += 1
        if row == m:
            break
    if len(pivot_row_of_col) < n:
        raise ValueError("singular GF(2) system")
    residual = ~a[row:].any(axis=1) & b[row:].any(axis=1)
    if residual.any():
        raise ValueError("inconsistent GF(2) system")
    x = np.zeros((n, b.shape[1]), dtype=np.uint8)
    for col, r in pivot_row_of_col.items():
        x[col] = b[r]
    return x


def encode_by_elimination(bg: BaseGraph, z: int, rows_used: int, messages) -> np.ndarray:
    """Dense-matrix encoder: solve the parity columns of the expanded H."""
    single = np.asarray(messages).ndim == 1
    msgs = np.atleast_2d(np.asarray(messages, dtype=np.uint8))
    h = expand_to_binary(bg, z, rows_used)
    k = z * bg.k_b
    rhs = (h[:, :k] @ msgs.T) % 2
    parity = gf2_solve(h[:, k:], rhs).T
    out = np.concatenate([msgs, parity], axis=1)
    return out[0] if single else out


def syndrome_dense(bits, bg: BaseGraph, z: int, rows_used: int, limit: int = 10**7) -> int:
    h = expand_to_binary(bg, z, rows_used, limit=limit)
    return int(((h @ np.asarray(bits, dtype=np.uint8)) % 2).sum())


def crc_schoolbook(payload, length: int, poly: int) -> np.ndarray:
    """Remainder of payload * x^length by explicit long division."""
    gen = np.zeros(length + 1, dtype=np.uint8)
    gen[0] = 1
    for i in range(length):
        gen[1 + i] = (poly >> (length - 1 - i)) & 1
    buf = np.concatenate([np.asarray(payload, dtype=np.uint8),
                          np.zeros(length, dtype=np.uint8)])
    for i in range(len(buf) - length):
        if buf[i]:
            buf[i:i + length + 1] ^= gen
    return buf[-length:]


def two_smallest(values: np.ndarray) -> tuple[float, float, int]:
    """(m1, m2, argmin) by stable sort; ties resolve to the lowest index."""
    order = np.argsort(values, kind="stable")
    return values[order[0]], values[order[1]], int(order[0])


def minsum_row_reference(inputs: np.ndarray, beta: float, integer: bool) -> np.ndarray:
    """Per-edge min-sum outputs from a plain sorted scan."""
    mags = np.abs(inputs.astype(np.float64))
    signs = np.sign(inputs).astype(np.float64)
    signs[signs == 0] = 1.0
    m1, m2, arg = two_smallest(mags)
    total_sign = np.prod(signs)
    out = np.empty(len(inputs), dtype=np.float64)
    for i in range(len(inputs)):
        mag = m2 if i == arg else m1
        mag = np.floor(beta * mag) if integer else beta * mag
        out[i] = total_sign * signs[i] * mag
    return out


def boxplus_ln(a, b):
    """Exact pairwise boxplus in the stable log domain."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.logaddexp(0.0, a + b) - np.logaddexp(a, b)


def check_exact_by_fold(row: np.ndarray) -> np.ndarray:
    """Exact check update: fold boxplus over all other edges."""
    row = np.asarray(row, dtype=np.float64)
    out = np.empty_like(row)
    for i in range(len(row)):
        others = np.delete(row, i)
        acc = others[0]
        for v in others[1:]:
            acc = boxplus_ln(acc, v)
        out[i] = acc
    return out
