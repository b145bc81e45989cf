"""Arithmetic behind the reported figures: throughput, failures, spread.

Kept apart from the measuring code so that `selftest.py` can check it on
known inputs and on a tiny code.
"""

from __future__ import annotations

import statistics

import numpy as np


def coded_mbps(n_c: int, cw_per_s: float) -> float:
    """Coded throughput: n_c coded bits per codeword, in Mb/s."""
    return n_c * cw_per_s / 1e6


def failed_codewords(messages, bits) -> int:
    """Codewords whose decoded bits differ from their message anywhere."""
    msgs = np.asarray(messages)
    dec = np.asarray(bits)
    if msgs.shape != dec.shape:
        raise ValueError(f"shape mismatch: {msgs.shape} vs {dec.shape}")
    return int((msgs != dec).any(axis=-1).sum())


def recount_bit_errors(samples) -> int:
    """Bit errors over (message, decoded bits) failure samples."""
    return sum(int((np.asarray(m) != np.asarray(d)).sum()) for m, d in samples)


def relative_spread(values) -> float:
    """Interquartile distance over the median, as the acceptance rule takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
