"""BPSK modulation, AWGN, LLR demapping, and decoder-domain quantization.

Sign convention: positive LLR means bit 0 is more likely. BPSK maps bit b to
symbol 1 - 2b, so the ML demapper is L = 2y / sigma^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ldpclab.basegraph import CodeParams

INT8_MAX = 127
F16_MAX = 65504.0
# f32 LLRs clamp here. Posteriors grow from the channel values: with early
# stop off, clean BG1/BG2 codewords at +/-2**64 settle below 134 times that at
# beta=0.75 (2.5e21 against the f32 maximum 3.4e38), and at beta=1 BG1 grows
# 1.33x per iteration and stays finite through 100 iterations (2.1e33).
F32_MAX = 2.0 ** 64


@dataclass(frozen=True)
class QuantConfig:
    """Decoder-domain representation of channel LLRs.

    `scale` is quantization steps per LLR unit and applies to int8 mode
    only; int8 magnitudes saturate at 127, i.e. at 127/scale LLR units. f16
    saturates at the largest representable half-precision value.
    """

    mode: str = "int8"
    scale: float = 8.0

    def __post_init__(self):
        if self.mode not in ("int8", "f16", "f32"):
            raise ValueError(f"unknown quantization mode {self.mode!r}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.mode != "int8" and self.scale != QuantConfig.scale:
            raise ValueError(f"scale applies to int8 only, not {self.mode}")


def bpsk_exact(bits) -> np.ndarray:
    """Noise-disabled limit: exact +/-1 symbols."""
    b = np.asarray(bits, dtype=np.float64)
    return 1.0 - 2.0 * b


def bpsk_awgn(bits, sigma: float, rng) -> np.ndarray:
    """BPSK symbols with N(0, sigma^2) noise, deterministic under the rng."""
    if sigma <= 0:
        raise ValueError("sigma must be positive (use bpsk_exact for the "
                         "noise-disabled limit)")
    rng = np.random.default_rng(rng)
    symbols = bpsk_exact(bits)
    received = rng.normal(0.0, sigma, size=symbols.shape)
    received += symbols
    return received


def demap_llr(symbols, sigma: float) -> np.ndarray:
    """Bit LLRs from received BPSK symbols: L = 2y / sigma^2."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    llrs = np.multiply(np.asarray(symbols, dtype=np.float64), 2.0)
    llrs /= sigma * sigma
    return llrs


def quantize(llrs, cfg: QuantConfig, params: CodeParams) -> np.ndarray:
    """Depuncture and quantize channel LLRs into the decoder domain.

    Input is one LLR per transmitted bit (length n_tx, possibly batched as
    (..., n_tx)); output has length n_c with the 2Z punctured positions set
    to exact zero. int8 values are round(L*scale) clamped to [-127, 127];
    f16 clamps to its largest finite value and rounds to nearest-even half
    precision; f32 clamps to +/-F32_MAX. NaN is rejected; +/-inf clamps like
    any out-of-range value.
    """
    arr = np.asarray(llrs, dtype=np.float64)
    if arr.shape[-1] != params.n_tx:
        raise ValueError(f"expected {params.n_tx} LLRs, got {arr.shape[-1]}")
    if np.isnan(arr).any():
        raise ValueError("LLRs must not be NaN")
    shape = arr.shape[:-1] + (params.n_c,)
    if cfg.mode == "int8":
        full = np.zeros(shape, dtype=np.float64)
        np.multiply(arr, cfg.scale, out=full[..., 2 * params.z:])
        np.rint(full, out=full)
        return np.clip(full, -INT8_MAX, INT8_MAX, out=full).astype(np.int8)
    bound, dtype = (F16_MAX, np.float16) if cfg.mode == "f16" else (F32_MAX, np.float32)
    full = np.zeros(shape, dtype=dtype)
    # clipped in float64, rounded once on the store, as astype rounds
    np.clip(arr, -bound, bound, out=full[..., 2 * params.z:])
    return full


def ebn0_to_sigma(ebn0_db: float, rate_eff: float) -> float:
    """Noise sigma for a target Eb/N0 over transmitted bits.

    rate_eff = K / N_tx accounts for puncturing: energy per information bit
    is spread over the bits actually sent. Es = 1, N0 = 2 sigma^2.
    """
    if rate_eff <= 0:
        raise ValueError("effective rate must be positive")
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    return math.sqrt(1.0 / (2.0 * rate_eff * ebn0))
