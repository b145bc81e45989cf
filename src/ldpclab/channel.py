"""BPSK modulation, AWGN, LLR demapping, and decoder-domain quantization.

Sign convention: positive LLR means bit 0 is more likely. BPSK maps bit b to
symbol 1 - 2b, so the ML demapper is L = 2y / sigma^2.

`transmit` runs the whole stage for a batch, each codeword drawn from a
generator of its own: either domain goes from the draw to the decoder blocks
in one compiled call, bit-exact with `quantize(demap_llr(bpsk_awgn(...)))` of
each codeword, which stays its oracle and serves any host without the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ldpclab.basegraph import CodeParams

INT8_MAX = 127
# f32 LLRs clamp here, and the decoder saturates its f32 values here, as
# every domain does at its bound. The sums a layer forms before it saturates
# them stay within three times the bound, far inside the f32 range (3.4e38).
F32_MAX = 2.0 ** 64
# Each decoder domain, by quantization mode: its dtype and the largest
# magnitude its values hold. `quantize` and `transmit` clamp the channel
# values at the bound, and the decoder saturates every value it stores there.
DOMAINS = {"int8": (np.int8, INT8_MAX), "f32": (np.float32, F32_MAX)}
# LLR magnitude standing in for a noiseless channel observation; saturates
# the int8 domain at the default scale.
NOISE_FREE_LLR = 16.0


@dataclass(frozen=True)
class QuantConfig:
    """Decoder-domain representation of channel LLRs.

    `scale` is quantization steps per LLR unit and applies to int8 mode
    only; int8 magnitudes saturate at 127, i.e. at 127/scale LLR units. f32
    saturates at F32_MAX.
    """

    mode: str = "int8"
    scale: float = 8.0

    def __post_init__(self):
        if self.mode not in DOMAINS:
            raise ValueError(f"unknown quantization mode {self.mode!r}")
        # a NaN scale would quantize every LLR to 0, an infinite one to +/-127
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be finite and positive")
        if self.mode != "int8" and self.scale != QuantConfig.scale:
            raise ValueError(f"scale applies to int8 only, not {self.mode}")


def _binary(bits) -> np.ndarray:
    """`bits` as uint8; any value but 0 and 1 raises (a 2 would map to -3).

    A min/max pass over a 64-codeword BG1 Z=384 batch costs about 0.1 ms.
    """
    b = np.asarray(bits)
    if b.size and not (b.min() >= 0 and b.max() <= 1
                       and (b.dtype.kind in "biu" or (b == b.round()).all())):
        raise ValueError("bits may only contain 0 and 1")
    return b.astype(np.uint8, copy=False)


def bpsk_exact(bits) -> np.ndarray:
    """Noise-disabled limit: exact +/-1 symbols of 0/1 bits."""
    return 1.0 - 2.0 * _binary(bits)


def _check_sigma(sigma: float) -> None:
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, not {sigma} (use "
                         "bpsk_exact for the noise-disabled limit)")


def bpsk_awgn(bits, sigma: float, rng) -> np.ndarray:
    """BPSK symbols with N(0, sigma^2) noise, deterministic under the rng."""
    _check_sigma(sigma)
    rng = np.random.default_rng(rng)
    symbols = bpsk_exact(bits)
    received = rng.normal(0.0, sigma, size=symbols.shape)
    received += symbols
    return received


def demap_llr(symbols, sigma: float) -> np.ndarray:
    """Bit LLRs from received BPSK symbols: L = 2y / sigma^2."""
    _check_sigma(sigma)
    llrs = np.multiply(np.asarray(symbols, dtype=np.float64), 2.0)
    llrs /= sigma * sigma
    return llrs


def quantize(llrs, cfg: QuantConfig, params: CodeParams) -> np.ndarray:
    """Depuncture and quantize channel LLRs into the decoder domain.

    Input is one LLR per transmitted bit (length n_tx, possibly batched as
    (..., n_tx)); output has length n_c with the 2Z punctured positions set
    to exact zero. int8 values are round(L*scale) clamped to [-127, 127];
    f32 clamps to +/-F32_MAX and rounds to nearest-even single precision.
    NaN is rejected; +/-inf clamps like any out-of-range value.
    """
    arr = np.asarray(llrs, dtype=np.float64)
    if arr.shape[-1] != params.n_tx:
        raise ValueError(f"expected {params.n_tx} LLRs, got {arr.shape[-1]}")
    if np.isnan(arr).any():
        raise ValueError("LLRs must not be NaN")
    shape = arr.shape[:-1] + (params.n_c,)
    dtype, bound = DOMAINS[cfg.mode]
    if cfg.mode == "int8":
        full = np.zeros(shape, dtype=np.float64)
        np.multiply(arr, cfg.scale, out=full[..., 2 * params.z:])
        np.rint(full, out=full)
        return np.clip(full, -bound, bound, out=full).astype(dtype)
    full = np.zeros(shape, dtype=dtype)
    # clipped in float64, rounded once on the store, as astype rounds
    np.clip(arr, -bound, bound, out=full[..., 2 * params.z:])
    return full


def transmit(bits, sigma: float | None, rngs, quant: QuantConfig,
             params: CodeParams) -> np.ndarray:
    """Decoder-domain blocks for transmitted codeword bits (..., n_tx).

    `rngs` holds one generator (or seed) per codeword, in the order of the
    codewords in `bits`, no two of them sharing a bit generator. Codeword i's
    block is equal byte for byte to `quantize(demap_llr(bpsk_awgn(bits[i],
    sigma, rngs[i]), sigma), quant, params)`, and its generator ends in the
    state that chain leaves it in. Either domain takes one compiled call for
    the batch where the kernel loads (see `native.channel_blocks`);
    elsewhere the numpy chain runs codeword by codeword. Bits of any dtype
    other than 0 and 1, a generator count other than the codeword count
    and, where noise is drawn, a generator repeated among the codewords
    raise ValueError before any generator is read, with the kernel or
    without it. `sigma=None` disables the noise: every bit
    arrives as +/-NOISE_FREE_LLR and no generator is read.
    """
    if sigma is not None:
        _check_sigma(sigma)
    bits = _binary(bits)
    if bits.ndim == 0 or bits.shape[-1] != params.n_tx:
        raise ValueError(f"expected {params.n_tx} bits, got shape {bits.shape}")
    flat = bits.reshape(-1, params.n_tx)
    if len(rngs) != len(flat):
        raise ValueError(f"expected one generator per codeword, {len(flat)}, "
                         f"got {len(rngs)}")
    if sigma is None:
        return quantize(bpsk_exact(bits) * NOISE_FREE_LLR, quant, params)
    rngs = [np.random.default_rng(rng) for rng in rngs]
    # imported here: native imports kernels, which imports this module's bounds
    from ldpclab import native

    dtype, bound = DOMAINS[quant.mode]
    # blocks before flat: the other order left glibc's heap 0.5 MB larger at
    # its peak in a sweep of 64-codeword BG1 Z=384 int8 batches
    blocks = np.empty((len(flat), params.n_c), dtype=dtype)
    flat = np.ascontiguousarray(flat)
    if not native.channel_blocks(rngs, flat, blocks, sigma, quant.scale, bound):
        for block, row, rng in zip(blocks, flat, rngs):
            block[:] = quantize(demap_llr(bpsk_awgn(row, sigma, rng), sigma), quant, params)
    return blocks.reshape(bits.shape[:-1] + (params.n_c,))


def ebn0_to_sigma(ebn0_db: float, rate_eff: float) -> float:
    """Noise sigma for a target Eb/N0 over transmitted bits.

    rate_eff = K / N_tx accounts for puncturing: energy per information bit
    is spread over the bits actually sent. Es = 1, N0 = 2 sigma^2.
    """
    if rate_eff <= 0:
        raise ValueError("effective rate must be positive")
    try:
        sigma = math.sqrt(1.0 / (2.0 * rate_eff * 10.0 ** (ebn0_db / 10.0)))
    except (OverflowError, ZeroDivisionError):
        sigma = math.nan
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"Eb/N0 {ebn0_db} dB gives no finite positive sigma")
    return sigma
