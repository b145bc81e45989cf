import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpclab.basegraph import code_params
from ldpclab.channel import (
    F32_MAX,
    QuantConfig,
    bpsk_awgn,
    bpsk_exact,
    demap_llr,
    ebn0_to_sigma,
    quantize,
    transmit,
)
from tests.conftest import get_graph


def test_bpsk_exact_symbols():
    assert np.array_equal(bpsk_exact([0, 1, 1, 0]), [1.0, -1.0, -1.0, 1.0])


def test_bpsk_rejects_bits_other_than_0_and_1():
    # they became oversized symbols silently: [0, 1, 2, 255] gave [1, -1, -3, -509]
    for bad in ([0, 1, 2, 255], [2, -1], np.array([0, 2], dtype=np.uint8), [0.5], [np.nan]):
        with pytest.raises(ValueError, match="0 and 1"):
            bpsk_exact(bad)
        with pytest.raises(ValueError, match="0 and 1"):
            bpsk_awgn(bad, 0.5, 1)
    for good in ([True, False], np.array([1, 0], dtype=np.int64), [1.0, 0.0]):
        assert np.array_equal(bpsk_exact(good), [-1.0, 1.0])


def test_bpsk_awgn_rejects_nonpositive_sigma():
    for sigma in (0.0, -1.0):
        with pytest.raises(ValueError):
            bpsk_awgn([0, 1], sigma, 0)


def test_channel_rejects_a_sigma_that_is_not_finite_and_positive(params_bg2_z2):
    # a NaN sigma passed `sigma <= 0` and gave NaN symbols; an infinite one
    # gave infinite noise
    bits = np.zeros((1, 100), dtype=np.uint8)
    for sigma in (np.nan, np.inf, -np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="finite and positive"):
            bpsk_awgn(bits, sigma, 0)
        with pytest.raises(ValueError, match="finite and positive"):
            demap_llr(np.ones(4), sigma)
        for mode in ("int8", "f32"):
            with pytest.raises(ValueError, match="finite and positive"):
                transmit(bits, sigma, [0], QuantConfig(mode), params_bg2_z2)


def test_bpsk_awgn_deterministic_under_seed():
    bits = np.random.default_rng(1).integers(0, 2, 256)
    a = bpsk_awgn(bits, 0.8, 1234)
    b = bpsk_awgn(bits, 0.8, 1234)
    assert np.array_equal(a, b)
    c = bpsk_awgn(bits, 0.8, 1235)
    assert not np.array_equal(a, c)


def test_awgn_sample_statistics():
    # law-of-large-numbers bounds at 10^6 draws (5+ sigma margins)
    n = 10**6
    sigma = 0.7
    noise = bpsk_awgn(np.zeros(n, dtype=np.uint8), sigma, 77) - 1.0
    assert abs(noise.mean()) < 0.005 * sigma / 0.7  # scale-free pin at sigma=0.7
    assert abs(noise.mean()) < 0.005
    var = noise.var()
    assert sigma * sigma * 0.99 < var < sigma * sigma * 1.01


def test_demap_formula():
    assert demap_llr(1.0, 1.0) == pytest.approx(2.0)
    assert demap_llr(0.0, 0.5) == 0.0
    assert demap_llr(-0.5, 0.5) == pytest.approx(-4.0)
    with pytest.raises(ValueError):
        demap_llr(1.0, 0.0)


@pytest.fixture(scope="module")
def params_bg2_z2():
    return code_params(get_graph("BG2", 2), 2, 42)


def test_quantize_int8_saturation(params_bg2_z2):
    llr = np.zeros(100)
    llr[0] = 100.0
    llr[1] = -1.0
    out = quantize(llr, QuantConfig("int8", scale=8.0), params_bg2_z2)
    assert out.dtype == np.int8
    assert out[4] == 127          # saturated (+)
    assert out[5] == -8           # round(-1.0 * 8)
    assert not out[:4].any()      # punctured positions exactly 0


def test_quantize_length_check(params_bg2_z2):
    with pytest.raises(ValueError):
        quantize(np.zeros(99), QuantConfig("int8"), params_bg2_z2)


def test_quantize_rejects_nan_clamps_inf(params_bg2_z2):
    for mode in ("int8", "f32"):
        llr = np.zeros(100)
        llr[7] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            quantize(llr, QuantConfig(mode), params_bg2_z2)
    llr = np.zeros(100)
    llr[0], llr[1] = np.inf, -np.inf
    out = quantize(llr, QuantConfig("int8"), params_bg2_z2)
    assert (out[4], out[5]) == (127, -127)
    out = quantize(llr, QuantConfig("f32"), params_bg2_z2)
    assert (out[4], out[5]) == (F32_MAX, -F32_MAX)


def test_quantize_f32_passthrough(params_bg2_z2):
    llr = np.linspace(-5, 5, 100)
    out = quantize(llr, QuantConfig("f32"), params_bg2_z2)
    assert out.dtype == np.float32
    assert np.allclose(out[4:], llr.astype(np.float32))


@settings(max_examples=200, deadline=None)
@given(
    l1=st.floats(-40, 40, allow_nan=False),
    l2=st.floats(-40, 40, allow_nan=False),
)
def test_quantize_monotone(l1, l2):
    params = code_params(get_graph("BG2", 2), 2, 42)
    lo, hi = sorted((l1, l2))
    base = np.zeros(100)
    a = base.copy(); a[10] = lo
    b = base.copy(); b[10] = hi
    cfg = QuantConfig("int8", scale=8.0)
    qa = quantize(a, cfg, params)[14]
    qb = quantize(b, cfg, params)[14]
    assert qa <= qb


def test_quantize_sign_flip_symmetry(params_bg2_z2):
    rng = np.random.default_rng(31)
    llr = rng.normal(0, 4, 100)
    cfg = QuantConfig("int8", scale=8.0)
    q_pos = quantize(llr, cfg, params_bg2_z2)
    q_neg = quantize(-llr, cfg, params_bg2_z2)
    assert np.array_equal(q_neg.astype(np.int32), -q_pos.astype(np.int32))
    assert np.array_equal(np.abs(q_neg), np.abs(q_pos))


def test_quant_config_validation():
    for mode in ("int4", "f16"):
        with pytest.raises(ValueError, match="unknown quantization mode"):
            QuantConfig(mode)
    with pytest.raises(ValueError):
        QuantConfig("int8", scale=0.0)


def test_quant_config_rejects_a_scale_that_is_not_finite():
    # scale=nan passed `scale <= 0` and quantized every LLR to 0 (all
    # erasures); scale=inf gave hard +/-127
    for scale in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            QuantConfig("int8", scale=scale)


def test_ebn0_to_sigma_known_point():
    # rate 1/2 at 0 dB: sigma^2 = 1/(2 * 0.5 * 1) = 1
    assert ebn0_to_sigma(0.0, 0.5) == pytest.approx(1.0)
    assert ebn0_to_sigma(3.0, 0.5) == pytest.approx(1.0 / np.sqrt(10 ** 0.3))


def test_ebn0_to_sigma_rejects_points_without_a_finite_positive_sigma():
    # -inf divided by zero, +inf gave sigma 0, 4000 dB overflowed the power
    for ebn0 in (np.nan, -np.inf, np.inf, -7000.0, 4000.0):
        with pytest.raises(ValueError, match="finite positive sigma"):
            ebn0_to_sigma(ebn0, 0.5)


def test_channel_stage_keeps_its_draw_and_leaves_inputs_alone(params_bg2_z2):
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, (3, 100), dtype=np.uint8)
    received = bpsk_awgn(bits, 0.7, 5)
    noise = np.random.default_rng(5).normal(0.0, 0.7, size=bits.shape)
    assert received.dtype == np.float64
    assert np.array_equal(received, bpsk_exact(bits) + noise)
    kept = received.copy()
    llrs = demap_llr(received, 0.7)
    assert np.array_equal(received, kept)
    assert np.array_equal(llrs, 2.0 * kept / (0.7 * 0.7))
    out = quantize(llrs, QuantConfig("int8", scale=3.0), params_bg2_z2)
    want = np.clip(np.rint(llrs * 3.0), -127, 127).astype(np.int8)
    assert out.dtype == np.int8 and np.array_equal(out[:, 4:], want)
    assert np.array_equal(llrs, 2.0 * kept / (0.7 * 0.7))
