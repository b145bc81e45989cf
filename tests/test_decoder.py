import hashlib

import numpy as np
import pytest

from ldpclab import native
from ldpclab.basegraph import code_params
from ldpclab.channel import DOMAINS, F32_MAX, QuantConfig, bpsk_exact, quantize
from ldpclab.codec import crc_attach, encode, encode_batch, puncture
from ldpclab.decoder import (
    DecodeConfig,
    EarlyStop,
    Precision,
    check_node_exact,
    check_node_minsum,
    decode,
    decode_flooding,
    init_workspace,
    layered_iteration,
)
from tests.conftest import get_graph, make_noisy_blocks
from tests.oracles import check_exact_by_fold, minsum_row_reference


# --- check node updates ----------------------------------------------------


def test_minsum_hand_example_float():
    out = check_node_minsum(np.array([2.0, -3.0, 5.0], dtype=np.float32), beta=1.0)
    assert np.allclose(out, [-3.0, 2.0, -2.0])


def test_minsum_fixed_point_example():
    # LLRs 2, -3, 5 at scale 8 -> steps 16, -24, 40; beta floor in steps
    out = check_node_minsum(np.array([16, -24, 40], dtype=np.int32), beta=0.75)
    assert out.tolist() == [-18, 12, -12]


def test_minsum_zero_input_zeroes_others():
    out = check_node_minsum(np.array([0.0, 4.0, -7.0], dtype=np.float32), beta=1.0)
    assert out[1] == 0.0 and out[2] == 0.0
    assert out[0] != 0.0


def test_minsum_matches_sorted_reference():
    rng = np.random.default_rng(71)
    for _ in range(300):
        w = int(rng.integers(2, 20))
        row = rng.integers(-127, 128, w).astype(np.int32)
        got = check_node_minsum(row, beta=0.75)
        ref = minsum_row_reference(row, 0.75, integer=True)
        assert np.array_equal(got.astype(np.float64), ref)
    for _ in range(300):
        w = int(rng.integers(2, 20))
        row = rng.normal(0, 5, w).astype(np.float32)
        got = check_node_minsum(row, beta=0.75)
        ref = minsum_row_reference(row, 0.75, integer=False)
        assert np.allclose(got, ref, rtol=1e-6)
    # f16 rounds the one product beta * m, as the float64 reference does once
    # it is cast; rows drawn from a few values give ties, zeros and rows whose
    # every magnitude saturates, where only m1 == m2 keeps the tag rule moot
    for dtype, sat in ((np.float16, 65504.0), (np.float32, F32_MAX), (np.int32, 127)):
        integer = np.issubdtype(dtype, np.integer)
        pools = ([0, 1, -1, 3, -3], [sat, -sat], [0, 2, -2, sat, -sat])
        for i in range(300):
            w = int(rng.integers(2, 20))
            if i < 100 and not integer:
                row = rng.normal(0, 5, w).astype(dtype)
            else:
                row = rng.choice(pools[i % 3], w).astype(dtype)
            got = check_node_minsum(row, beta=0.75)
            ref = minsum_row_reference(row, 0.75, integer=integer)
            assert got.dtype == dtype
            assert np.array_equal(got, ref.astype(dtype))
    # +/-inf saturates at the domain's bound: f16's largest finite value,
    # F32_MAX for f32; float64 is unbounded
    for dtype, sat in ((np.float16, 65504.0), (np.float32, F32_MAX)):
        row = np.array([np.inf, -np.inf, 2.0, np.inf], dtype=dtype)
        ref = minsum_row_reference(np.clip(row, -sat, sat), 0.75, integer=False)
        assert np.array_equal(check_node_minsum(row, beta=0.75), ref.astype(dtype))
    row = np.array([np.inf, -np.inf, 2.0, np.inf])
    assert np.array_equal(check_node_minsum(row, beta=0.75), [-1.5, 1.5, -np.inf, -1.5])


def test_exact_degree_two_passes_through():
    out = check_node_exact(np.array([2.0, 2.0]))
    assert np.allclose(out, [2.0, 2.0], atol=1e-12)


def test_exact_three_edge_frozen_value():
    # 2*atanh(tanh(1)^2), cross-checked against the log-domain boxplus fold
    out = check_node_exact(np.array([2.0, 2.0, 2.0]))
    assert np.allclose(out, 1.3250027473578643, atol=1e-12)
    assert np.allclose(out, check_exact_by_fold(np.array([2.0, 2.0, 2.0])), atol=1e-10)


def test_exact_zero_input_zeroes_others():
    out = check_node_exact(np.array([0.0, 3.0, -1.0]))
    assert out[1] == 0.0 and out[2] == 0.0


def test_exact_matches_boxplus_fold_random():
    rng = np.random.default_rng(79)
    for _ in range(100):
        row = rng.normal(0, 3, int(rng.integers(2, 10)))
        assert np.allclose(check_node_exact(row), check_exact_by_fold(row), atol=1e-8)


def test_exact_dominated_by_minsum():
    rng = np.random.default_rng(83)
    rows = rng.normal(0, 4, size=(10_000, 6))
    exact = check_node_exact(rows)
    ms = check_node_minsum(rows, beta=1.0)
    assert np.all(np.abs(exact) <= np.abs(ms) + 1e-9)


def test_check_node_needs_two_edges():
    with pytest.raises(ValueError):
        check_node_minsum(np.array([1.0]))
    with pytest.raises(ValueError):
        check_node_exact(np.array([1.0]))


def test_check_node_rejects_bad_inputs():
    # these passed through: NaN spread into every other edge's output,
    # int32 magnitudes above 127 saturated at 127 without a word, and a
    # negative beta flipped every message's sign
    with pytest.raises(ValueError, match="beta"):
        check_node_minsum(np.array([16, -24, 40]), beta=-0.5)
    with pytest.raises(ValueError, match="NaN"):
        check_node_minsum(np.array([[-2.0, 3.0, np.nan], [np.nan, 1.0, 1.0]]))
    for row in (np.array([300, -400, 500], dtype=np.int32), np.array([-128, 5], dtype=np.int8),
                np.array([200, 5], dtype=np.uint8)):
        with pytest.raises(ValueError, match="127"):
            check_node_minsum(row, beta=0.75)
    edge = np.array([127, -127, 5], dtype=np.int8)
    assert check_node_minsum(edge, beta=0.75).tolist() == [-3, 3, -95]


# --- workspace / iteration mechanics ----------------------------------------


def _noise_free_block(bg, rows_used, msg, mode="int8"):
    params = code_params(bg, bg.z, rows_used)
    cw = encode(msg, bg, bg.z, rows_used)
    llr = bpsk_exact(puncture(cw)) * 16.0
    return quantize(llr, QuantConfig(mode=mode), params)


def test_first_iteration_sees_channel_llrs(bg2_z16):
    rng = np.random.default_rng(87)
    msg = rng.integers(0, 2, 160, dtype=np.uint8)
    block = _noise_free_block(bg2_z16, 42, msg)
    cfg = DecodeConfig(precision=Precision.INT8)
    ws = init_workspace(block, bg2_z16, cfg)
    assert not ws.messages.any()
    # with zero messages the first row's inputs are the channel LLRs
    cols, shifts, e0, idx = ws.row_gather[0]
    channel = block.astype(np.int32).reshape(1, -1, 16)
    expected = check_node_minsum(
        np.moveaxis(channel[:, cols[:, None], idx], 1, -1), beta=cfg.beta
    )
    layered_iteration(ws, bg2_z16, cfg)
    got = np.moveaxis(ws.messages[:, e0:e0 + len(cols), :], 1, -1)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("precision", [Precision.INT8, Precision.F32])
def test_message_conservation_per_layer(bg2_z16, precision):
    """Right after a row updates, its stored messages are recomputable from
    the posteriors it just wrote (before later rows move shared columns).

    int8 runs at scale 1 so posterior updates stay clear of saturation,
    where subtracting the stored message recovers the exact row inputs.
    """
    scale = 1.0 if precision is Precision.INT8 else 8.0
    _, blocks = make_noisy_blocks(bg2_z16, 42, 2.0, 3, seed=5,
                                  mode=precision.value, scale=scale)
    cfg = DecodeConfig(precision=precision)
    ws = init_workspace(blocks, bg2_z16, cfg)
    for r in range(ws.rows_used):
        ws.layer(r, cfg)
        cols, shifts, e0, idx = ws.row_gather[r]
        w = len(cols)
        lv_rows = ws.l_v[:, cols[:, None], idx]
        stored = ws.messages[:, e0:e0 + w, :]
        # int8 storage: widen, or a difference past +/-127 would wrap unseen
        lvc = np.subtract(lv_rows, stored,
                          dtype=np.int32 if precision is Precision.INT8 else stored.dtype)
        recomputed = np.moveaxis(
            check_node_minsum(np.moveaxis(lvc, 1, -1), beta=cfg.beta), -1, 1
        )
        if precision is Precision.INT8:
            # integer arithmetic makes the round trip exact
            assert np.abs(lvc).max() <= 127   # saturation-free by construction
            assert np.array_equal(recomputed, stored)
        else:
            # float posteriors re-quantize the subtraction, so recovery is
            # exact up to rounding of (lvc + out) - out
            assert np.allclose(recomputed, stored, atol=1e-3, rtol=1e-3)


def test_int8_message_conservation_under_saturation(bg2_z16):
    """At the default scale 8 the posteriors saturate at high SNR; the stored
    message is what the saturated posterior absorbed on top of the row's
    unclamped extrinsic, so subtracting it gives that extrinsic back exactly.
    Both sides are widened to int32: in the int8 workspace dtype an extrinsic
    past +/-127 would wrap on both sides alike and hide a mismatch.
    """
    _, blocks = make_noisy_blocks(bg2_z16, 42, 8.0, 4, seed=5)
    cfg = DecodeConfig(precision=Precision.INT8)
    ws = init_workspace(blocks, bg2_z16, cfg)
    saturated = wide = mismatches = 0
    for _ in range(3):
        for r in range(ws.rows_used):
            cols, _, e0, idx = ws.row_gather[r]
            w = len(cols)
            raw = np.subtract(ws.l_v[:, cols[:, None], idx], ws.messages[:, e0:e0 + w, :],
                              dtype=np.int32)
            ws.layer(r, cfg)
            lv_rows = ws.l_v[:, cols[:, None], idx]
            saturated += int((np.abs(lv_rows) == 127).sum())
            wide += int((np.abs(raw) > 127).sum())
            mismatches += int((np.subtract(lv_rows, ws.messages[:, e0:e0 + w, :],
                                           dtype=np.int32) != raw).sum())
    assert saturated > 0              # the regime under test is reached
    assert wide > 0                   # extrinsics an int8 subtraction would wrap
    assert mismatches == 0


@pytest.mark.parametrize("bg_id,z", [("BG1", 2), ("BG2", 2), ("BG2", 16)])
def test_noise_free_roundtrip_one_iteration(bg_id, z):
    bg = get_graph(bg_id, z)
    rng = np.random.default_rng(91)
    msg = rng.integers(0, 2, bg.k_b * z, dtype=np.uint8)
    block = _noise_free_block(bg, bg.m_bg, msg)
    res = decode(block, bg, DecodeConfig(precision=Precision.INT8))
    assert res.success.all()
    assert res.iterations[0] == 1
    assert np.array_equal(res.bits[0], msg)
    # the 2Z punctured information bits arrive as erasures yet decode
    assert np.array_equal(res.bits[0][: 2 * z], msg[: 2 * z])


def test_total_erasure_fails_at_max_iter(bg2_z16):
    # all-zero LLRs are a min-sum fixed point: every message and posterior
    # stays zero, so no codeword is ever decided
    block = np.zeros(832, dtype=np.int8)
    res = decode(block, bg2_z16, DecodeConfig(precision=Precision.INT8, max_iter=7))
    assert not res.success.any()
    assert res.iterations[0] == 7


def test_packed_matches_scalar_small(bg2_z16):
    _, blocks = make_noisy_blocks(bg2_z16, 42, 1.5, 8, seed=13)
    scalar = decode(blocks, bg2_z16, DecodeConfig(precision=Precision.INT8, max_iter=10))
    packed = decode(blocks, bg2_z16, DecodeConfig(precision=Precision.INT8,
                                                  rho=4, max_iter=10))
    assert np.array_equal(scalar.bits, packed.bits)
    assert np.array_equal(scalar.iterations, packed.iterations)
    assert np.array_equal(scalar.syndrome_weight, packed.syndrome_weight)


def test_flooding_noise_free(bg2_z16):
    rng = np.random.default_rng(19)
    msg = rng.integers(0, 2, 160, dtype=np.uint8)
    block = _noise_free_block(bg2_z16, 42, msg, mode="f32")
    res = decode_flooding(block, bg2_z16, DecodeConfig(precision=Precision.F32))
    assert res.success.all()
    assert np.array_equal(res.bits[0], msg)


def test_first_layer_messages_coincide_between_schedules(bg2_z16):
    """Before any cross-row feedback, both schedules compute the same row."""
    _, blocks = make_noisy_blocks(bg2_z16, 42, 2.0, 2, seed=23, mode="f32")
    cfg = DecodeConfig(precision=Precision.F32)
    ws_l = init_workspace(blocks, bg2_z16, cfg)
    layered_iteration(ws_l, bg2_z16, cfg)
    ws_f = init_workspace(blocks, bg2_z16, cfg)
    from ldpclab.decoder import _scalar_flood
    _scalar_flood(ws_f, ws_f.l_v.copy(), cfg)
    cols, shifts, e0, idx = ws_l.row_gather[0]
    w = len(cols)
    assert np.array_equal(ws_l.messages[:, :w, :], ws_f.messages[:, :w, :])


def test_flooding_needs_more_iterations(bg2_z16):
    _, blocks = make_noisy_blocks(bg2_z16, 42, 2.5, 24, seed=29, mode="f32")
    cfg = DecodeConfig(precision=Precision.F32, max_iter=50)
    lay = decode(blocks, bg2_z16, cfg)
    flo = decode_flooding(blocks, bg2_z16, cfg)
    both = lay.success & flo.success
    assert both.sum() >= 20
    assert lay.iterations[both].mean() < flo.iterations[both].mean()


def test_flooding_rejects_packed():
    bg = get_graph("BG2", 16)
    with pytest.raises(ValueError):
        decode_flooding(np.zeros((4, 832), dtype=np.int8), bg,
                        DecodeConfig(precision=Precision.INT8, rho=4))


# --- termination, tracing, validation ---------------------------------------


def test_early_stop_none_runs_all_iterations(bg2_z16):
    # fully saturated inputs; with early stop off every iteration runs
    rng = np.random.default_rng(31)
    msg = rng.integers(0, 2, 160, dtype=np.uint8)
    block = _noise_free_block(bg2_z16, 42, msg)
    res = decode(block, bg2_z16, DecodeConfig(precision=Precision.INT8,
                                              max_iter=10,
                                              early_stop=EarlyStop.NONE))
    assert (res.iterations == 10).all()


def test_early_stop_none_moderate_llrs_stay_converged(bg2_z16):
    # away from saturation the plateau is stable
    rng = np.random.default_rng(32)
    msg = rng.integers(0, 2, 160, dtype=np.uint8)
    params = code_params(bg2_z16, 16, 42)
    cw = encode(msg, bg2_z16, 16, 42)
    llr = bpsk_exact(puncture(cw)) * 4.0
    block = quantize(llr, QuantConfig("int8"), params)
    res = decode(block, bg2_z16, DecodeConfig(precision=Precision.INT8,
                                              max_iter=10,
                                              early_stop=EarlyStop.NONE))
    assert res.iterations[0] == 10
    assert res.success[0]
    assert np.array_equal(res.bits[0], msg)
    # in the waterfall and in saturation alike, int8 keeps every codeword it
    # finds through all 20 iterations, on both engines
    bg = get_graph("BG2", 52)
    for ebn0 in (1.5, 8.0):
        msgs, blocks = make_noisy_blocks(bg, 42, ebn0, 32, seed=9)
        for rho in (1, 4):
            res = decode(blocks, bg, DecodeConfig(rho=rho, early_stop=EarlyStop.NONE))
            assert res.success.all()
            assert np.array_equal(res.bits, msgs)


def test_early_stop_crc_accepts_attached_payload(bg2_z16):
    rng = np.random.default_rng(37)
    payload = rng.integers(0, 2, 160 - 24, dtype=np.uint8)
    msg = crc_attach(payload, k=160)
    block = _noise_free_block(bg2_z16, 42, msg)
    res = decode(block, bg2_z16, DecodeConfig(precision=Precision.INT8,
                                              early_stop=EarlyStop.CRC))
    assert res.success.all()
    assert res.iterations[0] == 1


def test_early_stop_crc_rejects_plain_payload(bg2_z16):
    rng = np.random.default_rng(41)
    msg = rng.integers(0, 2, 160, dtype=np.uint8)
    if crc_attach(msg[:136], k=160)[-24:].tolist() == msg[136:].tolist():
        msg[0] ^= 1  # astronomically unlikely; keep the test honest
    block = _noise_free_block(bg2_z16, 42, msg)
    res = decode(block, bg2_z16, DecodeConfig(precision=Precision.INT8,
                                              max_iter=5,
                                              early_stop=EarlyStop.CRC))
    assert not res.success.any()     # valid codeword, failing CRC
    assert res.syndrome_weight[0] == 0


def test_trace_collects_margins(bg2_z16):
    _, blocks = make_noisy_blocks(bg2_z16, 42, 2.0, 2, seed=43, mode="f32")
    res = decode(blocks, bg2_z16, DecodeConfig(precision=Precision.F32, max_iter=6))
    # one row per iteration run, one column per codeword
    assert res.syndrome_trace.shape == res.margin_trace.shape
    assert res.syndrome_trace.shape == (res.iterations.max(), 2)
    assert (res.margin_trace >= 0.0).all()
    cols = np.arange(2)
    assert np.array_equal(res.syndrome_trace[res.iterations - 1, cols], res.syndrome_weight)
    assert (res.margin_trace[res.iterations - 1, cols][res.success] > 0).all()


def test_f16_f32_coherence_on_confident_margins(bg2_z16):
    """Hard decisions agree wherever the posterior margin stays clear."""
    _, blocks_f = make_noisy_blocks(bg2_z16, 42, 3.5, 16, seed=47, mode="f32")
    blocks_h = blocks_f.astype(np.float16)
    r32 = decode(blocks_f, bg2_z16, DecodeConfig(precision=Precision.F32,
                                                 max_iter=20))
    r16 = decode(blocks_h, bg2_z16, DecodeConfig(precision=Precision.F16,
                                                 max_iter=20))
    checked = 0
    for cw in range(len(r32.bits)):
        if r32.margin_trace[:, cw].min() > 0.01:
            assert np.array_equal(r32.bits[cw], r16.bits[cw])
            checked += 1
    assert checked > 0


def test_decode_single_vector(bg2_z16):
    rng = np.random.default_rng(53)
    msg = rng.integers(0, 2, 160, dtype=np.uint8)
    block = _noise_free_block(bg2_z16, 42, msg)
    res = decode(block.ravel(), bg2_z16, DecodeConfig(precision=Precision.INT8))
    assert res.bits.shape == (1, 160)


def test_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(beta=0.0)
    with pytest.raises(ValueError):
        DecodeConfig(beta=1.5)
    with pytest.raises(ValueError):
        DecodeConfig(precision=Precision.F32, rho=4)
    with pytest.raises(ValueError):
        DecodeConfig(precision=Precision.INT8, rho=2)
    with pytest.raises(ValueError):
        DecodeConfig(precision=Precision.F16, rho=4)
    with pytest.raises(ValueError):
        DecodeConfig(precision=Precision.F16, rho=2)
    with pytest.raises(ValueError):
        DecodeConfig(max_iter=0)
    # the reduce shape is the planner's: the decoder has no strategy knob
    for knob in (dict(strategy="low_latency"), dict(alpha=4)):
        with pytest.raises(TypeError):
            DecodeConfig(**knob)
    # settings that would do nothing
    with pytest.raises(ValueError, match="int8 only"):
        QuantConfig("f32", scale=2.0)
    with pytest.raises(ValueError, match="crc_kind"):
        DecodeConfig(crc_kind="crc16")
    # an unknown CRC fails here, not later inside a sweep or a decode
    with pytest.raises(ValueError, match="unknown crc_kind"):
        DecodeConfig(early_stop=EarlyStop.CRC, crc_kind="crc99")


def test_decode_input_validation(bg2_z16):
    # packed int8 takes any batch size: it matches the scalar engine on every
    # output, trace included, when B is not a multiple of its 4 lanes
    for count in (3, 6):
        _, blocks = make_noisy_blocks(bg2_z16, 42, 1.5, count, seed=count)
        scalar = decode(blocks, bg2_z16, DecodeConfig(max_iter=10))
        packed = decode(blocks, bg2_z16, DecodeConfig(rho=4, max_iter=10))
        for name in ("bits", "iterations", "success", "syndrome_weight",
                     "syndrome_trace", "margin_trace"):
            assert np.array_equal(getattr(scalar, name), getattr(packed, name))
    with pytest.raises(ValueError, match="multiple of Z"):
        decode(np.zeros(831, dtype=np.int8), bg2_z16,
               DecodeConfig(precision=Precision.INT8))
    with pytest.raises(ValueError, match="rows_used"):
        decode(np.zeros(16 * 12, dtype=np.int8), bg2_z16,
               DecodeConfig(precision=Precision.INT8))
    # float LLRs decoded as int8 would be truncated, not quantized
    with pytest.raises(ValueError, match="integer LLRs"):
        decode(np.zeros(832, dtype=np.float32), bg2_z16, DecodeConfig())


def test_decode_rejects_nan_llrs(bg2_z16):
    block = np.zeros(832, dtype=np.float32)
    block[100] = np.nan
    for fn in (decode, decode_flooding):
        with pytest.raises(ValueError, match="NaN"):
            fn(block, bg2_z16, DecodeConfig(precision=Precision.F32))


def test_decode_rejects_an_empty_batch(bg2_z16):
    for cfg, dtype in ((DecodeConfig(), np.int8), (DecodeConfig(rho=4), np.int8),
                       (DecodeConfig(precision=Precision.F32), np.float32)):
        with pytest.raises(ValueError, match="at least one codeword"):
            decode(np.zeros((0, 832), dtype=dtype), bg2_z16, cfg)


def test_workspace_rejects_infinite_and_oversized_float_llrs(bg2_z16):
    for precision in (Precision.F32, Precision.F16):
        for value in (np.inf, -np.inf):
            block = np.zeros(832, dtype=np.float32)
            block[100] = value
            with pytest.raises(ValueError, match="finite"):
                init_workspace(block, bg2_z16, DecodeConfig(precision=precision))
    block = np.zeros(832)
    block[3] = -F32_MAX
    init_workspace(block, bg2_z16, DecodeConfig(precision=Precision.F32))
    block[3] = -2 * F32_MAX
    with pytest.raises(ValueError, match="at most"):
        init_workspace(block, bg2_z16, DecodeConfig(precision=Precision.F32))


def test_workspace_bounds_integer_llrs_before_the_cast(bg2_z16):
    """Integer LLRs are checked in their own dtype: the int32 cast would wrap
    2**32 + 5 to 5 and the uint32 4294967295 to -1."""
    for block in (np.full((1, 832), 2**32 + 5, np.int64),
                  np.full((1, 832), 4294967295, np.uint32)):
        for cfg in (DecodeConfig(), DecodeConfig(rho=4)):
            with pytest.raises(ValueError, match="at most 127"):
                init_workspace(block, bg2_z16, cfg)
    _, blocks = make_noisy_blocks(bg2_z16, 42, 2.0, 2, seed=3)
    want = decode(blocks, bg2_z16, DecodeConfig(max_iter=5))
    for dtype in (np.int64, np.int16):
        got = decode(blocks.astype(dtype), bg2_z16, DecodeConfig(max_iter=5))
        assert np.array_equal(got.bits, want.bits)
        assert np.array_equal(got.margin_trace, want.margin_trace)
    ones = decode(np.ones(832, np.uint32), bg2_z16, DecodeConfig(max_iter=2))
    assert ones.success.all() and not ones.bits.any()


@pytest.mark.parametrize("magnitude", [1e37, np.inf])
def test_f32_decodes_huge_llrs(magnitude):
    """LLRs past the f32 range's headroom used to overflow the posteriors to
    NaN, read as hard 0s with a zero syndrome; quantize now clamps them."""
    bg = get_graph("BG2", 52)
    params = code_params(bg, 52, 42)
    msgs = np.random.default_rng(0).integers(0, 2, (2, params.k), dtype=np.uint8)
    cw = encode_batch(msgs, bg, 52, 42)
    llrs = magnitude * (1.0 - 2.0 * cw[:, 2 * 52:])
    blocks = quantize(llrs, QuantConfig("f32"), params)
    res = decode(blocks, bg, DecodeConfig(precision=Precision.F32, early_stop="none",
                                          max_iter=10))
    assert np.array_equal(res.bits, msgs)
    assert np.isfinite(res.margin_trace).all() and (res.margin_trace > 0).all()
    assert not res.syndrome_trace.any()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("precision,max_iter", [("f32", 300), ("f16", 50)])
def test_saturated_float_posteriors_keep_their_codewords(monkeypatch, precision, max_iter):
    """At beta=1 with early stop off, the posteriors of two found codewords
    grow until they saturate at the domain's bound; the messages store what
    the saturated posteriors absorbed, so both codewords stay decoded. f32
    once grew past the f32 range to inf and NaN, and f16, which stored the
    unsaturated message, collapsed to margins of 0; both with bit errors.
    The compiled pass and the numpy rows give the same outputs."""
    bg = get_graph("BG1", 16)
    msgs, blocks = make_noisy_blocks(bg, 46, 4.0, 2, seed=1, mode=precision)
    cfg = DecodeConfig(precision=precision, beta=1.0, early_stop="none", max_iter=max_iter)
    results = [decode(blocks, bg, cfg)]
    monkeypatch.setattr(native, "load", lambda: None)
    results.append(decode(blocks, bg, cfg))
    for res in results:
        assert np.array_equal(res.bits, msgs)
        assert (res.margin_trace[-1] == DOMAINS[precision][1]).all()
        assert not res.syndrome_trace[-1].any()
    for f in ("bits", "iterations", "success", "syndrome_trace", "margin_trace"):
        assert np.array_equal(getattr(results[0], f), getattr(results[1], f)), f


def test_partial_rows_decode(bg2_z16):
    """Higher-rate decode engages only a prefix of the rows."""
    rows_used = 10
    rng = np.random.default_rng(59)
    msg = rng.integers(0, 2, 160, dtype=np.uint8)
    block = _noise_free_block(bg2_z16, rows_used, msg)
    assert block.shape[-1] == 16 * (10 + rows_used)
    res = decode(block, bg2_z16, DecodeConfig(precision=Precision.INT8))
    assert res.success.all()
    assert np.array_equal(res.bits[0], msg)


def test_workspace_message_count(bg2_z16):
    cfg = DecodeConfig(precision=Precision.INT8)
    ws = init_workspace(np.zeros(832, dtype=np.int8), bg2_z16, cfg)
    assert ws.n_edges == int(bg2_z16.w_r.sum())
    assert ws.messages.shape == (1, ws.n_edges, 16)


def test_packed_identical_lanes_identical_results(bg2_z16):
    _, blocks = make_noisy_blocks(bg2_z16, 42, 2.0, 1, seed=67)
    lanes = np.tile(blocks, (4, 1))
    packed = decode(lanes, bg2_z16, DecodeConfig(precision=Precision.INT8,
                                                 rho=4, max_iter=10))
    scalar = decode(blocks, bg2_z16, DecodeConfig(precision=Precision.INT8,
                                                  max_iter=10))
    for lane in range(4):
        assert np.array_equal(packed.bits[lane], packed.bits[0])
        assert packed.iterations[lane] == packed.iterations[0]
    assert np.array_equal(packed.bits[0], scalar.bits[0])
    assert packed.iterations[0] == scalar.iterations[0]


# --- outputs of the numpy fold, pinned --------------------------------------


def _digest(res) -> str:
    h = hashlib.sha256()
    for a in (res.bits, res.iterations, res.success, res.syndrome_trace, res.margin_trace):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# (Eb/N0 dB, precision, rho, schedule, without the compiled kernel, sha256
# over bits, iterations, success and both traces) for every path that runs
# the numpy reduce, so a change to its fold shows. BG2 Z=16, 42 rows, five
# codewords (seed 11), ten iterations with early stop off.
PINNED = [
    (1.5, "f16", 1, decode, False,
     "372d047aac54f640b209bcdfabd20fd74a4b7d705a02f115bcace879c0033058"),
    (1.5, "int8", 4, decode, False,
     "bb4fa404d3d13e1742142a0efd2a47182cfa9e473fa68dabfa254e42f97e39a9"),
    (1.5, "int8", 1, decode_flooding, False,
     "ade9eca330dd905210a10c92ccdf9ca320cb22071491197c488e585d026753ac"),
    (1.5, "f32", 1, decode_flooding, False,
     "1d21bb618ccd60880b1abbebc00fca1089995dff7b0c0edfaa6cea7734eec584"),
    (1.5, "int8", 1, decode, True,
     "bb4fa404d3d13e1742142a0efd2a47182cfa9e473fa68dabfa254e42f97e39a9"),
    (1.5, "f32", 1, decode, True,
     "6be92a999bb0d3e0656685e30eeb5f251f1494a9adaeccd4906dccd52bfd1a2d"),
    (8.0, "f16", 1, decode, False,
     "23a70b80f1d22d1565d237e8eb0a16846df206a22fb20cbc11f5555becf17b36"),
    (8.0, "int8", 4, decode, False,
     "60f0a86a7689681ae13f6a763f80eb8012fa8a76c63b513a0f5915bd89174503"),
    (8.0, "int8", 1, decode_flooding, False,
     "1423c71ee68a33bb712ca6e9dfba702bc50423c11df35b1d73170693fa14d781"),
    (8.0, "f32", 1, decode_flooding, False,
     "e6b1c4c5d5ffa7a62e4d1bde74862a4f0fe4c8df4f8528fa2211c5b168002f97"),
    (8.0, "int8", 1, decode, True,
     "60f0a86a7689681ae13f6a763f80eb8012fa8a76c63b513a0f5915bd89174503"),
    (8.0, "f32", 1, decode, True,
     "e620cf96bee45ae50a3d4fa0b6c520f59f200b471f5bbc79a76b59aece5fba8a"),
]


@pytest.mark.parametrize(
    "case", PINNED,
    ids=lambda c: f"{c[0]}dB-{c[1]}-rho{c[2]}-{c[3].__name__}{'-numpy' if c[4] else ''}")
def test_numpy_fold_outputs_are_pinned(monkeypatch, case):
    """f16, packed rho=4, flooding, and int8/f32 without the kernel: every
    path through the numpy reduce decodes to its recorded digest."""
    ebn0, precision, rho, fn, without_kernel, want = case
    if without_kernel:
        monkeypatch.setattr(native, "load", lambda: None)
    bg = get_graph("BG2", 16)
    _, blocks = make_noisy_blocks(bg, 42, ebn0, 5, seed=11, mode=precision)
    cfg = DecodeConfig(precision=precision, rho=rho, max_iter=10, early_stop="none")
    assert _digest(fn(blocks, bg, cfg)) == want
