"""Acceptance suite: one test per criterion, one PASS line each.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math

import numpy as np
import pytest

from ldpclab.basegraph import code_params
from ldpclab.channel import QuantConfig, bpsk_exact, quantize
from ldpclab.cli import dispatch
from ldpclab.codec import encode, puncture
from ldpclab.decoder import (
    DecodeConfig,
    Precision,
    check_node_minsum,
    decode,
    decode_flooding,
)
from ldpclab.harness import run_bler_sweep, run_latency_bench
from ldpclab.kernels import (
    acc_merge,
    ord_vec,
    pack_u8,
    packed_edge_acc,
    packed_identity,
    tree_reduce,
    unpack_u8,
)
from ldpclab.planner import Strategy, memory_footprint, thread_count
from tests.conftest import get_graph, make_noisy_blocks
from tests.oracles import encode_by_elimination, minsum_row_reference


def _report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_1_resource_formulas():
    """Reference resource figures: 26/52/121/242 kB and the 96-worker cap."""
    bg = get_graph("BG1", 384)
    s_v1, s_cv1 = memory_footprint(bg, 384, 46, epsilon=1)
    s_v2, s_cv2 = memory_footprint(bg, 384, 46, epsilon=2)
    assert s_v1 == 26112
    assert s_v2 == 52224
    assert s_cv1 == 121344
    assert s_cv2 == 242688
    assert (s_v1 // 1000, s_v2 // 1000) == (26, 52)
    assert (s_cv1 // 1000, s_cv2 // 1000) == (121, 242)
    assert thread_count(Strategy.HIGH_THROUGHPUT, 384, 4) == 96
    _report(1, "S_v/S_cv footprints 26112/52224/121344/242688 B, "
               "high-throughput worker count 96 at Z=384, rho=4")


def test_criterion_2_encoder_oracle_equivalence():
    """Structured encoder == Gaussian-elimination oracle, all Z <= 16."""
    mismatches = 0
    checked = 0
    for bg_id in ("BG1", "BG2"):
        for z in range(2, 17):
            bg = get_graph(bg_id, z)
            rows = bg.m_bg
            rng = np.random.default_rng((z, rows, hash(bg_id) & 0xFFFF))
            msgs = rng.integers(0, 2, size=(100, bg.k_b * z), dtype=np.uint8)
            oracle = encode_by_elimination(bg, z, rows, msgs)
            for i in range(100):
                got = encode(msgs[i], bg, z, rows).bits
                mismatches += not np.array_equal(got, oracle[i])
                checked += 1
    assert checked == 2 * 15 * 100
    assert mismatches == 0
    _report(2, f"structured encoder matches the elimination oracle on "
               f"{checked} encodings (both graphs, every Z <= 16)")


def test_criterion_3_kernel_exactness():
    """ord_vec exhaustive; the check-node reduce vs the sorted two-smallest scan."""
    a_lane, b_lane = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    a = pack_u8(a_lane.reshape(-1, 4).astype(np.uint8))
    b = pack_u8(b_lane.reshape(-1, 4).astype(np.uint8))
    lo, hi = ord_vec(a, b)
    assert np.array_equal(unpack_u8(lo),
                          np.minimum(a_lane.reshape(-1, 4), b_lane.reshape(-1, 4)))
    assert np.array_equal(unpack_u8(hi),
                          np.maximum(a_lane.reshape(-1, 4), b_lane.reshape(-1, 4)))

    rng = np.random.default_rng(303)
    n_rows, w = 10_000, 19
    rows = rng.integers(-127, 128, size=(n_rows, w)).astype(np.int8)
    got = check_node_minsum(rows, beta=0.75)
    for row, out in zip(rows, got):
        assert np.array_equal(out, minsum_row_reference(row, 0.75, integer=True))
    _report(3, "ord_vec exhaustive over 2^16 lane pairs; check_node_minsum matches "
               f"the two-smallest scan on {n_rows} {w}-edge int8 rows")


def test_criterion_4_strategy_invariance():
    """Low-latency butterfly merge (alpha in {2,4,8,16}) == high-throughput
    in-order fold, on the packed lanes the paper merges."""
    rng = np.random.default_rng(404)
    w, n_words = 19, 2_000
    lanes = rng.integers(0, 128, size=(w, n_words, 4))
    negative = rng.integers(0, 2, size=(w, n_words, 4), dtype=bool)
    mags = pack_u8(lanes.astype(np.uint8))
    signs = pack_u8(np.where(negative, 0xFF, 0).astype(np.uint8))

    def fold(edges):
        acc = packed_identity()
        for j in edges:
            acc = acc_merge(acc, packed_edge_acc(mags[j], signs[j], j))
        return acc

    seq = fold(range(w))
    part = np.partition(lanes, 1, axis=0)
    assert np.array_equal(unpack_u8(seq.m1), part[0])
    assert np.array_equal(unpack_u8(seq.m2), part[1])
    assert np.array_equal(unpack_u8(seq.s_vc) != 0, negative.sum(axis=0) % 2 == 1)
    # the argmin tag is order-sensitive only on ties, where m1 == m2 makes
    # the selected magnitude the same
    unique = part[0] < part[1]
    for alpha in (2, 4, 8, 16):
        for slot in tree_reduce([fold(range(p, w, alpha)) for p in range(alpha)]):
            assert np.array_equal(slot.m1, seq.m1)
            assert np.array_equal(slot.m2, seq.m2)
            assert np.array_equal(slot.s_vc, seq.s_vc)
            assert np.array_equal(unpack_u8(slot.tag)[unique], unpack_u8(seq.tag)[unique])
    _report(4, "packed butterfly merge of alpha in {2,4,8,16} strided partitions "
               f"equals the in-order fold on {w}-edge rows of {4 * n_words} lanes")


def test_criterion_5_packed_scalar_coherence():
    """rho=4 packed int8 == scalar int8 reference, bit-exact."""
    bg = get_graph("BG2", 16)
    _, blocks = make_noisy_blocks(bg, 42, 1.5, 500, seed=500)
    scalar = decode(blocks, bg, DecodeConfig(precision=Precision.INT8, max_iter=12))
    packed = decode(blocks, bg, DecodeConfig(precision=Precision.INT8, rho=4,
                                             max_iter=12))
    assert np.array_equal(scalar.bits, packed.bits)
    assert np.array_equal(scalar.iterations, packed.iterations)
    assert np.array_equal(scalar.success, packed.success)
    assert np.array_equal(scalar.syndrome_weight, packed.syndrome_weight)
    _report(5, "packed rho=4 decode bit-exact with the scalar int8 reference "
               "on 500 codewords")


@pytest.mark.parametrize("bg_id", ["BG1", "BG2"])
@pytest.mark.parametrize("z", [2, 16, 384])
def test_criterion_6_noise_free_roundtrip(bg_id, z):
    """Noise-free decode succeeds in 1 iteration, punctured bits recovered."""
    bg = get_graph(bg_id, z)
    params = code_params(bg, z, bg.m_bg)
    rng = np.random.default_rng((6, z))
    msg = rng.integers(0, 2, params.k, dtype=np.uint8)
    cw = encode(msg, bg, z, bg.m_bg)
    llr = bpsk_exact(puncture(cw)) * 16.0
    block = quantize(llr, QuantConfig("int8"), params)
    res = decode(block, bg, DecodeConfig(precision=Precision.INT8))
    assert res.success.all()
    assert res.iterations[0] == 1
    assert np.array_equal(res.bits[0], msg)
    assert np.array_equal(res.bits[0][: 2 * z], msg[: 2 * z])
    if bg_id == "BG2" and z == 384:
        _report(6, "noise-free round trip: 1 iteration, all 2Z punctured bits "
                   "recovered for BG1 and BG2 at Z in {2, 16, 384}")


def test_criterion_7_layered_halves_flooding_iterations():
    """Layered mean iterations <= 0.65 x flooding at a >=99% success point."""
    bg = get_graph("BG2", 52)
    n = 2000
    ebn0 = 3.0
    cfg = DecodeConfig(precision=Precision.F32, max_iter=60)
    lay_iters = []
    flo_iters = []
    lay_ok = flo_ok = 0
    for start in range(0, n, 250):
        _, blocks = make_noisy_blocks(bg, 42, ebn0, 250, seed=(700, start),
                                      mode="f32")
        lay = decode(blocks, bg, cfg)
        flo = decode_flooding(blocks, bg, cfg)
        lay_iters.extend(lay.iterations.tolist())
        flo_iters.extend(flo.iterations.tolist())
        lay_ok += int(lay.success.sum())
        flo_ok += int(flo.success.sum())
    assert lay_ok >= 0.99 * n, f"layered success {lay_ok}/{n}"
    assert flo_ok >= 0.99 * n, f"flooding success {flo_ok}/{n}"
    mean_lay = float(np.mean(lay_iters))
    mean_flo = float(np.mean(flo_iters))
    assert mean_lay <= 0.65 * mean_flo, (mean_lay, mean_flo)
    _report(7, f"BG2 Z=52 at {ebn0} dB: layered mean {mean_lay:.2f} iters vs "
               f"flooding {mean_flo:.2f} (ratio {mean_lay / mean_flo:.3f} <= 0.65), "
               f"success {lay_ok}/{n} and {flo_ok}/{n}")


def test_criterion_8_bler_monotone_within_wilson():
    """BLER non-increasing within 95% Wilson bands over a 3 dB grid."""
    bg = get_graph("BG2", 16)
    cfg = DecodeConfig(precision=Precision.INT8, max_iter=20)
    grid = [math.inf, 0.5, 1.25, 2.0, 2.75, 3.5]
    res = run_bler_sweep(bg, 16, 42, cfg, grid, target_block_errors=100,
                         max_codewords=2000, seed=808)
    noise_free = res.points[0]
    assert noise_free.block_errors == 0 and noise_free.bler == 0.0
    noisy = res.points[1:]
    for prev, nxt in zip(noisy, noisy[1:]):
        lo_next, _ = nxt.wilson()
        _, hi_prev = prev.wilson()
        assert lo_next <= hi_prev, (
            f"BLER rose significantly: {prev.ebn0_db} dB {prev.bler:.4g} -> "
            f"{nxt.ebn0_db} dB {nxt.bler:.4g}")
    blers = ", ".join(f"{p.ebn0_db}dB:{p.bler:.3g}" for p in res.points[1:])
    _report(8, f"noise-free BLER 0; Wilson-consistent non-increasing BLER "
               f"over 3 dB ({blers})")


def test_criterion_9_bench_metric_schema(tmp_path, capsys):
    """Host-hardware bench emits per-iteration latency and coded-bit
    throughput; absolute figures are hardware-specific, never asserted."""
    bg = get_graph("BG2", 16)
    for precision, rho in ((Precision.INT8, 1), (Precision.F16, 1)):
        cfg = DecodeConfig(precision=precision, rho=rho)
        stats = run_latency_bench(bg, 16, cfg, batch=2, repetitions=5,
                                  iterations=10, warmup=1, seed=99)
        assert stats.iterations == 10
        assert set(stats.per_iteration_s) == {"min", "median", "p99"}
        assert stats.throughput_cbps > 0
    out_file = tmp_path / "bench.csv"
    code = dispatch(["bench", "--bg", "2", "--z", "16",
                     "--precisions", "int8,f16", "--batch", "2",
                     "--reps", "3", "--iters", "4", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    header = [l for l in out_file.read_text().splitlines()
              if l.startswith("precision")][0]
    assert "latency_per_iter_median_s" in header
    assert "throughput_cbps" in header
    _report(9, "bench emits the per-iteration latency and coded-bit throughput "
               "schema on host hardware (absolute figures not asserted)")
