import io
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ldpclab import harness
from ldpclab.channel import QuantConfig
from ldpclab.decoder import DecodeConfig, Precision
from ldpclab.harness import (
    LatencyStats,
    run_bler_sweep,
    run_latency_bench,
    sweep_to_csv,
    wilson_interval,
)
from tests.conftest import get_graph


def _small_cfg(**kw):
    return DecodeConfig(precision=Precision.INT8, max_iter=12, **kw)


def _strip_timing(csv_text: str) -> str:
    # wall_time_per_cw_s and throughput_cbps are machine-dependent
    out = []
    for line in csv_text.splitlines():
        if line.startswith("#"):
            out.append(line)
            continue
        cells = line.split(",")
        if cells[0] != "ebn0_db":
            cells[9] = cells[10] = "_"
        out.append(",".join(cells))
    return "\n".join(out)


def test_noise_free_point_has_zero_bler(bg2_z16):
    res = run_bler_sweep(bg2_z16, 16, 42, _small_cfg(), [math.inf],
                         target_block_errors=10, max_codewords=64, seed=1)
    point = res.points[0]
    assert point.block_errors == 0
    assert point.bit_errors == 0
    assert point.bler == 0.0
    assert point.mean_iters == 1.0


def test_sweep_deterministic_under_seed(bg2_z16):
    kw = dict(target_block_errors=8, max_codewords=96, seed=9)
    a = run_bler_sweep(bg2_z16, 16, 42, _small_cfg(), [1.0, 2.0], **kw)
    b = run_bler_sweep(bg2_z16, 16, 42, _small_cfg(), [1.0, 2.0], **kw)
    for pa, pb in zip(a.points, b.points):
        assert (pa.codewords, pa.bit_errors, pa.block_errors) == \
               (pb.codewords, pb.bit_errors, pb.block_errors)
        assert pa.mean_iters == pb.mean_iters
    assert a.config_hash == b.config_hash


def test_sweep_worker_pool_matches_serial(bg2_z16):
    cases = [
        (_small_cfg(), 2.0, dict(target_block_errors=1000, max_codewords=64, seed=3)),
        # stopped by block errors inside a round of two batches
        (DecodeConfig(), 1.0, dict(target_block_errors=5, max_codewords=100_000, seed=5)),
        # max_codewords not a multiple of batch x workers
        (DecodeConfig(precision=Precision.F32, max_iter=12), 6.0,
         dict(target_block_errors=1000, max_codewords=50, seed=3)),
    ]
    for cfg, ebn0, kw in cases:
        serial = run_bler_sweep(bg2_z16, 16, 42, cfg, [ebn0], workers=1, batch=16, **kw)
        pooled = run_bler_sweep(bg2_z16, 16, 42, cfg, [ebn0], workers=2, batch=16, **kw)
        ps, pp = serial.points[0], pooled.points[0]
        assert (ps.codewords, ps.bit_errors, ps.block_errors) == \
               (pp.codewords, pp.bit_errors, pp.block_errors)
        assert serial.config_hash == pooled.config_hash


@pytest.mark.parametrize("ebn0, target, limit", [(1.0, 1000, 40), (0.5, 5, 100_000)],
                         ids=["max-codewords", "block-errors"])
def test_counters_depend_on_neither_batch_nor_workers(bg2_z16, ebn0, target, limit):
    # Every codeword draws from its own generator, and a point stops at the
    # codeword that meets the stopping rule. With one generator per batch and
    # whole batches counted, the error-stopped point here stopped at 11, 14
    # and 64 codewords for batches of 1, 7 and 64.
    # so the config hash leaves both out, and the metadata records both
    seen, hashes = set(), set()
    for batch in (1, 7, 64):
        for workers in (1, 2):
            res = run_bler_sweep(bg2_z16, 16, 42, DecodeConfig(), [ebn0], seed=4,
                                 target_block_errors=target, max_codewords=limit,
                                 batch=batch, workers=workers, keep_failures=100)
            p = res.points[0]
            seen.add((p.codewords, p.bit_errors, p.block_errors, p.mean_iters,
                      p.median_iters, tuple(m.tobytes() for m, _ in p.failed_samples)))
            hashes.add(res.config_hash)
            assert (res.metadata["batch"], res.metadata["workers"]) == (batch, workers)
    assert len(hashes) == 1
    (codewords, bit_errors, block_errors, *_), = seen
    assert bit_errors
    # each point stops inside the first batch of 64
    assert codewords < 64 and (codewords == limit or block_errors == target)


def test_error_recount_from_failed_samples(bg2_z16):
    res = run_bler_sweep(bg2_z16, 16, 42, _small_cfg(), [0.5],
                         target_block_errors=12, max_codewords=200, seed=5,
                         keep_failures=200)
    point = res.points[0]
    assert point.block_errors > 0
    assert len(point.failed_samples) == point.block_errors
    recount = sum(int((m != d).sum()) for m, d in point.failed_samples)
    assert recount == point.bit_errors


def test_throughput_arithmetic(bg2_z16):
    res = run_bler_sweep(bg2_z16, 16, 42, _small_cfg(), [2.0],
                         target_block_errors=5, max_codewords=32, seed=7)
    p = res.points[0]
    total_time = p.wall_time_per_cw * p.codewords
    assert p.throughput_cbps == pytest.approx(832 * p.codewords / total_time, rel=1e-9)


@pytest.mark.parametrize("workers", [1, 2])
def test_decode_time_shared_per_codeword(bg2_z16, workers):
    # a point cut inside a batch keeps the decode time of the codewords it keeps
    res = run_bler_sweep(bg2_z16, 16, 42, DecodeConfig(), [1.0], target_block_errors=5,
                         max_codewords=100_000, seed=5, batch=16, workers=workers)
    p = res.points[0]
    assert p.block_errors == 5 and p.codewords % 16
    assert p.wall_time_per_cw > 0
    assert p.throughput_cbps * p.wall_time_per_cw == pytest.approx(832, rel=1e-9)


def test_sweep_validation(bg2_z16):
    with pytest.raises(ValueError):
        run_bler_sweep(bg2_z16, 16, 42, _small_cfg(), [],
                       target_block_errors=1, max_codewords=1)
    with pytest.raises(ValueError):
        run_bler_sweep(bg2_z16, 16, 42, _small_cfg(), [1.0],
                       target_block_errors=0, max_codewords=1)


@pytest.mark.parametrize("knob", [dict(batch=0), dict(batch=-4), dict(workers=0),
                                  dict(workers=-2), dict(keep_failures=-1), dict(batch=2.5),
                                  dict(max_codewords=10.5), dict(keep_failures=1.5),
                                  dict(target_block_errors=2.5), dict(workers=True),
                                  dict(seed=-1), dict(seed=1.5), dict(seed=True)])
def test_sweep_rejects_nonsense_batch_workers_and_samples(bg2_z16, monkeypatch, knob):
    # before any batch runs: a zero or negative batch failed deep in the
    # decoder or numpy, workers < 1 ran one worker, keep_failures=-1 dropped
    # the last failed sample; a fractional batch, max_codewords or
    # keep_failures failed mid-sweep with a TypeError, and a fractional
    # target_block_errors or workers=True ran
    monkeypatch.setattr(harness, "_run_batch", None)
    with pytest.raises(ValueError, match="must be an integer of at least"):
        run_bler_sweep(bg2_z16, 16, 42, _small_cfg(), [1.0],
                       **(dict(target_block_errors=1, max_codewords=4) | knob))


def test_sweep_takes_numpy_integer_counts(bg2_z16):
    counts = dict(target_block_errors=1, max_codewords=4, seed=1, batch=2, workers=1,
                  keep_failures=1)
    sweeps = [run_bler_sweep(bg2_z16, 16, 42, _small_cfg(), [1.0], **counts),
              run_bler_sweep(bg2_z16, 16, 42, _small_cfg(), [1.0],
                             **{k: np.int64(v) for k, v in counts.items()})]
    assert sweeps[0].config_hash == sweeps[1].config_hash
    assert sweeps[0].metadata == sweeps[1].metadata
    assert sweeps[0].points[0].codewords == sweeps[1].points[0].codewords
    assert type(sweeps[1].seed) is int


@pytest.mark.parametrize("grid", [[-math.inf], [math.nan], [1.0, math.nan], [-7000.0]])
def test_sweep_rejects_grid_points_without_a_finite_sigma(bg2_z16, monkeypatch, grid):
    # -inf ran as the noise-free point and reported 0 block errors; NaN
    # failed late, in quantize
    monkeypatch.setattr(harness, "_run_batch", None)      # before any batch runs
    with pytest.raises(ValueError, match="finite positive sigma"):
        run_bler_sweep(bg2_z16, 16, 42, _small_cfg(), grid,
                       target_block_errors=1, max_codewords=4)


def test_sweep_and_latency_bench_go_through_transmit(bg2_z16, monkeypatch):
    calls = []
    fused = harness.transmit
    monkeypatch.setattr(harness, "transmit", lambda *a: calls.append(a[1]) or fused(*a))
    run_bler_sweep(bg2_z16, 16, 42, _small_cfg(), [2.0, math.inf],
                   target_block_errors=1, max_codewords=4, batch=4)
    run_latency_bench(bg2_z16, 16, _small_cfg(), repetitions=1, warmup=0, iterations=2)
    assert len(calls) == 3 and calls[1] is None and calls[0] > 0 and calls[2] > 0


# A fresh process, so that the heap's history is the sweeps' own: glibc moves
# its thresholds with the blocks a process has freed so far. The first sweep
# warms up: it has the shape of the counted ones, so they count the reuse of
# its buffers, not where the heap first puts a batch.
_SWEEP_FAULTS = """
import resource
from ldpclab import DecodeConfig, load_basegraph
from ldpclab.harness import run_bler_sweep
bg = load_basegraph("BG1", 384)
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_bler_sweep(bg, 384, 46, DecodeConfig(precision="int8", max_iter=20), [1.5, 2.5],
                   target_block_errors=65, max_codewords=64, batch=64)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc options")
def test_sweep_batches_reuse_their_buffers():
    # Without fixed malloc thresholds glibc gave each 64-codeword BG1 Z=384
    # int8 batch's buffers back to the kernel and faulted them in again for
    # the next batch: about 2,800 page faults per batch.
    src = str(Path(harness.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _SWEEP_FAULTS], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    warm_up, *sweeps = map(int, done.stdout.split())
    assert max(sweeps) < 100, (warm_up, sweeps)


def test_wilson_interval_values():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0
    assert hi == pytest.approx(0.0370, abs=2e-3)
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.4038, abs=2e-3)
    assert hi == pytest.approx(0.5962, abs=2e-3)
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_csv_emission_and_determinism(bg2_z16):
    kw = dict(target_block_errors=5, max_codewords=48, seed=11)
    texts = []
    for _ in range(2):
        res = run_bler_sweep(bg2_z16, 16, 42, _small_cfg(), [math.inf, 2.0], **kw)
        buf = io.StringIO()
        sweep_to_csv(res, buf)
        texts.append(buf.getvalue())
    assert _strip_timing(texts[0]) == _strip_timing(texts[1])
    lines = [l for l in texts[0].splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header[:5] == ["ebn0_db", "sigma", "codewords", "bit_errors",
                          "block_errors"]
    assert len(lines) == 3            # header + two points
    assert f"config_hash=" in texts[0].splitlines()[0]
    assert "seed=11" in texts[0].splitlines()[0]


def test_latency_bench_schema(bg2_z16):
    cfg = DecodeConfig(precision=Precision.INT8)
    stats = run_latency_bench(bg2_z16, 16, cfg, batch=2, repetitions=8,
                              iterations=5, warmup=2, seed=13)
    assert isinstance(stats, LatencyStats)
    assert stats.iterations == 5
    for key in ("min", "median", "p99"):
        assert stats.per_codeword_s[key] > 0
        assert stats.per_iteration_s[key] == pytest.approx(
            stats.per_codeword_s[key] / 5)
    assert stats.per_codeword_s["min"] <= stats.per_codeword_s["median"] \
        <= stats.per_codeword_s["p99"]
    assert stats.throughput_cbps > 0


def test_latency_bench_packed_batch_check(bg2_z16):
    # packed int8 pads a batch that is not a multiple of its 4 lanes
    cfg = DecodeConfig(precision=Precision.INT8, rho=4)
    stats = run_latency_bench(bg2_z16, 16, cfg, batch=3, repetitions=2,
                              iterations=2, warmup=1)
    assert stats.batch == 3
    assert stats.per_codeword_s["median"] > 0


@pytest.mark.parametrize("knob", [dict(batch=0), dict(batch=2.5), dict(batch=True),
                                  dict(repetitions=0), dict(repetitions=1.5),
                                  dict(iterations=0), dict(warmup=-1), dict(warmup=0.5),
                                  dict(seed=-1), dict(seed=1.5)])
def test_latency_bench_validation(bg2_z16, monkeypatch, knob):
    # a fractional batch, repetitions or warmup failed with numpy's TypeError
    # during the bench, and batch=True ran
    monkeypatch.setattr(harness, "_draw", None)           # before any codeword is drawn
    with pytest.raises(ValueError, match="must be an integer of at least"):
        run_latency_bench(bg2_z16, 16, _small_cfg(), **knob)


def test_sweep_crc_early_stop_counts_blocks(bg2_z16):
    cfg = DecodeConfig(precision=Precision.INT8, max_iter=12,
                       early_stop="crc")
    res = run_bler_sweep(bg2_z16, 16, 42, cfg, [math.inf],
                         target_block_errors=4, max_codewords=16, seed=17)
    assert res.points[0].block_errors == 0


def test_sweep_packed_rounds_batch_to_lanes(bg2_z16):
    # batches of 6 and then 4 codewords: the packed engine decodes exactly
    # max_codewords and counts what the scalar engine counts
    kw = dict(target_block_errors=5, max_codewords=10, seed=2, batch=6)
    packed = run_bler_sweep(bg2_z16, 16, 42, DecodeConfig(rho=4, max_iter=8),
                            [math.inf, 1.0], **kw)
    scalar = run_bler_sweep(bg2_z16, 16, 42, DecodeConfig(max_iter=8),
                            [math.inf, 1.0], **kw)
    assert packed.points[0].codewords == 10
    assert packed.points[0].block_errors == 0
    for pp, ps in zip(packed.points, scalar.points):
        assert (pp.codewords, pp.bit_errors, pp.block_errors, pp.mean_iters) == \
               (ps.codewords, ps.bit_errors, ps.block_errors, ps.mean_iters)


def test_sweep_f32_precision(bg2_z16):
    cfg = DecodeConfig(precision=Precision.F32, max_iter=15)
    res = run_bler_sweep(bg2_z16, 16, 42, cfg, [3.5],
                         target_block_errors=5, max_codewords=64, seed=4)
    assert res.points[0].codewords == 64
    assert res.points[0].bler <= 0.1
    # a quantizer for another precision fails at the boundary
    with pytest.raises(ValueError, match="does not match"):
        run_bler_sweep(bg2_z16, 16, 42, cfg, [3.5], quant=QuantConfig("int8"), max_codewords=4)
    with pytest.raises(ValueError, match="does not match"):
        run_bler_sweep(bg2_z16, 16, 42, _small_cfg(), [3.5], quant=QuantConfig("f32"),
                       max_codewords=4)


def test_sweep_int8_decodes_at_high_snr(bg2_z16):
    # int8 at the default scale saturates the posteriors here; the decoder
    # must still decode what f32 decodes
    res = run_bler_sweep(bg2_z16, 16, 42, DecodeConfig(), [8.0, 10.0],
                         target_block_errors=1000, max_codewords=32, seed=1,
                         batch=32)
    assert [p.codewords for p in res.points] == [32, 32]
    assert [p.block_errors for p in res.points] == [0, 0]


def test_sweep_crc16_early_stop(bg2_z16):
    cfg = DecodeConfig(early_stop="crc", crc_kind="crc16", max_iter=8)
    res = run_bler_sweep(bg2_z16, 16, 42, cfg, [math.inf],
                         target_block_errors=4, max_codewords=16, seed=17)
    assert res.points[0].codewords == 16
    assert res.points[0].block_errors == 0


# (codewords, bit errors, block errors, iterations summed over codewords) at
# 1.0/1.5/2.5 dB, computed with one generator per codeword
CRC_SWEEP_COUNTERS = {
    "crc24a": [(48, 256, 7, 389), (48, 0, 0, 279), (48, 0, 0, 204)],
    "crc24b": [(48, 4, 1, 379), (48, 0, 0, 292), (48, 0, 0, 199)],
    "crc16": [(48, 603, 9, 382), (48, 0, 0, 298), (48, 0, 0, 205)],
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", sorted(CRC_SWEEP_COUNTERS))
def test_crc_sweep_counters_are_pinned(kind, workers):
    bg = get_graph("BG2", 52)
    cfg = DecodeConfig(early_stop="crc", crc_kind=kind, max_iter=10)
    res = run_bler_sweep(bg, 52, 42, cfg, [1.0, 1.5, 2.5], target_block_errors=1000,
                         max_codewords=48, seed=8, batch=16, workers=workers)
    got = [(p.codewords, p.bit_errors, p.block_errors, p.mean_iters * p.codewords)
           for p in res.points]
    assert got == CRC_SWEEP_COUNTERS[kind]


def test_config_hash_covers_crc_and_quantizer(bg2_z16):
    kw = dict(target_block_errors=1, max_codewords=4, seed=3, batch=4)

    def sweep_hash(cfg, quant=None):
        return run_bler_sweep(bg2_z16, 16, 42, cfg, [math.inf], quant=quant,
                              **kw).config_hash

    crc = dict(early_stop="crc", max_iter=4)
    assert sweep_hash(DecodeConfig(crc_kind="crc24a", **crc)) != \
        sweep_hash(DecodeConfig(crc_kind="crc24b", **crc))
    int8 = DecodeConfig(max_iter=4)
    assert sweep_hash(int8, QuantConfig("int8", scale=4.0)) != \
        sweep_hash(int8, QuantConfig("int8"))
    # one configuration, however its enums are spelled
    same = [DecodeConfig(max_iter=4),
            DecodeConfig(precision="int8", early_stop="syndrome", max_iter=4)]
    assert same[0] == same[1]
    assert len({sweep_hash(cfg) for cfg in same}) == 1
    meta = run_bler_sweep(bg2_z16, 16, 42, same[0], [math.inf], **kw).metadata
    assert not {"strategy", "alpha"} & set(meta)          # the decoder has no such knob
