"""BLER/BER sweeps, latency and throughput measurement, CSV emission.

Every sweep is reproducible: codeword batches draw from generators seeded by
(seed, point index, batch index), and worker tallies merge in batch-index
order under the stopping rule, so the counters depend on the seed, the batch
size and the configuration, never on the worker count. Timing columns are
machine-dependent and excluded from the guarantee.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ldpclab import __version__, native
from ldpclab.basegraph import BaseGraph, code_params
# bpsk_awgn, demap_llr and quantize run inside `transmit`; they stay
# attributes of this module because perfbench's tracing wraps them here
from ldpclab.channel import (  # noqa: F401
    QuantConfig,
    bpsk_awgn,
    demap_llr,
    ebn0_to_sigma,
    quantize,
    transmit,
)
from ldpclab.codec import CRC_POLYS, crc_attach, encode_batch
from ldpclab.decoder import DecodeConfig, EarlyStop, decode

# glibc's malloc options M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, and the values
# run_bler_sweep and run_latency_bench fix them at: the heap keeps up to 64 MB
# of freed memory, and blocks up to 32 MB (glibc's largest allowed) come from it
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_KEEP_FREED_BYTES = 64 << 20
_HEAP_BLOCK_BYTES = 32 << 20


@functools.cache
def _keep_batch_memory() -> None:
    """Keep a batch's freed buffers in this process for the next batch.

    glibc hands a freed heap top back to the kernel once it passes a trim
    threshold, which it raises only when a block above its mmap threshold is
    freed. A 64-codeword BG1 Z=384 int8 batch frees about 17 MB, whose
    largest block is the 7.8 MB message array, so every batch gave its
    buffers back and faulted them in again: about 2,800 page faults per
    batch, 13-15% of the sweep's wall time spent in the kernel, an amount
    that moves with the host's load. Fixed thresholds end that; they hold for the whole process,
    which then keeps up to 64 MB of freed heap. A no-op off glibc.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_TRIM_THRESHOLD, _KEEP_FREED_BYTES)
        mallopt(_M_MMAP_THRESHOLD, _HEAP_BLOCK_BYTES)


def _init_worker(workers: int) -> None:
    """Initializer of a sweep's pool workers."""
    native.share_cpus(workers)
    _keep_batch_memory()


@dataclass
class SweepPoint:
    ebn0_db: float
    sigma: float
    codewords: int
    bit_errors: int
    block_errors: int
    mean_iters: float
    median_iters: float
    wall_time_per_cw: float
    throughput_cbps: float
    info_bits: int = 0
    failed_samples: list = field(default_factory=list, repr=False)

    @property
    def bler(self) -> float:
        return self.block_errors / self.codewords if self.codewords else 0.0

    @property
    def ber(self) -> float:
        return self.bit_errors / (self.codewords * self.info_bits) if self.codewords else 0.0

    def wilson(self, z: float = 1.96) -> tuple[float, float]:
        return wilson_interval(self.block_errors, self.codewords, z)


@dataclass
class SweepResult:
    points: list[SweepPoint]
    seed: int
    config_hash: str
    metadata: dict


def wilson_interval(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """95% (default) Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _run_batch(
    bg: BaseGraph,
    rows_used: int,
    cfg: DecodeConfig,
    quant: QuantConfig,
    sigma: float | None,
    batch_n: int,
    seed_key: tuple,
    keep_failures: int,
) -> dict:
    """Encode/transmit/decode one batch; returns mergeable tallies."""
    params = code_params(bg, bg.z, rows_used)
    rng = np.random.default_rng(seed_key)
    use_crc = cfg.early_stop is EarlyStop.CRC
    crc_len = CRC_POLYS[cfg.crc_kind][0] if use_crc else 0
    payload = rng.integers(0, 2, size=(batch_n, params.k - crc_len), dtype=np.uint8)
    if use_crc:
        messages = crc_attach(payload, cfg.crc_kind, k=params.k)
    else:
        messages = payload
    tx = encode_batch(messages, bg, bg.z, rows_used)[:, 2 * bg.z:]
    blocks = transmit(tx, sigma, rng, quant, params)
    t0 = time.perf_counter()
    result = decode(blocks, bg, cfg)
    decode_time = time.perf_counter() - t0
    wrong = result.bits != messages
    block_err = wrong.any(axis=1)
    samples = []
    for i in np.flatnonzero(block_err)[:keep_failures]:
        samples.append((messages[i].copy(), result.bits[i].copy()))
    return {
        "codewords": batch_n,
        "bit_errors": int(wrong.sum()),
        "block_errors": int(block_err.sum()),
        "iterations": result.iterations.tolist(),
        "decode_time": decode_time,
        "samples": samples,
    }


def run_bler_sweep(
    bg: BaseGraph,
    z: int,
    rows_used: int,
    cfg: DecodeConfig,
    ebn0_grid,
    target_block_errors: int = 100,
    max_codewords: int = 100_000,
    seed: int = 0,
    quant: QuantConfig | None = None,
    batch: int = 128,
    workers: int = 1,
    keep_failures: int = 0,
) -> SweepResult:
    """Sweep BLER/BER over an Eb/N0 grid (dB; math.inf = noise disabled).

    Each point runs until `target_block_errors` block errors or
    `max_codewords` codewords. Eb/N0 converts to sigma through the
    effective rate K/N_tx of the transmitted bits; every grid point is
    finite, with a finite positive sigma, or +inf.
    """
    grid = list(ebn0_grid)
    if not grid:
        raise ValueError("SNR grid must be non-empty")
    if target_block_errors <= 0 or max_codewords <= 0:
        raise ValueError("stopping rule must be positive")
    if batch < 1 or workers < 1:
        raise ValueError("batch and workers must be at least 1")
    if keep_failures < 0:
        raise ValueError("keep_failures must not be negative")
    params = code_params(bg, z, rows_used)
    quant = quant or QuantConfig(mode=cfg.precision.value)
    if quant.mode != cfg.precision.value:
        raise ValueError(f"quantizer mode {quant.mode} does not match "
                         f"decoder precision {cfg.precision.value}")
    rate_eff = params.k / params.n_tx
    sigmas = [None if g == math.inf else ebn0_to_sigma(g, rate_eff) for g in grid]

    points: list[SweepPoint] = []
    # each worker's kernel calls take CPUs // workers threads: with all CPUs
    # each, the workers' threads would contend for the same cores
    _keep_batch_memory()
    pool = (ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                initargs=(workers,)) if workers > 1 else None)
    try:
        for p_idx, (ebn0, sigma) in enumerate(zip(grid, sigmas)):
            tallies: list[dict] = []
            total_cw = total_blk = 0
            launched = 0          # codewords in the batches launched so far
            b_idx = 0
            while total_cw < max_codewords and total_blk < target_block_errors:
                # Up to `workers` batches at once, each sized as the serial
                # loop would size it. Tallies count in batch-index order up
                # to the batch that meets the stopping rule; batches launched
                # past it are dropped.
                jobs = []
                while len(jobs) < workers and launched < max_codewords:
                    want = min(batch, max_codewords - launched)
                    jobs.append((bg, rows_used, cfg, quant, sigma, want,
                                 (seed, p_idx, b_idx), keep_failures))
                    launched += want
                    b_idx += 1
                if pool is not None:
                    results = list(pool.map(_run_batch, *zip(*jobs)))
                else:
                    results = [_run_batch(*j) for j in jobs]
                for res in results:
                    tallies.append(res)
                    total_cw += res["codewords"]
                    total_blk += res["block_errors"]
                    if total_cw >= max_codewords or total_blk >= target_block_errors:
                        break
            iters = [it for t in tallies for it in t["iterations"]]
            decode_time = sum(t["decode_time"] for t in tallies)
            samples = [s for t in tallies for s in t["samples"]][:keep_failures]
            points.append(SweepPoint(
                ebn0_db=ebn0,
                sigma=0.0 if sigma is None else sigma,
                codewords=total_cw,
                bit_errors=sum(t["bit_errors"] for t in tallies),
                block_errors=total_blk,
                mean_iters=float(np.mean(iters)),
                median_iters=float(np.median(iters)),
                wall_time_per_cw=decode_time / total_cw,
                throughput_cbps=params.n_c * total_cw / decode_time if decode_time else 0.0,
                failed_samples=samples,
                info_bits=params.k,
            ))
    finally:
        if pool is not None:
            pool.shutdown()

    meta = {
        "version": __version__, "bg": bg.id, "z": z, "rows_used": rows_used,
        "bg_sha256": hashlib.sha256(bg.canonical_bytes()).hexdigest(),
        **asdict(cfg), "quant": asdict(quant),
        "grid": ["inf" if math.isinf(g) else g for g in grid],
        "target_block_errors": target_block_errors, "max_codewords": max_codewords,
        "batch": batch, "rate_eff": rate_eff,
    }
    return SweepResult(
        points=points, seed=seed,
        config_hash=_config_hash({**meta, "seed": seed}),
        metadata=meta,
    )


SWEEP_COLUMNS = [
    "ebn0_db", "sigma", "codewords", "bit_errors", "block_errors",
    "bler", "ber", "mean_iters", "median_iters",
    "wall_time_per_cw_s", "throughput_cbps", "wilson_lo", "wilson_hi",
]


def sweep_to_csv(result: SweepResult, fh) -> None:
    """One row per SNR point; leading comments stamp config hash and seed."""
    fh.write(f"# ldpclab bler sweep config_hash={result.config_hash} seed={result.seed}\n")
    fh.write("# " + json.dumps(result.metadata, sort_keys=True, default=str) + "\n")
    fh.write(",".join(SWEEP_COLUMNS) + "\n")
    for p in result.points:
        lo, hi = p.wilson()
        row = [
            f"{p.ebn0_db:g}", f"{p.sigma:.6g}", str(p.codewords),
            str(p.bit_errors), str(p.block_errors),
            f"{p.bler:.6g}", f"{p.ber:.6g}",
            f"{p.mean_iters:.4f}", f"{p.median_iters:.4f}",
            f"{p.wall_time_per_cw:.6g}", f"{p.throughput_cbps:.6g}",
            f"{lo:.6g}", f"{hi:.6g}",
        ]
        fh.write(",".join(row) + "\n")


@dataclass
class LatencyStats:
    """Wall-clock decode latency distribution, fixed iteration count."""

    batch: int
    repetitions: int
    iterations: int
    per_codeword_s: dict       # min / median / p99
    per_iteration_s: dict      # the same, divided by the iteration count
    throughput_cbps: float


def run_latency_bench(
    bg: BaseGraph,
    z: int,
    cfg: DecodeConfig,
    batch: int = 1,
    repetitions: int = 50,
    rows_used: int | None = None,
    iterations: int = 10,
    warmup: int = 5,
    ebn0_db: float = 4.0,
    seed: int = 0,
) -> LatencyStats:
    """Latency distribution over repeated decodes with early stop disabled.

    Dividing by a fixed iteration count yields per-iteration latency; the
    first `warmup` repetitions are excluded from the statistics.
    """
    if batch < 1 or repetitions < 1:
        raise ValueError("batch and repetitions must be positive")
    rows_used = bg.m_bg if rows_used is None else rows_used
    params = code_params(bg, z, rows_used)
    bench_cfg = replace(cfg, early_stop=EarlyStop.NONE, max_iter=iterations)
    quant = QuantConfig(mode=cfg.precision.value)
    _keep_batch_memory()
    rng = np.random.default_rng((seed, 0))
    msgs = rng.integers(0, 2, size=(batch, params.k), dtype=np.uint8)
    tx = encode_batch(msgs, bg, z, rows_used)[:, 2 * z:]
    sigma = ebn0_to_sigma(ebn0_db, params.k / params.n_tx)
    blocks = transmit(tx, sigma, rng, quant, params)

    times = []
    for rep in range(warmup + repetitions):
        t0 = time.perf_counter()
        result = decode(blocks, bg, bench_cfg)
        dt = time.perf_counter() - t0
        if rep >= warmup:
            times.append(dt)
        if int(result.iterations[0]) != iterations:
            raise RuntimeError(f"decode did not run the fixed {iterations} iterations")
    per_cw = np.asarray(times) / batch
    stats = {
        "min": float(per_cw.min()),
        "median": float(np.median(per_cw)),
        "p99": float(np.percentile(per_cw, 99)),
    }
    return LatencyStats(
        batch=batch,
        repetitions=repetitions,
        iterations=iterations,
        per_codeword_s=stats,
        per_iteration_s={k: v / iterations for k, v in stats.items()},
        throughput_cbps=params.n_c / stats["median"],
    )


BENCH_COLUMNS = [
    "precision", "rho", "batch", "iterations",
    "latency_per_cw_min_s", "latency_per_cw_median_s", "latency_per_cw_p99_s",
    "latency_per_iter_median_s", "throughput_cbps",
]


def bench_to_csv_row(cfg: DecodeConfig, stats: LatencyStats) -> str:
    return ",".join([
        cfg.precision.value, str(cfg.rho), str(stats.batch), str(stats.iterations),
        f"{stats.per_codeword_s['min']:.6g}",
        f"{stats.per_codeword_s['median']:.6g}",
        f"{stats.per_codeword_s['p99']:.6g}",
        f"{stats.per_iteration_s['median']:.6g}",
        f"{stats.throughput_cbps:.6g}",
    ])
