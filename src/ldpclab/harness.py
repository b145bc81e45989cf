"""BLER/BER sweeps, latency and throughput measurement, CSV emission.

Every sweep is reproducible: each codeword draws its payload bits and then its
noise from a generator of its own, seeded by (seed, point index, codeword
index within the point). A point's batches return per-codeword tallies, which
are joined in codeword order and cut once, after the codeword that meets the
stopping rule. The counters therefore depend on the seed and the
configuration, never on the batch size or the worker count, and the config
hash covers neither; the metadata records both.
Timing columns are machine-dependent and excluded from the guarantee.
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
from contextlib import nullcontext
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
from ldpclab.decoder import DecodeConfig, EarlyStop, checked_count, decode

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
    which then keeps up to 64 MB of freed heap. The kernel library is loaded
    here too, before the first batch: loading it allocates heap that lives
    as long as the process, and allocated amid the first batch's buffers it
    split their freed heap, so that a later batch could have to grow the heap
    and fault the new pages in (140-270 in a 20-iteration BG1 Z=384 int8
    batch, as the heap's starting point varied). A no-op off glibc.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_TRIM_THRESHOLD, _KEEP_FREED_BYTES)
        mallopt(_M_MMAP_THRESHOLD, _HEAP_BLOCK_BYTES)
    native.load()


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
    info_bits: int
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


def _draw(bg: BaseGraph, rows_used: int, cfg: DecodeConfig, quant: QuantConfig,
          sigma: float | None, point_key: tuple, first: int, count: int) -> tuple:
    """(messages, channel blocks) of codewords first..first+count-1 of the
    sweep point `point_key` = (seed, point index), each drawn from its own
    generator: its payload bits, then its noise."""
    params = code_params(bg, bg.z, rows_used)
    rngs = [np.random.default_rng((*point_key, index)) for index in range(first, first + count)]
    crc_len = CRC_POLYS[cfg.crc_kind][0] if cfg.early_stop is EarlyStop.CRC else 0
    # drawn as bools, one bit of the stream per payload bit: as uint8 each
    # payload took twice as long (27 against 13 us for 8424 bits)
    payload = np.stack([rng.integers(0, 2, size=params.k - crc_len, dtype=bool)
                        for rng in rngs]).view(np.uint8)
    messages = crc_attach(payload, cfg.crc_kind, k=params.k) if crc_len else payload
    tx = encode_batch(messages, bg, bg.z, rows_used)[:, 2 * bg.z:]
    return messages, transmit(tx, sigma, rngs, quant, params)


def _run_batch(bg: BaseGraph, rows_used: int, cfg: DecodeConfig, quant: QuantConfig,
               sigma: float | None, point_key: tuple, keep_failures: int, first: int,
               count: int) -> tuple[dict, list]:
    """Draw and decode codewords first..first+count-1 of the point `point_key`.

    Returns per-codeword arrays (bit errors, block errors, iterations and the
    batch's decode time as an equal share per codeword) and up to
    `keep_failures` failed samples (index within the point, message,
    decoded bits), so that the sweep can cut anywhere in the batch.
    """
    messages, blocks = _draw(bg, rows_used, cfg, quant, sigma, point_key, first, count)
    t0 = time.perf_counter()
    result = decode(blocks, bg, cfg)
    decode_time = time.perf_counter() - t0
    wrong = result.bits != messages
    block_err = wrong.any(axis=1)
    samples = [(first + i, messages[i].copy(), result.bits[i].copy())
               for i in np.flatnonzero(block_err)[:keep_failures]]
    return {
        "bit_errors": wrong.sum(axis=1),
        "block_errors": block_err,
        "iterations": result.iterations,
        "decode_time": np.full(count, decode_time / count),
    }, samples


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

    Each point runs rounds of up to `workers` batches until its
    `target_block_errors`-th block error or `max_codewords` codewords. Its
    tallies, in codeword order, are then cut once, after the codeword that
    brings the `target_block_errors`-th block error, so the counters do not
    depend on the batch or worker count. Eb/N0 converts to sigma through the
    effective rate K/N_tx of the transmitted bits; every grid point is
    finite, with a finite positive sigma, or +inf.
    """
    grid = list(ebn0_grid)
    if not grid:
        raise ValueError("SNR grid must be non-empty")
    target_block_errors = checked_count("target_block_errors", target_block_errors)
    max_codewords = checked_count("max_codewords", max_codewords)
    seed = checked_count("seed", seed, least=0)
    batch = checked_count("batch", batch)
    workers = checked_count("workers", workers)
    keep_failures = checked_count("keep_failures", keep_failures, least=0)
    params = code_params(bg, z, rows_used)
    quant = quant or QuantConfig(mode=cfg.precision.value)
    if quant.mode != cfg.precision.value:
        raise ValueError(f"quantizer mode {quant.mode} does not match "
                         f"decoder precision {cfg.precision.value}")
    rate_eff = params.k / params.n_tx
    sigmas = [None if g == math.inf else ebn0_to_sigma(g, rate_eff) for g in grid]

    points: list[SweepPoint] = []
    _keep_batch_memory()
    # each worker's kernel calls take CPUs // workers threads: with all CPUs
    # each, the workers' threads would contend for the same cores
    with (ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                              initargs=(workers,)) if workers > 1 else nullcontext()) as pool:
        run = pool.map if pool is not None else map
        for p_idx, (ebn0, sigma) in enumerate(zip(grid, sigmas)):
            job = functools.partial(_run_batch, bg, rows_used, cfg, quant, sigma,
                                    (seed, p_idx), keep_failures)
            tallies, samples = [], []
            launched = errors = 0
            while launched < max_codewords and errors < target_block_errors:
                end = min(launched + workers * batch, max_codewords)
                firsts = range(launched, end, batch)
                for tally, failed in run(job, firsts, [min(batch, end - f) for f in firsts]):
                    tallies.append(tally)
                    samples += failed
                    errors += int(tally["block_errors"].sum())
                launched = end
            cols = {k: np.concatenate([t[k] for t in tallies]) for k in tallies[0]}
            # every codeword past the one that meets the stopping rule is dropped
            n = int(np.searchsorted(np.cumsum(cols["block_errors"]), target_block_errors)) + 1
            cols = {k: v[:n] for k, v in cols.items()}
            codewords, decode_time = len(cols["iterations"]), float(cols["decode_time"].sum())
            points.append(SweepPoint(
                ebn0_db=ebn0,
                sigma=0.0 if sigma is None else sigma,
                codewords=codewords,
                bit_errors=int(cols["bit_errors"].sum()),
                block_errors=int(cols["block_errors"].sum()),
                mean_iters=float(np.mean(cols["iterations"])),
                median_iters=float(np.median(cols["iterations"])),
                wall_time_per_cw=decode_time / codewords,
                throughput_cbps=params.n_c * codewords / decode_time if decode_time else 0.0,
                info_bits=params.k,
                failed_samples=[(m, d) for i, m, d in samples if i < n][:keep_failures],
            ))

    meta = {
        "version": __version__, "bg": bg.id, "z": z, "rows_used": rows_used,
        "bg_sha256": hashlib.sha256(bg.canonical_bytes()).hexdigest(),
        **asdict(cfg), "quant": asdict(quant),
        "grid": ["inf" if math.isinf(g) else g for g in grid],
        "target_block_errors": target_block_errors, "max_codewords": max_codewords,
        "batch": batch, "workers": workers, "rate_eff": rate_eff,
    }
    # no counter depends on the batch or the worker count
    hashed = {k: v for k, v in meta.items() if k not in ("batch", "workers")}
    return SweepResult(
        points=points, seed=seed,
        config_hash=_config_hash({**hashed, "seed": seed}),
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


# Eb/N0 (dB) of run_latency_bench's batch: the decodes run a fixed iteration
# count whatever the noise, so the point only sets the values they see.
LATENCY_EBN0_DB = 4.0


def run_latency_bench(
    bg: BaseGraph,
    z: int,
    cfg: DecodeConfig,
    batch: int = 1,
    repetitions: int = 50,
    rows_used: int | None = None,
    iterations: int = 10,
    warmup: int = 5,
    seed: int = 0,
) -> LatencyStats:
    """Latency distribution over repeated decodes with early stop disabled.

    The batch is drawn once at LATENCY_EBN0_DB, codeword i from the
    generator seeded by (seed, 0, i), as in a sweep's first point. Dividing
    by a fixed iteration count yields per-iteration latency; the first
    `warmup` repetitions are excluded from the statistics.
    """
    batch = checked_count("batch", batch)
    repetitions = checked_count("repetitions", repetitions)
    iterations = checked_count("iterations", iterations)
    warmup = checked_count("warmup", warmup, least=0)
    seed = checked_count("seed", seed, least=0)
    rows_used = bg.m_bg if rows_used is None else rows_used
    params = code_params(bg, z, rows_used)
    bench_cfg = replace(cfg, early_stop=EarlyStop.NONE, max_iter=iterations)
    quant = QuantConfig(mode=cfg.precision.value)
    _keep_batch_memory()
    sigma = ebn0_to_sigma(LATENCY_EBN0_DB, params.k / params.n_tx)
    _, blocks = _draw(bg, rows_used, bench_cfg, quant, sigma, (seed, 0), 0, batch)

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
