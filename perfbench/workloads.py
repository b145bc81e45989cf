"""The benchmark's workloads: what each one runs, and how its outputs are checked.

Every workload repeats whole rounds of one operation, one `run_bler_sweep`
call with a fixed codeword count at every point, so a run's share of failed
codewords does not depend on how many rounds fit in its time.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

import ldpclab.decoder
from ldpclab import (
    DecodeConfig,
    Precision,
    QuantConfig,
    bpsk_awgn,
    code_params,
    demap_llr,
    load_basegraph,
    quantize,
)
from ldpclab.channel import ebn0_to_sigma
from ldpclab.codec import encode_batch
from ldpclab.harness import run_bler_sweep

import stats
from tracing import ROUND


@dataclass
class Round:
    """Outcome of one round, timed from outside the library."""

    wall: float                 # seconds
    codewords: int
    failed: int                 # codewords whose decoded bits differ from the message
    busy: float                 # decode seconds, summed over workers
    problems: list = field(default_factory=list)


def _channel_blocks(bg, params, messages, ebn0_db, quant, rng):
    """Encode, transmit over BPSK/AWGN at `ebn0_db` and quantize."""
    tx = encode_batch(messages, bg, bg.z, params.rows_used)[:, 2 * bg.z:]
    sigma = ebn0_to_sigma(ebn0_db, params.k / params.n_tx)
    return quantize(demap_llr(bpsk_awgn(tx, sigma, rng), sigma), quant, params)


def _same_result(a, b) -> bool:
    return (np.array_equal(a.bits, b.bits)
            and np.array_equal(a.iterations, b.iterations)
            and np.array_equal(a.success, b.success)
            and np.array_equal(a.syndrome_weight, b.syndrome_weight))


@dataclass(frozen=True)
class SweepWorkload:
    """One `run_bler_sweep` call per round over a short Eb/N0 grid."""

    name: str
    bg_id: str
    z: int
    rows: int
    cfg: DecodeConfig
    grid: tuple
    batch: int
    workers: int
    per_point: int              # codewords at every point of a round
    # Set for a sweep whose codewords may fail: its failed share must repeat
    # exactly, so every round reruns the sweep under this seed and keeps and
    # recounts every failed sample. Unset, each round draws its seed from
    # --seed and no codeword may fail.
    fixed_seed: int | None = None

    def setup(self, seed: int) -> dict:
        bg = load_basegraph(self.bg_id, self.z)
        state = {"bg": bg, "params": code_params(bg, self.z, self.rows), "seed": seed}
        # Warm-up: one batch per worker at the first point, one iteration.
        run_bler_sweep(bg, self.z, self.rows, replace(self.cfg, max_iter=1),
                       self.grid[:1], target_block_errors=self.per_point + 1,
                       max_codewords=self.batch * self.workers, seed=seed,
                       batch=self.batch, workers=self.workers)
        return state

    def round_seed(self, seed: int, index: int) -> int:
        if self.fixed_seed is not None:
            return self.fixed_seed
        return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])

    def run_round(self, state: dict, index: int, workers: int, tracer=None) -> Round:
        bg = state["bg"]
        with tracer.span(ROUND) if tracer else nullcontext():
            t0 = time.perf_counter()
            res = run_bler_sweep(
                bg, self.z, self.rows, self.cfg, self.grid,
                target_block_errors=self.per_point + 1, max_codewords=self.per_point,
                seed=self.round_seed(state["seed"], index), batch=self.batch,
                workers=workers,
                keep_failures=self.per_point if self.fixed_seed is not None else 0,
            )
            wall = time.perf_counter() - t0
        problems = []
        counters = []
        for p in res.points:
            where = f"{self.name} round {index} at {p.ebn0_db:g} dB"
            counters.append((p.codewords, p.block_errors, p.bit_errors))
            if p.codewords != self.per_point:
                problems.append(f"{where}: {p.codewords} codewords, asked for {self.per_point}")
            if self.fixed_seed is None:
                if p.block_errors or p.bit_errors:
                    problems.append(f"{where}: {p.block_errors} block and "
                                    f"{p.bit_errors} bit errors, expected none")
            else:
                kept = stats.failed_codewords([m for m, _ in p.failed_samples],
                                              [d for _, d in p.failed_samples])
                if kept != p.block_errors or kept != len(p.failed_samples):
                    problems.append(f"{where}: {len(p.failed_samples)} samples kept, "
                                    f"{kept} of them failed, for {p.block_errors} "
                                    "block errors")
                recount = stats.recount_bit_errors(p.failed_samples)
                if recount != p.bit_errors:
                    problems.append(f"{where}: samples hold {recount} bit errors, "
                                    f"the point reports {p.bit_errors}")
        # A sweep seed fixes the counters: a repeated round must repeat them.
        if self.fixed_seed is not None:
            first = state.setdefault("counters", counters)
            if counters != first:
                problems.append(f"{self.name} round {index}: counters {counters} "
                                f"differ from the first round's {first}")
        return Round(
            wall=wall,
            codewords=sum(p.codewords for p in res.points),
            failed=sum(p.block_errors for p in res.points),
            busy=sum(p.wall_time_per_cw * p.codewords for p in res.points),
            problems=problems,
        )

    def check(self, state: dict) -> list:
        """int8 only: a sample decodes bit-exactly on the packed rho=4 engine."""
        if self.cfg.precision is not Precision.INT8:
            return []
        bg, params = state["bg"], state["params"]
        scalar_cfg = replace(self.cfg, rho=1)
        packed_cfg = replace(self.cfg, rho=4)
        problems = []
        for i, ebn0 in enumerate(self.grid):
            rng = np.random.default_rng((state["seed"], 7, i))
            msgs = rng.integers(0, 2, size=(4, params.k), dtype=np.uint8)
            blocks = _channel_blocks(bg, params, msgs, ebn0, QuantConfig(), rng)
            scalar = ldpclab.decoder.decode(blocks, bg, scalar_cfg)
            packed = ldpclab.decoder.decode(blocks, bg, packed_cfg)
            if not _same_result(scalar, packed):
                problems.append(f"{self.name}: packed rho=4 and scalar int8 decodes "
                                f"differ at {ebn0:g} dB")
        return problems


WORKLOADS = {w.name: w for w in (
    # Paper's main datapath in the waterfall. Its sweep seed is fixed: the
    # int8 saturation fault fails a share of the codewords there that moves
    # with the noise draw, and only a share that repeats exactly in every run
    # can be compared between runs. f32 decodes every one of these codewords.
    SweepWorkload(
        name="bg1_waterfall_int8", bg_id="BG1", z=384, rows=46,
        cfg=DecodeConfig(precision="int8"), grid=(1.5, 2.5), batch=64,
        workers=1, per_point=64, fixed_seed=0,
    ),
    # Converges in 2-3 iterations, so CRC, encoder and channel weigh in, and
    # the harness's worker pool runs with one worker per core of a 2-core host.
    SweepWorkload(
        name="bg1_highsnr_f32_crc_2w", bg_id="BG1", z=384, rows=46,
        cfg=DecodeConfig(precision="f32", early_stop="crc"), grid=(4.0, 6.0),
        batch=32, workers=2, per_point=128,
    ),
)}
