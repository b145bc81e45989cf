"""Batch command line: code info, encode, decode, BLER simulation, benchmark.

File formats are deliberately tool-agnostic: LLRs are one decimal float per
line (pre-quantization domain), bit files one ASCII 0/1 per line.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from ldpclab import basegraph, channel, codec, decoder, harness, planner


def _add_code_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bg", type=int, choices=(1, 2), required=True, help="base graph")
    p.add_argument("--z", type=int, required=True, help="lifting size")
    p.add_argument("--rows", type=int, default=None,
                   help="base rows engaged (default: all)")
    p.add_argument("--assets-dir", default=None,
                   help="override the base graph asset directory "
                        "(also honors LDPCLAB_ASSETS)")


def _add_decode_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=float, default=0.75)
    p.add_argument("--max-iter", type=int, default=20)
    p.add_argument("--rho", type=int, default=1)
    p.add_argument("--precision", choices=[m.value for m in decoder.Precision],
                   default=decoder.Precision.INT8.value)
    p.add_argument("--early-stop", choices=[e.value for e in decoder.EarlyStop],
                   default=decoder.EarlyStop.SYNDROME.value)
    p.add_argument("--scale", type=float, default=8.0,
                   help="int8 quantization steps per LLR unit")


def _load_graph(args) -> tuple:
    bg = basegraph.load_basegraph(args.bg, args.z, assets_dir=args.assets_dir)
    rows = args.rows if args.rows is not None else bg.m_bg
    params = basegraph.code_params(bg, args.z, rows)
    return bg, rows, params


def _decode_config(args) -> decoder.DecodeConfig:
    return decoder.DecodeConfig(
        beta=args.beta, max_iter=args.max_iter,
        rho=args.rho, precision=decoder.Precision(args.precision),
        early_stop=decoder.EarlyStop(args.early_stop),
    )


def _read_bits(path: str) -> np.ndarray:
    return np.loadtxt(path, dtype=np.uint8, ndmin=1)


def _write_lines(path: str, values, fmt: str) -> None:
    Path(path).write_text("".join(fmt % v + "\n" for v in values))


def _cmd_info(args) -> int:
    bg, rows, params = _load_graph(args)
    rate = params.rate
    lines = [
        f"graph={bg.id} z={params.z} rows_used={rows}",
        f"K={params.k} N_c={params.n_c} N_tx={params.n_tx} "
        f"R={rate.numerator}/{rate.denominator} ({float(rate):.4f})",
        f"entries={bg.n_entries} max_row_weight={int(bg.w_r.max())}",
    ]
    # the paper's 8- and 16-bit footprints
    for eps, mode in ((1, "int8"), (2, "16-bit")):
        s_v, s_cv = planner.memory_footprint(bg, args.z, rows, eps)
        lines.append(f"[{mode}] S_v={s_v} B S_cv={s_cv} B")
    for strat in planner.Strategy:
        try:
            plan = planner.make_plan(
                strat, bg, args.z, rows, rho=args.rho, epsilon=1,
                alpha=args.alpha if strat is planner.Strategy.LOW_LATENCY else None,
                worker_budget=args.budget,
            )
        except ValueError as exc:
            lines.append(f"{strat.value}: unavailable ({exc})")
            continue
        lines.append(
            f"{strat.value}: rho={plan.rho} alpha={plan.alpha} "
            f"N_thread={plan.n_thread} S_v={plan.s_v_bytes} B "
            f"S_cv={plan.s_cv_bytes} B fits_local={plan.fits_local}"
        )
    print("\n".join(lines))
    return 0


def _cmd_encode(args) -> int:
    bg, rows, params = _load_graph(args)
    message = _read_bits(args.infile)
    if args.crc:
        message = codec.crc_attach(message, k=params.k)
    if len(message) != params.k:
        raise ValueError(f"message must have {params.k} bits, got {len(message)}")
    cw = codec.encode(message, bg, args.z, rows)
    bits = codec.puncture(cw) if args.punctured else cw.bits
    _write_lines(args.outfile, bits, "%d")
    return 0


def _cmd_decode(args) -> int:
    bg, rows, params = _load_graph(args)
    llrs = np.loadtxt(args.infile, dtype=np.float64, ndmin=1)
    if len(llrs) != params.n_tx:
        raise ValueError(f"expected {params.n_tx} LLRs (one per transmitted bit), "
                         f"got {len(llrs)}")
    cfg = _decode_config(args)
    quant = channel.QuantConfig(mode=cfg.precision.value, scale=args.scale)
    block = channel.quantize(llrs, quant, params)
    result = decoder.decode(block, bg, cfg)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("codeword,iteration,syndrome_weight,min_abs_lv\n")
            for it, (weights, margins) in enumerate(
                    zip(result.syndrome_trace, result.margin_trace), 1):
                for b, (w, m) in enumerate(zip(weights, margins)):
                    fh.write(f"{b},{it},{int(w)},{float(m)}\n")
    _write_lines(args.outfile, result.bits[0], "%d")
    ok = bool(result.success[0])
    print(f"success={ok} iterations={int(result.iterations[0])} "
          f"syndrome_weight={int(result.syndrome_weight[0])}")
    return 0 if ok else 1


def _cmd_simulate(args) -> int:
    bg, rows, params = _load_graph(args)
    if args.snr_step <= 0:
        raise ValueError("--snr-step must be positive")
    if args.snr_stop < args.snr_start:
        raise ValueError("--snr-stop must not precede --snr-start")
    # the last point is the one at or below --snr-stop, float error aside
    n = math.floor((args.snr_stop - args.snr_start) / args.snr_step + 1e-9) + 1
    grid = [args.snr_start + i * args.snr_step for i in range(n)]
    if args.noise_free_point:
        grid = [math.inf] + grid
    cfg = _decode_config(args)
    quant = channel.QuantConfig(mode=cfg.precision.value, scale=args.scale)
    result = harness.run_bler_sweep(
        bg, args.z, rows, cfg, grid,
        target_block_errors=args.target_errors,
        max_codewords=args.max_codewords,
        seed=args.seed, quant=quant, workers=args.workers,
    )
    with open(args.outfile, "w") as fh:
        harness.sweep_to_csv(result, fh)
    print(f"wrote {args.outfile} ({len(result.points)} points, "
          f"config_hash={result.config_hash})")
    return 0


def _cmd_bench(args) -> int:
    choices = [p.value for p in decoder.Precision]
    precisions = args.precisions.split(",")
    # every entry is checked before the first bench runs
    for prec in precisions:
        if prec not in choices:
            raise ValueError(f"unknown precision {prec!r}; choose from {', '.join(choices)}")
    bg, rows, params = _load_graph(args)
    rows_out = ["# ldpclab latency/throughput bench (host hardware)",
                ",".join(harness.BENCH_COLUMNS)]
    for prec in precisions:
        cfg = decoder.DecodeConfig(
            beta=args.beta, rho=args.rho if prec == "int8" else 1, precision=prec,
        )
        stats = harness.run_latency_bench(
            bg, args.z, cfg, batch=args.batch, repetitions=args.reps,
            rows_used=rows, iterations=args.iters, seed=args.seed,
        )
        rows_out.append(harness.bench_to_csv_row(cfg, stats))
    text = "\n".join(rows_out) + "\n"
    if args.outfile:
        Path(args.outfile).write_text(text)
        print(f"wrote {args.outfile}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ldpclab",
                                 description="QC-LDPC codec laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="code parameters, plans, and footprints")
    _add_code_args(p)
    p.add_argument("--rho", type=int, default=4)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--budget", type=int, default=planner.DEFAULT_WORKER_BUDGET)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("encode", help="message bits file -> codeword bits file")
    _add_code_args(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--crc", action="store_true", help="attach CRC-24B first")
    p.add_argument("--punctured", action="store_true",
                   help="emit transmitted bits (drop the first 2Z)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="LLR file -> decoded information bits")
    _add_code_args(p)
    _add_decode_args(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--trace", default=None,
                   help="write per-iteration CSV (syndrome weight, min |L_v|)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("simulate", help="BLER sweep over an Eb/N0 grid -> CSV")
    _add_code_args(p)
    _add_decode_args(p)
    p.add_argument("--snr-start", type=float, required=True)
    p.add_argument("--snr-stop", type=float, required=True)
    p.add_argument("--snr-step", type=float, required=True)
    p.add_argument("--noise-free-point", action="store_true",
                   help="prepend a noise-disabled point")
    p.add_argument("--target-errors", type=int, default=100)
    p.add_argument("--max-codewords", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bench", help="latency / throughput measurement -> CSV")
    _add_code_args(p)
    p.add_argument("--precisions", default="int8",
                   help="comma-separated: int8,f32")
    p.add_argument("--rho", type=int, default=1)
    p.add_argument("--beta", type=float, default=0.75)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="outfile", default=None)
    p.set_defaults(func=_cmd_bench)
    return ap


def dispatch(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
