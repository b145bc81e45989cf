import numpy as np
import pytest

from ldpclab.basegraph import code_params, load_basegraph
from ldpclab.channel import bpsk_exact
from ldpclab.cli import dispatch
from ldpclab.codec import encode, puncture


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_reports_parameters_and_footprints(capsys):
    code, out, err = run_cli(capsys, "info", "--bg", "1", "--z", "384")
    assert code == 0
    assert "K=8448" in out
    assert "N_c=26112" in out
    assert "S_v=26112 B" in out
    assert "S_cv=121344 B" in out
    assert "N_thread=96" in out


def test_info_validation_error(capsys):
    code, out, err = run_cli(capsys, "info", "--bg", "1", "--z", "17")
    assert code == 2
    assert "error:" in err


def test_simulate_rejects_zero_step(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--bg", "2", "--z", "16",
        "--snr-start", "1", "--snr-stop", "2", "--snr-step", "0",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "snr-step" in err


def test_simulate_rejects_zero_workers(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--bg", "2", "--z", "16",
        "--snr-start", "1", "--snr-stop", "2", "--snr-step", "1", "--workers", "0",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "workers" in err
    assert not (tmp_path / "x.csv").exists()


def test_encode_decode_roundtrip(tmp_path, capsys):
    z = 16
    bg = load_basegraph("BG2", z)
    params = code_params(bg, z, 42)
    rng = np.random.default_rng(3)
    msg = rng.integers(0, 2, params.k, dtype=np.uint8)
    msg_file = tmp_path / "msg.txt"
    msg_file.write_text("".join(f"{b}\n" for b in msg))

    cw_file = tmp_path / "tx.txt"
    code, out, err = run_cli(
        capsys, "encode", "--bg", "2", "--z", str(z),
        "--in", str(msg_file), "--out", str(cw_file), "--punctured",
    )
    assert code == 0, err
    tx = np.loadtxt(cw_file, dtype=np.uint8)
    assert np.array_equal(tx, puncture(encode(msg, bg, z, 42)))

    llr_file = tmp_path / "llr.txt"
    llrs = bpsk_exact(tx) * 6.0
    llr_file.write_text("".join(f"{v}\n" for v in llrs))
    bits_file = tmp_path / "bits.txt"
    code, out, err = run_cli(
        capsys, "decode", "--bg", "2", "--z", str(z),
        "--in", str(llr_file), "--out", str(bits_file),
    )
    assert code == 0, err
    assert "success=True" in out
    decoded = np.loadtxt(bits_file, dtype=np.uint8)
    assert np.array_equal(decoded, msg)


def test_decode_wrong_llr_count(tmp_path, capsys):
    llr_file = tmp_path / "llr.txt"
    llr_file.write_text("0.5\n" * 10)
    code, out, err = run_cli(
        capsys, "decode", "--bg", "2", "--z", "16",
        "--in", str(llr_file), "--out", str(tmp_path / "b.txt"),
    )
    assert code == 2
    assert "LLR" in err or "expected" in err


def test_decode_nan_llr_exit_code(tmp_path, capsys):
    llr_file = tmp_path / "llr.txt"
    llr_file.write_text("0.5\n" * 799 + "nan\n")
    code, out, err = run_cli(
        capsys, "decode", "--bg", "2", "--z", "16", "--precision", "f32",
        "--in", str(llr_file), "--out", str(tmp_path / "b.txt"),
    )
    assert code == 2
    assert "NaN" in err


def test_simulate_deterministic_csv(tmp_path, capsys):
    def run(name):
        out_file = tmp_path / name
        code, out, err = run_cli(
            capsys, "simulate", "--bg", "2", "--z", "16",
            "--snr-start", "2", "--snr-stop", "3", "--snr-step", "1",
            "--target-errors", "4", "--max-codewords", "32",
            "--seed", "5", "--out", str(out_file),
        )
        assert code == 0, err
        return out_file.read_text()

    a, b = run("a.csv"), run("b.csv")

    def strip(text):
        rows = []
        for line in text.splitlines():
            if line.startswith("#") or line.startswith("ebn0"):
                rows.append(line)
            else:
                cells = line.split(",")
                cells[9] = cells[10] = "_"
                rows.append(",".join(cells))
        return "\n".join(rows)

    assert strip(a) == strip(b)


def test_bench_emits_metric_schema(tmp_path, capsys):
    out_file = tmp_path / "bench.csv"
    code, out, err = run_cli(
        capsys, "bench", "--bg", "2", "--z", "16",
        "--precisions", "int8,f16", "--batch", "2", "--reps", "3",
        "--iters", "4", "--out", str(out_file),
    )
    assert code == 0, err
    text = out_file.read_text()
    header = [l for l in text.splitlines() if l.startswith("precision")][0]
    for col in ("latency_per_iter_median_s", "throughput_cbps",
                "latency_per_cw_p99_s"):
        assert col in header
    rows = [l for l in text.splitlines() if l and not l.startswith(("#", "precision"))]
    assert len(rows) == 2
    assert rows[0].startswith("int8,")
    assert rows[1].startswith("f16,")


@pytest.mark.parametrize("argv", [
    ["decode", "--in", "x", "--out", "y", "--strategy", "low_latency"],
    ["decode", "--in", "x", "--out", "y", "--alpha", "4"],
    ["simulate", "--snr-start", "1", "--snr-stop", "2", "--snr-step", "1", "--out", "y",
     "--strategy", "low_latency"],
    ["simulate", "--snr-start", "1", "--snr-stop", "2", "--snr-step", "1", "--out", "y",
     "--alpha", "4"],
    ["bench", "--strategies", "low_latency"],
    ["bench", "--alpha", "4"],
])
def test_removed_strategy_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        dispatch([argv[0], "--bg", "2", "--z", "16", *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unreadable_input_file(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "encode", "--bg", "2", "--z", "16",
        "--in", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "o.txt"),
    )
    assert code == 2


def test_encode_with_crc_attach(tmp_path, capsys):
    bg = load_basegraph("BG2", 16)
    rng = np.random.default_rng(21)
    payload = rng.integers(0, 2, 160 - 24, dtype=np.uint8)
    msg_file = tmp_path / "payload.txt"
    msg_file.write_text("".join(f"{b}\n" for b in payload))
    out_file = tmp_path / "cw.txt"
    code, out, err = run_cli(
        capsys, "encode", "--bg", "2", "--z", "16", "--crc",
        "--in", str(msg_file), "--out", str(out_file),
    )
    assert code == 0, err
    bits = np.loadtxt(out_file, dtype=np.uint8)
    assert len(bits) == 832
    from ldpclab.codec import crc_attach
    assert np.array_equal(bits[:160], crc_attach(payload, k=160))


def test_decode_trace_file(tmp_path, capsys):
    bg = load_basegraph("BG2", 16)
    params = code_params(bg, 16, 42)
    rng = np.random.default_rng(23)
    msg = rng.integers(0, 2, params.k, dtype=np.uint8)
    tx = puncture(encode(msg, bg, 16, 42))
    llr_file = tmp_path / "llr.txt"
    llr_file.write_text("".join(f"{v}\n" for v in bpsk_exact(tx) * 6.0))
    texts = []
    for rho in ("1", "4"):
        trace_file = tmp_path / f"trace{rho}.csv"
        code, out, err = run_cli(
            capsys, "decode", "--bg", "2", "--z", "16", "--rho", rho,
            "--in", str(llr_file), "--out", str(tmp_path / "bits.txt"),
            "--max-iter", "3", "--early-stop", "none", "--trace", str(trace_file),
        )
        assert code == 0, err
        texts.append(trace_file.read_text())
    lines = texts[0].splitlines()
    assert lines[0] == "codeword,iteration,syndrome_weight,min_abs_lv"
    assert len(lines) == 4            # header + one row per iteration
    assert texts[1] == texts[0]       # the packed engine traces the one codeword


def test_decode_failure_exit_code(tmp_path, capsys):
    # all-erasure LLRs cannot converge: command reports failure with exit 1
    llr_file = tmp_path / "llr.txt"
    llr_file.write_text("0.0\n" * 800)
    code, out, err = run_cli(
        capsys, "decode", "--bg", "2", "--z", "16", "--max-iter", "3",
        "--in", str(llr_file), "--out", str(tmp_path / "bits.txt"),
    )
    assert code == 1
    assert "success=False" in out
