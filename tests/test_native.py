"""The compiled kernels against their numpy oracles, and the kernels' loader."""

import dataclasses
import os
import shutil
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest

from ldpclab import channel, codec, decoder, harness, native
from ldpclab.basegraph import code_params
from ldpclab.channel import (
    F32_MAX,
    INT8_MAX,
    NOISE_FREE_LLR,
    QuantConfig,
    bpsk_awgn,
    bpsk_exact,
    demap_llr,
    quantize,
    transmit,
)
from ldpclab.decoder import (
    DecodeConfig,
    DecodeResult,
    EarlyStop,
    ScalarWorkspace,
    decode,
    decode_flooding,
    init_workspace,
    layered_iteration,
)
from ldpclab.harness import run_bler_sweep
from tests.conftest import get_graph, make_noisy_blocks
from tests.oracles import syndrome_dense

CODES = [("BG2", 16, 42), ("BG2", 52, 42), ("BG1", 384, 46)]
SNRS_DB = [1.0, 2.5, 8.0, 10.0]          # 8 and 10 dB saturate int8 posteriors


@pytest.fixture
def kernel():
    """The host's kernel; a host without gcc has none to compare."""
    if shutil.which(native.COMMAND[0]) is None:
        pytest.skip("no C compiler on this host")
    lib = native.load()
    assert lib is not None, "gcc is present but the kernel did not build"
    return lib


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """The loader on an empty cache in tmp_path, reset before and after."""
    native.load.cache_clear()
    monkeypatch.setattr(native, "cache_dir", lambda: tmp_path)
    yield tmp_path
    native.load.cache_clear()


def _bits(a: np.ndarray) -> np.ndarray:
    """Raw 32-bit patterns, so f32 compares bit for bit (-0.0 included)."""
    return a.view(np.uint32)


@pytest.mark.parametrize("code", CODES, ids=lambda c: f"{c[0]}-Z{c[1]}")
@pytest.mark.parametrize("precision", ["int8", "f32"])
def test_kernel_matches_numpy_rows_every_iteration(kernel, monkeypatch, code, precision):
    bg_id, z, rows = code
    bg = get_graph(bg_id, z)
    ran = []
    run = native.run_iteration
    monkeypatch.setattr(native, "run_iteration", lambda *a: ran.append(run(*a)) or ran[-1])
    cfg = DecodeConfig(precision=precision)
    inputs = [(ebn0, make_noisy_blocks(bg, rows, ebn0, 3 if z < 384 else 2,
                                       seed=20 + i, mode=precision)[1])
              for i, ebn0 in enumerate(SNRS_DB)]
    if precision == "f32":
        # LLRs past F32_MAX: every transmitted position starts at the bound,
        # so the saturation and its message store run from the first row
        llrs = inputs[0][1][:, 2 * z:].astype(np.float64) * 2.0 ** 80
        inputs.append(("saturated", quantize(llrs, QuantConfig("f32"),
                                             code_params(bg, z, rows))))
        assert (np.abs(inputs[-1][1][:, 2 * z:]) == F32_MAX).all()
    for ebn0, blocks in inputs:
        fast = init_workspace(blocks, bg, cfg)
        oracle = init_workspace(blocks, bg, cfg)
        for it in range(8):
            layered_iteration(fast, bg, cfg)
            for r in range(oracle.rows_used):
                oracle.layer(r, cfg)
            where = f"{ebn0} iteration {it + 1}"
            assert np.array_equal(_bits(fast.l_v), _bits(oracle.l_v)), where
            assert np.array_equal(_bits(fast.messages), _bits(oracle.messages)), where
    assert ran and all(ran)               # every pass above ran the kernel


@pytest.mark.parametrize("code", CODES, ids=lambda c: f"{c[0]}-Z{c[1]}")
def test_saturating_snrs_reach_the_int16_extrinsic_range(code):
    """The 8 and 10 dB int8 inputs of the test above drive the extrinsic
    L_v - message past +/-127: the kernel holds it in int16 scratch, and an
    int8 subtraction would wrap it."""
    bg_id, z, rows = code
    bg = get_graph(bg_id, z)
    cfg = DecodeConfig()
    for i, ebn0 in enumerate(SNRS_DB):
        if ebn0 < 8.0:
            continue
        _, blocks = make_noisy_blocks(bg, rows, ebn0, 3 if z < 384 else 2, seed=20 + i)
        ws = init_workspace(blocks, bg, cfg)
        widest = 0
        for _ in range(8):
            for r in range(rows):
                cols, _, e0, idx = ws.row_gather[r]
                raw = np.subtract(ws.l_v[:, cols[:, None], idx],
                                  ws.messages[:, e0:e0 + len(cols)], dtype=np.int32)
                widest = max(widest, int(np.abs(raw).max()))
                ws.layer(r, cfg)
        assert INT8_MAX < widest <= 2 * INT8_MAX, ebn0


def test_kernel_bounds_are_the_channel_bounds():
    """_layer.c saturates int8 and f32 at its own constants, which C cannot
    import: they must be channel's INT8_MAX and F32_MAX."""
    defines = dict(line.split()[1:3] for line in native.SOURCE.read_text().splitlines()
                   if line.startswith("#define"))
    assert int(defines["INT8_SAT"]) == INT8_MAX
    assert float.fromhex(defines["F32_SAT"].rstrip("f")) == F32_MAX


def _decode_digest(blocks, bg, cfg, fn=decode):
    res = fn(blocks, bg, cfg)
    return [res.bits, res.iterations, res.success, res.syndrome_trace, res.margin_trace]


def _same(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


@pytest.mark.parametrize("precision", ["int8", "f32"])
def test_decode_equals_decode_without_kernel(kernel, monkeypatch, precision):
    """Decodes with the compiled iteration and syndrome equal decodes with
    neither: the numpy rows and the numpy syndrome roll loop, which are what
    runs where the kernel cannot be built."""
    bg = get_graph("BG2", 52)
    cases = []
    for early in EarlyStop:
        cfg = DecodeConfig(precision=precision, early_stop=early, max_iter=10)
        for i, ebn0 in enumerate(SNRS_DB):
            _, blocks = make_noisy_blocks(bg, 42, ebn0, 6, seed=40 + i, mode=precision)
            cases.append((blocks, cfg))
    with monkeypatch.context() as m:
        # neither numpy path may run while the kernel serves this engine
        m.setattr(ScalarWorkspace, "layer", None)
        m.setattr(codec, "_syndrome_weights_numpy", None)
        fast = [_decode_digest(blocks, bg, cfg) for blocks, cfg in cases]
    monkeypatch.setattr(native, "load", lambda: None)
    numpy_syndromes = []
    roll_loop = codec._syndrome_weights_numpy
    monkeypatch.setattr(codec, "_syndrome_weights_numpy",
                        lambda *a: numpy_syndromes.append(1) or roll_loop(*a))
    for (blocks, cfg), got in zip(cases, fast):
        assert _same(got, _decode_digest(blocks, bg, cfg)), cfg
    assert numpy_syndromes


@pytest.mark.parametrize("precision", ["int8", "f32"])
def test_compiled_decode_builds_no_row_gather(kernel, monkeypatch, precision):
    """The gather tables serve the numpy rows alone: the kernel never reads them."""
    bg = get_graph("BG2", 52)
    msgs, blocks = make_noisy_blocks(bg, 42, 3.0, 4, seed=5, mode=precision)

    def unused(*args):
        raise AssertionError("the numpy gather tables were built")

    monkeypatch.setattr(decoder, "_build_row_gather", unused)
    res = decode(blocks, bg, DecodeConfig(precision=precision))
    assert res.success.all() and np.array_equal(res.bits, msgs)
    with pytest.raises(AssertionError, match="gather tables"):      # f16 runs numpy rows
        decode(blocks.astype(np.float16), bg, DecodeConfig(precision="f16"))


def test_loader_builds_once_then_reuses_the_cached_file(kernel, fresh_loader, monkeypatch):
    assert native.load() is not None
    built = sorted(p.name for p in fresh_loader.iterdir())
    assert len(built) == 1 and built[0].startswith("layer-")     # no build leftovers
    native.load.cache_clear()

    def no_compiler(*args, **kwargs):
        raise AssertionError("gcc ran although the library was cached")

    monkeypatch.setattr(native.subprocess, "run", no_compiler)
    assert native.load() is not None
    assert sorted(p.name for p in fresh_loader.iterdir()) == built


def test_missing_compiler_takes_the_numpy_rows(kernel, request, monkeypatch):
    bg = get_graph("BG2", 52)
    cfg = DecodeConfig(max_iter=10)
    _, blocks = make_noisy_blocks(bg, 42, 2.0, 8, seed=3)
    with_kernel = _decode_digest(blocks, bg, cfg)
    cache = request.getfixturevalue("fresh_loader")
    monkeypatch.setenv("PATH", str(cache))            # an empty directory: no gcc
    assert native.load() is None
    ws = init_workspace(blocks, bg, cfg)
    assert not native.run_iteration(ws.l_v, ws.messages, bg, ws.rows_used, cfg.beta)
    hard = (ws.l_v < 0).view(np.uint8).reshape(ws.lanes, -1)
    assert native.row_parities(hard, bg, ws.rows_used, 0, ws.rows_used) is None
    assert _same(_decode_digest(blocks, bg, cfg), with_kernel)
    assert list(cache.iterdir()) == []                # and no build leftovers


def test_cache_dir_falls_back_to_a_private_temp_dir(monkeypatch, tmp_path):
    blocked = tmp_path / "not-a-dir"
    blocked.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    got = native.cache_dir()
    assert got == tmp_path / f"ldpclab-{os.getuid()}"
    assert got.stat().st_mode & 0o777 == 0o700


def test_run_iteration_rejects_arrays_of_another_graph(kernel):
    bg = get_graph("BG2", 16)
    _, blocks = make_noisy_blocks(bg, 42, 2.0, 2, seed=1)
    ws = init_workspace(blocks, bg, DecodeConfig())
    for other, rows in ((get_graph("BG2", 52), 42), (get_graph("BG1", 16), 42), (bg, 41)):
        with pytest.raises(ValueError, match="do not match"):
            native.run_iteration(ws.l_v, ws.messages, other, rows, 0.75)
    hard, weights, margins = readout = _readout_arrays(ws.l_v)
    lv, msgs = ws.l_v.copy(), ws.messages.copy()
    for args in ((hard[:, 1:], weights, margins), (hard.view(bool), weights, margins),
                 (hard, weights[:1], margins), (hard, weights, margins.astype(np.float32)),
                 (hard, margins, weights), (hard, weights, np.zeros((2, 2))[:, 0]),
                 (hard.repeat(2, axis=1)[:, ::2], weights, margins)):
        with pytest.raises(ValueError, match="do not match"):
            native.run_iteration(ws.l_v, ws.messages, bg, 42, 0.75, args)
    # the arrays are checked before the pass: it ran on nothing
    assert np.array_equal(ws.l_v, lv) and np.array_equal(ws.messages, msgs)
    # f16 and strided posteriors take the numpy rows and lines
    for a, m in ((ws.l_v.astype(np.float16), ws.messages.astype(np.float16)),
                 (ws.l_v[::-1], ws.messages[::-1])):
        assert not native.run_iteration(a, m, bg, 42, 0.75, readout)
    assert (hard == 7).all() and (weights == 7).all() and (margins == 7).all()


def test_run_iteration_rejects_a_bad_live_list(kernel):
    """The kernel indexes with `live` unchecked, and a repeated index would
    let two threads update one codeword at once: every malformed list raises
    before the pass."""
    bg = get_graph("BG2", 16)
    _, blocks = make_noisy_blocks(bg, 42, 2.0, 4, seed=2)
    ws = init_workspace(blocks, bg, DecodeConfig())
    readout = _readout_arrays(ws.l_v)
    lv, msgs = ws.l_v.copy(), ws.messages.copy()
    bad = [np.array([0, 2, 2]), np.array([2, 1]), np.array([-1, 2]), np.array([1, 4]),
           np.array([0, 1], dtype=np.int32), np.array([[0, 1]]), np.array([], dtype=np.int64),
           np.arange(4)[::2], np.arange(5)]
    for live in bad:
        for out in (None, readout):
            with pytest.raises(ValueError, match="live must be"):
                native.run_iteration(ws.l_v, ws.messages, bg, 42, 0.75, out, live)
    assert np.array_equal(ws.l_v, lv) and np.array_equal(ws.messages, msgs)
    assert all((a == 7).all() for a in readout)


# dense H up to BG1 Z=384 with four rows: 1536 x 9984 bytes
DENSE_LIMIT = 2 * 10**7


def _dense_weights(bits, bg, rows):
    """syndrome_dense, row by row; None where the dense matrix is too large."""
    if rows * bg.z * (bg.k_b + rows) * bg.z > DENSE_LIMIT:
        return None
    return np.array([syndrome_dense(b, bg, bg.z, rows, limit=DENSE_LIMIT) for b in bits])


@pytest.mark.parametrize("bg_id", ["BG1", "BG2"])
@pytest.mark.parametrize("z", [2, 16, 52, 384])
def test_syndrome_kernel_matches_roll_loop_and_dense_oracle(kernel, bg_id, z):
    bg = get_graph(bg_id, z)
    rng = np.random.default_rng(z)
    dense_checked = False
    for rows in (4, 9, bg.m_bg - 1):
        n = (bg.k_b + rows) * z
        _, blocks = make_noisy_blocks(bg, rows, 1.0, 2, seed=z, mode="f32")
        bits = np.concatenate([
            rng.integers(0, 2, (3, n), dtype=np.uint8),
            (blocks < 0).astype(np.uint8),      # noisy: some checks fail
            codec.encode_batch(rng.integers(0, 2, (2, bg.k_b * z), dtype=np.uint8),
                               bg, z, rows),    # codewords: weight 0
        ])
        got = native.row_parities(bits, bg, rows, 0, rows)[1]
        assert got.dtype == np.int64
        assert np.array_equal(got, codec._syndrome_weights_numpy(bits, bg, rows)), rows
        assert not got[-2:].any() and got[:3].all()
        dense = _dense_weights(bits, bg, rows)
        if dense is not None:
            assert np.array_equal(got, dense), rows
            dense_checked = True
        # the encoder's ranges: the core, each row alone, the extension rows
        blocks = bits.reshape(len(bits), -1, z)
        for r0, r1 in [(0, 4), *((r, r + 1) for r in range(rows)), (4, rows)]:
            parities, counts = native.row_parities(blocks, bg, rows, r0, r1)
            want, want_counts = codec._row_parities_numpy(blocks, bg, r0, r1)
            assert parities.shape == (len(bits), r1 - r0, z), (rows, r0, r1)
            assert np.array_equal(parities, want), (rows, r0, r1)
            assert np.array_equal(counts, want_counts), (rows, r0, r1)
    assert dense_checked


@pytest.mark.parametrize("bg_id, z, rows", [("BG1", 384, 46), ("BG2", 52, 42)])
def test_encoder_with_kernel_equals_encoder_without(kernel, monkeypatch, bg_id, z, rows):
    bg = get_graph(bg_id, z)
    msgs = np.random.default_rng(z).integers(0, 2, (5, bg.k_b * z), dtype=np.uint8)
    fast = codec.encode_batch(msgs, bg, z, rows)
    monkeypatch.setattr(native, "load", lambda: None)
    assert np.array_equal(fast, codec.encode_batch(msgs, bg, z, rows))


def test_syndrome_weights_rejects_arrays_of_another_graph(kernel):
    bg = get_graph("BG2", 16)
    bits = np.zeros((2, (bg.k_b + 42) * 16), dtype=np.uint8)
    for other, rows in ((get_graph("BG2", 52), 42), (get_graph("BG1", 16), 42), (bg, 41)):
        with pytest.raises(ValueError, match="do not match"):
            native.row_parities(bits, other, rows, 0, rows)
    # the core rows reach parity block k_b + 3, past two used rows' blocks
    with pytest.raises(ValueError, match="do not match"):
        native.row_parities(bits[:, : (bg.k_b + 2) * 16].copy(), bg, 2, 0, 2)
    for bad in (bits.astype(np.int32), bits[:, ::2], np.asfortranarray(bits), bits[0],
                bits.reshape(2, -1, 32)):
        with pytest.raises(ValueError):
            native.row_parities(bad, bg, 42, 0, 42)
    for r0, r1 in ((0, 43), (5, 4), (-1, 4)):
        with pytest.raises(ValueError, match="not within"):
            native.row_parities(bits, bg, 42, r0, r1)
    for field, value in (("cols", bg.k_b + 42), ("cols", -1), ("shifts", 16), ("shifts", -1)):
        arr = getattr(bg, field).copy()
        arr[3] = value
        fake = SimpleNamespace(k_b=bg.k_b, z=16, row_start=bg.row_start,
                               cols=bg.cols, shifts=bg.shifts)
        setattr(fake, field, arr)
        with pytest.raises(ValueError, match="do not match"):
            native.row_parities(bits, fake, 42, 0, 42)


def _numpy_readout(lv, bg, rows):
    """The numpy lines of `_run_schedule`: hard decisions, syndrome counts, margins."""
    hard = (lv < 0).view(np.uint8).reshape(len(lv), -1)
    return hard, codec._syndrome_weights_numpy(hard, bg, rows), np.abs(lv).min(axis=(1, 2))


def _readout_arrays(lv):
    """(hard, weights, margins) for the posteriors `lv`, filled with 7s."""
    return (np.full((len(lv), lv[0].size), 7, dtype=np.uint8),
            np.full(len(lv), 7, dtype=np.int64), np.full(len(lv), 7.0))


@pytest.mark.parametrize("batch, slices", [(5, 1), (5, 2), (5, 3), (1, 1), (1, 3)])
@pytest.mark.parametrize("precision", ["int8", "f32"])
def test_slices_match_the_numpy_oracles(kernel, monkeypatch, batch, slices, precision):
    """Every entry point, run on a forced thread count (three threads sharing
    five codewords, and more threads than codewords, included), equals its
    numpy oracle after every iteration: the pass, the readout that ends it
    and the row parities."""
    bg, rows = get_graph("BG2", 52), 42
    asked = []
    monkeypatch.setattr(native, "slice_count", lambda b, work: asked.append(b) or slices)
    cfg = DecodeConfig(precision=precision)
    _, blocks = make_noisy_blocks(bg, rows, 2.0, batch, seed=60 + batch, mode=precision)
    fast = init_workspace(blocks, bg, cfg)
    oracle = init_workspace(blocks, bg, cfg)
    readout = _readout_arrays(fast.l_v)
    for it in range(8):
        assert layered_iteration(fast, bg, cfg, readout)
        for r in range(rows):
            oracle.layer(r, cfg)
        assert np.array_equal(_bits(fast.l_v), _bits(oracle.l_v)), it
        assert np.array_equal(_bits(fast.messages), _bits(oracle.messages)), it
        want = _numpy_readout(oracle.l_v, bg, rows)
        assert all(np.array_equal(g, w) for g, w in zip(readout, want, strict=True)), it
    blocks_bits = readout[0].reshape(batch, -1, bg.z)
    for r0, r1 in ((0, 4), (3, 4), (4, rows), (0, rows)):
        got = native.row_parities(blocks_bits, bg, rows, r0, r1)
        want = codec._row_parities_numpy(blocks_bits, bg, r0, r1)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True)), (r0, r1)
    assert asked and set(asked) == {batch}


def _copy(ws):
    return dataclasses.replace(ws, l_v=ws.l_v.copy(), messages=ws.messages.copy())


@pytest.mark.parametrize("slices", [1, 2])
@pytest.mark.parametrize("precision", ["int8", "f32"])
def test_a_live_pass_runs_the_live_codewords_alone(kernel, monkeypatch, slices, precision):
    """A pass over a `live` subset leaves the other codewords' posteriors,
    messages and readout rows byte for byte as they were, and gives the live
    ones what a pass over the whole batch gives them, their readout equal to
    the numpy lines."""
    bg, rows, batch = get_graph("BG2", 52), 42, 6
    asked = []
    monkeypatch.setattr(native, "slice_count", lambda b, work: asked.append(b) or slices)
    cfg = DecodeConfig(precision=precision)
    _, blocks = make_noisy_blocks(bg, rows, 1.5, batch, seed=61, mode=precision)
    ws = init_workspace(blocks, bg, cfg)
    subsets = [[0, 1, 2, 3, 4, 5], [1, 2, 4], [0, 5], [3], [2, 3, 4, 5], [0, 2, 4]]
    for it, subset in enumerate(subsets):
        live = np.array(subset, dtype=np.int64)
        retired = np.setdiff1d(np.arange(batch), live)
        before, full = _copy(ws), _copy(ws)
        want = _readout_arrays(full.l_v)
        assert layered_iteration(full, bg, cfg, want)
        readout = _readout_arrays(ws.l_v)
        asked.clear()
        assert layered_iteration(ws, bg, cfg, readout, live)
        assert asked == [len(live)]
        for a, b in ((ws.l_v, before.l_v), (ws.messages, before.messages)):
            assert a[retired].tobytes() == b[retired].tobytes(), it
        for a, b in ((ws.l_v, full.l_v), (ws.messages, full.messages)):
            assert a[live].tobytes() == b[live].tobytes(), it
        assert all((a[retired] == 7).all() for a in readout), it
        lines = _numpy_readout(full.l_v, bg, rows)
        for got, full_got, line in zip(readout, want, lines, strict=True):
            assert np.array_equal(got[live], full_got[live]), it
            assert np.array_equal(got[live], line[live]), it


def _assert_traces_hold_after_settling(res):
    """Each codeword's trace rows past its settle iteration repeat it."""
    cols = np.arange(len(res.iterations))
    after = np.arange(len(res.syndrome_trace))[:, None] >= res.iterations
    for trace in (res.syndrome_trace, res.margin_trace):
        held = trace[res.iterations - 1, cols]
        assert np.array_equal(np.where(after, held, trace), trace)


def _crc_blocks(bg, rows, ebn0, count, seed, mode):
    """make_noisy_blocks with each message's last bits its CRC."""
    params = code_params(bg, bg.z, rows)
    rng = np.random.default_rng(seed)
    msgs = codec.crc_attach(rng.integers(0, 2, (count, params.k - 24), dtype=np.uint8))
    tx = codec.encode_batch(msgs, bg, bg.z, rows)[:, 2 * bg.z:]
    sigma = channel.ebn0_to_sigma(ebn0, params.k / params.n_tx)
    return transmit(tx, sigma, rng, QuantConfig(mode), params)


@pytest.mark.parametrize("early", ["syndrome", "crc"])
@pytest.mark.parametrize("precision", ["int8", "f32"])
def test_retired_codewords_decode_as_without_the_kernel(kernel, monkeypatch, precision, early):
    """Batches whose codewords settle at different iterations retire the
    settled ones from the compiled pass and decode as the numpy rows do,
    which keep iterating them: bits, iterations, success and traces alike,
    each codeword's trace rows past its settle iteration repeating it."""
    bg = get_graph("BG2", 52)
    cfg = DecodeConfig(precision=precision, early_stop=early, max_iter=10)
    inputs = [_crc_blocks(bg, 42, ebn0, 8, seed=90 + i, mode=precision)
              for i, ebn0 in enumerate((1.0, 1.5, 2.5))]
    lives = []
    run = native.run_iteration
    monkeypatch.setattr(native, "run_iteration", lambda *a: lives.append(a[-1]) or run(*a))
    fast = [_decode_digest(blocks, bg, cfg) for blocks in inputs]
    assert any(live is not None and len(live) < 8 for live in lives)
    assert any(len(set(iters[ok])) > 1 for _, iters, ok, *_ in fast)
    for digest in fast:
        _assert_traces_hold_after_settling(DecodeResult(*digest))
    monkeypatch.setattr(native, "load", lambda: None)
    for blocks, got in zip(inputs, fast, strict=True):
        assert _same(got, _decode_digest(blocks, bg, cfg))


@pytest.mark.parametrize("precision", ["int8", "f32"])
def test_decode_is_the_same_in_every_slice_count(kernel, monkeypatch, precision):
    bg = get_graph("BG2", 52)
    digests = {}
    for slices in (1, 2, 3):
        monkeypatch.setattr(native, "slice_count", lambda b, work: slices)
        digests[slices] = [
            _decode_digest(make_noisy_blocks(bg, 42, ebn0, batch, seed=70 + batch,
                                             mode=precision)[1], bg,
                           DecodeConfig(precision=precision, early_stop=early, max_iter=10))
            for ebn0 in (1.0, 2.5) for batch in (1, 5) for early in ("syndrome", "none")
        ]
    for slices in (2, 3):
        assert all(_same(a, b) for a, b in zip(digests[1], digests[slices], strict=True))


def test_slice_count_stays_within_batch_cpus_and_work_floor(kernel, monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    for batch in (1, 2, 3, 64, 1000):
        for work in (0, native.MIN_SLICE_WORK, 10**12):
            got = native.slice_count(batch, work)
            assert 1 <= got <= min(batch, cpus)
            assert got == 1 or work // got >= native.MIN_SLICE_WORK
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert native.slice_count(64, 10**12) == 3
    assert native.slice_count(2, 10**12) == 2
    # the work floor: a small code's call stays on the calling thread
    counts = []
    count = native.slice_count
    monkeypatch.setattr(native, "slice_count", lambda *a: counts.append(count(*a)) or counts[-1])
    bg = get_graph("BG2", 16)
    decode(make_noisy_blocks(bg, 42, 2.0, 2, seed=9)[1], bg, DecodeConfig(max_iter=3))
    assert counts and set(counts) == {1}


def test_pool_workers_share_the_cpus(monkeypatch):
    monkeypatch.setattr(native, "_sharers", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert native.slice_count(64, 10**12) == 4
    native.share_cpus(2)
    assert native.slice_count(64, 10**12) == 2
    native.share_cpus(8)
    assert native.slice_count(64, 10**12) == 1
    monkeypatch.undo()
    # each worker of a sweep's pool gets CPUs // workers threads per call
    seen = []

    class Probe(harness.ProcessPoolExecutor):
        def __init__(self, **kw):
            super().__init__(**kw)
            seen.append(self.submit(native.slice_count, 64, 10**12).result())

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Probe)
    bg = get_graph("BG2", 16)
    run_bler_sweep(bg, 16, 42, DecodeConfig(max_iter=2), [2.0], max_codewords=8, batch=4,
                   workers=2)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert seen == [max(1, cpus // 2)]
    assert native._sharers == 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_no_thread_outlives_a_call(kernel, monkeypatch):
    bg = get_graph("BG2", 52)
    _, blocks = make_noisy_blocks(bg, 42, 2.0, 5, seed=4, mode="f32")
    before = len(os.listdir("/proc/self/task"))
    monkeypatch.setattr(native, "slice_count", lambda b, work: 3)
    decode(blocks, bg, DecodeConfig(precision="f32", max_iter=4, early_stop="none"))
    assert len(os.listdir("/proc/self/task")) == before


def test_packed_and_flooding_decode_as_without_the_kernel(kernel, monkeypatch):
    """The packed engine and flooding read every iteration out through the
    numpy lines, which a compiled scalar decode never runs; all decode as
    they do without the kernel."""
    bg = get_graph("BG2", 52)
    cases = [(decode, DecodeConfig(rho=4, max_iter=8), "int8"),
             (decode_flooding, DecodeConfig(max_iter=8), "int8"),
             (decode_flooding, DecodeConfig(precision="f32", max_iter=8), "f32"),
             (decode, DecodeConfig(max_iter=8), "int8")]
    inputs = [make_noisy_blocks(bg, 42, 2.0, 5, seed=80, mode=mode)[1] for *_, mode in cases]
    reads = []
    syndrome = decoder._syndrome_weights
    monkeypatch.setattr(decoder, "_syndrome_weights", lambda *a: reads.append(1) or syndrome(*a))
    fast = []
    for (fn, cfg, _), blocks in zip(cases, inputs):
        reads.clear()
        fast.append(_decode_digest(blocks, bg, cfg, fn))
        compiled = fn is decode and cfg.rho == 1
        assert len(reads) == (0 if compiled else len(fast[-1][3])), (fn.__name__, cfg)
        _assert_traces_hold_after_settling(DecodeResult(*fast[-1]))
    monkeypatch.setattr(native, "load", lambda: None)
    for (fn, cfg, _), blocks, got in zip(cases, inputs, fast):
        assert _same(got, _decode_digest(blocks, bg, cfg, fn)), (fn.__name__, cfg)


def _numpy_channel(bits, sigma, rng, quant, params):
    """The channel oracle: draw, demap and quantize in numpy."""
    return quantize(demap_llr(bpsk_awgn(bits, sigma, rng), sigma), quant, params)


def _same_blocks(got, want) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# 1e-170: sigma**2 underflows and every LLR is +/-inf; 1e-10: f32 clips at
# F32_MAX; 0.05: every int8 value clips at 127; 40: LLRs near zero
SIGMAS = [1e-170, 1e-10, 0.05, 0.55, 0.7, 0.79, 3.0, 40.0]


@pytest.mark.parametrize("bg_id, z, rows, batch", [("BG1", 384, 46, 3), ("BG2", 52, 42, 5),
                                                   ("BG2", 16, 42, 1)])
@pytest.mark.parametrize("quant", [QuantConfig("int8"), QuantConfig("int8", scale=2.5),
                                   QuantConfig("f32")], ids=["int8", "int8-2.5", "f32"])
@pytest.mark.parametrize("chunk_rows", [None, 1, 2], ids=["whole", "chunk1", "chunk2"])
def test_transmit_equals_the_numpy_chain(kernel, monkeypatch, bg_id, z, rows, batch, quant,
                                         chunk_rows):
    """The compiled channel pass writes the numpy chain's blocks byte for byte
    and leaves the generator where the numpy draw leaves it, drawn in one
    chunk or in chunks of one or two codewords."""
    bg = get_graph(bg_id, z)
    params = code_params(bg, z, rows)
    if chunk_rows is not None:
        monkeypatch.setattr(channel, "DRAW_CHUNK", (chunk_rows + 1) * params.n_tx - 1)
    chunks = -(-batch // (chunk_rows or batch))
    msgs = np.random.default_rng(z + batch).integers(0, 2, (batch, params.k), dtype=np.uint8)
    bits = codec.encode_batch(msgs, bg, z, rows)[:, 2 * z:]      # a strided view
    passes = []
    fused = native.channel_blocks
    monkeypatch.setattr(native, "channel_blocks", lambda *a: passes.append(1) or fused(*a))
    bound = INT8_MAX if quant.mode == "int8" else F32_MAX
    clipped = 0
    for sigma in SIGMAS:
        fast, slow = np.random.default_rng(7), np.random.default_rng(7)
        with np.errstate(divide="ignore"):
            got = transmit(bits, sigma, fast, quant, params)
            want = _numpy_channel(bits, sigma, slow, quant, params)
        assert _same_blocks(got, want), sigma
        assert fast.bit_generator.state == slow.bit_generator.state, sigma
        assert not got[:, : 2 * z].any()
        clipped += int((np.abs(got) == bound).sum())
    assert len(passes) == chunks * len(SIGMAS) and clipped


def test_transmit_fallbacks_give_the_numpy_chain_blocks(kernel, monkeypatch):
    """Bits of every dtype, f16, the noise-free limit and a host without the
    kernel all give the blocks the numpy path gives; uint8, bool and int64
    bits all take the compiled pass where it applies, and the noise-free
    limit reads no draw."""
    bg = get_graph("BG2", 52)
    params = code_params(bg, 52, 42)
    msgs = np.random.default_rng(3).integers(0, 2, (3, params.k), dtype=np.uint8)
    bits = codec.encode_batch(msgs, bg, 52, 42)[:, 2 * 52:]
    cases = [(b, q) for b in (bits, bits.astype(bool), bits.astype(np.int64), bits[1])
             for q in (QuantConfig("int8"), QuantConfig("f16"), QuantConfig("f32"))]
    passes = []
    fused = native.channel_blocks
    monkeypatch.setattr(native, "channel_blocks", lambda *a: passes.append(1) or fused(*a))

    def check(compiled):
        for b, quant in cases:
            passes.clear()
            fast, slow = np.random.default_rng(5), np.random.default_rng(5)
            got = transmit(b, 0.7, fast, quant, params)
            assert _same_blocks(got, _numpy_channel(b, 0.7, slow, quant, params)), quant
            assert fast.bit_generator.state == slow.bit_generator.state
            assert len(passes) == (compiled and quant.mode != "f16"), (b.dtype, quant)
            rng = np.random.default_rng(5)
            quiet = transmit(b, None, rng, quant, params)
            assert _same_blocks(quiet, quantize(bpsk_exact(b) * NOISE_FREE_LLR, quant, params))
            assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state

    check(True)
    monkeypatch.setattr(native, "load", lambda: None)
    noise, out = np.zeros(bits.shape), np.ones((3, params.n_c), dtype=np.int8)
    assert not fused(noise, np.ascontiguousarray(bits), out, 0.7, 8.0, 127)
    assert (out == 1).all()
    check(False)


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "no-kernel"])
def test_transmit_rejects_bits_other_than_0_and_1(request, monkeypatch, compiled):
    """A 2 and a 255 in a uint8 block went through as LLRs -68 and -127, on
    the compiled path, the numpy path and with sigma=None alike."""
    if compiled:
        request.getfixturevalue("kernel")
    else:
        monkeypatch.setattr(native, "load", lambda: None)
    bg = get_graph("BG2", 16)
    params = code_params(bg, 16, 42)
    for dtype, bad in ((np.uint8, 2), (np.uint8, 255), (np.int64, 2), (np.int64, -1)):
        bits = np.zeros((2, params.n_tx), dtype=dtype)
        bits[1, 5] = bad
        for sigma in (None, 0.7):
            for quant in (QuantConfig("int8"), QuantConfig("f32")):
                rng = np.random.default_rng(1)
                with pytest.raises(ValueError, match="0 and 1"):
                    transmit(bits, sigma, rng, quant, params)
                # rejected before the draw
                assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state


def test_transmit_rejects_what_the_numpy_chain_rejects(kernel):
    bg = get_graph("BG2", 16)
    params = code_params(bg, 16, 42)
    bits = np.zeros((2, params.n_tx), dtype=np.uint8)
    for quant in (QuantConfig("int8"), QuantConfig("f32")):
        # sigma * g overflows to inf, and inf / (sigma * sigma = inf) is NaN
        for fn in (transmit, _numpy_channel):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(ValueError, match="NaN"):
                fn(bits, 1e308, np.random.default_rng(1), quant, params)
        with pytest.raises(ValueError, match="expected"):
            transmit(bits[:, 1:], 0.7, 1, quant, params)
    noise, out = np.zeros(bits.shape), np.empty((2, params.n_c), dtype=np.int8)
    for bad in ((noise.astype(np.float32), bits, out), (noise, bits.astype(np.int8), out),
                (noise[:, ::2], bits[:, ::2], out), (noise[0], bits[0], out),
                (noise, bits[:1], out), (noise, bits, out.astype(np.int32)),
                (noise, bits, out[:1]), (noise, bits, out[:, : params.n_tx - 1]),
                (noise, bits, np.asfortranarray(out))):
        with pytest.raises(ValueError, match="C-contiguous"):
            native.channel_blocks(*bad, 0.7, 8.0, 127)
