"""The compiled kernels against their numpy oracles, and the kernels' loader."""

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
    for i, ebn0 in enumerate(SNRS_DB):
        _, blocks = make_noisy_blocks(bg, rows, ebn0, 3 if z < 384 else 2,
                                      seed=20 + i, mode=precision)
        fast = init_workspace(blocks, bg, cfg)
        oracle = init_workspace(blocks, bg, cfg)
        for it in range(8):
            layered_iteration(fast, bg, cfg)
            for r in range(oracle.rows_used):
                oracle.layer(r, cfg)
            where = f"{ebn0} dB iteration {it + 1}"
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
        with pytest.raises(ValueError, match="do not match"):
            _compiled_readout(ws.l_v, other, rows)
    hard, weights, margins = _compiled_readout(ws.l_v, bg, 42)
    for args in ((hard[:, 1:], weights, margins), (hard.view(bool), weights, margins),
                 (hard, weights[:1], margins), (hard, weights, margins.astype(np.float32)),
                 (hard, margins, weights), (hard, weights, np.zeros((2, 2))[:, 0])):
        with pytest.raises(ValueError, match="do not match"):
            native.readout(ws.l_v, bg, 42, *args)
    # f16 and strided posteriors take the numpy lines
    assert not native.readout(ws.l_v.astype(np.float16), bg, 42, hard, weights, margins)
    assert not native.readout(ws.l_v[::-1], bg, 42, hard, weights, margins)


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


def _compiled_readout(lv, bg, rows):
    hard = np.empty((len(lv), lv[0].size), dtype=np.uint8)
    weights, margins = np.empty(len(lv), dtype=np.int64), np.empty(len(lv))
    assert native.readout(lv, bg, rows, hard, weights, margins)
    return hard, weights, margins


@pytest.mark.parametrize("batch, slices", [(5, 1), (5, 2), (5, 3), (1, 1), (1, 3)])
@pytest.mark.parametrize("precision", ["int8", "f32"])
def test_slices_match_the_numpy_oracles(kernel, monkeypatch, batch, slices, precision):
    """Every entry point, run on a forced thread count (three threads sharing
    five codewords, and more threads than codewords, included), equals its
    numpy oracle after every iteration."""
    bg, rows = get_graph("BG2", 52), 42
    asked = []
    monkeypatch.setattr(native, "slice_count", lambda b, work: asked.append(b) or slices)
    cfg = DecodeConfig(precision=precision)
    _, blocks = make_noisy_blocks(bg, rows, 2.0, batch, seed=60 + batch, mode=precision)
    fast = init_workspace(blocks, bg, cfg)
    oracle = init_workspace(blocks, bg, cfg)
    for it in range(8):
        layered_iteration(fast, bg, cfg)
        for r in range(rows):
            oracle.layer(r, cfg)
        assert np.array_equal(_bits(fast.l_v), _bits(oracle.l_v)), it
        assert np.array_equal(_bits(fast.messages), _bits(oracle.messages)), it
        got, want = _compiled_readout(fast.l_v, bg, rows), _numpy_readout(oracle.l_v, bg, rows)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True)), it
    blocks_bits = got[0].reshape(batch, -1, bg.z)
    for r0, r1 in ((0, 4), (3, 4), (4, rows), (0, rows)):
        got = native.row_parities(blocks_bits, bg, rows, r0, r1)
        want = codec._row_parities_numpy(blocks_bits, bg, r0, r1)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True)), (r0, r1)
    assert asked and set(asked) == {batch}


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
    """Flooding's int32 and f32 posteriors take the compiled readout, the
    packed engine's unpacked lanes (a strided view) the numpy lines; both
    decode as they do without the kernel."""
    bg = get_graph("BG2", 52)
    cases = [(decode, DecodeConfig(rho=4, max_iter=8), "int8"),
             (decode_flooding, DecodeConfig(max_iter=8), "int8"),
             (decode_flooding, DecodeConfig(precision="f32", max_iter=8), "f32")]
    inputs = [make_noisy_blocks(bg, 42, 2.0, 5, seed=80, mode=mode)[1] for *_, mode in cases]
    calls = []
    readout = native.readout
    monkeypatch.setattr(native, "readout", lambda *a: calls.append(readout(*a)) or calls[-1])
    fast = []
    for (fn, cfg, _), blocks in zip(cases, inputs):
        calls.clear()
        fast.append(_decode_digest(blocks, bg, cfg, fn))
        assert calls and set(calls) == {fn is decode_flooding}, (fn.__name__, cfg)
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
    """f16, bits of another dtype, the noise-free limit and a host without the
    kernel all give the blocks the numpy path gives; the noise-free limit
    reads no draw."""
    bg = get_graph("BG2", 52)
    params = code_params(bg, 52, 42)
    msgs = np.random.default_rng(3).integers(0, 2, (3, params.k), dtype=np.uint8)
    bits = codec.encode_batch(msgs, bg, 52, 42)[:, 2 * 52:]
    cases = [(b, q) for b in (bits, bits.astype(bool), bits.astype(np.int64), bits[1])
             for q in (QuantConfig("int8"), QuantConfig("f16"), QuantConfig("f32"))]

    def check():
        for b, quant in cases:
            fast, slow = np.random.default_rng(5), np.random.default_rng(5)
            got = transmit(b, 0.7, fast, quant, params)
            assert _same_blocks(got, _numpy_channel(b, 0.7, slow, quant, params)), quant
            assert fast.bit_generator.state == slow.bit_generator.state
            rng = np.random.default_rng(5)
            quiet = transmit(b, None, rng, quant, params)
            assert _same_blocks(quiet, quantize(bpsk_exact(b) * NOISE_FREE_LLR, quant, params))
            assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state

    check()
    monkeypatch.setattr(native, "load", lambda: None)
    noise, out = np.zeros(bits.shape), np.ones((3, params.n_c), dtype=np.int8)
    assert not native.channel_blocks(noise, np.ascontiguousarray(bits), out, 0.7, 8.0, 127)
    assert (out == 1).all()
    check()


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
