"""The compiled layer kernel against its numpy oracle, and the kernel's loader."""

import os
import shutil
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest

from ldpclab import codec, native
from ldpclab.decoder import (
    DecodeConfig,
    EarlyStop,
    ScalarWorkspace,
    Strategy,
    decode,
    init_workspace,
    layered_iteration,
)
from tests.conftest import get_graph, make_noisy_blocks
from tests.oracles import syndrome_dense

CODES = [("BG2", 16, 42), ("BG2", 52, 42), ("BG1", 384, 46)]
STRATEGIES = [DecodeConfig(), DecodeConfig(strategy=Strategy.LOW_LATENCY, alpha=4)]
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
    for cfg in STRATEGIES:
        cfg = DecodeConfig(precision=precision, strategy=cfg.strategy, alpha=cfg.alpha)
        for i, ebn0 in enumerate(SNRS_DB):
            _, blocks = make_noisy_blocks(bg, rows, ebn0, 3 if z < 384 else 2,
                                          seed=20 + i, mode=precision)
            fast = init_workspace(blocks, bg, cfg)
            oracle = init_workspace(blocks, bg, cfg)
            for it in range(8):
                layered_iteration(fast, bg, cfg)
                for r in range(oracle.rows_used):
                    oracle.layer(r, cfg)
                where = f"{cfg.strategy.value} {ebn0} dB iteration {it + 1}"
                assert np.array_equal(_bits(fast.l_v), _bits(oracle.l_v)), where
                assert np.array_equal(_bits(fast.messages), _bits(oracle.messages)), where
    assert ran and all(ran)               # every pass above ran the kernel


def _decode_digest(blocks, bg, cfg):
    res = decode(blocks, bg, cfg)
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
        for cfg in STRATEGIES:
            cfg = DecodeConfig(precision=precision, strategy=cfg.strategy, alpha=cfg.alpha,
                               early_stop=early, max_iter=10)
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
