import numpy as np
import pytest

from ldpclab import codec
from ldpclab.basegraph import code_params
from ldpclab.codec import (
    CRC_POLYS,
    Codeword,
    crc_attach,
    crc_check,
    encode,
    puncture,
    syndrome,
)
from tests.conftest import get_graph
from tests.oracles import crc_schoolbook, encode_by_elimination, syndrome_dense


def test_all_zero_message_encodes_to_zero(bg2_z2):
    cw = encode(np.zeros(20, dtype=np.uint8), bg2_z2, 2, 42)
    assert not cw.bits.any()


def test_encode_is_systematic_with_zero_syndrome(bg2_z2):
    rng = np.random.default_rng(7)
    msg = rng.integers(0, 2, 20, dtype=np.uint8)
    cw = encode(msg, bg2_z2, 2, 42)
    assert np.array_equal(cw.bits[:20], msg)
    assert syndrome(cw.bits, bg2_z2, 2, 42).weight == 0
    assert syndrome_dense(cw.bits, bg2_z2, 2, 42) == 0


def test_encode_matches_elimination_oracle(bg2_z2):
    rng = np.random.default_rng(11)
    msgs = rng.integers(0, 2, size=(25, 20), dtype=np.uint8)
    oracle = encode_by_elimination(bg2_z2, 2, 42, msgs)
    for i in range(len(msgs)):
        cw = encode(msgs[i], bg2_z2, 2, 42)
        assert np.array_equal(cw.bits, oracle[i])


def test_encode_matches_oracle_partial_rows():
    bg = get_graph("BG1", 4)
    rng = np.random.default_rng(3)
    for rows_used in (4, 5, 17, 46):
        msgs = rng.integers(0, 2, size=(5, 88), dtype=np.uint8)
        oracle = encode_by_elimination(bg, 4, rows_used, msgs)
        for i in range(len(msgs)):
            assert np.array_equal(encode(msgs[i], bg, 4, rows_used).bits, oracle[i])


def test_encode_linearity(bg2_z16):
    rng = np.random.default_rng(5)
    a = rng.integers(0, 2, 160, dtype=np.uint8)
    b = rng.integers(0, 2, 160, dtype=np.uint8)
    ca = encode(a, bg2_z16, 16, 42).bits
    cb = encode(b, bg2_z16, 16, 42).bits
    cab = encode(a ^ b, bg2_z16, 16, 42).bits
    assert np.array_equal(ca ^ cb, cab)


def test_encode_length_mismatch(bg2_z2):
    with pytest.raises(ValueError):
        encode(np.zeros(19, dtype=np.uint8), bg2_z2, 2, 42)


def test_crc_roundtrip_random():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.integers(1, 120))
        p = rng.integers(0, 2, n, dtype=np.uint8)
        assert crc_check(crc_attach(p))


def test_crc_detects_single_bit_flips():
    rng = np.random.default_rng(9)
    p = rng.integers(0, 2, 64, dtype=np.uint8)
    coded = crc_attach(p)
    for i in range(len(coded)):
        flipped = coded.copy()
        flipped[i] ^= 1
        assert not crc_check(flipped)


def test_crc_empty_payload_is_all_zero():
    out = crc_attach(np.zeros(0, dtype=np.uint8))
    assert len(out) == 24
    assert not out.any()


@pytest.mark.parametrize("kind", sorted(CRC_POLYS))
def test_crc_matches_long_division_oracle(kind):
    length, poly = CRC_POLYS[kind]
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = rng.integers(0, 2, int(rng.integers(1, 200)), dtype=np.uint8)
        got = crc_attach(p, kind)[-length:]
        assert np.array_equal(got, crc_schoolbook(p, length, poly))


def test_crc_payload_too_long(bg2_z2):
    with pytest.raises(ValueError, match="exceeds"):
        crc_attach(np.zeros(10, dtype=np.uint8), k=20)


def test_crc_unknown_kind():
    with pytest.raises(ValueError):
        crc_attach(np.zeros(4, dtype=np.uint8), kind="crc32")
    with pytest.raises(ValueError):
        crc_check(np.zeros((2, 40), dtype=np.uint8), kind="crc32")


@pytest.mark.parametrize("kind", sorted(CRC_POLYS))
def test_crc_batch_matches_long_division_oracle(kind):
    length, poly = CRC_POLYS[kind]
    rng = np.random.default_rng(21)
    for n in range(201):                  # whole bytes and every remainder mod 8
        batch = (0, 1, 37)[n % 3]
        p = rng.integers(0, 2, (batch, n), dtype=np.uint8)
        coded = crc_attach(p, kind)
        assert coded.shape == (batch, n + length)
        assert np.array_equal(coded[:, :n], p)
        for row, parity in zip(p, coded[:, n:]):
            assert np.array_equal(parity, crc_schoolbook(row, length, poly)), n
        ok = crc_check(coded, kind)
        assert ok.shape == (batch,) and ok.all()
        if batch == 1:
            assert np.array_equal(crc_attach(p[0], kind), coded[0])
            assert crc_check(coded[0], kind) is True


@pytest.mark.parametrize("kind", sorted(CRC_POLYS))
def test_crc_check_flags_exactly_the_flipped_rows(kind):
    rng = np.random.default_rng(5)
    coded = crc_attach(rng.integers(0, 2, (37, 150), dtype=np.uint8), kind)
    flipped = rng.random(37) < 0.5
    for i in np.flatnonzero(flipped):
        coded[i, rng.integers(coded.shape[1])] ^= 1
    assert np.array_equal(crc_check(coded, kind), ~flipped)


def test_crc_rows_shorter_than_the_crc_fail():
    assert crc_check(np.zeros(23, dtype=np.uint8)) is False
    got = crc_check(np.zeros((3, 15), dtype=np.uint8), "crc16")
    assert got.shape == (3,) and not got.any()


def test_crc_batch_bounds_and_shape():
    with pytest.raises(ValueError, match="exceeds"):
        crc_attach(np.zeros((3, 10), dtype=np.uint8), k=33)
    assert crc_attach(np.zeros((3, 9), dtype=np.uint8), k=33).shape == (3, 33)
    with pytest.raises(ValueError, match="shape"):
        crc_attach(np.zeros((2, 2, 8), dtype=np.uint8))
    with pytest.raises(ValueError, match="0 and 1"):
        crc_check(np.full((2, 30), 2, dtype=np.uint8))


def test_bits_a_uint8_cast_would_wrap_raise(bg2_z16):
    # an int64 256 was cast to uint8 before the check and went through as a 0
    params = code_params(bg2_z16, 16, 42)
    message = np.zeros(params.k, dtype=np.int64)
    message[3] = 256
    word = np.zeros(params.n_c, dtype=np.int64)
    word[5] = 256
    for call in (lambda: encode(message, bg2_z16, 16, 42),
                 lambda: codec.encode_batch(message[None], bg2_z16, 16, 42),
                 lambda: crc_attach(message[:100]), lambda: crc_check(message[:100]),
                 lambda: syndrome(word, bg2_z16, 16, 42)):
        with pytest.raises(ValueError, match="0 and 1"):
            call()


def test_crc_one_table_per_kind_serves_attach_and_check(monkeypatch):
    monkeypatch.setattr(codec, "_CRC_TABLES", {})
    k = 8448
    coded = crc_attach(np.ones((2, k - 24), dtype=np.uint8), "crc24a", k=k)
    table = codec._CRC_TABLES["crc24a"]
    assert table.shape == (k // 8, 256)
    assert crc_check(coded, "crc24a").all()
    assert list(codec._CRC_TABLES) == ["crc24a"] and codec._CRC_TABLES["crc24a"] is table


@pytest.mark.parametrize("kind", sorted(CRC_POLYS))
def test_crc_streams_longer_than_the_table_fold_in_chunks(kind, monkeypatch):
    length, poly = CRC_POLYS[kind]
    monkeypatch.setattr(codec, "_CRC_TABLES", {})
    monkeypatch.setattr(codec, "_CRC_TABLE_MAX_BYTES", 5)
    rng = np.random.default_rng(8)
    for n in (0, 1, 17, 40, 41, 79, 200):
        p = rng.integers(0, 2, (4, n), dtype=np.uint8)
        coded = crc_attach(p, kind)
        for row, parity in zip(p, coded[:, n:]):
            assert np.array_equal(parity, crc_schoolbook(row, length, poly)), n
        assert crc_check(coded, kind).all()
    assert codec._CRC_TABLES[kind].shape == (5, 256)


def test_puncture_drops_first_two_blocks(bg2_z2):
    rng = np.random.default_rng(17)
    cw = encode(rng.integers(0, 2, 20, dtype=np.uint8), bg2_z2, 2, 42)
    tx = puncture(cw)
    assert len(tx) == 100
    assert np.array_equal(tx, cw.bits[4:])
    assert tx[0] == cw.bits[4]


def test_syndrome_counts_by_column_weight(bg2_z16):
    rng = np.random.default_rng(23)
    cw = encode(rng.integers(0, 2, 160, dtype=np.uint8), bg2_z16, 16, 42)
    for col in (0, 5, 20, 51):
        bits = cw.bits.copy()
        bits[col * 16 + 3] ^= 1
        # the flip breaks exactly the checks of the touched base column
        assert syndrome(bits, bg2_z16, 16, 42).weight == np.sum(bg2_z16.cols == col)


def test_syndrome_matches_dense_oracle(bg2_z2):
    rng = np.random.default_rng(29)
    for _ in range(20):
        bits = rng.integers(0, 2, 104, dtype=np.uint8)
        assert syndrome(bits, bg2_z2, 2, 42).weight == syndrome_dense(bits, bg2_z2, 2, 42)


def test_syndrome_length_check(bg2_z2):
    with pytest.raises(ValueError):
        syndrome(np.zeros(100, dtype=np.uint8), bg2_z2, 2, 42)


def test_codeword_dataclass_fields(bg2_z2):
    cw = encode(np.zeros(20, dtype=np.uint8), bg2_z2, 2, 42)
    assert isinstance(cw, Codeword)
    assert cw.params.n_c == 104
    s = syndrome(cw.bits, bg2_z2, 2, 42)
    assert s.satisfied and s.weight == 0


def test_encode_batch_matches_single_encode(bg2_z16):
    from ldpclab.codec import encode_batch
    rng = np.random.default_rng(31)
    msgs = rng.integers(0, 2, size=(17, 160), dtype=np.uint8)
    batch = encode_batch(msgs, bg2_z16, 16, 42)
    for i in range(len(msgs)):
        assert np.array_equal(batch[i], encode(msgs[i], bg2_z16, 16, 42).bits)


def test_encode_batch_shape_validation(bg2_z16):
    from ldpclab.codec import encode_batch
    with pytest.raises(ValueError):
        encode_batch(np.zeros((2, 159), dtype=np.uint8), bg2_z16, 16, 42)
