import numpy as np
import pytest

from ldpclab.basegraph import code_params
from ldpclab.codec import (
    CRC_POLYS,
    Codeword,
    crc_attach,
    crc_check,
    depuncture,
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


def test_puncture_drops_first_two_blocks(bg2_z2):
    rng = np.random.default_rng(17)
    cw = encode(rng.integers(0, 2, 20, dtype=np.uint8), bg2_z2, 2, 42)
    tx = puncture(cw)
    assert len(tx) == 100
    assert np.array_equal(tx, cw.bits[4:])
    assert tx[0] == cw.bits[4]


def test_depuncture_restores_positions(bg2_z2):
    rng = np.random.default_rng(19)
    cw = encode(rng.integers(0, 2, 20, dtype=np.uint8), bg2_z2, 2, 42)
    soft = 1.0 - 2.0 * puncture(cw).astype(np.float64)
    restored = depuncture(soft, 2)
    assert len(restored) == 104
    assert not restored[:4].any()          # erasures
    assert np.array_equal(restored[4:], soft)


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
