import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpclab.kernels import (
    PackedAccumulator,
    PackedWord,
    ValueAccumulator,
    acc_merge,
    add,
    apply_lut_u8,
    ord_vec,
    pack_u8,
    pack_values,
    packed_edge_acc,
    packed_identity,
    sat_add,
    sat_sub,
    tree_reduce,
    unpack_u8,
    value_edge_acc,
    value_identity,
    vcmplt_u8,
)
from tests.oracles import two_smallest

lanes_u8 = st.lists(st.integers(0, 255), min_size=4, max_size=4)
lanes_sm = st.lists(st.integers(-127, 127), min_size=4, max_size=4)


@settings(max_examples=300, deadline=None)
@given(lanes_u8)
def test_pack_unpack_u8_roundtrip(lanes):
    word = pack_u8(np.array(lanes, dtype=np.uint8))
    assert unpack_u8(word).tolist() == lanes


def test_ord_vec_example():
    a = pack_u8(np.array([1, 5, 3, 7], dtype=np.uint8))
    b = pack_u8(np.array([2, 4, 3, 6], dtype=np.uint8))
    lo, hi = ord_vec(a, b)
    assert unpack_u8(lo).tolist() == [1, 4, 3, 6]
    assert unpack_u8(hi).tolist() == [2, 5, 3, 7]


def test_ord_vec_idempotent():
    a = pack_u8(np.array([9, 0, 255, 127], dtype=np.uint8))
    lo, hi = ord_vec(a, a)
    assert lo == a and hi == a


def test_ord_vec_u8_exhaustive_against_scalar():
    """All 2^16 (a_lane, b_lane) byte pairs, packed four pairs per word."""
    a_lane, b_lane = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    a_flat = a_lane.reshape(-1, 4).astype(np.uint8)
    b_flat = b_lane.reshape(-1, 4).astype(np.uint8)
    lo, hi = ord_vec(pack_u8(a_flat), pack_u8(b_flat))
    assert np.array_equal(unpack_u8(lo), np.minimum(a_flat, b_flat))
    assert np.array_equal(unpack_u8(hi), np.maximum(a_flat, b_flat))


def test_vcmplt_u8_spot():
    a = pack_u8(np.array([0, 200, 127, 5], dtype=np.uint8))
    b = pack_u8(np.array([1, 100, 127, 250], dtype=np.uint8))
    mask = unpack_u8(vcmplt_u8(a, b))
    assert mask.tolist() == [0xFF, 0, 0, 0xFF]


def test_sat_sub_extremes():
    a = pack_values(np.array([127, -127, 0, 50]))
    b = pack_values(np.array([-127, 127, 0, 60]))
    out = sat_sub(a, b)
    assert out.values().tolist() == [127, -127, 0, -10]


def test_sat_sub_identity():
    a = pack_values(np.array([13, -44, 0, 127]))
    zero = pack_values(np.zeros(4, dtype=np.int32))
    assert sat_sub(a, zero).values().tolist() == [13, -44, 0, 127]


def test_sat_ops_random_against_widened_oracle():
    rng = np.random.default_rng(43)
    n = 100_000
    a = rng.integers(-127, 128, size=(n, 4)).astype(np.int32)
    b = rng.integers(-127, 128, size=(n, 4)).astype(np.int32)
    pa, pb = pack_values(a), pack_values(b)
    got_sub = sat_sub(pa, pb).values()
    got_add = sat_add(pa, pb).values()
    assert np.array_equal(got_sub, np.clip(a - b, -127, 127))
    assert np.array_equal(got_add, np.clip(a + b, -127, 127))
    # the unsaturated add takes magnitudes up to 254 (the decoder's extrinsic)
    # wherever the exact sum fits a lane; opposite-sign lanes must not carry
    c = rng.integers(-254, 255, size=(n, 4))
    d = rng.integers(-127, 128, size=(n, 4))
    d = np.where((np.sign(c) == np.sign(d)) & (np.abs(c + d) > 255), -d, d)
    pc, pd = (PackedWord(pack_u8(np.abs(v)), pack_u8(np.where(v < 0, 0xFF, 0)))
              for v in (c, d))
    assert np.array_equal(add(pc, pd).values(), c + d)


@settings(max_examples=300, deadline=None)
@given(lanes_sm, lanes_sm)
def test_sat_sub_property(la, lb):
    a = np.array(la, dtype=np.int32)
    b = np.array(lb, dtype=np.int32)
    got = sat_sub(pack_values(a), pack_values(b)).values()
    assert np.array_equal(got, np.clip(a - b, -127, 127))


def test_canonical_zero_sign():
    a = pack_values(np.array([5, -5, 0, 0]))
    b = pack_values(np.array([5, -5, 0, 0]))
    out = sat_sub(a, b)
    assert not unpack_u8(out.mag).any()
    assert not unpack_u8(out.sign).any()   # -0 never stored


def _value_acc(m1, m2, neg):
    return ValueAccumulator(
        m1=np.array([m1]), m2=np.array([m2]),
        s_vc=np.array([neg]), tag=np.array([0]),
    )


def test_acc_merge_example():
    x = _value_acc(1, 3, False)
    y = _value_acc(2, 2, True)
    z = acc_merge(x, y)
    assert (z.m1[0], z.m2[0], bool(z.s_vc[0])) == (1, 2, True)
    # edge accumulators are views into the decoder's arrays: never written
    assert (x.m1[0], x.m2[0], bool(x.s_vc[0])) == (1, 3, False)
    assert (y.m1[0], y.m2[0], bool(y.s_vc[0])) == (2, 2, True)


def test_acc_merge_identity_element():
    x = _value_acc(7, 9, True)
    z = acc_merge(x, value_identity(127))
    assert (z.m1[0], z.m2[0], bool(z.s_vc[0]), z.tag[0]) == (7, 9, True, 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 127), min_size=2, max_size=12))
def test_acc_merge_matches_two_smallest_scan(mags):
    vals = np.array(mags)
    acc = value_identity(127)
    for j, m in enumerate(vals):
        acc = acc_merge(acc, value_edge_acc(np.array([m]), np.array([False]), j, 127))
    m1, m2, arg = two_smallest(vals)
    assert acc.m1[0] == m1
    assert acc.m2[0] == m2
    if m1 < 127 and m1 != m2:
        assert acc.tag[0] == arg       # unique minimum pins the tag
    else:
        assert acc.m1[0] == acc.m2[0]  # ties make outputs tag-independent


def test_acc_merge_m1_le_m2_preserved():
    rng = np.random.default_rng(47)
    for _ in range(200):
        a = _value_acc(*sorted(rng.integers(0, 128, 2)), bool(rng.integers(2)))
        b = _value_acc(*sorted(rng.integers(0, 128, 2)), bool(rng.integers(2)))
        z = acc_merge(a, b)
        assert z.m1[0] <= z.m2[0]


def test_acc_merge_associative_commutative_values():
    rng = np.random.default_rng(53)
    for _ in range(500):
        accs = [_value_acc(*sorted(rng.integers(0, 128, 2)), bool(rng.integers(2)))
                for _ in range(3)]
        ab_c = acc_merge(acc_merge(accs[0], accs[1]), accs[2])
        a_bc = acc_merge(accs[0], acc_merge(accs[1], accs[2]))
        ba_c = acc_merge(acc_merge(accs[1], accs[0]), accs[2])
        for lhs, rhs in ((ab_c, a_bc), (ab_c, ba_c)):
            assert lhs.m1[0] == rhs.m1[0]
            assert lhs.m2[0] == rhs.m2[0]
            assert lhs.s_vc[0] == rhs.s_vc[0]
            # tags may differ only on m1 ties, where outputs coincide
            if lhs.tag[0] != rhs.tag[0]:
                assert lhs.m1[0] == lhs.m2[0]


def test_tree_reduce_example():
    partials = []
    for m1 in (5, 2, 9, 2):
        partials.append(_value_acc(m1, 127, False))
    out = tree_reduce(partials)
    assert all(o.m1[0] == 2 for o in out)
    assert all(o.m2[0] == 2 for o in out)


def test_tree_reduce_identical_partials_unchanged():
    # merge fixed points: partials equal to the identity, or with m1 == m2
    # and positive signs, pass through the butterfly unchanged
    out = tree_reduce([value_identity(127), value_identity(127)])
    for o in out:
        assert (int(o.m1), int(o.m2), bool(o.s_vc)) == (127, 127, False)
    out = tree_reduce([_value_acc(4, 4, False), _value_acc(4, 4, False)])
    for o in out:
        assert (o.m1[0], o.m2[0], bool(o.s_vc[0])) == (4, 4, False)
    # disjoint-partition algebra: two partitions each holding a 4 pool to
    # (m1, m2) = (4, 4), per the merge post-condition
    out = tree_reduce([_value_acc(4, 6, False), _value_acc(4, 6, False)])
    for o in out:
        assert (o.m1[0], o.m2[0]) == (4, 4)


def test_tree_reduce_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        tree_reduce([_value_acc(1, 2, False)] * 3)


@pytest.mark.parametrize("alpha", [2, 4, 8, 16])
def test_tree_reduce_equals_sequential_fold(alpha):
    rng = np.random.default_rng(59)
    for _ in range(200):
        partials = [
            _value_acc(*sorted(rng.integers(0, 128, 2)), bool(rng.integers(2)))
            for _ in range(alpha)
        ]
        fold = partials[0]
        for p in partials[1:]:
            fold = acc_merge(fold, p)
        out = tree_reduce(partials)
        for o in out:
            assert o.m1[0] == fold.m1[0]
            assert o.m2[0] == fold.m2[0]
            assert o.s_vc[0] == fold.s_vc[0]


def test_packed_accumulator_matches_value_accumulator():
    """The SWAR merge and the scalar merge implement the same algebra."""
    rng = np.random.default_rng(61)
    n = 1000
    mags = rng.integers(0, 128, size=(2, n, 4)).astype(np.uint8)
    signs = rng.integers(0, 2, size=(2, n, 4)).astype(bool)
    packed = []
    values = []
    for i in range(2):
        m = pack_u8(mags[i])
        s = pack_u8(np.where(signs[i], 0xFF, 0).astype(np.uint8))
        packed.append(packed_edge_acc(m, s, i))
        values.append(value_edge_acc(mags[i].astype(np.int32), signs[i], i, 127))
    zp = acc_merge(packed[0], packed[1])
    zv = acc_merge(values[0], values[1])
    assert np.array_equal(unpack_u8(zp.m1).astype(np.int32), zv.m1)
    assert np.array_equal(unpack_u8(zp.m2).astype(np.int32), zv.m2)
    assert np.array_equal(unpack_u8(zp.s_vc) != 0, zv.s_vc)
    assert np.array_equal(unpack_u8(zp.tag).astype(np.int64), zv.tag)


def test_packed_identity_properties():
    ident = packed_identity()
    assert unpack_u8(ident.m1).tolist() == [127] * 4
    assert unpack_u8(ident.m2).tolist() == [127] * 4
    assert not unpack_u8(ident.s_vc).any()


def test_apply_lut_scales_each_lane():
    lut = np.floor(0.75 * np.arange(256)).astype(np.uint32)
    w = pack_u8(np.array([0, 1, 100, 127], dtype=np.uint8))
    out = unpack_u8(apply_lut_u8(w, lut))
    assert out.tolist() == [0, 0, 75, 95]


def test_pack_values_rejects_overflow():
    with pytest.raises(ValueError):
        pack_values(np.array([128, 0, 0, 0]))
