import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpclab.kernels import (
    PackedAccumulator,
    PackedWord,
    acc_merge,
    add,
    apply_lut_u8,
    beta_lut,
    ord_vec,
    pack_u8,
    pack_values,
    packed_edge_acc,
    packed_identity,
    sat_add,
    sat_sub,
    tree_reduce,
    unpack_u8,
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


def _packed_acc(m1, m2, neg, tag=0):
    """Accumulator words from per-lane values; a scalar fills all four lanes."""
    m1, m2, neg, tag, _ = np.broadcast_arrays(m1, m2, neg, tag, np.zeros((1, 4)))
    return PackedAccumulator(
        m1=pack_u8(m1.astype(np.uint8)), m2=pack_u8(m2.astype(np.uint8)),
        s_vc=pack_u8(np.where(neg, 0xFF, 0).astype(np.uint8)),
        tag=pack_u8(tag.astype(np.uint8)),
    )


def _lanes(acc):
    """(m1, m2, negative, tag) per lane, each of shape (..., 4)."""
    return (unpack_u8(acc.m1).astype(np.int64), unpack_u8(acc.m2).astype(np.int64),
            unpack_u8(acc.s_vc) != 0, unpack_u8(acc.tag).astype(np.int64))


def test_acc_merge_example():
    x = _packed_acc([1, 4, 0, 127], [3, 4, 9, 127], [False, True, False, True], tag=0)
    y = _packed_acc([2, 3, 0, 5], [2, 8, 0, 6], [True, True, False, False], tag=1)
    before = [f.copy() for acc in (x, y) for f in _lanes(acc)]
    m1, m2, neg, tag = _lanes(acc_merge(x, y))
    assert m1.tolist() == [[1, 3, 0, 5]]
    assert m2.tolist() == [[2, 4, 0, 6]]
    assert neg.tolist() == [[True, False, False, True]]
    assert tag.tolist() == [[0, 1, 0, 1]]          # an m1 tie keeps x's tag
    # edge accumulators are views into the decoder's arrays: never written
    after = [f for acc in (x, y) for f in _lanes(acc)]
    assert all(np.array_equal(b, a) for b, a in zip(before, after))


def test_acc_merge_identity_element():
    x = _packed_acc([7, 0, 127, 3], [9, 0, 127, 3], [True, False, True, False], tag=2)
    want = _lanes(x)
    for got in (_lanes(acc_merge(x, packed_identity())), _lanes(acc_merge(packed_identity(), x))):
        for g, w in zip(got[:3], want[:3]):
            assert np.array_equal(g, w)
    assert np.array_equal(_lanes(acc_merge(x, packed_identity()))[3], want[3])


@settings(max_examples=300, deadline=None)
@given(st.lists(lanes_sm, min_size=2, max_size=12))
def test_acc_merge_matches_two_smallest_scan(rows):
    vals = np.array(rows)                          # (w, 4) signed lane values
    acc = packed_identity()
    for j, v in enumerate(vals):
        acc = acc_merge(acc, packed_edge_acc(pack_u8(np.abs(v).astype(np.uint8)),
                                             pack_u8(np.where(v < 0, 0xFF, 0).astype(np.uint8)),
                                             j))
    m1, m2, neg, tag = _lanes(acc)
    for lane in range(4):
        r1, r2, arg = two_smallest(np.abs(vals[:, lane]))
        assert (m1[lane], m2[lane]) == (r1, r2)
        assert neg[lane] == ((vals[:, lane] < 0).sum() % 2 == 1)
        if r1 < 127 and r1 != r2:
            assert tag[lane] == arg        # unique minimum pins the tag
        else:
            assert m1[lane] == m2[lane]    # ties make outputs tag-independent


def _random_accs(rng, count, n):
    """`count` accumulators of n words, each lane a random m1 <= m2 pair."""
    pairs = np.sort(rng.integers(0, 128, size=(count, 2, n, 4)), axis=1)
    neg = rng.integers(0, 2, size=(count, n, 4), dtype=bool)
    return [_packed_acc(pairs[i, 0], pairs[i, 1], neg[i], tag=i) for i in range(count)]


def test_acc_merge_m1_le_m2_preserved():
    a, b = _random_accs(np.random.default_rng(47), 2, 200)
    m1, m2, _, _ = _lanes(acc_merge(a, b))
    assert (m1 <= m2).all()


def test_acc_merge_associative_commutative_values():
    accs = _random_accs(np.random.default_rng(53), 3, 500)
    ab_c = _lanes(acc_merge(acc_merge(accs[0], accs[1]), accs[2]))
    for other in (acc_merge(accs[0], acc_merge(accs[1], accs[2])),
                  acc_merge(acc_merge(accs[1], accs[0]), accs[2])):
        rhs = _lanes(other)
        for lhs_f, rhs_f in zip(ab_c[:3], rhs[:3]):
            assert np.array_equal(lhs_f, rhs_f)
        # tags may differ only on m1 ties, where outputs coincide
        differ = ab_c[3] != rhs[3]
        assert np.array_equal(ab_c[0][differ], ab_c[1][differ])


def test_tree_reduce_example():
    out = tree_reduce([_packed_acc(m1, 127, False) for m1 in (5, 2, 9, 2)])
    for o in out:
        m1, m2, _, _ = _lanes(o)
        assert (m1 == 2).all() and (m2 == 2).all()


def test_tree_reduce_identical_partials_unchanged():
    # merge fixed points: partials equal to the identity, or with m1 == m2
    # and positive signs, pass through the butterfly unchanged
    for o in tree_reduce([packed_identity(), packed_identity()]):
        m1, m2, neg, _ = _lanes(o)
        assert (m1 == 127).all() and (m2 == 127).all() and not neg.any()
    for o in tree_reduce([_packed_acc(4, 4, False), _packed_acc(4, 4, False)]):
        m1, m2, neg, _ = _lanes(o)
        assert (m1 == 4).all() and (m2 == 4).all() and not neg.any()
    # disjoint-partition algebra: two partitions each holding a 4 pool to
    # (m1, m2) = (4, 4), per the merge post-condition
    for o in tree_reduce([_packed_acc(4, 6, False), _packed_acc(4, 6, False)]):
        m1, m2, _, _ = _lanes(o)
        assert (m1 == 4).all() and (m2 == 4).all()


def test_tree_reduce_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        tree_reduce([_packed_acc(1, 2, False)] * 3)


@pytest.mark.parametrize("alpha", [2, 4, 8, 16])
def test_tree_reduce_equals_sequential_fold(alpha):
    partials = _random_accs(np.random.default_rng(59), alpha, 200)
    fold = partials[0]
    for p in partials[1:]:
        fold = acc_merge(fold, p)
    for o in tree_reduce(partials):
        assert np.array_equal(o.m1, fold.m1)
        assert np.array_equal(o.m2, fold.m2)
        assert np.array_equal(o.s_vc, fold.s_vc)


def test_packed_accumulator_matches_partition_oracle():
    """The in-order fold of packed edges gives every lane's two smallest
    magnitudes, the first argmin and the sign parity."""
    rng = np.random.default_rng(61)
    w, n = 7, 1000
    mags = rng.integers(0, 128, size=(w, n, 4))
    signs = rng.integers(0, 2, size=(w, n, 4), dtype=bool)
    acc = packed_identity()
    for j in range(w):
        acc = acc_merge(acc, packed_edge_acc(pack_u8(mags[j].astype(np.uint8)),
                                             pack_u8(np.where(signs[j], 0xFF, 0).astype(np.uint8)),
                                             j))
    m1, m2, neg, tag = _lanes(acc)
    part = np.partition(mags, 1, axis=0)
    assert np.array_equal(m1, part[0])
    assert np.array_equal(m2, part[1])
    assert np.array_equal(neg, np.bitwise_xor.reduce(signs, axis=0))
    # the fold's strict < keeps the first argmin; a lane whose every
    # magnitude saturates keeps the identity's tag, with m1 == m2
    below = m1 < 127
    assert np.array_equal(tag[below], np.argmin(mags, axis=0)[below])


def test_packed_identity_properties():
    ident = packed_identity()
    assert unpack_u8(ident.m1).tolist() == [127] * 4
    assert unpack_u8(ident.m2).tolist() == [127] * 4
    assert not unpack_u8(ident.s_vc).any()


def test_apply_lut_scales_each_lane():
    lut = beta_lut(0.75)                       # floor(0.75 * m), int32
    assert lut.dtype == np.int32 and lut[255] == 191
    w = pack_u8(np.array([0, 1, 100, 127], dtype=np.uint8))
    out = unpack_u8(apply_lut_u8(w, lut))
    assert out.tolist() == [0, 0, 75, 95]


def test_pack_values_rejects_overflow():
    with pytest.raises(ValueError):
        pack_values(np.array([128, 0, 0, 0]))
