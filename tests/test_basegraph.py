import dataclasses
import hashlib

import numpy as np
import pytest

from ldpclab.basegraph import (
    ALL_LIFTING_SIZES,
    LIFTING_SETS,
    BaseGraph,
    code_params,
    expand_to_binary,
    lifting_set_index,
    load_basegraph,
)
from tests.conftest import get_graph


def test_lifting_set_contents():
    assert len(ALL_LIFTING_SIZES) == 51
    assert max(ALL_LIFTING_SIZES) == 384
    for idx, base in enumerate((2, 3, 5, 7, 9, 11, 13, 15)):
        assert LIFTING_SETS[idx][0] == base
        for z in LIFTING_SETS[idx]:
            assert lifting_set_index(z) == idx


@pytest.mark.parametrize("z", [17, 19, 23, 42, 385, 768])
def test_invalid_lifting_sizes(z):
    with pytest.raises(ValueError):
        lifting_set_index(z)
    with pytest.raises(ValueError):
        load_basegraph("BG1", z)


def test_bg1_dimensions_at_max_lifting():
    bg = get_graph("BG1", 384)
    assert bg.n_entries == 316
    assert (bg.k_b, bg.m_bg, bg.n_cols) == (22, 46, 68)
    assert bg.w_r.sum() == 316
    assert np.bincount(bg.cols).sum() == 316
    assert bg.w_r.min() >= 3
    # parallelization available per row spans 3..19 columns
    assert (bg.w_r.min(), bg.w_r.max()) == (3, 19)


def test_bg2_dimensions_and_mod_reduction(bg2_z2):
    assert bg2_z2.n_entries == 197
    assert (bg2_z2.k_b, bg2_z2.m_bg, bg2_z2.n_cols) == (10, 42, 52)
    assert set(np.unique(bg2_z2.shifts)) <= {0, 1}
    assert bg2_z2.w_r.min() >= 3


def test_unknown_graph_id():
    with pytest.raises(ValueError):
        load_basegraph("BG3", 16)


def test_malformed_asset_rejected(tmp_path):
    src = get_graph("BG2", 2)
    lines = ["row,col,s0,s1,s2,s3,s4,s5,s6,s7"]
    for r, c, s in zip(src.rows, src.cols, src.shifts):
        lines.append(f"{r},{c},{s},{s},{s},{s},{s},{s},{s},{s}")
    # drop one entry: count mismatch must be detected
    (tmp_path / "bg2.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="expected 197 entries"):
        load_basegraph("BG2", 2, assets_dir=tmp_path)


def test_asset_without_core_solve_order_rejected(tmp_path, monkeypatch):
    # Row 2's entry at column 12 moved to row 0: the core still XORs to one
    # circulant at column 10, but rows 0 and 1 then both have the unknowns
    # {11, 12}, so no back-substitution order exists.
    src = get_graph("BG2", 2)
    lines = ["row,col,s0,s1,s2,s3,s4,s5,s6,s7"]
    for r, c, s in zip(src.rows, src.cols, src.shifts):
        r = 0 if (r, c) == (2, 12) else r
        lines.append(f"{r},{c},{s},{s},{s},{s},{s},{s},{s},{s}")
    assert len(lines) == 1 + 197
    (tmp_path / "bg2.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="cannot isolate core columns"):
        load_basegraph("BG2", 2, assets_dir=tmp_path)
    monkeypatch.setenv("LDPCLAB_ASSETS", str(tmp_path))
    with pytest.raises(ValueError, match="cannot isolate core columns"):
        load_basegraph("BG2", 2)


def test_missing_asset(tmp_path):
    with pytest.raises(ValueError, match="not found"):
        load_basegraph("BG1", 2, assets_dir=tmp_path)


def test_load_is_deterministic():
    a = load_basegraph("BG1", 52)
    b = load_basegraph("BG1", 52)
    ha = hashlib.sha256(a.canonical_bytes()).hexdigest()
    hb = hashlib.sha256(b.canonical_bytes()).hexdigest()
    assert ha == hb
    assert np.array_equal(a.shifts, b.shifts)


def test_code_params_bg1_full():
    bg = get_graph("BG1", 384)
    p = code_params(bg, 384, 46)
    assert p.k == 8448
    assert p.n_c == 26112
    assert p.n_tx == 26112 - 2 * 384
    assert p.rate.numerator * 26112 == 8448 * p.rate.denominator


def test_code_params_bg2_small(bg2_z2):
    p = code_params(bg2_z2, 2, 42)
    assert (p.k, p.n_c, p.n_tx) == (20, 104, 100)


def test_code_params_rows_below_core(bg2_z2):
    with pytest.raises(ValueError):
        code_params(get_graph("BG1", 384), 384, 2)
    with pytest.raises(ValueError):
        code_params(bg2_z2, 2, 43)


def test_expand_shift_zero_is_identity(bg2_z2):
    h = expand_to_binary(bg2_z2, 2)
    # extension identity blocks: row r >= 4 at column 14 + (r-4)
    z = 2
    for r in (4, 20, 41):
        block = h[r * z:(r + 1) * z, (14 + r - 4) * z:(15 + r - 4) * z]
        assert np.array_equal(block, np.eye(z, dtype=np.uint8))


def test_expand_shift_one_mapping():
    bg = get_graph("BG2", 3)
    h = expand_to_binary(bg, 3)
    # a shift-s circulant row i has its one at column (i+s) mod 3
    for e in range(bg.n_entries):
        r, c, s = bg.rows[e], bg.cols[e], bg.shifts[e]
        block = h[r * 3:(r + 1) * 3, c * 3:(c + 1) * 3]
        for i in range(3):
            assert block[i, (i + s) % 3] == 1
            assert block[i].sum() == 1


def test_expand_bg2_z2_counts(bg2_z2):
    h = expand_to_binary(bg2_z2, 2)
    assert h.shape == (84, 104)
    assert int(h.sum()) == 2 * 197


@pytest.mark.parametrize("bg_id,z", [("BG1", 3), ("BG2", 2), ("BG2", 8)])
def test_expanded_weights_replicate_base_weights(bg_id, z):
    bg = get_graph(bg_id, z)
    h = expand_to_binary(bg, z)
    row_w = h.sum(axis=1).reshape(bg.m_bg, z)
    col_w = h.sum(axis=0).reshape(bg.n_cols, z)
    assert np.array_equal(row_w, np.repeat(bg.w_r[:, None], z, axis=1))
    w_c = np.bincount(bg.cols, minlength=bg.n_cols)
    assert np.array_equal(col_w, np.repeat(w_c[:, None], z, axis=1))


def test_expand_oracle_limit():
    bg = get_graph("BG1", 384)
    with pytest.raises(ValueError, match="oracle limit"):
        expand_to_binary(bg, 384)


def test_row_entries_sorted_unique():
    bg = get_graph("BG1", 8)
    for r in range(bg.m_bg):
        cols, _ = bg.row_entries(r)
        assert np.all(np.diff(cols) > 0)
        assert bg.w_r[r] == len(cols)


def test_immutability():
    bg = get_graph("BG2", 16)
    with pytest.raises(ValueError):
        bg.shifts[0] = 3


def _with_entry(bg, r, c, s):
    """`bg`'s rows, cols and shifts with the entry (r, c, s) inserted in
    (row, col) order, before any entry of the same key."""
    at = np.searchsorted(bg.rows * bg.n_cols + bg.cols, r * bg.n_cols + c)
    return dict(rows=np.insert(bg.rows, at, r), cols=np.insert(bg.cols, at, c),
                shifts=np.insert(bg.shifts, at, s))


def _set(bg, name, i, value):
    arr = getattr(bg, name).copy()
    arr[i] = value
    return {name: arr}


def _first_entries(bg, r, keep):
    """`bg`'s entries without those of row r past its first `keep`."""
    drop = np.arange(bg.row_start[r] + keep, bg.row_start[r + 1])
    return {name: np.delete(getattr(bg, name), drop) for name in ("rows", "cols", "shifts")}


INVALID_GRAPHS = {
    "column past n_cols": (lambda bg: _set(bg, "cols", -1, bg.n_cols), "out of range"),
    "negative shift": (lambda bg: _set(bg, "shifts", 0, -1), "shift outside"),
    "shift of z": (lambda bg: _set(bg, "shifts", 0, bg.z), "shift outside"),
    "unsorted": (lambda bg: {n: getattr(bg, n)[::-1] for n in ("rows", "cols", "shifts")},
                 "not sorted"),
    "repeated": (lambda bg: _with_entry(bg, 0, bg.cols[0], 0), "duplicate"),
    "row weight 2": (lambda bg: _first_entries(bg, int(np.argmin(bg.w_r)), 2), "weight < 3"),
    "core row in an extension column": (lambda bg: _with_entry(bg, 0, bg.k_b + 4, 0),
                                        "core row 0 references an extension column"),
    "unequal lengths": (lambda bg: {"shifts": bg.shifts[:-1]}, "one length"),
}


@pytest.mark.parametrize("case", INVALID_GRAPHS)
def test_every_graph_is_checked_when_it_is_made(case):
    """`dataclasses.replace` builds a new graph through the checks that
    `load_basegraph`'s graphs pass, so no graph the kernels index is unchecked."""
    bg = get_graph("BG2", 16)
    change, message = INVALID_GRAPHS[case]
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(bg, **change(bg))


def test_a_graph_keeps_read_only_int64_copies_and_derives_its_tables():
    bg = get_graph("BG2", 16)
    shifts = bg.shifts.astype(np.int32)
    made = dataclasses.replace(bg, shifts=shifts)
    for name in ("rows", "cols", "shifts", "w_r", "row_start"):
        arr = getattr(made, name)
        assert arr.dtype == np.int64 and arr.flags.c_contiguous and not arr.flags.writeable
    assert np.array_equal(made.shifts, shifts) and made.shifts is not shifts
    assert made.canonical_bytes() == bg.canonical_bytes()
    assert (made.core_sum_shift, made.core_order) == (bg.core_sum_shift, bg.core_order)
    with pytest.raises(TypeError):
        BaseGraph(id=bg.id, k_b=bg.k_b, m_bg=bg.m_bg, n_cols=bg.n_cols, z=bg.z,
                  rows=bg.rows, cols=bg.cols, shifts=bg.shifts, w_r=bg.w_r)


def test_assets_env_var_override(tmp_path, monkeypatch):
    import shutil
    from ldpclab.basegraph import _assets_dir
    src = _assets_dir(None)
    shutil.copy(src / "bg2.csv", tmp_path / "bg2.csv")
    monkeypatch.setenv("LDPCLAB_ASSETS", str(tmp_path))
    bg = load_basegraph("BG2", 4)
    assert bg.n_entries == 197
    monkeypatch.setenv("LDPCLAB_ASSETS", str(tmp_path / "nowhere"))
    with pytest.raises(ValueError, match="not found"):
        load_basegraph("BG2", 4)
