"""Quasi-cyclic base graph loading, validation, and lifting.

The two shipped base graphs follow the 5G NR prototype-matrix structure:
BG1 with 22 information columns, 46 parity rows, and 316 circulant entries;
BG2 with 10 information columns, 42 rows, and 197 entries. Codeword length
scales with the lifting size Z: each entry (row, col, shift) expands to a
Z x Z identity circulant right-shifted by `shift`.

Each check has one owner. A `BaseGraph` is valid by construction: it checks
its entries and the encoder's parity structure when it is made, however it
is made. `code_params` is the one rule for the lifting size and the rows a
code engages; every other entry point that takes them calls it.
"""

from __future__ import annotations

import importlib.resources
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

# Valid lifting sizes, Z = a * 2^j <= 384, grouped by the set index that
# selects the shift column of the CSV asset.
LIFTING_SETS: tuple[tuple[int, ...], ...] = (
    (2, 4, 8, 16, 32, 64, 128, 256),
    (3, 6, 12, 24, 48, 96, 192, 384),
    (5, 10, 20, 40, 80, 160, 320),
    (7, 14, 28, 56, 112, 224),
    (9, 18, 36, 72, 144, 288),
    (11, 22, 44, 88, 176, 352),
    (13, 26, 52, 104, 208),
    (15, 30, 60, 120, 240),
)

ALL_LIFTING_SIZES: tuple[int, ...] = tuple(
    sorted(z for zs in LIFTING_SETS for z in zs)
)

# (k_b, m_bg, n_cols, entry count) per graph id, validated on load.
_GRAPH_DIMS = {
    "BG1": (22, 46, 68, 316),
    "BG2": (10, 42, 52, 197),
}

_ASSETS_ENV = "LDPCLAB_ASSETS"


def lifting_set_index(z: int) -> int:
    """Set index selecting the shift column for lifting size `z`."""
    for idx, zs in enumerate(LIFTING_SETS):
        if z in zs:
            return idx
    raise ValueError(f"Z={z} is not a valid lifting size (a*2^j, a in "
                     f"{{2,3,5,7,9,11,13,15}}, Z <= 384)")


@dataclass(frozen=True)
class BaseGraph:
    """One lifted base graph: circulant positions and shifts reduced mod Z.

    Valid by construction: `__post_init__` keeps read-only int64 copies of
    `rows`, `cols` and `shifts`, checks them and the parity structure the
    encoder relies on, and derives the row tables and the core solve, so
    `dataclasses.replace` re-validates. Once it has passed, every edge of the
    first `rows_used` rows, for any `rows_used` from 4 to m_bg, lies below
    column k_b + rows_used, and every shift is in [0, z): core rows reach no
    extension column, and an extension row reaches only its own. That is why
    the compiled kernels, which index these arrays unchecked, stay
    memory-safe.
    """

    id: str
    k_b: int
    m_bg: int
    n_cols: int
    z: int
    rows: np.ndarray        # entry base-row indices, sorted by (row, col)
    cols: np.ndarray        # entry base-column indices
    shifts: np.ndarray      # circulant shifts, already reduced mod z
    w_r: np.ndarray = field(init=False, repr=False)   # entries per base row
    row_start: np.ndarray = field(init=False, repr=False)   # first entry of each base row
    # shift of the circulant the XOR of the core rows leaves at column k_b
    core_sum_shift: int = field(init=False, repr=False)
    # (row, column, shift) solving core columns k_b+1..k_b+3 in turn: each row
    # has one core column left unknown, at that shift
    core_order: tuple[tuple[int, int, int], ...] = field(init=False, repr=False)

    def __post_init__(self):
        rows, cols, shifts = (np.array(getattr(self, name), dtype=np.int64)
                              for name in ("rows", "cols", "shifts"))
        if rows.ndim != 1 or not rows.shape == cols.shape == shifts.shape:
            raise ValueError(f"{self.id}: rows, cols and shifts must be 1-D and of one length")
        if not np.array_equal(np.lexsort((cols, rows)), np.arange(len(rows))):
            raise ValueError(f"{self.id}: entries are not sorted by (row, col)")
        if not ((0 <= rows) & (rows < self.m_bg) & (0 <= cols) & (cols < self.n_cols)).all():
            raise ValueError(f"{self.id}: entry index out of range")
        keys = rows * self.n_cols + cols
        if len(np.unique(keys)) != len(keys):
            raise ValueError(f"{self.id}: duplicate (row, col) entries")
        if not ((0 <= shifts) & (shifts < self.z)).all():
            raise ValueError(f"{self.id}: shift outside [0, {self.z})")
        w_r = np.bincount(rows, minlength=self.m_bg)
        if w_r.min() < 3:
            raise ValueError(f"{self.id}: base row with weight < 3")
        row_start = np.zeros(self.m_bg + 1, dtype=np.int64)
        np.cumsum(w_r, out=row_start[1:])
        tables = dict(rows=rows, cols=cols, shifts=shifts, w_r=w_r, row_start=row_start)
        for name, arr in tables.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        # the structure check over the graph's rows yields the encoder's core solve
        shift, order = _validate_encoding_structure(self)
        object.__setattr__(self, "core_sum_shift", shift)
        object.__setattr__(self, "core_order", order)

    @property
    def n_entries(self) -> int:
        return len(self.rows)

    @property
    def core_parity_col(self) -> int:
        """First parity column; core columns are this through +3."""
        return self.k_b

    def row_entries(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """(cols, shifts) of base row r, ascending column order."""
        sel = slice(self.row_start[r], self.row_start[r + 1])
        return self.cols[sel], self.shifts[sel]

    def canonical_bytes(self) -> bytes:
        """Canonical serialization for hashing and determinism checks."""
        head = f"{self.id};kb={self.k_b};mbg={self.m_bg};ncols={self.n_cols};z={self.z}\n"
        body = "".join(
            f"{r},{c},{s}\n" for r, c, s in zip(self.rows, self.cols, self.shifts)
        )
        return (head + body).encode("ascii")


def _assets_dir(override: str | Path | None) -> Path:
    if override is not None:
        return Path(override)
    env = os.environ.get(_ASSETS_ENV)
    if env:
        return Path(env)
    return Path(str(importlib.resources.files("ldpclab"))) / "assets"


def _normalize_id(bg_id: str | int) -> str:
    if isinstance(bg_id, int):
        bg_id = f"BG{bg_id}"
    bg_id = str(bg_id).upper()
    if bg_id not in _GRAPH_DIMS:
        raise ValueError(f"unknown base graph id {bg_id!r} (expected BG1 or BG2)")
    return bg_id


def load_basegraph(
    bg_id: str | int, z: int, assets_dir: str | Path | None = None
) -> BaseGraph:
    """Load a base graph and lift-reduce its shifts for lifting size `z`.

    The shift column is selected by the lifting set containing `z` and every
    shift is reduced mod `z`. The asset is checked against the expected
    column and entry counts, and its entries, sorted by (row, col), against
    the checks every `BaseGraph` passes; a mismatch signals a corrupt asset.
    """
    bg_id = _normalize_id(bg_id)
    set_idx = lifting_set_index(z)
    k_b, m_bg, n_cols, n_entries = _GRAPH_DIMS[bg_id]

    path = _assets_dir(assets_dir) / f"{bg_id.lower()}.csv"
    if not path.is_file():
        raise ValueError(f"base graph asset not found: {path}")
    raw = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[1] != 2 + len(LIFTING_SETS):
        raise ValueError(
            f"malformed asset {path}: expected {2 + len(LIFTING_SETS)} columns, "
            f"got {raw.shape[1]}"
        )
    if raw.shape[0] != n_entries:
        raise ValueError(
            f"malformed asset {path}: expected {n_entries} entries, got {raw.shape[0]}"
        )

    raw = raw[np.lexsort((raw[:, 1], raw[:, 0]))]
    return BaseGraph(id=bg_id, k_b=k_b, m_bg=m_bg, n_cols=n_cols, z=z, rows=raw[:, 0],
                     cols=raw[:, 1], shifts=np.mod(raw[:, 2 + set_idx], z))


def _validate_encoding_structure(bg: BaseGraph) -> tuple[int, tuple]:
    """Check the parity structure the systematic encoder relies on.

    Returns the shift of the single circulant that the XOR of the four core
    rows leaves at the first parity column, and the order in which the core
    rows then give the other three core columns (`BaseGraph.core_order`).
    """
    p0 = bg.core_parity_col
    for r in range(4):
        if (bg.row_entries(r)[0] >= p0 + 4).any():
            raise ValueError(f"{bg.id}: core row {r} references an extension column")
    # Extension rows may reference information and core parity columns plus
    # exactly one shift-0 identity in their own extension column.
    for r in range(4, bg.m_bg):
        cols, shifts = bg.row_entries(r)
        own = p0 + r
        if own not in cols:
            raise ValueError(f"{bg.id}: row {r} lacks its extension column {own}")
        if shifts[np.searchsorted(cols, own)] != 0:
            raise ValueError(f"{bg.id}: extension column of row {r} is not identity")
        if (cols >= p0 + 4).sum() != 1:
            raise ValueError(f"{bg.id}: row {r} references a later extension column")
    # The XOR of the four core rows must collapse to a single circulant at
    # the first parity column: circulants at p0+1..p0+3 cancel pairwise and
    # the shift multiset at p0 leaves exactly one value an odd number of
    # times. The systematic encoder solves for that column first.
    core_parity: dict[int, list[int]] = {c: [] for c in range(p0, p0 + 4)}
    for r in range(4):
        cols, shifts = bg.row_entries(r)
        for c, s in zip(cols, shifts):
            if p0 <= c < p0 + 4:
                core_parity[int(c)].append(int(s))
    for c in range(p0 + 1, p0 + 4):
        if len(core_parity[c]) % 2 != 0 or len(set(core_parity[c])) > 1:
            raise ValueError(f"{bg.id}: core rows do not cancel at column {c}")
    odd = [s for s in set(core_parity[p0]) if core_parity[p0].count(s) % 2 == 1]
    if len(odd) != 1:
        raise ValueError(
            f"{bg.id}: core rows do not sum to a single circulant at column {p0}"
        )
    # Back-substitution: once column p0 is known, some core row must have
    # exactly one unknown core column, and so on until all four are known.
    order, known = [], {p0}
    while len(known) < 4:
        for r in range(4):
            cols, shifts = bg.row_entries(r)
            unknown = [(int(c), int(s)) for c, s in zip(cols, shifts)
                       if c >= p0 and c not in known]
            if len(unknown) == 1:
                order.append((r, *unknown[0]))
                known.add(unknown[0][0])
                break
        else:
            raise ValueError(f"{bg.id}: core rows cannot isolate core columns "
                             f"{sorted(set(range(p0, p0 + 4)) - known)}")
    return odd[0], tuple(order)


@dataclass(frozen=True)
class CodeParams:
    """Derived code parameters for one (graph, Z, rows_used) choice."""

    z: int
    k: int           # information bits, Z * k_b
    n_c: int         # coded bits, Z * (k_b + rows_used)
    n_tx: int        # transmitted bits after puncturing, n_c - 2Z
    rate: Fraction   # k / n_c
    rows_used: int


def code_params(bg: BaseGraph, z: int, rows_used: int) -> CodeParams:
    """Code parameters when the first `rows_used` base rows are engaged."""
    if z != bg.z:
        raise ValueError(f"graph was lifted for Z={bg.z}, not Z={z}")
    if not 4 <= rows_used <= bg.m_bg:
        raise ValueError(
            f"rows_used must be in [4, {bg.m_bg}] (first four rows form the "
            f"parity core), got {rows_used}"
        )
    k = z * bg.k_b
    n_c = z * (bg.k_b + rows_used)
    return CodeParams(
        z=z, k=k, n_c=n_c, n_tx=n_c - 2 * z,
        rate=Fraction(k, n_c), rows_used=rows_used,
    )


def expand_to_binary(
    bg: BaseGraph, z: int, rows_used: int | None = None, limit: int = 10**7
) -> np.ndarray:
    """Dense binary parity-check matrix; test oracle, not the decode path.

    Entry (r, c, s) becomes a Z x Z identity circulant right-shifted by s:
    circulant row i has its one at column (i + s) mod Z.
    """
    rows_used = code_params(bg, z, bg.m_bg if rows_used is None else rows_used).rows_used
    n_rows = rows_used * z
    n_cols = (bg.k_b + rows_used) * z   # unused extension columns drop out
    if n_rows * n_cols > limit:
        raise ValueError(
            f"expanded matrix {n_rows}x{n_cols} exceeds the oracle limit {limit}"
        )
    h = np.zeros((n_rows, n_cols), dtype=np.uint8)
    zi = np.arange(z)
    for r, c, s in zip(bg.rows, bg.cols, bg.shifts):
        if r >= rows_used:
            continue
        h[r * z + zi, c * z + (zi + s) % z] = 1
    return h
