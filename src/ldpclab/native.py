"""The compiled layered-iteration kernel: built on first use, cached, loaded.

`_layer.c` runs one full layered min-sum iteration of the scalar engine in
int8 (widened to int32) or f32, bit-exact with the numpy rows of
`ScalarWorkspace.layer`, which stay its oracle and its fallback. It also
computes the parity bits of a range of base rows over a batch of hard
decisions, for the syndrome and the encoder, with `codec`'s numpy roll loop
as oracle and fallback. The library
is compiled with the host's gcc into a per-user cache directory that lasts
across processes, under a name keyed by the source, the compile command and
the host CPU's flags, so a `-march=native` build is never loaded on another
CPU. Where it cannot be built or loaded, `run_iteration` and
`row_parities` report so and the caller takes the numpy path.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_layer.c")
# -ffp-contract=off and no -ffast-math: f32 must round as numpy does
COMMAND = ("gcc", "-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
BUILD_TIMEOUT_S = 120


def cache_dir() -> Path | None:
    """A writable per-user directory for the built library, or None.

    `$XDG_CACHE_HOME/ldpclab` or `~/.cache/ldpclab`, else a directory of
    this user's own under the system temporary directory.
    """
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    try:
        path = Path(base) / "ldpclab"
        path.mkdir(parents=True, exist_ok=True)
        if os.access(path, os.W_OK):
            return path
    except OSError:
        pass
    try:
        path = Path(tempfile.gettempdir()) / f"ldpclab-{os.getuid()}"
        path.mkdir(mode=0o700, exist_ok=True)
        st = path.stat()
        # a shared temporary directory: load nothing another user could write
        if st.st_uid == os.getuid() and not st.st_mode & 0o022:
            return path
    except OSError:
        pass
    return None


def _cpu_id() -> str:
    """The host CPU's feature flags, which `-march=native` compiles for."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return line
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def _build(path: Path) -> None:
    """Compile the source into `path`; concurrent builds replace atomically."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run([*COMMAND, "-o", tmp, str(SOURCE)], check=True,
                       capture_output=True, timeout=BUILD_TIMEOUT_S)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def load() -> ctypes.CDLL | None:
    """The kernel library, built if no cached copy exists; None if it cannot be."""
    directory = cache_dir()
    if directory is None:
        return None
    try:
        key = hashlib.sha256(b"\0".join([
            SOURCE.read_bytes(), " ".join(COMMAND).encode(), _cpu_id().encode(),
        ])).hexdigest()
        path = directory / f"layer-{key[:32]}.so"
        if not path.exists():
            _build(path)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError):
        return None
    tables = [ctypes.c_int64] * 4 + [ctypes.c_void_p] * 3
    for fn, scale in ((lib.layer_iteration_i32, ctypes.c_void_p),
                      (lib.layer_iteration_f32, ctypes.c_float)):
        fn.argtypes = [ctypes.c_void_p] * 2 + tables + [scale]
        fn.restype = ctypes.c_int
    lib.row_parities.argtypes = ([ctypes.c_void_p] * 3 + [ctypes.c_int64] * 5
                                 + [ctypes.c_void_p] * 3)
    lib.row_parities.restype = None
    return lib


def _graph_tables(bg, rows_used: int, n_blocks: int, z: int):
    """`bg`'s row_start, cols and shifts as int64, checked against the arrays.

    Returns None where `rows_used` is out of range, `n_blocks` or `z` is not
    the graph's for `rows_used` rows, or an edge leaves the block range; the
    kernels index with them unchecked.
    """
    row_start, cols, shifts = (np.ascontiguousarray(a, dtype=np.int64)
                               for a in (bg.row_start, bg.cols, bg.shifts))
    if not 1 <= rows_used < len(row_start):
        return None
    n_edges = row_start[rows_used]
    if (z != bg.z or n_blocks != bg.k_b + rows_used
            or not 0 <= cols[:n_edges].min() <= cols[:n_edges].max() < n_blocks
            or not 0 <= shifts[:n_edges].min() <= shifts[:n_edges].max() < z):
        return None
    return row_start, cols, shifts


def run_iteration(l_v: np.ndarray, messages: np.ndarray, bg, rows_used: int,
                  beta: float) -> bool:
    """One layered iteration over rows 0..rows_used-1 of `bg`, in place.

    `l_v` is (B, n_blocks, Z) and `messages` (B, E, Z), both int32 (int8
    arithmetic) or both float32. The base graph's own entry arrays are the
    kernel's tables. Returns False, touching nothing, where the kernel does
    not apply or is unavailable.
    """
    if l_v.dtype == np.int32:
        # floor(beta * m) for the int8 magnitudes m = 0..127, as the numpy rows
        lut = np.floor(beta * np.arange(128)).astype(np.int32)
        name, scale = "layer_iteration_i32", lut.ctypes.data
    elif l_v.dtype == np.float32:
        name, scale = "layer_iteration_f32", float(np.float32(beta))
    else:
        return False
    if (messages.dtype != l_v.dtype or not l_v.flags.c_contiguous
            or not messages.flags.c_contiguous):
        return False
    lib = load()
    if lib is None:
        return False
    batch, n_blocks, z = l_v.shape
    tables = _graph_tables(bg, rows_used, n_blocks, z)
    if tables is None or messages.shape != (batch, tables[0][rows_used], z):
        raise ValueError("workspace arrays do not match the base graph")
    row_start, cols, shifts = tables
    status = getattr(lib, name)(
        l_v.ctypes.data, messages.ctypes.data, batch, n_blocks, z, rows_used,
        row_start.ctypes.data, cols.ctypes.data, shifts.ctypes.data, scale)
    if status:
        raise MemoryError("layer kernel could not allocate its row buffer")
    return True


def row_parities(bits: np.ndarray, bg, rows_used: int, r0: int,
                 r1: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Parity bits of base rows r0..r1-1 over hard bits of rows_used rows.

    `bits` holds C-contiguous uint8 hard decisions, shape
    (B, (k_b + rows_used) * Z) or (B, k_b + rows_used, Z). Returns the
    (B, r1 - r0, Z) uint8 parities and each codeword's int64 count of ones
    among them, or None where the kernel is unavailable.
    """
    if bits.dtype != np.uint8 or bits.ndim not in (2, 3) or not bits.flags.c_contiguous:
        raise ValueError("hard bits must be a C-contiguous 2-D or 3-D uint8 array")
    n_blocks = bg.k_b + rows_used
    tables = _graph_tables(bg, rows_used, n_blocks, bg.z)
    if tables is None or bits.shape[1:] not in ((n_blocks * bg.z,), (n_blocks, bg.z)):
        raise ValueError("hard bits do not match the base graph")
    if not 0 <= r0 <= r1 <= rows_used:
        raise ValueError(f"rows {r0}..{r1 - 1} are not within the {rows_used} rows used")
    lib = load()
    if lib is None:
        return None
    row_start, cols, shifts = tables
    parities = np.empty((len(bits), r1 - r0, bg.z), dtype=np.uint8)
    weights = np.empty(len(bits), dtype=np.int64)
    lib.row_parities(
        bits.ctypes.data, parities.ctypes.data, weights.ctypes.data, len(bits),
        n_blocks, bg.z, r0, r1, row_start.ctypes.data, cols.ctypes.data,
        shifts.ctypes.data)
    return parities, weights
