"""The compiled layered-iteration kernel: built on first use, cached, loaded.

`_layer.c` runs one full layered min-sum iteration of the scalar engine in
int8 (widened to int32) or f32, bit-exact with the numpy rows of
`ScalarWorkspace.layer`, which stay its oracle and its fallback. The library
is compiled with the host's gcc into a per-user cache directory that lasts
across processes, under a name keyed by the source, the compile command and
the host CPU's flags, so a `-march=native` build is never loaded on another
CPU. Where it cannot be built or loaded, `run_iteration` reports so and the
caller takes the numpy rows.
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
    return lib


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
    row_start, cols, shifts = (np.ascontiguousarray(a, dtype=np.int64)
                               for a in (bg.row_start, bg.cols, bg.shifts))
    n_edges = row_start[rows_used]
    if (z != bg.z or n_blocks != bg.k_b + rows_used
            or messages.shape != (batch, n_edges, z)
            or not 0 <= cols[:n_edges].min() <= cols[:n_edges].max() < n_blocks
            or not 0 <= shifts[:n_edges].min() <= shifts[:n_edges].max() < z):
        raise ValueError("workspace arrays do not match the base graph")
    status = getattr(lib, name)(
        l_v.ctypes.data, messages.ctypes.data, batch, n_blocks, z, rows_used,
        row_start.ctypes.data, cols.ctypes.data, shifts.ctypes.data, scale)
    if status:
        raise MemoryError("layer kernel could not allocate its row buffer")
    return True
