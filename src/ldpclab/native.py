"""The compiled kernels of `_layer.c`: built on first use, cached, loaded.

`_layer.c` runs one full layered min-sum iteration of the scalar engine in
int8 (int8 posteriors and messages, int16 scratch) or f32, bit-exact with the
numpy rows of `ScalarWorkspace.layer`, which stay its oracle and its
fallback. It also computes the parity bits of a range of base rows over a
batch of hard decisions, for the syndrome and the encoder, with `codec`'s
numpy roll loop as oracle and fallback; reads an iteration's hard decisions,
margins and syndrome counts out of int8 or f32 posteriors, with the numpy
lines of `decoder._run_schedule` as oracle and fallback; and turns standard
normals and transmitted bits into int8 or f32 decoder blocks in one pass,
with `channel`'s `quantize(demap_llr(bpsk_awgn(...)))` as oracle and
fallback.

Every call shares its batch among `slice_count` threads, which claim
codewords one at a time, so a thread on a slower core takes fewer. The
threads are created and joined inside the call, so none is alive between
calls and forked pool workers stay safe; a sweep's pool workers split the
CPUs among themselves (`share_cpus`). Codewords never interact, so the
outputs are the same for every slice count.

The library is compiled with the host's gcc into a per-user cache directory
that lasts across processes, under a name keyed by the source, the compile
command and the host CPU's flags, so a `-march=native` build is never loaded
on another CPU. Where it cannot be built or loaded, `run_iteration`,
`row_parities`, `readout` and `channel_blocks` report so and the caller takes
the numpy path.
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

from ldpclab import kernels

SOURCE = Path(__file__).with_name("_layer.c")
# -ffp-contract=off and no -ffast-math: f32 must round as numpy does
COMMAND = ("gcc", "-O3", "-march=native", "-ffp-contract=off", "-pthread", "-shared",
           "-fPIC")
BUILD_TIMEOUT_S = 120
# Edge-positions (codewords x edges x Z) per thread below which a batch is not
# shared. On a 2-core VM, starting and joining a thread took 50-110 us, and a
# second thread sped a layer pass up reliably only from about 1M (BG1 Z=384
# B=8 1.38x, B=16 1.62x; BG2 Z=52 B=128 1.37x), not below it (BG1 B=4 0.89x,
# BG2 Z=52 B=32 0.78x).
MIN_SLICE_WORK = 1 << 19


# Processes that share this one's CPUs: set in each worker of a sweep's
# process pool by share_cpus, 1 everywhere else.
_sharers = 1


def share_cpus(processes: int) -> None:
    """Give this process 1/`processes` of its CPUs for its calls' threads.

    The initializer of a pool of `processes` workers: without it each worker
    would start one thread per CPU, and the workers' threads would contend
    for the same cores.
    """
    global _sharers
    _sharers = max(1, processes)


def slice_count(batch: int, work: int) -> int:
    """Threads for a call over `batch` codewords and `work` edge-positions.

    At most one per codeword and one per CPU this process may run on (its
    share of them in a pool worker, see share_cpus), and no more than leave
    every thread MIN_SLICE_WORK edge-positions.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(batch, (cpus or 1) // _sharers, work // MIN_SLICE_WORK))


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
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    tables = [i64] * 4 + [ptr] * 3
    for fn, scale in ((lib.layer_iteration_i8, ptr), (lib.layer_iteration_f32, ctypes.c_float)):
        fn.argtypes = [ptr] * 2 + tables + [scale, i64]
    lib.row_parities.argtypes = [ptr] * 3 + [i64] * 5 + [ptr] * 3 + [i64]
    lib.readout.argtypes = [ptr, ctypes.c_int] + [ptr] * 3 + tables + [i64]
    lib.channel_blocks.argtypes = ([ptr] * 3 + [ctypes.c_int] + [i64] * 3
                                   + [ctypes.c_double] * 3 + [i64])
    for fn in (lib.layer_iteration_i8, lib.layer_iteration_f32, lib.row_parities, lib.readout,
               lib.channel_blocks):
        fn.restype = ctypes.c_int
    return lib


def _call(fn, *args) -> int:
    """Run a kernel entry point; raise if the slices' allocation failed.

    Returns the entry point's other status bits (a NaN LLR for
    `channel_blocks`), 0 for the rest.
    """
    status = fn(*args)
    if status < 0:
        raise MemoryError(f"{fn.__name__} could not allocate its threads' scratch")
    return status


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

    `l_v` is (B, n_blocks, Z) and `messages` (B, E, Z), both int8 or both
    float32. The base graph's own entry arrays are the kernel's tables.
    Returns False, touching nothing, where the kernel does not apply or is
    unavailable.
    """
    if l_v.dtype == np.int8:
        # the beta rule for the int8 magnitudes m = 0..127, as the numpy rows
        lut = kernels.beta_lut(beta)[:128]
        name, scale = "layer_iteration_i8", lut.ctypes.data
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
    _call(getattr(lib, name), l_v.ctypes.data, messages.ctypes.data, batch, n_blocks, z,
          rows_used, row_start.ctypes.data, cols.ctypes.data, shifts.ctypes.data, scale,
          slice_count(batch, batch * messages.shape[1] * z))
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
    edges = int(row_start[r1] - row_start[r0])
    _call(lib.row_parities, bits.ctypes.data, parities.ctypes.data, weights.ctypes.data,
          len(bits), n_blocks, bg.z, r0, r1, row_start.ctypes.data, cols.ctypes.data,
          shifts.ctypes.data, slice_count(len(bits), len(bits) * edges * bg.z))
    return parities, weights


def readout(l_v: np.ndarray, bg, rows_used: int, hard: np.ndarray, weights: np.ndarray,
            margins: np.ndarray) -> bool:
    """One iteration's readout of the posteriors `l_v`, into the given arrays.

    `l_v` is C-contiguous (B, n_blocks, Z) int8 or float32. Writes the uint8
    hard decisions `l_v < 0` into `hard` (B, n_blocks * Z), min |L_v| into
    the float64 `margins` (B,) and the unsatisfied checks over the used rows
    into the int64 `weights` (B,), as the numpy lines of
    `decoder._run_schedule` compute them. Returns False, touching nothing,
    where the kernel does not apply or is unavailable.
    """
    if l_v.dtype not in (np.int8, np.float32) or l_v.ndim != 3 or not l_v.flags.c_contiguous:
        return False
    lib = load()
    if lib is None:
        return False
    batch, n_blocks, z = l_v.shape
    tables = _graph_tables(bg, rows_used, n_blocks, z)
    if (tables is None or hard.dtype != np.uint8 or hard.shape != (batch, n_blocks * z)
            or weights.dtype != np.int64 or margins.dtype != np.float64
            or weights.shape != (batch,) or margins.shape != (batch,)
            or not all(a.flags.c_contiguous for a in (hard, weights, margins))):
        raise ValueError("readout arrays do not match the posteriors and the base graph")
    row_start, cols, shifts = tables
    _call(lib.readout, l_v.ctypes.data, int(l_v.dtype == np.float32), hard.ctypes.data,
          margins.ctypes.data, weights.ctypes.data, batch, n_blocks, z, rows_used,
          row_start.ctypes.data, cols.ctypes.data, shifts.ctypes.data,
          slice_count(batch, batch * int(row_start[rows_used]) * z))
    return True


def channel_blocks(noise: np.ndarray, bits: np.ndarray, out: np.ndarray, sigma: float,
                   scale: float, bound: float) -> bool:
    """Decoder blocks from standard normals and transmitted bits, in one pass.

    `noise` is C-contiguous float64 and `bits` C-contiguous uint8, both
    (B, n_tx). Each transmitted bit's LLR is
    ((0.0 + sigma * g) + (1 - 2b)) * 2 / (sigma * sigma) in float64, as
    `channel.bpsk_awgn` and `channel.demap_llr` compute it from the same
    draw. Into an int8 `out` it goes as rint(L * scale) clipped to +/-bound,
    into a float32 one clipped to +/-bound in float64 and rounded once, as
    `channel.quantize`; the positions of each C-contiguous (B, n_c) row of
    `out` before its last n_tx are set to zero. Returns False, touching
    nothing, where the kernel is unavailable. A NaN LLR raises ValueError,
    as in `quantize`.
    """
    if (noise.dtype != np.float64 or bits.dtype != np.uint8 or noise.ndim != 2
            or noise.shape != bits.shape or not noise.flags.c_contiguous
            or not bits.flags.c_contiguous):
        raise ValueError("noise and bits must be C-contiguous (B, n_tx) float64 and uint8")
    batch, n_tx = noise.shape
    if (out.dtype not in (np.int8, np.float32) or out.ndim != 2 or len(out) != batch
            or out.shape[1] < n_tx or not out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous (B, n_c >= n_tx) int8 or float32 array")
    lib = load()
    if lib is None:
        return False
    if _call(lib.channel_blocks, noise.ctypes.data, bits.ctypes.data, out.ctypes.data,
             int(out.dtype == np.float32), batch, n_tx, out.shape[1] - n_tx, sigma, scale,
             bound, slice_count(batch, out.size)):
        raise ValueError("LLRs must not be NaN")
    return True
