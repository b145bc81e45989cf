"""The compiled kernels of `_layer.c`: built on first use, cached, loaded.

`_layer.c` runs one full layered min-sum iteration of the scalar engine in
each of its domains, int8 (int8 posteriors and messages, int16 scratch) and
f32, from one layer body; it is bit-exact with the numpy rows of
`ScalarWorkspace.layer`, which stay its oracle and its fallback. Each
codeword's pass ends with its readout: hard decisions, margin and syndrome
count, with `decoder._read_out` as oracle and fallback. A pass skips the
codewords a mask marks settled, so decoding spends no more work on a
codeword once it has settled. It also computes the parity bits of a range of base rows over
a batch of hard decisions, for the syndrome and the encoder, with `codec`'s
numpy roll loop as oracle and fallback; and turns a batch's transmitted bits
into its decoder blocks in either domain, each codeword's noise drawn in the
pass from its own numpy bit generator by numpy's own sampler (linked from
numpy's `libnpyrandom.a`), with `channel`'s `quantize(demap_llr(bpsk_awgn(...)))`
as oracle and fallback.

The layer iteration and the row parities index the graph's own arrays
unchecked: they take nothing but a `BaseGraph`, valid by construction, and
check the row count by `code_params`. `channel_blocks` reads each
generator's `bitgen_t` through numpy's public `BitGenerator.ctypes`.

One thread rule serves every call: at most one thread per codeword and one
per CPU of this process's share (`cpu_share`; a sweep's pool workers split
the CPUs among themselves, `share_cpus`). The layer iteration and the row
parities keep a floor of work per thread on top (`slice_count`). The threads
claim codewords one at a time, so a thread on a slower core takes fewer, and
are created and joined inside the call, so none is alive between calls and
forked pool workers stay safe. Codewords never interact, so the outputs are
the same for every thread count.

The library is compiled with the host's gcc into a per-user cache directory
that lasts across processes, under a name keyed by the source, numpy's
sampler archive, the compile command and the host CPU's flags, so a
`-march=native` build is never loaded on another CPU. The library holds
every domain or is not loaded at all: where it cannot be built or loaded,
`run_iteration`, `row_parities` and `channel_blocks` report so and the
caller takes the numpy path.
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
from ldpclab.basegraph import BaseGraph, code_params

SOURCE = Path(__file__).with_name("_layer.c")
# numpy's distributions as a static library: random_standard_normal_fill
ARCHIVE = Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"
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
# The layer entry point of each domain's dtype.
LAYER_ENTRIES = {np.dtype(np.int8): "layer_iteration_i8",
                 np.dtype(np.float32): "layer_iteration_f32"}


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


def cpu_share(batch: int) -> int:
    """Threads for `batch` codewords: at most one per codeword and one per
    CPU this process may run on (its share of them in a pool worker, see
    share_cpus), and at least one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(batch, (cpus or 1) // _sharers))


def slice_count(batch: int, work: int) -> int:
    """Threads for a call over `batch` codewords and `work` edge-positions:
    `cpu_share(batch)`, and no more than leave every thread MIN_SLICE_WORK
    edge-positions."""
    return max(1, min(cpu_share(batch), work // MIN_SLICE_WORK))


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


def build_command(out, *flags) -> list[str]:
    """The command that builds the library into `out`, with extra `flags`."""
    return [*COMMAND, *flags, "-o", str(out), str(SOURCE), str(ARCHIVE), "-lm"]


def _build(path: Path) -> None:
    """Compile the source into `path`; concurrent builds replace atomically."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run(build_command(tmp), check=True, capture_output=True,
                       timeout=BUILD_TIMEOUT_S)
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
            SOURCE.read_bytes(), ARCHIVE.read_bytes(), " ".join(COMMAND).encode(),
            _cpu_id().encode()])).hexdigest()
        path = directory / f"layer-{key[:32]}.so"
        if not path.exists():
            _build(path)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError):
        return None
    return _bind(lib)


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """`lib` with its entry points' argument and result types set."""
    ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    layers = [getattr(lib, name) for name in LAYER_ENTRIES.values()]
    for fn in layers:
        fn.argtypes = [ptr] * 6 + [i64] * 4 + [ptr] * 4 + [ctypes.c_float, i64]
    lib.row_parities.argtypes = [ptr] * 3 + [i64] * 5 + [ptr] * 3 + [i64]
    lib.channel_blocks.argtypes = [ptr] * 3 + [ctypes.c_int] + [i64] * 3 + [f64] * 3 + [i64]
    for fn in (*layers, lib.row_parities, lib.channel_blocks):
        fn.restype = ctypes.c_int
    return lib


def _call(fn, *args) -> int:
    """Run a kernel entry point that shares its batch and return its status;
    raise if the slices' allocation failed."""
    if (status := fn(*args)) < 0:
        raise MemoryError(f"{fn.__name__} could not allocate its threads' scratch")
    return status


def run_iteration(l_v: np.ndarray, messages: np.ndarray, bg: BaseGraph, rows_used: int,
                  beta: float, settled: np.ndarray, hard: np.ndarray, weights: np.ndarray,
                  margins: np.ndarray) -> bool:
    """One layered iteration over rows 0..rows_used-1 of `bg`, in place.

    `l_v` is (B, n_blocks, Z), n_blocks = k_b + rows_used, and `messages`
    (B, E, Z), both int8 or both float32. The base graph's own entry arrays
    are the kernel's tables, passed as they are: a `BaseGraph` is valid when
    it is made (see its docstring), and `code_params` checks `rows_used`.
    The pass skips the codewords the C-contiguous bool (B,) mask `settled`
    sets, and leaves them and their readout untouched. Every other
    codeword's pass ends by writing its uint8 hard decisions `l_v < 0` into
    its row of `hard` (B, n_blocks * Z), its unsatisfied checks over the
    used rows into the int64 `weights` (B,) and min |L_v| into the
    float64 `margins` (B,), as `decoder._read_out` computes them. Strided
    arrays, arrays of two dtypes and arrays of no decoder domain raise
    ValueError. Returns False, touching nothing, where the kernel is
    unavailable.
    """
    if (messages.dtype != l_v.dtype or l_v.dtype not in LAYER_ENTRIES
            or not l_v.flags.c_contiguous or not messages.flags.c_contiguous):
        raise ValueError("posteriors and messages must be C-contiguous arrays of one dtype, "
                         "int8 or float32")
    lib = load()
    if lib is None:
        return False
    if not isinstance(bg, BaseGraph):
        raise ValueError(f"arrays do not match {type(bg).__name__}: not a BaseGraph")
    code_params(bg, bg.z, rows_used)
    batch, n_blocks, z = l_v.shape
    if (n_blocks, z) != (bg.k_b + rows_used, bg.z) or messages.shape != (
            batch, bg.row_start[rows_used], z):
        raise ValueError("workspace arrays do not match the base graph")
    # the kernel indexes them unchecked, by codeword and position
    if (settled.dtype != np.bool_ or settled.shape != (batch,)
            or hard.dtype != np.uint8 or hard.shape != (batch, n_blocks * z)
            or weights.dtype != np.int64 or margins.dtype != np.float64
            or weights.shape != (batch,) or margins.shape != (batch,)
            or not all(a.flags.c_contiguous for a in (settled, hard, weights, margins))):
        raise ValueError("settled mask or readout arrays do not match the posteriors "
                         "and the base graph")
    unsettled = batch - np.count_nonzero(settled)
    # int8 magnitudes m = 0..127 scale by the beta rule's table, f32 by beta
    # rounded to f32, as the numpy rows
    lut = kernels.beta_lut(beta)[:128]
    _call(getattr(lib, LAYER_ENTRIES[l_v.dtype]), l_v.ctypes.data, messages.ctypes.data,
          settled.ctypes.data, hard.ctypes.data, margins.ctypes.data, weights.ctypes.data,
          batch, n_blocks, z, rows_used, bg.row_start.ctypes.data, bg.cols.ctypes.data,
          bg.shifts.ctypes.data, lut.ctypes.data, float(np.float32(beta)),
          slice_count(unsettled, unsettled * messages.shape[1] * z))
    return True


def row_parities(bits: np.ndarray, bg: BaseGraph, rows_used: int, r0: int,
                 r1: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Parity bits of base rows r0..r1-1 over hard bits of rows_used rows.

    `bits` holds C-contiguous uint8 hard decisions, shape
    (B, (k_b + rows_used) * Z) or (B, k_b + rows_used, Z). Returns the
    (B, r1 - r0, Z) uint8 parities and each codeword's int64 count of ones
    among them, or None where the kernel is unavailable.
    """
    if bits.dtype != np.uint8 or bits.ndim not in (2, 3) or not bits.flags.c_contiguous:
        raise ValueError("hard bits must be a C-contiguous 2-D or 3-D uint8 array")
    if not isinstance(bg, BaseGraph):
        raise ValueError(f"arrays do not match {type(bg).__name__}: not a BaseGraph")
    code_params(bg, bg.z, rows_used)
    n_blocks = bg.k_b + rows_used
    if bits.shape[1:] not in ((n_blocks * bg.z,), (n_blocks, bg.z)):
        raise ValueError("hard bits do not match the base graph")
    if not 0 <= r0 <= r1 <= rows_used:
        raise ValueError(f"rows {r0}..{r1 - 1} are not within the {rows_used} rows used")
    lib = load()
    if lib is None:
        return None
    parities = np.empty((len(bits), r1 - r0, bg.z), dtype=np.uint8)
    weights = np.empty(len(bits), dtype=np.int64)
    edges = int(bg.row_start[r1] - bg.row_start[r0])
    _call(lib.row_parities, bits.ctypes.data, parities.ctypes.data, weights.ctypes.data,
          len(bits), n_blocks, bg.z, r0, r1, bg.row_start.ctypes.data, bg.cols.ctypes.data,
          bg.shifts.ctypes.data, slice_count(len(bits), len(bits) * edges * bg.z))
    return parities, weights


def channel_blocks(rngs, bits: np.ndarray, out: np.ndarray, sigma: float, scale: float,
                   bound: float) -> bool:
    """A batch's decoder blocks from its transmitted bits, each codeword's
    noise drawn from its own generator, in one call.

    `rngs` holds one numpy Generator per row of the C-contiguous (B, n_tx)
    uint8 `bits`, and no two of them may share a bit generator: that raises
    ValueError before any is read, whether the kernel is available or not.
    Codeword i draws its n_tx standard normals g from `rngs[i]` as
    `rngs[i].standard_normal` does, leaving it in the same state, and each
    transmitted bit's LLR is ((0.0 + sigma * g) + (1 - 2b)) * 2 / (sigma *
    sigma) in float64, as `channel.bpsk_awgn` and `channel.demap_llr` compute
    it. Into an int8 `out` it goes as rint(L * scale) clipped to +/-bound,
    into a float32 one clipped to +/-bound in float64 and rounded once, as
    `channel.quantize`; the positions of each row of the C-contiguous
    (B, n_c) `out` before its last n_tx are set to zero. The call runs on
    `cpu_share(B)` threads, which read the generators without their locks:
    no other thread may use them meanwhile. Returns False, touching nothing,
    where the kernel is unavailable. A NaN LLR raises ValueError, as in
    `quantize`.
    """
    if (bits.dtype != np.uint8 or out.dtype not in LAYER_ENTRIES or bits.ndim != 2
            or out.ndim != 2 or not len(rngs) == len(bits) == len(out)
            or out.shape[1] < bits.shape[1] or not bits.flags.c_contiguous
            or not out.flags.c_contiguous):
        raise ValueError("bits and out must be C-contiguous (B, n_tx) uint8 and (B, n_c >= "
                         "n_tx) int8 or f32 arrays, with one generator per row")
    states = np.array([g.bit_generator.ctypes.bit_generator.value for g in rngs],
                      dtype=np.uintp)
    if len(np.unique(states)) < len(states):
        raise ValueError("each codeword needs a bit generator of its own")
    lib = load()
    if lib is None:
        return False
    if _call(lib.channel_blocks, states.ctypes.data, bits.ctypes.data, out.ctypes.data,
             out.itemsize, *bits.shape, out.shape[1] - bits.shape[1], sigma, scale, bound,
             cpu_share(len(bits))):
        raise ValueError("LLRs must not be NaN")
    return True
