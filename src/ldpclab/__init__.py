"""Quasi-cyclic LDPC codec laboratory.

Encoder, layered/flooding min-sum decoders with packed-lane kernels, BPSK/AWGN
channel, parallelization planner, and a BER/BLER + latency benchmark harness.
"""

# defined before the submodules load, so any of them can import it
__version__ = "0.1.0"

from ldpclab.basegraph import (
    ALL_LIFTING_SIZES,
    LIFTING_SETS,
    BaseGraph,
    CodeParams,
    code_params,
    expand_to_binary,
    lifting_set_index,
    load_basegraph,
)
from ldpclab.channel import QuantConfig, bpsk_awgn, bpsk_exact, demap_llr, quantize
from ldpclab.codec import (
    Codeword,
    Syndrome,
    crc_attach,
    crc_check,
    depuncture,
    encode,
    puncture,
    syndrome,
)
from ldpclab.decoder import (
    DecodeConfig,
    DecodeResult,
    DecodeWorkspace,
    EarlyStop,
    Precision,
    check_node_exact,
    check_node_minsum,
    decode,
    decode_flooding,
    init_workspace,
    layered_iteration,
)
from ldpclab.planner import (
    Strategy,
    StrategyPlan,
    choose_alpha,
    make_plan,
    memory_footprint,
    thread_count,
)

__all__ = [
    "__version__",
    "ALL_LIFTING_SIZES",
    "LIFTING_SETS",
    "BaseGraph",
    "CodeParams",
    "Codeword",
    "DecodeConfig",
    "DecodeResult",
    "DecodeWorkspace",
    "EarlyStop",
    "Precision",
    "QuantConfig",
    "Strategy",
    "StrategyPlan",
    "Syndrome",
    "bpsk_awgn",
    "bpsk_exact",
    "check_node_exact",
    "check_node_minsum",
    "choose_alpha",
    "code_params",
    "crc_attach",
    "crc_check",
    "decode",
    "decode_flooding",
    "demap_llr",
    "depuncture",
    "encode",
    "expand_to_binary",
    "init_workspace",
    "layered_iteration",
    "lifting_set_index",
    "load_basegraph",
    "make_plan",
    "memory_footprint",
    "puncture",
    "quantize",
    "syndrome",
    "thread_count",
]
