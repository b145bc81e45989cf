"""Parallelization resource arithmetic: worker counts, memory footprints,
and cooperation-width selection for a parameterized accelerator budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ldpclab.basegraph import BaseGraph, code_params

# Resident workers needed to hide arithmetic latency on the newer
# architectures; exposed as configuration, not hard-coded policy.
DEFAULT_WORKER_BUDGET = 128

# Local (shared) memory budget the posterior block should fit into.
DEFAULT_LOCAL_BYTES = 64 * 1024


class Strategy(str, Enum):
    """The paper's two layouts of a codeword's row work: high throughput puts
    Z/rho workers on it, each scanning a row in order; low latency puts
    (alpha/rho)Z on it, folding alpha strided column partitions and merging
    them with `kernels.tree_reduce`. Both give the same (m1, m2, signs), so
    the decoder reduces each whole row; only the worker count differs here.
    """

    HIGH_THROUGHPUT = "high_throughput"
    LOW_LATENCY = "low_latency"


@dataclass(frozen=True)
class StrategyPlan:
    strategy: Strategy
    rho: int
    alpha: int
    n_thread: int
    s_v_bytes: int
    s_cv_bytes: int
    fits_local: bool


def thread_count(strategy, z: int, rho: int, alpha: int | None = None) -> int:
    """Workers engaged per codeword: Z/rho (high throughput) or (alpha/rho)Z."""
    strategy = Strategy(strategy)
    if rho not in (1, 2, 4):
        raise ValueError(f"rho must be 1, 2, or 4, got {rho}")
    if strategy is Strategy.HIGH_THROUGHPUT:
        if z % rho:
            raise ValueError(f"Z={z} is not divisible by rho={rho}")
        return z // rho
    if alpha is None or alpha < 1 or alpha & (alpha - 1):
        raise ValueError("low latency needs a power-of-two alpha")
    if (alpha * z) % rho:
        raise ValueError(f"alpha*Z={alpha * z} is not divisible by rho={rho}")
    return alpha * z // rho


def memory_footprint(bg: BaseGraph, z: int, rows_used: int, epsilon: int) -> tuple[int, int]:
    """(S_v, S_cv) in bytes for one codeword at `epsilon` bytes per LLR.

    S_v covers the posteriors of all engaged variables; S_cv covers one
    stored message per edge of the engaged rows (row weights summed).
    """
    if epsilon not in (1, 2, 4):
        raise ValueError(f"epsilon must be 1, 2, or 4 bytes, got {epsilon}")
    code_params(bg, z, rows_used)
    s_v = epsilon * z * (bg.k_b + rows_used)
    s_cv = epsilon * z * int(bg.w_r[:rows_used].sum())
    return s_v, s_cv


def choose_alpha(bg: BaseGraph, z: int, rho: int, worker_budget: int) -> int:
    """Largest power-of-two cooperation width fitting the worker budget.

    Capped additionally at the largest power of two not exceeding the
    maximum row weight: wider groups would only pad with identity work.
    """
    if rho not in (1, 2, 4):
        raise ValueError(f"rho must be 1, 2, or 4, got {rho}")
    minimum = z / rho
    if worker_budget < minimum:
        raise ValueError(
            f"worker budget {worker_budget} is below the minimum {minimum:.0f} (Z/rho)"
        )
    max_w = int(bg.w_r.max())
    alpha = 1
    while alpha * 2 <= max_w and (alpha * 2 / rho) * z <= worker_budget:
        alpha *= 2
    return alpha


def make_plan(
    strategy,
    bg: BaseGraph,
    z: int,
    rows_used: int,
    rho: int,
    epsilon: int,
    alpha: int | None = None,
    worker_budget: int = DEFAULT_WORKER_BUDGET,
    local_bytes: int = DEFAULT_LOCAL_BYTES,
) -> StrategyPlan:
    """Assemble the resource plan for one decode configuration."""
    strategy = Strategy(strategy)
    if strategy is Strategy.LOW_LATENCY and alpha is None:
        alpha = choose_alpha(bg, z, rho, worker_budget)
    n_thread = thread_count(strategy, z, rho, alpha)
    s_v, s_cv = memory_footprint(bg, z, rows_used, epsilon)
    return StrategyPlan(
        strategy=strategy,
        rho=rho,
        alpha=alpha if strategy is Strategy.LOW_LATENCY else 1,
        n_thread=n_thread,
        s_v_bytes=s_v,
        s_cv_bytes=s_cv,
        fits_local=s_v <= local_bytes,
    )
