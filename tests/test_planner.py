import pytest

from ldpclab.planner import Strategy, choose_alpha, make_plan, memory_footprint, thread_count
from tests.conftest import get_graph


def test_thread_count_high_throughput_reference_point():
    # one codeword per core, four 8-bit lanes: at most 96 workers at Z=384
    assert thread_count(Strategy.HIGH_THROUGHPUT, 384, 4) == 96


def test_thread_count_low_latency():
    assert thread_count(Strategy.LOW_LATENCY, 384, 4, alpha=4) == 384
    assert thread_count(Strategy.LOW_LATENCY, 128, 2, alpha=8) == 512


def test_thread_count_divisibility_errors():
    with pytest.raises(ValueError):
        thread_count(Strategy.HIGH_THROUGHPUT, 2, 4)
    with pytest.raises(ValueError):
        thread_count(Strategy.LOW_LATENCY, 2, 4, alpha=1)
    with pytest.raises(ValueError):
        thread_count(Strategy.LOW_LATENCY, 64, 2, alpha=3)
    with pytest.raises(ValueError):
        thread_count(Strategy.HIGH_THROUGHPUT, 64, 3)


def test_ll_ht_formula_identity():
    # (alpha/rho) Z == alpha * (Z/rho) whenever both are integral
    for z in (64, 128, 384):
        for rho in (1, 2, 4):
            for alpha in (1, 2, 4, 8):
                ll = thread_count(Strategy.LOW_LATENCY, z, rho, alpha=alpha)
                ht = thread_count(Strategy.HIGH_THROUGHPUT, z, rho)
                assert ll == alpha * ht


def test_memory_footprint_reference_figures():
    bg = get_graph("BG1", 384)
    s_v1, s_cv1 = memory_footprint(bg, 384, 46, epsilon=1)
    s_v2, s_cv2 = memory_footprint(bg, 384, 46, epsilon=2)
    assert s_v1 == 26112          # 26 kB per codeword at 1 byte per LLR
    assert s_v2 == 52224          # 52 kB at 2 bytes
    assert s_cv1 == 121344        # 121 kB of messages (316 edges * Z)
    assert s_cv2 == 242688        # 242 kB
    # kB-rounded figures
    assert s_v1 // 1000 == 26
    assert s_v2 // 1000 == 52
    assert s_cv1 // 1000 == 121
    assert s_cv2 // 1000 == 242


def test_memory_footprint_partial_rows():
    bg = get_graph("BG2", 16)
    s_v, s_cv = memory_footprint(bg, 16, 10, epsilon=1)
    assert s_v == 16 * (10 + 10)
    assert s_cv == 16 * int(bg.w_r[:10].sum())


def test_memory_footprint_validation():
    bg = get_graph("BG2", 16)
    with pytest.raises(ValueError):
        memory_footprint(bg, 16, 42, epsilon=3)
    with pytest.raises(ValueError):
        memory_footprint(bg, 16, 2, epsilon=1)
    with pytest.raises(ValueError):
        memory_footprint(bg, 32, 42, epsilon=1)


def test_choose_alpha_budget_search():
    bg = get_graph("BG1", 384)
    # alpha=8 -> (8/4)*384 = 768 workers <= 1024; alpha=16 would need 1536
    assert choose_alpha(bg, 384, rho=4, worker_budget=1024) == 8


def test_choose_alpha_degenerates_at_minimum_budget():
    bg = get_graph("BG1", 384)
    assert choose_alpha(bg, 384, rho=4, worker_budget=96) == 1


def test_choose_alpha_capped_by_row_weight():
    bg = get_graph("BG2", 2)
    # BG2's widest row has 10 columns: cap at 8 despite a huge budget
    assert int(bg.w_r.max()) == 10
    assert choose_alpha(bg, 2, rho=1, worker_budget=10**6) == 8


def test_choose_alpha_budget_too_small():
    bg = get_graph("BG1", 384)
    with pytest.raises(ValueError):
        choose_alpha(bg, 384, rho=4, worker_budget=95)


def test_make_plan_fields():
    bg = get_graph("BG1", 384)
    plan = make_plan(Strategy.LOW_LATENCY, bg, 384, 46, rho=4, epsilon=1,
                     worker_budget=1024)
    assert plan.alpha == 8
    assert plan.n_thread == 768
    assert plan.s_v_bytes == 26112
    assert plan.s_cv_bytes == 121344
    assert plan.fits_local            # 26 kB fits a 64 kB local budget
    plan2 = make_plan(Strategy.HIGH_THROUGHPUT, bg, 384, 46, rho=4, epsilon=2)
    assert plan2.n_thread == 96
    assert plan2.alpha == 1
    assert plan2.fits_local           # 52 kB still fits


def test_make_plan_local_overflow():
    bg = get_graph("BG1", 384)
    plan = make_plan(Strategy.HIGH_THROUGHPUT, bg, 384, 46, rho=4, epsilon=2,
                     local_bytes=32 * 1024)
    assert not plan.fits_local
