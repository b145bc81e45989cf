"""Self-test of the benchmark's arithmetic, on known numbers and a tiny code.

    python3 perfbench/selftest.py

Checks coded Mb/s, the end-to-end summary of whole rounds, the measuring
loop's stopping rule, the run-to-run spread, failure counting and the
bit-error recount, and the tracer's counts on a BG2 Z=2 decode. Runs in a
few seconds.
"""

from __future__ import annotations

import math
import unittest

import numpy as np

import run
import stats
from tracing import Tracer, layer_metrics

ldpclab = run.import_library()

from ldpclab import DecodeConfig, QuantConfig, code_params, load_basegraph, quantize  # noqa: E402
from ldpclab.codec import encode_batch  # noqa: E402
from ldpclab.harness import run_bler_sweep  # noqa: E402

from workloads import Round  # noqa: E402


class Throughput(unittest.TestCase):
    def test_coded_mbps_tiny_code(self):
        params = code_params(load_basegraph("BG2", 2), 2, 4)
        self.assertEqual(params.n_c, 2 * (10 + 4))
        self.assertAlmostEqual(stats.coded_mbps(params.n_c, 1e6), 28.0)

    def test_end_to_end_of_rounds(self):
        rounds = [Round(wall=2.0, codewords=10, failed=1, busy=1.5),
                  Round(wall=3.0, codewords=15, failed=0, busy=2.5)]
        m = run.end_to_end(1000, rounds, rss_mb=12.5, setups=[0.3, 0.1, 0.2])
        self.assertAlmostEqual(m["cw_per_s"][0], 5.0)
        self.assertAlmostEqual(m["coded_mbps"][0], 0.005)
        self.assertEqual(m["peak_rss_mb"][0], 12.5)
        self.assertAlmostEqual(m["setup_s"][0], 0.2)

    def test_relative_spread(self):
        # quartiles 2.75 and 8.25 (exclusive method) around median 5.5
        self.assertAlmostEqual(stats.relative_spread(range(1, 11)), 5.5 / 5.5)


class _FixedRounds:
    """Stands in for a workload whose every round takes `wall` seconds."""

    def __init__(self, wall):
        self.wall = wall

    def run_round(self, state, index, workers, tracer=None):
        return Round(wall=self.wall, codewords=1, failed=0, busy=self.wall)


class Measuring(unittest.TestCase):
    def test_stops_at_nearest_round_boundary(self):
        shares = []
        rounds = run.measure(_FixedRounds(10.0), {}, 34.0, 1, between=shares.append)
        self.assertEqual(len(rounds), 3)                 # 30 s is nearer 34 than 40
        self.assertEqual(len(run.measure(_FixedRounds(10.0), {}, 36.0, 1)), 4)
        self.assertEqual([round(x, 3) for x in shares], [0.294, 0.588, 0.882])

    def test_at_least_one_round(self):
        self.assertEqual(len(run.measure(_FixedRounds(10.0), {}, 1.0, 1)), 1)


class Failures(unittest.TestCase):
    def setUp(self):
        self.bg = load_basegraph("BG2", 2)
        self.params = code_params(self.bg, 2, 4)
        rng = np.random.default_rng(11)
        self.msgs = rng.integers(0, 2, size=(3, self.params.k), dtype=np.uint8)
        self.msgs[2, 0] = 1                      # never the all-zero word
        tx = encode_batch(self.msgs, self.bg, 2, 4)[:, 4:]
        self.blocks = quantize(4.0 * (1.0 - 2.0 * tx), QuantConfig(), self.params)

    def test_clean_decodes_do_not_fail(self):
        res = ldpclab.decode(self.blocks, self.bg, DecodeConfig())
        self.assertEqual(stats.failed_codewords(self.msgs, res.bits), 0)

    def test_erased_codeword_fails(self):
        blocks = self.blocks.copy()
        blocks[2] = 0                            # total erasure cannot converge
        res = ldpclab.decode(blocks, self.bg, DecodeConfig(max_iter=3))
        self.assertEqual(stats.failed_codewords(self.msgs, res.bits), 1)

    def test_shape_mismatch_rejected(self):
        with self.assertRaises(ValueError):
            stats.failed_codewords(self.msgs, self.msgs[:, :-1])

    def test_recount_matches_sweep(self):
        res = run_bler_sweep(load_basegraph("BG2", 16), 16, 42, DecodeConfig(max_iter=5),
                             [0.0], target_block_errors=1000, max_codewords=64, seed=2,
                             batch=32, keep_failures=64)
        point = res.points[0]
        self.assertGreater(point.block_errors, 0)
        self.assertEqual(len(point.failed_samples), point.block_errors)
        self.assertEqual(stats.recount_bit_errors(point.failed_samples), point.bit_errors)


class Tracing(unittest.TestCase):
    def test_counts_on_tiny_decode(self):
        bg = load_basegraph("BG2", 2)
        params = code_params(bg, 2, 4)
        blocks = np.zeros((2, params.n_c), dtype=np.int8)      # runs to max_iter
        original = ldpclab.decoder.layered_iteration
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.round"):
                ldpclab.decoder.decode(blocks, bg, DecodeConfig(max_iter=3))
        finally:
            tracer.uninstall()
        self.assertIs(ldpclab.decoder.layered_iteration, original)
        m = layer_metrics(tracer, codewords=2, wall=1.0)
        self.assertEqual(m["decoder.layer_passes"][0], 3)
        self.assertEqual(m["decoder.cw_iters_mean"][0], 3)
        self.assertEqual(m["decoder.useful_lane_share"][0], 1.0)
        # high_throughput merges once per edge of the engaged rows
        self.assertEqual(m["kernels.acc_merge_calls"][0], int(bg.w_r[:4].sum()))
        self.assertTrue(math.isclose(m["trace.wall_s"][0], 0.5))
        self.assertGreater(m["decoder.layer_pass_s"][0], 0.0)

    def test_missing_function_leaves_metric_out(self):
        tracer = Tracer()
        tracer.missing.add("kernels.reduce")
        m = layer_metrics(tracer, codewords=1, wall=1.0)
        self.assertNotIn("kernels.reduce_s", m)
        self.assertIn("decoder.decode_s", m)


if __name__ == "__main__":
    unittest.main()
