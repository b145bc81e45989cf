"""Spans at the library's layer boundaries, taken from outside the library.

`Tracer.install()` replaces the module attributes through which the harness
and the decoder call each layer with timing wrappers; `uninstall()` puts the
originals back. Nothing is patched in an untraced run. Spans stay in memory
as (id, parent id, layer, start, end) and are written once the run ends.

A call made while a span of the same layer is open records no span of its
own: only the outermost `acc_merge`/`tree_reduce` call counts, for example.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, layer). The harness imported its stages by name, so
# they are wrapped where the harness looks them up; the decoder and kernels
# look up their callees as module globals at call time.
TARGETS = [
    ("ldpclab.harness", "encode_batch", "codec.encode"),
    ("ldpclab.harness", "crc_attach", "codec.crc_attach"),
    ("ldpclab.harness", "bpsk_awgn", "channel"),
    ("ldpclab.harness", "demap_llr", "channel"),
    ("ldpclab.harness", "quantize", "channel"),
    ("ldpclab.harness", "decode", "decoder.decode"),
    ("ldpclab.decoder", "decode", "decoder.decode"),
    ("ldpclab.decoder", "init_workspace", "decoder.init"),
    ("ldpclab.decoder", "layered_iteration", "decoder.layer_pass"),
    ("ldpclab.decoder", "crc_check", "codec.crc_check"),
    ("ldpclab.kernels", "acc_merge", "kernels.reduce"),
    ("ldpclab.kernels", "tree_reduce", "kernels.reduce"),
]

# Span of one workload operation, opened by the benchmark itself.
ROUND = "bench.round"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._saved: list[tuple] = []
        self._t0 = time.perf_counter()

    def install(self) -> None:
        for mod_name, attr, layer in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.add(layer)
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, layer))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    @contextmanager
    def span(self, layer: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        self._open[layer] += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open[layer] -= 1
            self._stack.pop()
            self.spans[sid] = (sid, parent, layer, start - self._t0, end - self._t0)

    def _wrap(self, fn, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open[layer]:
                return fn(*args, **kwargs)
            with self.span(layer):
                out = fn(*args, **kwargs)
            self._observe(layer, args, out)
            return out

        return traced

    def _observe(self, layer: str, args, out) -> None:
        if layer == "decoder.decode":
            iterations = getattr(out, "iterations", None)
            if iterations is not None:
                self.counts["decode_calls"] += 1
                self.counts["cw_decoded"] += len(iterations)
                self.counts["cw_iters"] += int(iterations.sum())
        elif layer == "decoder.layer_pass":
            self.counts["layer_passes"] += 1
            lanes = getattr(args[0], "lanes", None) if args else None
            if lanes is None:
                self.counts["lanes_unknown"] += 1
            else:
                self.counts["lane_iters"] += int(lanes)
        elif layer == "kernels.reduce":
            self.counts["reduce_calls"] += 1

    def layer_seconds(self) -> Counter:
        """Total seconds per layer over all recorded spans."""
        total: Counter = Counter()
        for _, _, layer, start, end in self.spans:
            total[layer] += end - start
        return total

    def child_seconds(self, parent_layer: str) -> float:
        """Seconds in spans whose direct parent is a span of `parent_layer`."""
        parents = {sid for sid, _, layer, _, _ in self.spans if layer == parent_layer}
        return sum(end - start for _, parent, _, start, end in self.spans
                   if parent in parents)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "parent", "layer", "start_s", "end_s"],
                "spans": self.spans,
                "counts": dict(self.counts),
                "missing": sorted(self.missing),
            }, fh)


def layer_metrics(tracer: Tracer, codewords: int, wall: float) -> dict:
    """Per-layer figures of one traced phase, per codeword where timed.

    Returns {name: (value, unit)}; a layer whose function is missing from the
    library leaves its metrics out.
    """
    sec = tracer.layer_seconds()
    c = tracer.counts
    missing = tracer.missing
    out: dict = {}

    def put(name, value, unit, *layers):
        if not missing.intersection(layers):
            out[name] = (value, unit)

    per_cw = 1.0 / codewords
    put("codec.encode_s", sec["codec.encode"] * per_cw, "s/cw", "codec.encode")
    put("codec.crc_attach_s", sec["codec.crc_attach"] * per_cw, "s/cw", "codec.crc_attach")
    put("codec.crc_check_s", sec["codec.crc_check"] * per_cw, "s/cw", "codec.crc_check")
    put("channel.s", sec["channel"] * per_cw, "s/cw", "channel")
    put("decoder.decode_s", sec["decoder.decode"] * per_cw, "s/cw", "decoder.decode")
    put("decoder.init_s", sec["decoder.init"] * per_cw, "s/cw", "decoder.init")
    put("decoder.layer_pass_s", sec["decoder.layer_pass"] * per_cw, "s/cw",
        "decoder.layer_pass")
    decode_self = sec["decoder.decode"] - tracer.child_seconds("decoder.decode")
    put("decoder.self_s", decode_self * per_cw, "s/cw", "decoder.decode",
        "decoder.init", "decoder.layer_pass", "codec.crc_check")
    if c["decode_calls"]:
        put("decoder.layer_passes", c["layer_passes"] / c["decode_calls"], "count",
            "decoder.decode", "decoder.layer_pass")
        put("decoder.cw_iters_mean", c["cw_iters"] / c["cw_decoded"], "count",
            "decoder.decode")
    if c["lane_iters"] and not c["lanes_unknown"]:
        put("decoder.ms_per_lane_iter", 1e3 * sec["decoder.layer_pass"] / c["lane_iters"],
            "ms", "decoder.layer_pass")
        put("decoder.useful_lane_share", c["cw_iters"] / c["lane_iters"], "share",
            "decoder.decode", "decoder.layer_pass")
    put("kernels.reduce_s", sec["kernels.reduce"] * per_cw, "s/cw", "kernels.reduce")
    if c["layer_passes"]:
        put("kernels.acc_merge_calls", c["reduce_calls"] / c["layer_passes"], "count",
            "kernels.reduce", "decoder.layer_pass")
    layers_s = tracer.child_seconds(ROUND)
    put("harness.self_s", (wall - layers_s) * per_cw, "s/cw")
    put("trace.wall_s", wall * per_cw, "s/cw")
    return out
