"""Spans around the public methods of the instances a traced run creates.

Each call of ``codec.encode_iter/decode``, ``gen.advance/results/
n_states``, ``engine.evaluate`` and ``pipe.feed`` records a span: name,
start, end and parent span.  Spans of one frame share the trace id
``<workload>/<method>/<fid>``.  A span's self time is its duration minus
its children's, so CNF work reached through ``admit`` inside ``advance``
is not counted twice.  Spans stay in memory until the run ends.

Counting that the benchmark does inside a span (states intersecting the
frame, before ``advance``) is cut out of every open span and out of the
frame's latency, so counters do not show up as program time.
"""
from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import defaultdict

SPAN_NAMES = (
    "pipe.feed",
    "codec.encode_iter",
    "codec.decode",
    "gen.advance",
    "gen.results",
    "gen.n_states",
    "engine.evaluate",
)


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.methods: list[str] = []
        self.name = array("b")
        self.method = array("b")
        self.fid = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        self._fid = -1
        self._excluded = 0
        self._pipe = None
        # per method: frames, states scanned / intersecting, peak states
        self.counts: dict[str, dict[str, float]] = {}

    # -- instrumentation ------------------------------------------------
    def attach(self, pipe, method: str) -> None:
        self.methods.append(method)
        self._pipe = pipe
        self._mi = len(self.methods) - 1
        self._c = self.counts[method] = defaultdict(float)
        self._visits = pipe.gen.stats["visits"] if method == "ssg" else None
        gen = pipe.gen
        self._wrap(pipe, "feed", "pipe.feed")
        self._wrap(pipe.codec, "encode_iter", "codec.encode_iter")
        self._wrap(pipe.codec, "decode", "codec.decode")
        self._wrap(gen, "advance", "gen.advance", pre=self._count_intersecting)
        self._wrap(gen, "results", "gen.results")
        self._wrap(gen, "n_states", "gen.n_states")
        self._wrap(pipe.engine, "evaluate", "engine.evaluate")

    def _wrap(self, obj, attr: str, name: str, pre=None) -> None:
        fn = getattr(obj, attr)
        ni = SPAN_NAMES.index(name)
        clock = time.perf_counter_ns
        open_, start, end = self._open, self.start, self.end

        def traced(*args):
            if pre is not None:
                c0 = clock()
                pre(*args)
                cut = clock() - c0
                self._excluded += cut
                for j in open_:
                    start[j] += cut
            i = len(start)
            self.name.append(ni)
            self.method.append(self._mi)
            self.fid.append(self._fid)
            self.parent.append(open_[-1] if open_ else -1)
            end.append(0)
            open_.append(i)
            start.append(clock())
            try:
                return fn(*args)
            finally:
                end[i] = clock()
                open_.pop()

        setattr(obj, attr, traced)

    def _count_intersecting(self, fid, objs_mask) -> None:
        self._c["intersecting"] += sum(1 for m in self._pipe.gen.states if m & objs_mask)

    def before_frame(self, fid: int) -> None:
        """Per-frame counters read before ``feed`` (outside its span)."""
        self._fid = fid
        n = self._pipe.gen.n_states()
        c = self._c
        c["frames"] += 1
        c["peak_states"] = max(c["peak_states"], n)
        if self._visits is None:
            c["scanned"] += n

    def after_frame(self) -> int:
        """Counters read after ``feed``; returns the ns cut from its latency."""
        if self._visits is not None:
            visits = self._pipe.gen.stats["visits"]
            self._c["scanned"] += visits - self._visits
            self._visits = visits
        cut, self._excluded = self._excluded, 0
        return cut

    # -- analysis -------------------------------------------------------
    def layer_metrics(self, passes, n_window: int) -> dict[str, float]:
        """Per-layer metrics of every traced pass, keyed by metric name."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        acc = defaultdict(float)
        advance_by_fid: dict[int, dict[int, int]] = defaultdict(dict)
        adv_i, eval_i = SPAN_NAMES.index("gen.advance"), SPAN_NAMES.index("engine.evaluate")
        for i in range(n):
            mi, ni = self.method[i], self.name[i]
            acc[mi, ni, "s"] += dur[i]
            acc[mi, ni, "self"] += dur[i] - child[i]
            acc[mi, ni, "calls"] += 1
            if ni == eval_i:
                where = "admit" if self.parent[i] >= 0 and self.name[self.parent[i]] == adv_i else "match"
                acc[mi, where, "s"] += dur[i]
                acc[mi, where, "calls"] += 1
            elif ni == adv_i:
                advance_by_fid[mi][self.fid[i]] = dur[i]
        out: dict[str, float] = {}
        for mi, method in enumerate(self.methods):
            p = passes[method]
            c = self.counts[method]

            def s(name, kind="s"):
                return acc[mi, SPAN_NAMES.index(name), kind] / 1e9

            frames = max(c["frames"], 1)
            out[f"codec.encode_s.{method}"] = s("codec.encode_iter")
            out[f"codec.decode_s.{method}"] = s("codec.decode")
            out[f"codec.decode_calls.{method}"] = acc[mi, SPAN_NAMES.index("codec.decode"), "calls"]
            out[f"codec.bits.{method}"] = len(p.pipe.codec)
            out[f"gen.advance_self_s.{method}"] = s("gen.advance", "self")
            out[f"gen.results_s.{method}"] = s("gen.results")
            out[f"gen.states_scanned.{method}"] = c["scanned"] / frames
            out[f"gen.states_intersecting.{method}"] = c["intersecting"] / frames
            out[f"gen.useful_ratio.{method}"] = c["intersecting"] / c["scanned"] if c["scanned"] else 0.0
            out[f"gen.peak_states.{method}"] = c["peak_states"]
            out[f"gen.result_states.{method}"] = p.pipe.stats.result_states / frames
            out[f"gen.late_over_early.{method}"] = _late_over_early(advance_by_fid[mi], n_window)
            for where in ("admit", "match"):
                out[f"cnf.evaluate_s.{where}.{method}"] = acc[mi, where, "s"] / 1e9
                out[f"cnf.evaluate_calls.{where}.{method}"] = acc[mi, where, "calls"]
            out[f"pipeline.feed_self_s.{method}"] = s("pipe.feed", "self")
            out[f"pipeline.matches.{method}"] = p.pipe.stats.matches
            out[f"pipeline.terminated.{method}"] = p.pipe.stats.terminated
            out[f"pipeline.cache_entries.{method}"] = sum(
                len(getattr(p.pipe, a)) for a in ("_counts_cache", "_match_cache", "_admit_cache")
            )
        return out

    def write(self, path: str) -> int:
        """Write every span as one JSON line; returns the span count."""
        t0 = min(self.start, default=0)
        with gzip.open(path, "wt", compresslevel=1) as f:
            for i in range(len(self.start)):
                f.write(json.dumps({
                    "trace": f"{self.workload}/{self.methods[self.method[i]]}/{self.fid[i]}",
                    "span": i,
                    "parent": self.parent[i],
                    "name": SPAN_NAMES[self.name[i]],
                    "start_ns": self.start[i] - t0,
                    "end_ns": self.end[i] - t0,
                }) + "\n")
        return len(self.start)


def _late_over_early(advance_ns: dict[int, int], n_window: int) -> float:
    """Mean ``advance`` time over the last tenth of frames ÷ the first
    tenth after the first window."""
    fids = sorted(f for f in advance_ns if f >= n_window)
    k = max(1, len(fids) // 10)
    early = sum(advance_ns[f] for f in fids[:k]) / k
    late = sum(advance_ns[f] for f in fids[-k:]) / k
    return late / early if early else 0.0
