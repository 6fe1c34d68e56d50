"""Closed-loop replay: one client, one thread, one frame at a time.

The tracker hands the pipeline frame ``i+1`` only after ``feed(i)``
returns, so each ``feed`` call is timed on its own.  Digests and oracle
checks run between the timed calls and are timed separately.

Times are normalised to a nominal host speed.  On a shared host the same
code runs slower while other tenants load the machine.  On a 4-vCPU
Xeon virtual machine (2.0 GHz) the reference loop below ran up to 1.6x
slower for tens of seconds on every CPU at once, up to 4x for minutes,
and slower on single CPUs for shorter spells.  The slowdown is uniform
at the scale of a 0.2 ms loop, so it can be measured and taken out.
Every ``PROBE_S`` seconds the replay times a fixed reference loop, and
each frame's latency is multiplied by ``NOMINAL_PROBE_NS`` over the mean
of the two probes around it.  Every ``PIN_S`` seconds it also moves to
the CPU that runs the loop fastest at that moment.  Probes run outside
every timed call; raw times are kept beside the normalised ones.
"""
from __future__ import annotations

import gc
import os
import time
import traceback
from dataclasses import dataclass, field

from repro.core.evaluate import QueryPipeline

from check import Oracle, row_digest

PROBE_S = 0.05
PIN_S = 0.25
# The reference loop's time on an unloaded CPU of the machine above; it
# sets the scale of every normalised time.
NOMINAL_PROBE_NS = 430_000
_CPUS = sorted(os.sched_getaffinity(0))


def _loop_ns() -> int:
    t0 = time.perf_counter_ns()
    s = 0
    for i in range(10_000):
        s += i & 7
    return time.perf_counter_ns() - t0


def probe() -> int:
    """Best of two runs of a fixed 10,000-iteration loop, in ns."""
    return min(_loop_ns(), _loop_ns())


def pin_fastest_cpu() -> int:
    """Move this process to the CPU that is fastest right now.

    Returns that CPU's reference time in ns.
    """
    speed = {}
    for cpu in _CPUS:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = probe()
    best = min(speed, key=speed.get)
    os.sched_setaffinity(0, {best})
    return speed[best]


def release_cpu() -> None:
    """Undo ``pin_fastest_cpu``: allow every CPU the process started with."""
    os.sched_setaffinity(0, _CPUS)


class Normaliser:
    """Scales times taken between probes to the nominal host speed.

    Moves to the fastest CPU when made.  The caller times its work in
    spans and, whenever ``due()``, hands them to ``close``, which probes
    on the CPU they ran on and scales them by the mean of that probe and
    the one before.  Every ``PIN_S`` seconds ``close`` also moves to the
    fastest CPU.  ``release_cpu`` undoes the moves.
    """

    def __init__(self) -> None:
        self.p0 = pin_fastest_cpu()
        now = time.perf_counter_ns()
        self.probe_due = now + PROBE_S * 1e9
        self.pin_due = now + PIN_S * 1e9

    def due(self) -> bool:
        return time.perf_counter_ns() >= self.probe_due

    def close(self, spans: list[int]) -> list[float]:
        p1 = probe()
        scale = NOMINAL_PROBE_NS * 2 / (self.p0 + p1)
        self.p0 = p1
        if time.perf_counter_ns() >= self.pin_due:
            self.p0 = pin_fastest_cpu()
            self.pin_due = time.perf_counter_ns() + PIN_S * 1e9
        self.probe_due = time.perf_counter_ns() + PROBE_S * 1e9
        return [ns * scale for ns in spans]


@dataclass
class Pass:
    """One method's replay of the whole stream."""

    method: str
    pipe: QueryPipeline
    lat_ns: list[float] = field(default_factory=list)  # normalised
    raw_ns: list[int] = field(default_factory=list)
    digests: list[int] = field(default_factory=list)
    errors: dict[int, str] = field(default_factory=dict)  # frame -> reason
    verify_s: float = 0.0

    @property
    def feed_s(self) -> float:
        return sum(self.lat_ns) / 1e9


def run_pass(wl, inputs, method: str, *, oracle: Oracle | None = None, tracer=None) -> Pass:
    """Feed every frame to a fresh pipeline; record latency and digests.

    A frame fails if ``feed`` raises or the oracle disagrees.  After a
    raise the pipeline's state is undefined, so the rest of the stream
    counts as failed without being fed.  The replay moves between CPUs;
    on return the process may run on every CPU again.
    """
    pipe = QueryPipeline(inputs.queries, w=wl.w, d=wl.d, method=method, prune=wl.prune)
    p = Pass(method, pipe)
    if tracer is not None:
        tracer.attach(pipe, method)
    feed = pipe.feed
    sample = oracle.sample if oracle is not None else ()
    clock = time.perf_counter_ns
    gc.collect()
    norm = Normaliser()
    span: list[int] = []  # raw latencies since the last probe

    def close_span() -> None:
        p.lat_ns.extend(norm.close(span))
        p.raw_ns.extend(span)
        span.clear()

    for i, (fid, objs) in enumerate(inputs.frames):
        if norm.due():
            close_span()
        if tracer is not None:
            tracer.before_frame(fid)
        t0 = clock()
        try:
            rows = feed(fid, objs)
        except Exception:
            reason = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            for j in range(i, len(inputs.frames)):
                p.errors[j] = f"feed raised: {reason}"
            break
        t1 = clock()
        if tracer is not None:
            t1 -= tracer.after_frame()
        span.append(t1 - t0)
        v0 = time.perf_counter()
        p.digests.append(row_digest(rows))
        if i in sample:
            errs = oracle.check(method, pipe, i, rows)
            if errs:
                p.errors[i] = "; ".join(errs)
        p.verify_s += time.perf_counter() - v0
    close_span()
    release_cpu()
    return p
