"""Closed-loop training calls and the end-to-end metrics read from them.

One *call* is one ``repro.train`` of ``ITERS`` iterations on a fresh
transport.  The data source stamps the first microbatch request of each
iteration, which splits the call into set-up (call to first request),
iteration 0, steady-state iterations, and the tail (last iteration plus
final gather and teardown, inside ``wall_s`` only).
"""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro import train
from repro.runtime import Fabric
from repro.runtime.transport import ProcessTransport

from check import bitwise_diff
from workloads import VOCAB, StampedSource, Workload, make_spec

#: iterations per timed call: iteration 0 plus six stamped steady-state
#: steps (the last iteration ends inside the tail, which no stamp closes).
ITERS = 8
#: iterations of the untimed warm-up call each run starts with; its
#: result is also the anchor of the twin-backend check.
WARMUP_ITERS = 2
#: upper bound on recorded data requests per call.
MAX_REQUESTS = 4096


@dataclass
class Call:
    """One ``train`` call: its clock readings, checked outputs, transport."""

    t0: float
    t1: float
    starts: List[float]
    requests: list
    transport: object
    timed: bool = True
    losses: Optional[List[float]] = None
    chunks: Optional[list] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def setup_s(self) -> float:
        return self.starts[0] - self.t0

    @property
    def first_step_s(self) -> float:
        return self.starts[1] - self.starts[0]

    @property
    def steady_steps(self) -> List[float]:
        return [b - a for a, b in zip(self.starts[1:], self.starts[2:])]

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0


def make_transport(wl: Workload, tracer=None):
    """A fresh transport per call, kept so its telemetry can be read."""
    if wl.backend is None:
        return None
    if wl.backend == "thread":
        return Fabric(wl.world, tracer=tracer)
    return ProcessTransport(tracer=tracer)


def new_source(seed: int) -> StampedSource:
    return StampedSource(VOCAB, seed + 1, ITERS, MAX_REQUESTS)


def one_call(wl: Workload, seed: int, source: StampedSource,
             tracer=None, iters: int = ITERS) -> Call:
    """Run one ``train`` call.  An exception or a non-finite loss is
    recorded in ``Call.error`` (a failed run), not raised."""
    spec = make_spec(wl, seed, iters, source)
    transport = make_transport(wl, tracer)
    source.reset()
    result, error = None, None
    t0 = perf_counter()
    try:
        result = train(spec, wl.strategy, wl.world, fabric=transport)
    except Exception as exc:  # a failed run counts against error_rate
        error = f"raised {exc!r}"
    t1 = perf_counter()
    call = Call(t0, t1, source.iteration_starts(iters), source.requests(),
                transport, error=error)
    if result is not None:
        call.losses, call.chunks = list(result.losses), result.chunks
        if not all(math.isfinite(x) for x in call.losses):
            call.error = f"non-finite loss in {call.losses}"
    return call


def warmup_call(wl: Workload, seed: int, source: StampedSource) -> Call:
    """The untimed first call: process-level lazy set-up (imports, BLAS
    thread pools, first page faults) is paid once per process, not per
    ``train`` call, so it stays out of the timed calls."""
    call = one_call(wl, seed, source, iters=WARMUP_ITERS)
    call.timed = False
    return call


def closed_loop(wl: Workload, seed: int, seconds: float, min_calls: int,
                source: StampedSource) -> List[Call]:
    """Back-to-back calls covering ``seconds`` (at least ``min_calls``);
    each call starts when the previous one has ended.

    Each call must equal the first good call bitwise; then it drops its
    weights, so peak RSS does not grow with the number of calls.
    """
    calls: List[Call] = []
    first: Optional[Call] = None
    end = perf_counter() + seconds
    # start another call while at least half of one (of the mean length
    # so far) fits, so the calls cover the window to within half a call.
    while len(calls) < min_calls or (
        perf_counter() + statistics.mean(c.wall_s for c in calls) / 2 <= end
    ):
        call = one_call(wl, seed, source)
        calls.append(call)
        if not call.ok:
            continue
        if first is None:
            first = call
            continue
        diff = bitwise_diff(call.losses, call.chunks, first.losses, first.chunks)
        if diff:
            call.error = f"not deterministic: {diff}"
        call.chunks = None
    return calls


def peak_rss_mb() -> float:
    """Larger of this process's and the worst reaped child's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def timed_ok(calls: List[Call]) -> List[Call]:
    return [c for c in calls if c.ok and c.timed]


def tokens_per_s(wl: Workload, calls: List[Call]) -> float:
    steps = [s for c in calls for s in c.steady_steps]
    return wl.tokens_per_step / statistics.median(steps)


def e2e_metrics(wl: Workload, calls: List[Call], rss_mb: float
                ) -> Tuple[Dict, Dict]:
    """``(gated, reported)`` metrics as ``name: (value, unit)``: medians
    over the successful timed calls.

    ``first_step_s`` and ``wall_s`` are one sample per call, and the
    process backend stalls for seconds at random inside some calls, so a
    run has too few of them to stay steady on a shared two-core host:
    they are reported, not gated.
    """
    ok = timed_ok(calls)
    med = statistics.median
    gated = {
        "tokens_per_s": (tokens_per_s(wl, ok), "tokens/s"),
        "setup_s": (med([c.setup_s for c in ok]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    reported = {
        "first_step_s": (med([c.first_step_s for c in ok]), "s"),
        "wall_s": (med([c.wall_s for c in ok]), "s"),
    }
    return gated, reported
