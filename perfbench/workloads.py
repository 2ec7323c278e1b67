"""The benchmark's workloads and the data source that times them.

Every workload is closed-loop synchronous training: one ``repro.train``
call at a time, each iteration starting only after the previous one
ends, at most two ranks on a two-core host.  ``make_spec`` turns a
workload and a seed into the one :class:`repro.TrainSpec` the program
receives.

:class:`StampedSource` is the spec's data source.  It yields exactly the
tokens of the default generator and stamps every request into memory
created before the launch, which forked rank processes share with this
one; step boundaries and set-up time are read from those stamps.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from repro import FP32, MIXED, SGD, MasterWeightOptimizer, ModelConfig, TrainSpec

HIDDEN = 256
HEADS = 4
VOCAB = 256
WORLD = 2


@dataclass(frozen=True)
class Workload:
    name: str
    strategy: str
    world: int
    #: transport the ranks run on; None for the runtime-free serial path.
    backend: Optional[str]
    layers: int
    seq: int
    microbatch_size: int
    microbatches: int
    mixed: bool = False
    #: the other backend, whose run of the same spec must agree bitwise.
    twin_backend: Optional[str] = None

    @property
    def tokens_per_step(self) -> int:
        return self.microbatches * self.microbatch_size * self.seq


WORKLOADS = {
    w.name: w
    for w in (
        Workload("serial", "serial", 1, None, 4, 256, 1, 4),
        Workload("weipipe-thread", "weipipe-interleave", WORLD, "thread",
                 4, 256, 1, 4, twin_backend="process"),
        Workload("weipipe-proc", "weipipe-interleave", WORLD, "process",
                 4, 256, 1, 4, twin_backend="thread"),
        Workload("1f1b-longctx-proc", "1f1b", WORLD, "process",
                 2, 512, 1, 2, mixed=True),
    )
}


def make_spec(wl: Workload, seed: int, iters: int, source=None) -> TrainSpec:
    """The training problem of workload ``wl`` for benchmark seed ``seed``."""
    cfg = ModelConfig(
        hidden=HIDDEN, n_layers=wl.layers, n_heads=HEADS, seq_len=wl.seq,
        vocab=VOCAB, flash_attention=wl.mixed, dtype=np.float32,
    )
    precision = MIXED if wl.mixed else FP32
    if wl.mixed:
        make_opt = lambda: MasterWeightOptimizer(SGD(lr=0.1), MIXED)  # noqa: E731
    else:
        make_opt = lambda: SGD(lr=0.1)  # noqa: E731
    return TrainSpec(
        cfg=cfg,
        n_microbatches=wl.microbatches,
        microbatch_size=wl.microbatch_size,
        iters=iters,
        seed=seed,
        data_seed=seed + 1,
        recompute=wl.mixed,
        precision=precision,
        make_optimizer=make_opt,
        data=source,
    )


class StampedSource:
    """Uniform next-token data that records when and how long each
    request ran.

    ``microbatch`` returns what ``repro.parallel.common.microbatch``
    returns for ``spec.data=None`` with ``data_seed == seed``.  Stamps
    live in ``multiprocessing`` shared arrays under one lock, so they
    are written the same way by rank threads and by forked rank
    processes.  Times are ``perf_counter`` readings, one monotonic clock
    across every process of the host.
    """

    def __init__(self, vocab: int, seed: int, max_iters: int, max_calls: int):
        self.vocab = vocab
        self.seed = seed
        self._lock = multiprocessing.Lock()
        #: per iteration: start of its first microbatch request.
        self._first = multiprocessing.RawArray("d", max_iters)
        #: per request: iteration, start, duration.
        self._calls = multiprocessing.RawArray("d", 3 * max_calls)
        self._n = multiprocessing.RawValue("i", 0)
        self.reset()

    def reset(self) -> None:
        with self._lock:
            for i in range(len(self._first)):
                self._first[i] = float("inf")
            self._n.value = 0

    def microbatch(
        self, iteration: int, index: int, g: int, s: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        t0 = perf_counter()
        rng = np.random.default_rng((self.seed, iteration, index))
        stream = rng.integers(0, self.vocab, size=(g, s + 1))
        out = stream[:, :-1], stream[:, 1:]
        t1 = perf_counter()
        with self._lock:
            if t0 < self._first[iteration]:
                self._first[iteration] = t0
            n = self._n.value
            if 3 * n < len(self._calls):
                self._calls[3 * n: 3 * n + 3] = [iteration, t0, t1 - t0]
                self._n.value = n + 1
        return out

    def iteration_starts(self, iters: int) -> List[float]:
        with self._lock:
            return list(self._first[:iters])

    def requests(self) -> List[Tuple[int, float, float]]:
        """``(iteration, start, duration)`` of every recorded request."""
        with self._lock:
            n = self._n.value
            flat = list(self._calls[: 3 * n])
        return [(int(flat[i]), flat[i + 1], flat[i + 2])
                for i in range(0, len(flat), 3)]
