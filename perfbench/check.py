"""Per-call correctness: every failed check is a failed run.

``e2e.closed_loop`` checks each timed call as it ends: finite losses,
bitwise identical to the run's first good timed call (same spec).
After the timed calls, the untimed warm-up call (same spec, fewer
iterations) is checked against references, and every timed call must
extend its losses bitwise:

* the warm-up's ``losses[0]`` matches an untimed serial forward-only reference built
  from the initial weights and the iteration-0 microbatches, within the
  repository's serial-differential tolerance for the precision;
* for a workload with a twin backend, the warm-up's losses and final
  weights agree bitwise with the same spec trained on the other backend.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import train
from repro.nn.model import chunk_fwd
from repro.nn import functional as F
from repro.parallel.common import microbatch

from workloads import Workload, make_spec

#: vs-serial tolerances the repository's differential tests use: fp32
#: rings round ~1e-10 away from serial; the fp16/bf16 layout agrees to
#: 1e-2 relative.
FP32_RTOL, FP32_ATOL = 1e-5, 1e-7
MIXED_RTOL = 1e-2


def serial_loss0(wl: Workload, seed: int) -> float:
    """Iteration-0 mean loss from a plain forward pass over the initial
    weights — no runtime, no optimizer."""
    spec = make_spec(wl, seed, 1)
    cfg = spec.cfg
    chunks = spec.init_chunks()
    cos, sin = spec.rope()
    total = 0.0
    for mb in range(spec.n_microbatches):
        x, targets = microbatch(spec, 0, mb)
        for i, w in enumerate(chunks):
            x, _ = chunk_fwd(cfg, i, w, x, cos, sin)
            x = spec.precision.q_act(x)
        loss, _ = F.cross_entropy_fwd(x, targets)
        total += loss
    return total / spec.n_microbatches


def twin_result(wl: Workload, seed: int, iters: int):
    """The same spec trained on the twin backend."""
    spec = make_spec(wl, seed, iters)
    return train(spec, wl.strategy, wl.world, backend=wl.twin_backend)


def bitwise_diff(losses, chunks, ref_losses, ref_chunks) -> Optional[str]:
    if list(losses) != list(ref_losses):
        return f"losses {losses} != {ref_losses}"
    for i, (a, b) in enumerate(zip(chunks, ref_chunks)):
        for name in a.keys():
            if not np.array_equal(a[name], b[name]):
                return f"final weight chunk {i} {name} differs"
    return None


def judge(wl: Workload, seed: int, warm, calls: List) -> List[str]:
    """Check the warm-up call against the serial forward and twin
    references, and every timed call's first losses against it.

    A failed reference check fails every call (they all equal the
    warm-up's prefix); failures are marked in ``call.error``.  Returns
    the run's notes.
    """
    notes: List[str] = []
    problem = None
    if not warm.ok:
        problem = f"warm-up call failed: {warm.error}"
    else:
        ref = serial_loss0(wl, seed)
        notes.append(f"losses[0]={warm.losses[0]!r} serial-forward={ref!r}")
        rtol, atol = (MIXED_RTOL, 0.0) if wl.mixed else (FP32_RTOL, FP32_ATOL)
        if not np.isclose(warm.losses[0], ref, rtol=rtol, atol=atol):
            problem = f"losses[0]={warm.losses[0]!r} vs serial forward {ref!r}"
    if problem is None and wl.twin_backend is not None:
        twin = twin_result(wl, seed, len(warm.losses))
        diff = bitwise_diff(warm.losses, warm.chunks, twin.losses, twin.chunks)
        if diff:
            problem = f"{wl.twin_backend} twin differs: {diff}"
        else:
            notes.append(f"bitwise equal to the {wl.twin_backend} twin "
                         f"(losses and weights after {len(warm.losses)} "
                         f"iterations)")
    for c in calls:
        if not c.ok:
            continue
        if problem is not None:
            c.error = problem
        elif c.losses[: len(warm.losses)] != warm.losses:
            c.error = (f"losses {c.losses} do not extend the warm-up's "
                       f"{warm.losses}")
    return notes
