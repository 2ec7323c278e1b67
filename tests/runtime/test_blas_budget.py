"""Per-rank BLAS thread budget (``repro.runtime.blas``) and the fall-back
counters of the shared-memory fabric.

A launch of W ranks holds each rank to ``min(current, max(1, cores //
W))`` BLAS threads and hands the caller its own count back afterwards,
on both transports and whether or not a worker raises.  The budget is
observable: a ``blas_threads`` gauge per rank, and a BLAS fingerprint in
trace metadata and post-mortem bundles.
"""

import numpy as np
import pytest

from repro.nn.params import BufferPool
from repro.obs.flight import render_postmortem
from repro.obs.tracer import Tracer
from repro.runtime import ProcessTransport, ThreadTransport, run_workers
from repro.runtime import blas
from repro.runtime.communicator import Fabric
from repro.runtime.transport.base import WorkerError

managed = pytest.mark.skipif(
    not blas.library().managed, reason="no BLAS thread control on this host"
)


@pytest.fixture
def oversubscribed():
    """Give the caller more BLAS threads than any W=2 budget allows, so
    the budget differs from the caller's count on any host; restore the
    original count afterwards."""
    before = blas.get_threads()
    count = 2 * blas.usable_cores()
    blas.set_threads(count)
    yield count
    blas.set_threads(before)


def _report_threads(comm):
    return blas.get_threads()


def _raise_on_rank_one(comm):
    if comm.rank == 1:
        raise RuntimeError("boom on rank 1")
    return blas.get_threads()


# -- budget arithmetic ---------------------------------------------------------


def test_one_core_gives_one_thread():
    assert blas.budget_for(2, current=8, cores=1) == 1


def test_more_ranks_than_cores_gives_one_thread():
    assert blas.budget_for(4, current=8, cores=2) == 1


def test_cores_split_evenly_between_ranks():
    assert blas.budget_for(2, current=8, cores=8) == 4


def test_lower_external_count_is_kept():
    assert blas.budget_for(2, current=1, cores=8) == 1


def test_single_rank_keeps_callers_count():
    assert blas.budget_for(1, current=8, cores=2) == 8


# -- launches ------------------------------------------------------------------


@managed
def test_process_ranks_run_under_the_budget(oversubscribed):
    expected = blas.budget_for(2, oversubscribed, blas.usable_cores())
    assert expected < oversubscribed
    pt = ProcessTransport()
    assert run_workers(2, _report_threads, timeout=60.0, backend=pt) == [
        expected, expected
    ]
    assert pt.metrics.value("blas_threads") == expected
    assert pt.blas["threads_per_rank"] == expected
    assert pt.blas["managed"] is True
    assert blas.get_threads() == oversubscribed


@managed
def test_process_restores_count_after_worker_raises(oversubscribed):
    with pytest.raises(WorkerError):
        run_workers(2, _raise_on_rank_one, timeout=60.0, backend="process")
    assert blas.get_threads() == oversubscribed


@managed
def test_thread_backend_budget_and_restore(oversubscribed):
    expected = blas.budget_for(2, oversubscribed, blas.usable_cores())
    tt = ThreadTransport()
    assert run_workers(2, _report_threads, timeout=60.0, backend=tt) == [
        expected, expected
    ]
    assert tt.fabric.metrics.value("blas_threads") == expected
    assert blas.get_threads() == oversubscribed


@managed
def test_thread_backend_restores_count_after_worker_raises(oversubscribed):
    with pytest.raises(WorkerError):
        run_workers(2, _raise_on_rank_one, timeout=60.0, backend="thread")
    assert blas.get_threads() == oversubscribed


@managed
def test_single_rank_launch_keeps_callers_count(oversubscribed):
    assert run_workers(1, _report_threads, backend="process") == [
        oversubscribed
    ]


# -- fingerprint ---------------------------------------------------------------


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_traced_launch_carries_blas_fingerprint(backend):
    tracer = Tracer()
    if backend == "thread":
        transport = ThreadTransport(Fabric(2, tracer=tracer))
    else:
        transport = ProcessTransport(tracer=tracer)
    run_workers(2, _report_threads, timeout=60.0, backend=transport)
    fp = tracer.chrome_trace()["metadata"]["blas"]
    assert fp == transport.blas
    assert fp["ranks"] == 2
    assert fp["usable_cores"] == blas.usable_cores()
    assert fp["vendor"] == blas.library().vendor


def test_postmortem_bundle_carries_blas_fingerprint():
    for transport in (ProcessTransport(), ThreadTransport()):
        with pytest.raises(WorkerError):
            run_workers(2, _raise_on_rank_one, timeout=60.0, backend=transport)
        assert transport.last_postmortem["blas"] == transport.blas
        assert transport.blas["ranks"] == 2
        assert "blas: " in render_postmortem(transport.last_postmortem)


# -- unmanaged BLAS ------------------------------------------------------------


@pytest.fixture
def unmanaged(monkeypatch):
    monkeypatch.setattr(blas, "_LIBRARY", blas.BlasLibrary())


def test_unmanaged_blas_does_nothing_and_raises_nothing(unmanaged):
    assert blas.get_threads() is None
    blas.set_threads(3)
    with blas.thread_budget(2) as budget:
        assert budget is None
    fp = blas.fingerprint(2, None)
    assert fp["managed"] is False and fp["vendor"] == "unknown"


def test_unmanaged_blas_launches_normally(unmanaged):
    pt = ProcessTransport()
    assert run_workers(2, _report_threads, timeout=60.0, backend=pt) == [
        None, None
    ]
    assert pt.metrics.value("blas_threads") == 0.0
    assert pt.blas["managed"] is False


# -- shm fall-back counters ----------------------------------------------------


def _send_private_array(comm):
    peer = 1 - comm.rank
    comm.send(np.zeros(1000, dtype=np.float64), peer, tag=("data",))
    comm.recv(peer, tag=("data",))


def test_private_payloads_are_counted_as_copied_bytes():
    pt = ProcessTransport()
    run_workers(2, _send_private_array, timeout=60.0, backend=pt)
    # each rank streamed one 8000-byte private body by copy.
    assert pt.metrics.value("shm_copied_bytes_total") == 2 * 8000
    assert pt.metrics.value("arena_alloc_fallbacks_total") == 0


def _overflow_arena(comm):
    pool = comm.fabric.shared_pool(BufferPool)
    pool.acquire(1 << 12, np.float64)  # 32 KiB into a 4 KiB region


def test_arena_exhaustion_is_counted():
    pt = ProcessTransport(arena_bytes=1 << 12)
    run_workers(2, _overflow_arena, timeout=60.0, backend=pt)
    assert pt.metrics.value("arena_alloc_fallbacks_total") == 2


def test_quiet_launch_exports_zero_fallback_counters():
    pt = ProcessTransport()
    run_workers(2, lambda comm: comm.rank, timeout=60.0, backend=pt)
    names = {m["name"] for m in pt.metrics.as_dict()["metrics"]}
    for name in ("shm_copied_bytes_total", "arena_alloc_fallbacks_total",
                 "blas_threads"):
        assert name in names
    assert pt.metrics.value("shm_copied_bytes_total") == 0
    assert pt.metrics.value("arena_alloc_fallbacks_total") == 0
