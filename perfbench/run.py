#!/usr/bin/env python3
"""Repository benchmark: closed-loop WeiPipe training, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload weipipe-proc --seed 1 --seconds 50 --trace 0

It drives the public ``repro.train`` API on one of four workloads
(``serial``, ``weipipe-thread``, ``weipipe-proc``, ``1f1b-longctx-proc``,
see ``workloads.py``; ``BENCHMARK.json`` gates the last two), checks
every training call's outputs, prints each metric with its unit, writes
an artefact with the environment fingerprint under ``.bench_out/``, and
ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds a traced
call and outside-in layer microbenchmarks and reports the per-layer
metrics (``layers.py``).  The seed sets ``TrainSpec.seed`` and
``data_seed``.  Without the ``repro`` package under ``src/`` next to this
directory the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
#: fewest timed calls per run.
MIN_CALLS = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program() -> bool:
    """Put this checkout's ``src`` first on the path and import ``repro``
    from there — never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def _stop_resource_tracker() -> None:
    """Shared-memory segments start multiprocessing's resource tracker
    process; stop it and wait for it, so no process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def e2e_run(wl, seed: int, seconds: float):
    """Warm-up, timed closed-loop calls, then correctness; end-to-end
    metrics."""
    from check import judge
    from e2e import closed_loop, e2e_metrics, new_source, peak_rss_mb
    from e2e import timed_ok, warmup_call

    source = new_source(seed)
    warm = warmup_call(wl, seed, source)
    calls = closed_loop(wl, seed, seconds, MIN_CALLS, source)
    rss = peak_rss_mb()  # before the references run in this process
    notes = judge(wl, seed, warm, calls)
    calls.insert(0, warm)
    ok = timed_ok(calls)
    metrics, reported = e2e_metrics(wl, calls, rss) if ok else ({}, {})
    samples = {
        "setup_s": [c.setup_s for c in ok],
        "first_step_s": [c.first_step_s for c in ok],
        "steady_step_s": [s for c in ok for s in c.steady_steps],
        "wall_s": [c.wall_s for c in ok],
    }
    return calls, metrics, reported, notes, samples


def main(argv=None) -> int:
    args = _parse(argv)
    if not _import_program():
        return 2
    from env import fingerprint
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    # the process transport's trace spills go to the temp dir; keep them
    # inside the checkout.
    tempfile.tempdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    env = fingerprint(wl.backend)
    stem = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    try:
        if args.trace:
            from layers import traced_run

            calls, metrics, reported, notes, samples = traced_run(
                wl, args.seed, args.seconds, stem)
        else:
            calls, metrics, reported, notes, samples = e2e_run(
                wl, args.seed, args.seconds)
    finally:
        shutil.rmtree(tempfile.tempdir, ignore_errors=True)
        _stop_resource_tracker()
    attempted = len(calls)
    failed = sum(1 for c in calls if not c.ok)
    reported["error_rate"] = (failed / attempted, "failed/attempted")

    print(f"workload {wl.name}: {wl.strategy} W={wl.world} "
          f"backend={wl.backend or 'none'} seed={args.seed} "
          f"closed loop, {attempted} calls")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    for name, (value, unit) in reported.items():
        print(f"  {name:<28} {value:>14.6g} {unit}  (reported, not gated)")
    for note in notes:
        print(f"  note: {note}")
    for c in calls:
        if not c.ok:
            print(f"  FAILED call: {c.error}")

    artefact = {
        "schema": "perfbench/v1",
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "reported": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        "samples": samples,
        "notes": notes,
        "errors": [c.error for c in calls if not c.ok],
    }
    with open(stem + ".json", "w") as f:
        json.dump(artefact, f, indent=1, default=str)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": artefact["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
