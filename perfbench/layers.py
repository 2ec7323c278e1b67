"""The traced run: per-layer metrics measured from outside ``src/``.

``traced_run`` does, in order:

1. untraced closed-loop calls for half the run time — the reference
   throughput, host CPU utilisation, the data source's own time, and
   the engine and transport counters read from each call's transport
   (``weipipe_*`` histograms and counters, ``fabric_*_total``, the
   per-rank pools);
2. one call with an enabled ``repro.obs.Tracer`` — pipeline bubble from
   ``repro.obs.analyze`` and the tracing overhead;
3. microbenchmarks timing calls into each layer's public functions at
   the workload's shapes: ``repro.nn`` ops, one optimizer step, and on
   both backends an empty ``run_workers`` job and a send/recv ping-pong
   of a weight slot and of an activation;
4. one serial call at the same shape, for the "x serial" ratio.

Every step runs inside a span on the benchmark's own timeline (pid
``BENCH_PID``) of the same tracer; the Chrome trace is written next to
the artefact and a self-time table is printed.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import replace
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import Tracer, analyze_trace
from repro.nn import functional as F
from repro.nn.accounting import layer_fwd_flops
from repro.nn.attention import (
    attention_bwd,
    attention_fwd,
    flash_attention_bwd,
    flash_attention_fwd,
)
from repro.nn.layer import layer_bwd, layer_fwd
from repro.nn.model import init_model
from repro.nn.params import BufferPool
from repro.nn.rope import rope_apply, rope_apply_bwd
from repro.runtime import run_workers

from check import bitwise_diff, judge
from e2e import (
    ITERS,
    closed_loop,
    new_source,
    one_call,
    timed_ok,
    tokens_per_s,
    warmup_call,
)
from env import fingerprint
from workloads import Workload, make_spec

#: pid of the benchmark's own spans in the Chrome trace (ranks are 0..W-1).
BENCH_PID = 1000
#: repetitions of each microbenchmark (the median is reported).
REPS = 7
PINGPONG_ROUNDS = 20
LINEAR_WEIGHTS = ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down")


class Spans:
    """Spans on the benchmark's own timeline of a shared tracer."""

    def __init__(self, tracer: Tracer):
        self.main = tracer.rank(BENCH_PID, 0)

    def timed(self, name: str, cat: str, fn: Callable, reps: int = REPS
              ) -> float:
        """Median seconds of ``fn()`` over ``reps`` spans, after one
        untimed warm-up call."""
        fn()
        times = []
        for _ in range(reps):
            t0 = perf_counter()
            fn()
            dt = perf_counter() - t0
            self.main.complete(name, cat, t0, dt)
            times.append(dt)
        return statistics.median(times)


# -- repro.nn / repro.optim ---------------------------------------------------


def nn_metrics(wl: Workload, seed: int, spans: Spans) -> Dict[str, float]:
    """Per layer, per microbatch: one decoder layer's ops at the
    workload's (G, S, H), with the workload's attention and precision."""
    spec = make_spec(wl, seed, 1)
    cfg = spec.cfg
    w = init_model(cfg, seed)[-1 if cfg.n_layers == 1 else 1]
    cos, sin = spec.rope()
    rng = np.random.default_rng(seed)
    g, s, h = wl.microbatch_size, cfg.seq_len, cfg.hidden
    x = rng.standard_normal((g, s, h)).astype(np.float32)
    flash = cfg.flash_attention
    y, cache = layer_fwd(w, x, cfg.n_heads, cos, sin, flash, cfg.flash_block)
    dy = rng.standard_normal(y.shape).astype(np.float32)

    # inputs of the seven projections, from a real forward pass.
    acts = {"wq": x, "wk": x, "wv": x, "wo": x,
            "w_gate": x, "w_up": x,
            "w_down": rng.standard_normal((g, s, cfg.ffn)).astype(np.float32)}
    outs = {k: F.linear_fwd(a, w[k])[0] for k, a in acts.items()}
    douts = {k: np.ones_like(o) for k, o in outs.items()}

    def linears_fwd():
        for k in LINEAR_WEIGHTS:
            F.linear_fwd(acts[k], w[k])

    def linears_bwd_input():
        for k in LINEAR_WEIGHTS:
            F.linear_bwd_input(douts[k], w[k])

    def linears_bwd_weight():
        for k in LINEAR_WEIGHTS:
            F.linear_bwd_weight(acts[k], douts[k])

    hd = cfg.head_dim
    heads = rng.standard_normal((3, g, cfg.n_heads, s, hd)).astype(np.float32)
    q, k, v = heads
    if flash:
        att_out, att_cache = flash_attention_fwd(q, k, v, block=cfg.flash_block)
        att_fwd = lambda: flash_attention_fwd(q, k, v, block=cfg.flash_block)  # noqa: E731
        att_bwd = lambda: flash_attention_bwd(att_out, att_cache)  # noqa: E731
    else:
        att_out, att_cache = attention_fwd(q, k, v)
        att_fwd = lambda: attention_fwd(q, k, v)  # noqa: E731
        att_bwd = lambda: attention_bwd(att_out, att_cache)  # noqa: E731

    def rmsnorms():
        for gain in ("attn_norm", "ffn_norm"):
            out, c = F.rmsnorm_fwd(x, w[gain])
            F.rmsnorm_bwd_input(dy, c)
            F.rmsnorm_bwd_weight(dy, c)

    def ropes():
        for t in (q, k):
            rope_apply(t, cos, sin)
            rope_apply_bwd(t, cos, sin)

    gate = outs["w_gate"]

    def silu():
        out, c = F.silu_fwd(gate)
        F.silu_bwd(out, c)

    def casts():
        spec.precision.q_act(y)
        spec.precision.q_act_grad(dy)

    t = {
        "nn.linear_fwd_s": spans.timed("nn.linear_fwd", "nn", linears_fwd),
        "nn.linear_bwd_input_s": spans.timed("nn.linear_bwd_input", "nn",
                                             linears_bwd_input),
        "nn.linear_bwd_weight_s": spans.timed("nn.linear_bwd_weight", "nn",
                                              linears_bwd_weight),
        "nn.attention_fwd_s": spans.timed("nn.attention_fwd", "nn", att_fwd),
        "nn.attention_bwd_s": spans.timed("nn.attention_bwd", "nn", att_bwd),
        "nn.rmsnorm_s": spans.timed("nn.rmsnorm", "nn", rmsnorms),
        "nn.rope_s": spans.timed("nn.rope", "nn", ropes),
        "nn.silu_s": spans.timed("nn.silu", "nn", silu),
        "nn.cast_s": spans.timed("nn.cast", "nn", casts),
        "nn.layer_fwd_s": spans.timed(
            "nn.layer_fwd", "nn",
            lambda: layer_fwd(w, x, cfg.n_heads, cos, sin, flash,
                              cfg.flash_block)),
        "nn.layer_bwd_s": spans.timed(
            "nn.layer_bwd", "nn", lambda: layer_bwd(w, dy, cache)),
    }
    flops = 3.0 * layer_fwd_flops(cfg, g)["total"]  # forward + 2x backward
    t["nn.layer_gflops"] = flops / (t["nn.layer_fwd_s"] + t["nn.layer_bwd_s"]) / 1e9

    opt = spec.make_optimizer()
    params = w.clone()
    grads = w.map(lambda a: np.full_like(a, 1e-3))
    state = opt.init_state(params)
    t["optim.step_s"] = spans.timed(
        "optim.step", "optim", lambda: opt.step(params, grads, state))
    return t


# -- repro.runtime: launch and transport hops ---------------------------------


def _noop(comm) -> None:
    return None


def _pingpong(comm, make_payload, rounds: int) -> List[float]:
    """Rank 0 sends, rank 1 returns the same object; half a round trip is
    one hop.  Arena-resident structs travel as descriptors both ways (the
    receiver maps the sender's region), so nothing is released."""
    if comm.rank > 1:
        return []
    payload = make_payload(comm.fabric.shared_pool(BufferPool))
    peer = 1 - comm.rank
    hops = []
    for i in range(rounds):
        tag = ("bench-hop", i)
        if comm.rank == 0:
            t0 = perf_counter()
            comm.send(payload, peer, tag)
            comm.recv(peer, tag)
            hops.append((perf_counter() - t0) / 2)
        else:
            comm.send(comm.recv(peer, tag), peer, tag)
    return hops


def runtime_metrics(wl: Workload, seed: int, spans: Spans
                    ) -> Tuple[Dict[str, float], Dict[str, Tuple[float, str]]]:
    """Launch/teardown of an empty job, and one-hop times for a weight
    slot (an interior layer, arena-resident) and a stage activation, on
    both backends.  Returns ``(metrics, reported)``: the workload's own
    backend (the in-process fabric for ``serial``) gives the metrics, the
    other backend is reported as ``name@backend``."""
    own = wl.backend or "thread"
    ranks = max(2, wl.world)
    spec = make_spec(wl, seed, 1)
    slot = init_model(spec.cfg, seed)[-1 if spec.cfg.n_layers == 1 else 1]
    act_shape = (wl.microbatch_size, spec.cfg.seq_len, spec.cfg.hidden)

    def hop(name: str, backend: str, make_payload) -> float:
        t0 = perf_counter()
        out = run_workers(ranks, lambda comm: _pingpong(
            comm, make_payload, PINGPONG_ROUNDS), backend=backend)
        spans.main.complete(f"{name}@{backend}", "transport", t0,
                            perf_counter() - t0)
        return statistics.median(out[0])

    metrics: Dict[str, float] = {}
    reported: Dict[str, Tuple[float, str]] = {}
    for backend in ("thread", "process"):
        m = {
            "runtime.launch_teardown_s": spans.timed(
                f"runtime.launch_teardown@{backend}", "runtime",
                lambda: run_workers(wl.world, _noop, backend=backend)),
            "transport.hop_weight_s": hop(
                "transport.hop_weight", backend,
                lambda pool: slot.to_arena(pool)),
            "transport.hop_act_s": hop(
                "transport.hop_act", backend,
                lambda pool: np.ones(act_shape, dtype=spec.cfg.dtype)),
        }
        if backend == own:
            metrics.update(m)
        else:
            reported.update({f"{k}@{backend}": (v, "s") for k, v in m.items()})
    return metrics, reported


# -- counters read from a finished call ---------------------------------------


def _hist_sum(reg, name: str) -> float:
    return sum(m.total for m in reg.collect(name) if m.name == name)


def counter_metrics(wl: Workload, call) -> Dict[str, float]:
    """Engine and transport counters of one call, per training step."""
    out = {
        "engine.compute_s": 0.0, "engine.wire_wait_s": 0.0,
        "engine.wire_wait_frac": 0.0, "engine.turns": 0.0,
        "engine.idle_turn_frac": 0.0, "transport.bytes": 0.0,
        "transport.messages": 0.0, "transport.arena_used_frac": 0.0,
        "transport.pool_hit_ratio": 0.0,
    }
    tr = call.transport
    if tr is None:  # serial: no runtime, nothing moves
        return out
    reg = tr.metrics
    compute = _hist_sum(reg, "weipipe_compute_seconds")
    wire = _hist_sum(reg, "weipipe_wire_wait_seconds")
    turns = reg.total("weipipe_turns_total")
    per_rank_step = ITERS * wl.world
    out["engine.compute_s"] = compute / per_rank_step
    out["engine.wire_wait_s"] = wire / per_rank_step
    if compute + wire:
        out["engine.wire_wait_frac"] = wire / (compute + wire)
    out["engine.turns"] = turns / ITERS
    if turns:
        out["engine.idle_turn_frac"] = reg.total("weipipe_idle_turns_total") / turns
    out["transport.bytes"] = reg.total("fabric_bytes_total") / ITERS
    out["transport.messages"] = reg.total("fabric_messages_total") / ITERS
    pools = [p for p in getattr(tr, "pools_by_rank", []) if p]
    if pools:  # process backend: per-rank arena-backed pools
        out["transport.arena_used_frac"] = max(
            (p["arena_used"] / p["arena_capacity"] for p in pools
             if p.get("arena_capacity")), default=0.0)
        hits = sum(p["hits"] for p in pools)
        acquires = hits + sum(p["misses"] for p in pools)
        out["transport.pool_hit_ratio"] = hits / acquires if acquires else 0.0
    else:  # thread backend: one shared pool, exported as gauges
        hits, misses = reg.value("pool_hits"), reg.value("pool_misses")
        if hits + misses:
            out["transport.pool_hit_ratio"] = hits / (hits + misses)
    return out


def data_seconds_per_step(call) -> float:
    return sum(d for _it, _t0, d in call.requests) / ITERS


# -- trace analysis -----------------------------------------------------------


def _rank_doc(doc: Dict) -> Dict:
    events = [e for e in doc["traceEvents"] if e.get("pid") != BENCH_PID]
    return {**doc, "traceEvents": events}


def bubble_frac(doc: Dict) -> float:
    """Mean per-rank bubble ratio of the traced call (0 without rank spans:
    the serial path runs no runtime and records none)."""
    rank_doc = _rank_doc(doc)
    if not any(e.get("ph") == "X" for e in rank_doc["traceEvents"]):
        return 0.0
    return analyze_trace(rank_doc)["summary"]["bubble_ratio_mean"]


def self_times(doc: Dict, pid: int) -> List[Tuple[str, int, float, float]]:
    """``(name, count, total_s, self_s)`` per span name on one pid, where
    self time is a span's duration minus the union of spans inside it."""
    spans = sorted(
        ((e["ts"], e["ts"] + e["dur"], e["name"], e.get("tid", 0))
         for e in doc["traceEvents"] if e.get("ph") == "X" and e["pid"] == pid),
        key=lambda t: (t[0], -t[1]),
    )
    rows: Dict[str, List[float]] = {}
    for i, (a, b, name, tid) in enumerate(spans):
        covered, edge = 0.0, a
        for c, d, _n, ctid in spans[i + 1:]:
            if c >= b:
                break
            if ctid != tid or d > b:
                continue
            lo = max(c, edge)
            if d > lo:
                covered += d - lo
                edge = d
        row = rows.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (b - a) / 1e6
        row[2] += (b - a - covered) / 1e6
    return sorted(((n, int(r[0]), r[1], r[2]) for n, r in rows.items()),
                  key=lambda r: -r[3])


# -- the run ------------------------------------------------------------------


def traced_run(wl: Workload, seed: int, seconds: float, stem: str):
    tracer = Tracer(metadata={
        "workload": wl.name, "strategy": wl.strategy, "world": wl.world,
        "backend": wl.backend or "none", "env": fingerprint(wl.backend),
    })
    spans = Spans(tracer)
    source = new_source(seed)
    with spans.main.span("warmup", "train"):
        warm = warmup_call(wl, seed, source)

    cpu0, w0 = os.times(), perf_counter()
    with spans.main.span("closed_loop", "train"):
        calls = closed_loop(wl, seed, seconds / 2, 1, source)
    cpu1, w1 = os.times(), perf_counter()
    cpu = sum(b - a for a, b in zip(cpu0[:4], cpu1[:4]))
    ok = timed_ok(calls)
    metrics: Dict[str, float] = {
        "host.cpu_util": cpu / ((w1 - w0) * os.cpu_count()),
    }
    if ok:
        per_call = [counter_metrics(wl, c) for c in ok]
        for key in per_call[0]:
            metrics[key] = statistics.median(m[key] for m in per_call)
        metrics["data.microbatch_s"] = statistics.median(
            data_seconds_per_step(c) for c in ok)

    with spans.main.span("train", "train", {"traced": True}):
        traced = one_call(wl, seed, source, tracer=tracer)
    for _it, t0, dur in traced.requests:
        tracer.rank(BENCH_PID, 1).complete("data.microbatch", "data", t0, dur)
    if traced.ok and ok:
        diff = bitwise_diff(traced.losses, traced.chunks,
                            ok[0].losses, ok[0].chunks)
        if diff:
            traced.error = f"traced call differs from untraced: {diff}"
    traced.chunks = None
    calls.append(traced)

    with spans.main.span("microbenchmarks", "bench"):
        metrics.update(nn_metrics(wl, seed, spans))
        runtime, reported = runtime_metrics(wl, seed, spans)
        metrics.update(runtime)

    notes = judge(wl, seed, warm, calls)
    calls.insert(0, warm)
    untraced = [c for c in timed_ok(calls) if c is not traced]
    if untraced and traced.ok:
        metrics["obs.trace_overhead_frac"] = (
            1.0 - tokens_per_s(wl, [traced]) / tokens_per_s(wl, untraced))

    if wl.strategy != "serial" and untraced:
        # "x serial" is printed, never gated: a faster repro.nn lowers it
        # while making every workload faster.
        serial_wl = replace(wl, strategy="serial", world=1, backend=None,
                            twin_backend=None)
        with spans.main.span("serial_reference", "train"):
            ref = one_call(serial_wl, seed, new_source(seed))
        if ref.ok:
            serial_tps = tokens_per_s(serial_wl, [ref])
            reported["x_serial"] = (tokens_per_s(wl, untraced) / serial_tps,
                                    "x")
            notes.append(f"serial at this shape: {serial_tps:.1f} tokens/s")

    doc = tracer.chrome_trace()
    with open(stem + ".trace.json", "w") as f:
        json.dump(doc, f, separators=(",", ":"))
    metrics["pipeline.bubble_frac"] = bubble_frac(doc)

    print(f"self time by span, benchmark timeline "
          f"(trace: {os.path.relpath(stem)}.trace.json)")
    print(f"  {'span':<30} {'count':>5} {'total_s':>9} {'self_s':>9}")
    for name, count, total, self_s in self_times(doc, BENCH_PID):
        print(f"  {name:<30} {count:>5} {total:>9.4f} {self_s:>9.4f}")

    units = {"engine.turns": "count", "transport.bytes": "B",
             "transport.messages": "count", "nn.layer_gflops": "GFLOP/s"}
    for key in metrics:
        if key.endswith("_frac") or key.endswith("_ratio") or key.endswith("_util"):
            units.setdefault(key, "fraction")
    result = {k: (v, units.get(k, "s")) for k, v in sorted(metrics.items())}
    samples = {"steady_step_s": [s for c in untraced for s in c.steady_steps],
               "traced_steady_step_s": traced.steady_steps if traced.ok else []}
    return calls, result, reported, notes, samples
