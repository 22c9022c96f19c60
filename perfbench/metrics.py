"""Arithmetic of the measured benchmark: percentiles, span self times,
closed-loop accounting and the metric definitions.

Everything here is a pure function of the raw record fsaic_perfbench writes,
so it can be unit-tested without building or running anything
(see test_metrics.py).
"""

import hashlib
import math
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "name tid start end")


# ---------------------------------------------------------------------------
# Percentiles.

def nearest_rank(samples, q):
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sample list."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """How many of n samples lie strictly beyond the nearest-rank q-quantile."""
    return n - max(1, math.ceil(q * n))


def median(samples):
    """Midpoint median (mean of the two middle values for even counts)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


# ---------------------------------------------------------------------------
# Trace spans.

def spans_from_events(events):
    """Pair B/E events per track and keep X slices.

    `events` rows are [name, phase, tid, ts_us, dur_us] in recording order,
    which is chronological per track. Returns Spans with times in seconds.
    """
    open_by_tid = defaultdict(list)
    spans = []
    for name, phase, tid, ts, dur in events:
        if phase == "X":
            spans.append(Span(name, tid, ts * 1e-6, (ts + dur) * 1e-6))
        elif phase == "B":
            open_by_tid[tid].append((name, ts))
        elif phase == "E":
            stack = open_by_tid[tid]
            if not stack or stack[-1][0] != name:
                raise ValueError("unbalanced trace end of %r on track %s" % (name, tid))
            _, start = stack.pop()
            spans.append(Span(name, tid, start * 1e-6, ts * 1e-6))
    for tid, stack in open_by_tid.items():
        if stack:
            raise ValueError("unclosed trace span %r on track %s" % (stack[-1][0], tid))
    return spans


def contains(outer, inner, eps=1e-9):
    """True when `inner`'s interval lies within `outer`'s."""
    return outer.start <= inner.start + eps and inner.end <= outer.end + eps


def nest(spans):
    """Parent of every span on its own track: the innermost span of the same
    track that contains it. Returns {span: parent or None}."""
    parent = {}
    by_tid = defaultdict(list)
    for s in spans:
        by_tid[s.tid].append(s)
    for track in by_tid.values():
        track.sort(key=lambda s: (s.start, -s.end))
        stack = []
        for s in track:
            while stack and not contains(stack[-1], s):
                stack.pop()
            parent[s] = stack[-1] if stack else None
            stack.append(s)
    return parent


def self_times(spans):
    """{span: self time}: a span's duration minus the part of its interval
    that its direct children on the same track cover."""
    parent = nest(spans)
    covered = defaultdict(float)
    for s, p in parent.items():
        if p is not None:
            covered[p] += max(0.0, min(s.end, p.end) - max(s.start, p.start))
    return {s: max(0.0, (s.end - s.start) - covered[s]) for s in spans}


def max_over_tracks(spans, values, names):
    """Per-track sum of `values` over spans named in `names`, maximum over
    tracks (the slowest rank sets the time of a bulk-synchronous step)."""
    sums = defaultdict(float)
    for s in spans:
        if s.name in names:
            sums[s.tid] += values[s]
    return max(sums.values()) if sums else 0.0


def within(spans, root):
    """Spans of root's track that lie inside root's interval (root included)."""
    return [s for s in spans if s.tid == root.tid and contains(root, s)]


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# ---------------------------------------------------------------------------
# Closed-loop accounting.

def closed_loop(requests, window_s):
    """Summary of one closed-loop window.

    `requests` are the per-request records of the window (every submitted
    request is answered exactly once, so attempted == len(requests)). A
    request fails when it was rejected or errored, did not converge, or
    failed its residual check. Latency is client-side: answer time minus
    submission time. Throughput counts successful answers per second of
    window (first submission to last answer).
    """
    ok = [r for r in requests if request_ok(r)]
    latencies_ms = [(r["done_s"] - r["submit_s"]) * 1e3 for r in ok]
    return {
        "attempted": len(requests),
        "failed": len(requests) - len(ok),
        "completed": len(ok),
        "throughput_rps": len(ok) / window_s if window_s > 0 else 0.0,
        "latencies_ms": latencies_ms,
    }


def request_ok(r):
    return r["status"] == "ok" and r["converged"] and r["residual_ok"]


def digest_conflicts(records):
    """Indices of the answered records whose residual digest differs from
    the first answered record with the same key (same operator and
    right-hand side must give the same bits, whatever the batch, worker or
    cache tier)."""
    first = {}
    bad = []
    for n, r in enumerate(records):
        if r["status"] != "ok":
            continue
        if first.setdefault(r["key"], r["digest"]) != r["digest"]:
            bad.append(n)
    return bad


def combined_digest(pairs):
    """16-hex digest over (key, digest) pairs, order-independent."""
    h = hashlib.sha256()
    for k, d in sorted(pairs):
        h.update(("%s=%s\n" % (k, d)).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Metric definitions.

SETUP_LAYERS = {
    "graph.partition_s": ("bench.partition",),
    "core.pattern_s": ("pattern_build",),
    "core.extension_s": ("pattern_extension",),
    "core.filtering_s": ("filtering",),
    "core.factorization_s": ("factorization",),
    "dist.distribute_s": ("distribute_factors", "bench.make_precond", "bench.distribute_a"),
}
# Module slices inside a solve. Under a one-thread executor the per-rank
# halo and local-SpMV slices nest on the blocking track itself.
SOLVE_LAYER_NAMES = ("spmv", "precond_apply", "apply_G", "apply_Gt", "allreduce", "iteration",
                     "halo_exchange", "spmv_local", "spmv_interior", "spmv_boundary")
VALUE_BYTES = 8
INDEX_BYTES = 4
OFFSET_BYTES = 8


def csr_apply_bytes(rows, nnz):
    """Computed bytes of one y = M x with M in CSR: values + column indices,
    row pointers, one read of x and one write of y (no cache effects)."""
    return nnz * (VALUE_BYTES + INDEX_BYTES) + (rows + 1) * OFFSET_BYTES + 2 * rows * VALUE_BYTES


def pipeline_layers(trace):
    """Per-layer metrics of one traced pipeline record (the oneshot
    pipeline or a serve probe): blocking-path times from the benchmark's
    spans and the modules' own slices, per-rank maxima from the rank tracks,
    counters, direct-call timings and the cost model's modeled solve."""
    spans = spans_from_events(trace["events"])
    st = self_times(spans)
    roots = {s.name: s for s in spans if s.name in ("bench.setup", "bench.solve")}
    setup_root, solve_root = roots["bench.setup"], roots["bench.solve"]
    blocking = [s for s in spans if s.tid == setup_root.tid]
    c = trace["counters"]
    it = max(1, c["iterations"])

    def blocking_sum(names, values):
        return sum(values[s] for s in blocking if s.name in names)

    dur = {s: s.end - s.start for s in spans}
    m = {}
    for metric, names in SETUP_LAYERS.items():
        m[metric] = blocking_sum(names, st)
    setup_spans = within(spans, setup_root)
    solve_spans = within(spans, solve_root)
    m["trace.setup_attributed_frac"] = sum(
        st[s] for s in setup_spans if s.name not in ("bench.setup", "bench.build")
    ) / (setup_root.end - setup_root.start)
    m["trace.solve_attributed_frac"] = sum(
        st[s] for s in solve_spans if s.name in SOLVE_LAYER_NAMES
    ) / (solve_root.end - solve_root.start)
    m["core.bisection_steps"] = c["bisection_steps"]
    final_rows = c["rows_reused"] + c["final_rows_solved"]
    m["core.rows_reused_frac"] = c["rows_reused"] / final_rows if final_rows else 0.0

    m["solver.iterations"] = c["iterations"]
    m["solver.iteration_ms"] = blocking_sum(("iteration",), dur) / it * 1e3
    m["solver.apply_g_s"] = blocking_sum(("apply_G",), dur)
    m["solver.apply_gt_s"] = blocking_sum(("apply_Gt",), dur)
    m["solver.vector_sweeps_s"] = blocking_sum(("iteration",), st)
    m["dist.spmv_s"] = blocking_sum(("spmv",), dur)
    m["dist.allreduce_s"] = blocking_sum(("allreduce",), dur)
    m["dist.halo_exchange_s"] = max_over_tracks(spans, dur, ("halo_exchange",))
    m["dist.halo_wait_s"] = max(c["halo_wait_us"], default=0.0) * 1e-6
    m["dist.halo_bytes_per_iter"] = c["halo_bytes"] / it
    m["exec.barrier_wait_s"] = max(c["barrier_wait_us"], default=0.0) * 1e-6

    d = trace["direct"]
    spmv_ms = median(d["spmv_us"]) * 1e-3
    apply_ms = median(d["precond_apply_us"]) * 1e-3
    m["dist.spmv_ms"] = spmv_ms
    m["solver.precond_apply_ms"] = apply_ms
    m["dist.dot_ms"] = median(d["dot_us"]) * 1e-3
    spmv_bytes = csr_apply_bytes(c["rows"], c["a_nnz"])
    precond_bytes = csr_apply_bytes(c["rows"], c["g_nnz"]) + csr_apply_bytes(c["rows"], c["gt_nnz"])
    m["sparse.spmv_bytes_computed_mb"] = spmv_bytes / 2**20
    m["sparse.precond_bytes_computed_mb"] = precond_bytes / 2**20
    m["sparse.spmv_gbps_computed"] = spmv_bytes / (spmv_ms * 1e-3) / 1e9
    m["sparse.precond_gbps_computed"] = precond_bytes / (apply_ms * 1e-3) / 1e9
    return m


def mean_of(dicts):
    keys = dicts[0].keys()
    return {k: sum(d[k] for d in dicts) / len(dicts) for k in keys}


def oneshot_e2e(rec):
    p = rec["pipelines"]
    tts = [x["setup_s"] + x["solve_s"] for x in p]
    # Fewer than 200 pipelines: the nearest-rank p95 is the maximum.
    p95 = nearest_rank([t * 1e3 for t in tts], 0.95)
    return {
        "setup_s": median([x["setup_s"] for x in p]),
        "solve_s": median([x["solve_s"] for x in p]),
        "time_to_solution_s": median(tts),
        "throughput_rps": len(p) / rec["window_s"],
        "latency_p50_ms": median(tts) * 1e3,
        "latency_p95_ms": p95,
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def serve_e2e(rec):
    loop = closed_loop(rec["requests"], rec["window_s"])
    ok = [r for r in rec["requests"] if request_ok(r)]
    p95 = nearest_rank(loop["latencies_ms"], 0.95)
    return {
        "setup_s": median(rec["setup_s"]),
        "solve_s": median([r["solve_us"] for r in ok]) * 1e-6,
        "time_to_solution_s": median([r["total_us"] - r["queue_us"] for r in ok]) * 1e-6,
        "throughput_rps": loop["throughput_rps"],
        "latency_p50_ms": median(loop["latencies_ms"]),
        "latency_p95_ms": p95,
        "peak_rss_mb": rec["peak_rss_mb"],
    }


SERVICE_ZERO = {
    "service.queue_wait_ms_p50": 0.0,
    "service.setup_ms_p50": 0.0,
    "service.solve_ms_p50": 0.0,
    "service.cache_hit_rate": 0.0,
    "service.cache_evictions": 0.0,
    "service.batch_size_mean": 0.0,
    "service.worker_busy_frac": 0.0,
}


def oneshot_layers(rec):
    m = pipeline_layers({"events": rec["events"], "counters": rec["counters"],
                         "direct": rec["direct"]})
    plain, traced = rec["pipelines"][0], rec["pipelines"][1]
    threaded = rec["threaded"]
    m["exec.speedup_1_to_n"] = plain["solve_s"] / threaded["solve_s"]
    m["exec.barrier_wait_s"] = max(threaded["barrier_wait_us"], default=0.0) * 1e-6
    modeled = rec["counters"]["iterations"] * rec["direct"]["modeled_iteration_s"]
    m["perf.model_gap_solve"] = plain["solve_s"] / modeled
    untraced_tts = plain["setup_s"] + plain["solve_s"]
    m["trace.overhead_pct"] = ((traced["setup_s"] + traced["solve_s"]) / untraced_tts - 1.0) * 100.0
    m.update(SERVICE_ZERO)
    return m


def service_layers(traced, workers):
    """Service-layer metrics of the traced window: per-request stage
    medians from the responses, cache and batch counters from the service's
    stats, worker busy share and per-build setup phases from its trace."""
    reqs = [r for r in traced["requests"] if request_ok(r)]
    before, after = traced["stats_before"], traced["stats_after"]
    delta = {k: after[k] - before[k] for k in after}
    lookups = delta["cache_hits"] + delta["cache_misses"] + delta["cache_disk_hits"]
    m = {
        "service.queue_wait_ms_p50": median([r["queue_us"] for r in reqs]) * 1e-3,
        "service.setup_ms_p50": median([r["setup_us"] for r in reqs]) * 1e-3,
        "service.solve_ms_p50": median([r["solve_us"] for r in reqs]) * 1e-3,
        "service.cache_hit_rate": delta["cache_hits"] / lookups if lookups else 0.0,
        "service.cache_evictions": delta["cache_evictions"],
        "service.batch_size_mean": delta["completed"] / delta["batches"] if delta["batches"] else 0.0,
    }

    spans = spans_from_events(traced["events"])
    t0 = traced["window_start_us"] * 1e-6
    window = [s for s in spans if s.start >= t0 - 1e-9]
    # A worker is busy from the dequeue of a batch (the end of its queue
    # slice) to the end of its last solve slice; batch members share the
    # dequeue, so the union per worker track counts each batch once.
    queue_end, solve_end, track = {}, {}, {}
    for s in window:
        kind, _, rid = s.name.partition(" ")
        if kind == "queue" and rid.startswith("r"):
            queue_end[rid] = s.end
            track[rid] = s.tid
        elif kind == "solve" and rid.startswith("r"):
            solve_end[rid] = s.end
    by_track = defaultdict(list)
    for rid, q in queue_end.items():
        if rid in solve_end:
            by_track[track[rid]].append((q, solve_end[rid]))
    busy = sum(union_length(iv) for iv in by_track.values())
    m["service.worker_busy_frac"] = busy / (workers * traced["window_s"])

    # Setup phases of the factor builds (cache misses) inside the window,
    # as a mean per build; a window without builds reports 0.
    builds = delta["cache_misses"]
    st = self_times(window)
    for metric, names in SETUP_LAYERS.items():
        total = sum(st[s] for s in window if s.name in names)
        m[metric] = total / builds if builds else 0.0
    return m


def serve_layers(rec):
    probes = [pipeline_layers(p) for p in rec["probes"]]
    m = mean_of(probes)
    modeled = [p["counters"]["iterations"] * p["direct"]["modeled_iteration_s"] for p in rec["probes"]]
    m["perf.model_gap_solve"] = sum(p["solve_s"] / mod for p, mod in zip(rec["probes"], modeled)) / len(modeled)
    # Service workers solve on one thread each: there is no n-thread solve
    # to compare with, so the speed-up is 1 by definition.
    m["exec.speedup_1_to_n"] = 1.0
    m.update(service_layers(rec["traced"], rec["workers"]))
    untraced = median(closed_loop(rec["requests"], rec["window_s"])["latencies_ms"])
    traced = median(closed_loop(rec["traced"]["requests"], rec["traced"]["window_s"])["latencies_ms"])
    m["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
    return m
