#!/usr/bin/env python3
"""Compare bench artifacts for regressions.

Usage:
    bench_diff.py BASELINE.json CANDIDATE.json [--max-rps-drop PCT]
                  [--max-p99-rise PCT]
    bench_diff.py CANDIDATE.json          (baseline defaults to the committed
                  bench/baselines/BENCH_serve.json next to this script)
    bench_diff.py --mode comm CANDIDATE.jsonl [BASELINE.jsonl]
                  [--max-comm-bytes-rise PCT]
    bench_diff.py --mode weakscale CANDIDATE.json
                  [--min-rows N] [--max-balance B]

Default (serve) mode exits non-zero when the candidate's sustained
throughput dropped, or its p99 total latency rose, by more than the
thresholds (percent, defaults 20). Everything else is informational: the
full stage-by-stage latency delta and the cache/batching deltas are printed
either way, and workloads with different digests are flagged (the
comparison is then apples-to-oranges and only reported, never enforced).

Comm mode reads the comm_invariance bench's JSONL report and enforces the
communication contract on every matrix:
  - node-aware payload bytes equal the flat bytes exactly, and the
    intra + inter split sums to the total (aggregation merges messages,
    never duplicates or drops coefficients);
  - node-aware wire messages never exceed flat, and strictly decrease for
    at least one matrix (the aggregation must actually aggregate);
  - with a BASELINE report, per-matrix FSAIE-Comm halo bytes must not rise
    more than --max-comm-bytes-rise percent (default 0: byte-exact), and
    node-aware message counts must not rise at all.

Weakscale mode enforces the rank-local workload-generation contract on a
BENCH_weakscale.json artifact (bench/weak_scaling):
  - fixed series: the operator's content fingerprint is identical at every
    rank count and comm scheme (bit-identical generation), flat and
    node-aware residual digests match per rank count, the intra + inter
    byte split sums to the flat total, per-rank nnz balance stays under
    --max-balance, and the operator has at least --min-rows rows;
  - weak series: the comm-aware pattern extension admits exactly zero new
    communication columns while the full-halo strawman admits some, and
    the max per-rank halo recv bytes are byte-identical (+-0%) across all
    rank counts at fixed rows/rank.

Stdlib only, so the CI job can run it on a bare runner.
"""

import argparse
import json
import os
import sys

# The committed serve baseline: serve mode with a single positional compares
# that candidate against this artifact.
DEFAULT_SERVE_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "bench", "baselines", "BENCH_serve.json")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "fsaic.bench.serve/v1":
        sys.exit(f"{path}: not a fsaic.bench.serve/v1 artifact "
                 f"(schema={doc.get('schema')!r})")
    return doc


def pct_change(old, new):
    if old == 0:
        return 0.0
    return 100.0 * (new - old) / old


def load_comm_records(path):
    """Index a comm_invariance JSONL report by (kind, matrix)."""
    records = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("kind") in ("comm_invariance", "comm_topology"):
                records[(rec["kind"], rec["matrix"])] = rec
    if not records:
        sys.exit(f"{path}: no comm_invariance/comm_topology records")
    return records


def comm_mode(args):
    cand = load_comm_records(args.baseline)
    base = load_comm_records(args.candidate) if args.candidate else None

    failures = []
    topo = [r for (kind, _), r in sorted(cand.items()) if kind == "comm_topology"]
    if not topo:
        sys.exit("candidate has no comm_topology records")
    strict_decreases = 0
    for rec in topo:
        name = rec["matrix"]
        if rec["halo_bytes_node_aware"] != rec["halo_bytes_flat"]:
            failures.append(
                f"{name}: node-aware payload bytes "
                f"{rec['halo_bytes_node_aware']} != flat {rec['halo_bytes_flat']}")
        if rec["halo_intra_bytes"] + rec["halo_inter_bytes"] != rec["halo_bytes_flat"]:
            failures.append(
                f"{name}: intra {rec['halo_intra_bytes']} + inter "
                f"{rec['halo_inter_bytes']} != total {rec['halo_bytes_flat']}")
        if rec["halo_msgs_node_aware"] > rec["halo_msgs_flat"]:
            failures.append(
                f"{name}: node-aware messages {rec['halo_msgs_node_aware']} "
                f"exceed flat {rec['halo_msgs_flat']}")
        if rec["halo_msgs_node_aware"] < rec["halo_msgs_flat"]:
            strict_decreases += 1
    total_flat = sum(r["halo_msgs_flat"] for r in topo)
    total_na = sum(r["halo_msgs_node_aware"] for r in topo)
    print(f"wire messages: flat {total_flat} -> node-aware {total_na} "
          f"({pct_change(total_flat, total_na):+.1f}%), strict decrease on "
          f"{strict_decreases}/{len(topo)} matrices")
    if strict_decreases == 0:
        failures.append("node-aware aggregation never reduced a single "
                        "matrix's message count")

    if base is not None:
        for key, brec in sorted(base.items()):
            kind, name = key
            crec = cand.get(key)
            if crec is None:
                failures.append(f"{name}: {kind} record missing from candidate")
                continue
            if kind == "comm_invariance":
                d = pct_change(brec["halo_bytes_comm"], crec["halo_bytes_comm"])
                if d > args.max_comm_bytes_rise:
                    failures.append(
                        f"{name}: FSAIE-Comm halo bytes rose {d:.1f}% "
                        f"({brec['halo_bytes_comm']} -> "
                        f"{crec['halo_bytes_comm']}, > "
                        f"{args.max_comm_bytes_rise:.1f}% allowed)")
            else:
                if crec["halo_msgs_node_aware"] > brec["halo_msgs_node_aware"]:
                    failures.append(
                        f"{name}: node-aware messages rose "
                        f"{brec['halo_msgs_node_aware']} -> "
                        f"{crec['halo_msgs_node_aware']}")

    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print(f"OK: comm contract holds on {len(topo)} matrices")
    return 1 if failures else 0


def load_weakscale(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "fsaic.bench.weakscale/v1":
        sys.exit(f"{path}: not a fsaic.bench.weakscale/v1 artifact "
                 f"(schema={doc.get('schema')!r})")
    return doc


def weakscale_mode(args):
    doc = load_weakscale(args.baseline)
    failures = []

    fixed = doc["fixed"]["cells"]
    if not fixed:
        sys.exit("candidate has no fixed-series cells")
    fingerprints = {c["fingerprint"] for c in fixed}
    if len(fingerprints) != 1:
        failures.append(
            f"fixed series: {len(fingerprints)} distinct operator "
            f"fingerprints across rank counts / comm schemes "
            f"({sorted(fingerprints)}) — generation is not deterministic")
    for c in fixed:
        label = f"fixed ranks={c['ranks']} comm={c['comm']}"
        if c["rows"] < args.min_rows:
            failures.append(f"{label}: only {c['rows']} rows "
                            f"(need >= {args.min_rows})")
        if c["balance"] > args.max_balance:
            failures.append(f"{label}: nnz balance {c['balance']:.3f} exceeds "
                            f"{args.max_balance:.3f}")
        if c["halo_intra_bytes"] + c["halo_inter_bytes"] != c["halo_bytes"]:
            failures.append(
                f"{label}: intra {c['halo_intra_bytes']} + inter "
                f"{c['halo_inter_bytes']} != total {c['halo_bytes']}")
    by_ranks = {}
    for c in fixed:
        by_ranks.setdefault(c["ranks"], {})[c["comm"]] = c
    for ranks, cells in sorted(by_ranks.items()):
        flat, na = cells.get("flat"), cells.get("node-aware")
        if flat is None or na is None:
            failures.append(f"fixed ranks={ranks}: missing a comm scheme")
            continue
        if flat["residual_digest"] != na["residual_digest"]:
            failures.append(
                f"fixed ranks={ranks}: node-aware residual digest "
                f"{na['residual_digest']} != flat {flat['residual_digest']} "
                "— the comm scheme changed the arithmetic")
        if na["halo_bytes"] != flat["halo_bytes"]:
            failures.append(
                f"fixed ranks={ranks}: node-aware payload bytes "
                f"{na['halo_bytes']} != flat {flat['halo_bytes']}")
        print(f"fixed ranks={ranks}: fingerprint {flat['fingerprint']}, "
              f"digest {flat['residual_digest']}, halo {flat['halo_bytes']} B "
              f"(node-aware intra {na['halo_intra_bytes']} / inter "
              f"{na['halo_inter_bytes']})")

    weak = doc["weak"]["cells"]
    if not weak:
        sys.exit("candidate has no weak-series cells")
    halo_levels = {c["max_rank_halo_recv_bytes"] for c in weak}
    if len(halo_levels) != 1:
        failures.append(
            f"weak series: max per-rank halo recv bytes vary across rank "
            f"counts ({sorted(halo_levels)}) — halo volume is not flat at "
            "fixed rows/rank")
    full_added = 0
    for c in weak:
        label = f"weak ranks={c['ranks']}"
        if c["new_comm_cols_comm_aware"] != 0:
            failures.append(
                f"{label}: comm-aware extension admitted "
                f"{c['new_comm_cols_comm_aware']} new communication columns "
                "(must be exactly 0)")
        full_added += c["new_comm_cols_full_halo"]
        print(f"{label}: {c['rows']} rows, halo recv "
              f"{c['max_rank_halo_recv_bytes']} B/rank, new comm cols "
              f"comm-aware {c['new_comm_cols_comm_aware']} / full-halo "
              f"{c['new_comm_cols_full_halo']}")
    if full_added == 0:
        failures.append(
            "weak series: the full-halo strawman never admitted a new "
            "communication column — the neutrality check has no teeth")

    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print(f"OK: weak-scaling contract holds on {len(fixed)} fixed + "
              f"{len(weak)} weak cells")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate", nargs="?")
    ap.add_argument("--mode", choices=("serve", "comm", "weakscale"),
                    default="serve",
                    help="serve: compare two BENCH_serve.json artifacts; "
                         "comm: enforce the comm contract on a "
                         "comm_invariance JSONL report (first positional is "
                         "the candidate, optional second a baseline); "
                         "weakscale: enforce the workload-generation "
                         "contract on a BENCH_weakscale.json artifact")
    ap.add_argument("--max-rps-drop", type=float, default=20.0,
                    help="fail when throughput drops more than PCT (default 20)")
    ap.add_argument("--max-p99-rise", type=float, default=20.0,
                    help="fail when p99 total latency rises more than PCT "
                         "(default 20)")
    ap.add_argument("--max-comm-bytes-rise", type=float, default=0.0,
                    help="comm mode: fail when a matrix's FSAIE-Comm halo "
                         "bytes rise more than PCT vs baseline (default 0)")
    ap.add_argument("--min-rows", type=int, default=1000000,
                    help="weakscale mode: minimum rows of the fixed-series "
                         "operator (default 1000000)")
    ap.add_argument("--max-balance", type=float, default=1.05,
                    help="weakscale mode: max per-rank nnz balance of a "
                         "fixed-series cell (default 1.05)")
    args = ap.parse_args()

    if args.mode == "comm":
        return comm_mode(args)
    if args.mode == "weakscale":
        return weakscale_mode(args)
    if args.candidate is None:
        # Single positional: it is the candidate, compared against the
        # committed in-tree baseline.
        args.baseline, args.candidate = DEFAULT_SERVE_BASELINE, args.baseline
        print(f"baseline: {args.baseline} (committed default)")

    base = load(args.baseline)
    cand = load(args.candidate)

    same_workload = base["digests"]["workload"] == cand["digests"]["workload"]
    if not same_workload:
        print("note: workload digests differ "
              f"({base['digests']['workload']} vs "
              f"{cand['digests']['workload']}); latency/throughput deltas "
              "are informational only")

    rps_base = base["throughput_rps"]
    rps_cand = cand["throughput_rps"]
    rps_delta = pct_change(rps_base, rps_cand)
    print(f"throughput: {rps_base:.2f} -> {rps_cand:.2f} req/s "
          f"({rps_delta:+.1f}%)")

    p99_delta = 0.0
    for stage in ("queue", "setup", "solve", "total"):
        b = base["latency"][stage]
        c = cand["latency"][stage]
        for q in ("p50_us", "p95_us", "p99_us"):
            d = pct_change(b[q], c[q])
            print(f"latency.{stage}.{q[:-3]}: {b[q]:.0f} -> {c[q]:.0f} us "
                  f"({d:+.1f}%)")
            if stage == "total" and q == "p99_us":
                p99_delta = d

    hb, cb = base["cache"], cand["cache"]
    print(f"cache hit rate: {hb['hit_rate']:.2f} -> {cb['hit_rate']:.2f}")
    rb, rc = base["requests"], cand["requests"]

    def rejected(r):
        # rejected_predicted appeared with the SLO-aware scheduler; older
        # artifacts predate it.
        return (r["rejected_deadline"] + r["rejected_queue_full"]
                + r.get("rejected_predicted", 0))

    print(f"completed: {rb['completed']} -> {rc['completed']}; rejected: "
          f"{rejected(rb)} -> {rejected(rc)}")

    failures = []
    if same_workload:
        if rps_delta < -args.max_rps_drop:
            failures.append(
                f"throughput dropped {-rps_delta:.1f}% "
                f"(> {args.max_rps_drop:.1f}% allowed)")
        if p99_delta > args.max_p99_rise:
            failures.append(
                f"p99 total latency rose {p99_delta:.1f}% "
                f"(> {args.max_p99_rise:.1f}% allowed)")
    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print("OK: candidate within thresholds")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
