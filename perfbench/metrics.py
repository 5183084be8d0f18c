"""Metrics of the repo benchmark and how each is derived from
ebi_perfbench's raw record.

Names, units and better directions are BENCHMARK.json's and are read
from it. This module holds what that file cannot: the workloads whose
load path exercises each metric, where its value comes from, and the
rule that derives it. A metric reported on a workload outside its list
reads 0: that layer does no work there (the bypassing workload of the
pair).
"""

import json
import os
import statistics

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    MANIFEST = json.load(f)

ALL = tuple(w["name"] for w in MANIFEST["workloads"])
# One QueryService; QueryService shards (the cluster's included).
SERVICE = ("star_read", "star_ingest")
SERVED = ("star_read", "star_ingest", "tenant_cluster")
APPENDING = ("star_ingest", "tenant_cluster")

UNIT = {m["name"]: m["unit"]
        for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
# Bounded end-to-end metrics: every workload reports them and none is 0.
BOUNDED = [m["name"] for m in MANIFEST["end_to_end"]]
PER_LAYER = [m["name"] for m in MANIFEST["per_layer"]]
# End-to-end metrics that BENCHMARK.json files per layer: the p99 (too few
# samples beyond it to be steady at 10 s), the write-path numbers (0 on
# read-only workloads) and fail_rate (0 when all is well). They are
# measured untraced like the bounded ones and printed with them.
END_TO_END = BOUNDED + ["select_p99_ms", "append_p50_ms", "append_p99_ms",
                        "ingest_rows_per_s", "recovery_s", "fail_rate"]

# name: (workloads whose load path reaches it, where its value comes from)
PATH = {
    "select_p50_ms": (ALL, "selection latency, median"),
    "select_p90_ms": (ALL, "selection latency, p90"),
    "select_qps": (ALL,
                   "completed selections per second at the workload's clients"),
    "setup_s": (ALL, "median of the timed Start/Build calls"),
    "index_bytes_per_row": (
        ALL, "sum of serving-index SizeBytes() over rows, after set-up"),
    "peak_heap_mb": (ALL, "peak malloc-allocated bytes above the pre-set-up "
                          "baseline"),
    "select_p99_ms": (ALL, "selection latency, p99"),
    "append_p50_ms": (APPENDING, "append until published, median"),
    "append_p99_ms": (APPENDING, "append until published, p99"),
    "ingest_rows_per_s": (("star_ingest",),
                          "appended rows over the loader's window"),
    "recovery_s": (("star_ingest",),
                   "restart from the WAL until the first answer"),
    "fail_rate": (ALL,
                  "failed over attempted operations (shed, error, bad answer)"),
    "serve.queue_ms.p50": (SERVICE, "ServeResult.queue_ms"),
    "serve.queue_ms.p99": (SERVICE, "ServeResult.queue_ms"),
    "serve.run_ms.p50": (SERVICE, "ServeResult.run_ms"),
    "serve.run_ms.p99": (SERVICE, "ServeResult.run_ms"),
    "serve.shed": (SERVED, "selections refused with kOverloaded"),
    "snapshot.pin_us.p50": (SERVED, "snapshots().Acquire()"),
    "snapshot.pin_us.p99": (SERVED, "snapshots().Acquire()"),
    "snapshot.clone_ms.p50": (
        APPENDING, "DatabaseSnapshot::CloneWithRows of the workload's batch"),
    "snapshot.clone_ms.p99": (
        APPENDING, "DatabaseSnapshot::CloneWithRows of the workload's batch"),
    "snapshot.retired.max": (SERVED, "most RetiredCount() seen"),
    "query.plan_us.p50": (SERVED, "DatabaseSnapshot::MakeExecutor"),
    "query.execute_ms.p50": (SERVED,
                             "SelectionExecutor::Select on a pinned snapshot"),
    "query.execute_ms.p99": (SERVED,
                             "SelectionExecutor::Select on a pinned snapshot"),
    "boolean.reduce_ms.p50": (ALL,
                              "EncodedBitmapIndex::CoverForIn per conjunct"),
    "boolean.reduce_ms.p99": (ALL,
                              "EncodedBitmapIndex::CoverForIn per conjunct"),
    "boolean.cubes_per_conjunct": (ALL, "reduced cover size, mean"),
    "index.eval_ms.p50": (ALL, "SecondaryIndex::Evaluate* per conjunct"),
    "index.eval_ms.p99": (ALL, "SecondaryIndex::Evaluate* per conjunct"),
    "index.vectors_per_conjunct": (
        ALL, "distinct vectors of the reduced cover (c_e), mean"),
    "index.ce_bound": (ALL, "slice count of the conjunct's index, mean"),
    "kernels.cover_eval_ms.p50": (ALL, "EvaluateCover over the index's slices"),
    "kernels.or_many_gbps": (ALL, "kernels::Active().or_many, 8 operands"),
    "kernels.and_many_gbps": (ALL, "kernels::Active().and_many, 8 operands"),
    "kernels.popcount_gbps": (ALL, "kernels::Active().popcount_words"),
    "engine.wal_append_ms.p50": (
        ("star_ingest",), "Wal::Append with fsync, EncodeRowBatch payload"),
    "engine.wal_append_ms.p99": (
        ("star_ingest",), "Wal::Append with fsync, EncodeRowBatch payload"),
    "engine.pages_per_query": (("cold_scan",),
                               "IoStats.pages_read per selection"),
    "engine.bytes_per_query": (("cold_scan",),
                               "IoStats.bytes_read per selection"),
    "engine.pool_hit_rate": (("cold_scan",), "store_stats() hits over gets"),
    "engine.evictions_per_query": (("cold_scan",),
                                   "store_stats() evictions per selection"),
    "cluster.fanout.mean": (("tenant_cluster",), "visited_shards per selection"),
    "cluster.shard_ms.p50": (("tenant_cluster",), "ShardOutcome.latency_ms"),
    "cluster.shard_ms.p99": (("tenant_cluster",), "ShardOutcome.latency_ms"),
    "cluster.gather_ms.p50": (("tenant_cluster",),
                              "selection latency minus the slowest shard's"),
    "cluster.gather_ms.p99": (("tenant_cluster",),
                              "selection latency minus the slowest shard's"),
    "cluster.route_us.p50": (("tenant_cluster",),
                             "ShardRouter::RouteAppend of the workload's batch"),
    "trace.unattributed_share": (
        ALL, "share of a replayed real call its stepwise re-execution "
             "does not account for, mean"),
    "trace.overhead": (ALL, "traced select_qps over untraced select_qps"),
}

# The real call each replayed request times, and the stepwise calls that
# re-execute its work (see stats.unattributed_shares). Select evaluates
# every conjunct through its index and intersects the results; the cold
# evaluation reduces the selection to a cover, faults in the slices the
# cover references through the buffer pool, and evaluates the cover.
REPLAYED = {
    "cold_scan": ("index.eval",
                  ("boolean.reduce", "engine.fetch", "kernels.cover_eval")),
}
REPLAYED_SELECT = ("query.execute", ("index.eval", "kernels.and"))


class Value:
    """A derived metric value; `note` says how it was measured."""

    def __init__(self, value, note=""):
        self.value = float(value)
        self.note = note


def _timing(samples, q, scale=1.0):
    t = stats.Timing([x * scale for x in samples], q)
    if t.value is None:
        raise ValueError("no samples")
    note = t.label() if t.supported else "only %s" % t.label()
    return Value(t.value, note)


def _span_ms(spans, name):
    return [stats.duration_ns(s) / 1e6 for s in spans if s["name"] == name]


def _span_counts(spans, name, key):
    return [s[key] for s in spans if s["name"] == name and key in s]


def _qps(phase):
    return len(phase["select_ms"]) / phase["window_s"]


def operations(record, trace):
    """(attempted, failed) over the phases whose metrics are reported.
    Every failed answer check counts as one more failed operation."""
    phases = [record["untraced"]] + ([record["traced"]] if trace else [])
    attempted = sum(p["select_attempted"] + p["append_attempted"] for p in phases)
    failed = sum(p["select_failed"] + p["append_failed"] for p in phases)
    failed += record["checks"]["failed"]
    return attempted, min(failed, attempted)


def _end_to_end(record, trace):
    u = record["untraced"]
    rows = record["rows"]
    attempted, failed = operations(record, trace)
    return {
        "select_p50_ms": lambda: _timing(u["select_ms"], 0.5),
        "select_p90_ms": lambda: _timing(u["select_ms"], 0.9),
        "select_p99_ms": lambda: _timing(u["select_ms"], 0.99),
        "select_qps": lambda: Value(_qps(u), "n=%d over %.2f s"
                                    % (len(u["select_ms"]), u["window_s"])),
        "setup_s": lambda: Value(statistics.median(record["setup_s"]),
                                 "median of %d" % len(record["setup_s"])),
        "index_bytes_per_row": lambda: Value(record["index_bytes"] / rows,
                                             "%d rows" % rows),
        "peak_heap_mb": lambda: Value(record["peak_heap_kb"] / 1024.0),
        "append_p50_ms": lambda: _timing(u["append_ms"], 0.5),
        "append_p99_ms": lambda: _timing(u["append_ms"], 0.99),
        "ingest_rows_per_s": lambda: Value(u["rows_appended"] / u["window_s"],
                                           "%d rows" % u["rows_appended"]),
        "recovery_s": lambda: Value(record["recovery_s"]),
        "fail_rate": lambda: Value(stats.fail_rate(attempted, failed),
                                   "%d of %d" % (failed, attempted)),
    }


def _per_layer(record, workload):
    t = record["traced"]
    spans = record["spans"]
    probes = record["probes"]
    engine = t["engine"]
    queries = max(engine["queries"], 1)
    gets = engine["hits"] + engine["misses"]
    whole, parts = REPLAYED.get(workload, REPLAYED_SELECT)

    def mean_of(xs):
        if not xs:
            raise ValueError("no samples")
        return Value(stats.mean(xs), "mean of %d" % len(xs))

    def median_of(xs):
        if not xs:
            raise ValueError("no samples")
        return Value(statistics.median(xs), "median of %d" % len(xs))

    return {
        "serve.queue_ms.p50": lambda: _timing(t["queue_ms"], 0.5),
        "serve.queue_ms.p99": lambda: _timing(t["queue_ms"], 0.99),
        "serve.run_ms.p50": lambda: _timing(t["run_ms"], 0.5),
        "serve.run_ms.p99": lambda: _timing(t["run_ms"], 0.99),
        "serve.shed": lambda: Value(t["shed"]),
        "snapshot.pin_us.p50": lambda: _timing(
            _span_ms(spans, "snapshot.pin"), 0.5, 1000.0),
        "snapshot.pin_us.p99": lambda: _timing(
            _span_ms(spans, "snapshot.pin"), 0.99, 1000.0),
        "snapshot.clone_ms.p50": lambda: _timing(probes["clone_ms"], 0.5),
        "snapshot.clone_ms.p99": lambda: _timing(probes["clone_ms"], 0.99),
        "snapshot.retired.max": lambda: Value(t["retired_max"]),
        "query.plan_us.p50": lambda: _timing(
            _span_ms(spans, "query.plan"), 0.5, 1000.0),
        "query.execute_ms.p50": lambda: _timing(
            _span_ms(spans, "query.execute"), 0.5),
        "query.execute_ms.p99": lambda: _timing(
            _span_ms(spans, "query.execute"), 0.99),
        "boolean.reduce_ms.p50": lambda: _timing(
            _span_ms(spans, "boolean.reduce"), 0.5),
        "boolean.reduce_ms.p99": lambda: _timing(
            _span_ms(spans, "boolean.reduce"), 0.99),
        "boolean.cubes_per_conjunct": lambda: mean_of(
            _span_counts(spans, "boolean.reduce", "cubes")),
        "index.eval_ms.p50": lambda: _timing(_span_ms(spans, "index.eval"), 0.5),
        "index.eval_ms.p99": lambda: _timing(
            _span_ms(spans, "index.eval"), 0.99),
        "index.vectors_per_conjunct": lambda: mean_of(
            _span_counts(spans, "boolean.reduce", "vectors")),
        "index.ce_bound": lambda: mean_of(
            _span_counts(spans, "boolean.reduce", "ce_bound")),
        "kernels.cover_eval_ms.p50": lambda: _timing(
            _span_ms(spans, "kernels.cover_eval"), 0.5),
        "kernels.or_many_gbps": lambda: median_of(probes["or_many_gbps"]),
        "kernels.and_many_gbps": lambda: median_of(probes["and_many_gbps"]),
        "kernels.popcount_gbps": lambda: median_of(probes["popcount_gbps"]),
        "engine.wal_append_ms.p50": lambda: _timing(probes["wal_append_ms"], 0.5),
        "engine.wal_append_ms.p99": lambda: _timing(
            probes["wal_append_ms"], 0.99),
        "engine.pages_per_query": lambda: Value(
            engine["pages"] / queries, "%d selections" % engine["queries"]),
        "engine.bytes_per_query": lambda: Value(engine["bytes"] / queries),
        "engine.pool_hit_rate": lambda: Value(
            engine["hits"] / gets if gets else 0.0, "%d gets" % gets),
        "engine.evictions_per_query": lambda: Value(
            engine["evictions"] / queries),
        "cluster.fanout.mean": lambda: mean_of(t["fanout"]),
        "cluster.shard_ms.p50": lambda: _timing(t["shard_ms"], 0.5),
        "cluster.shard_ms.p99": lambda: _timing(t["shard_ms"], 0.99),
        "cluster.gather_ms.p50": lambda: _timing(t["gather_ms"], 0.5),
        "cluster.gather_ms.p99": lambda: _timing(t["gather_ms"], 0.99),
        "cluster.route_us.p50": lambda: _timing(probes["route_us"], 0.5),
        "trace.unattributed_share": lambda: mean_of(
            stats.unattributed_shares(spans, whole, parts)),
        "trace.overhead": lambda: Value(
            _qps(t) / _qps(record["untraced"]),
            "traced %.1f / untraced %.1f qps" % (_qps(t), _qps(record["untraced"]))),
    }


def derive(record, workload, trace):
    """All metrics of one run: {name: Value}. With trace 0 the end-to-end
    set, with trace 1 the per-layer set. Raises ValueError when a metric
    on the workload's own path has no samples."""
    rules = _end_to_end(record, trace)
    wanted = END_TO_END
    if trace:
        rules.update(_per_layer(record, workload))
        wanted = PER_LAYER
    out = {}
    for name in wanted:
        if workload not in PATH[name][0]:
            out[name] = Value(0.0, "not on this workload's path")
            continue
        try:
            out[name] = rules[name]()
        except (ValueError, ZeroDivisionError) as err:
            raise ValueError("%s on %s: %s" % (name, workload, err))
    return out
