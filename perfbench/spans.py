"""Per-layer metrics from the span files that ``traced.py`` writes.

A span's self time is its duration minus the durations of its direct
children (spans opened in the same thread while it was open).
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict

# (metric, unit), in the order they are reported.
PER_LAYER = [
    ("graphicality.eg_calls", "count"),
    ("graphicality.eg_s", "s"),
    ("graphicality.hh_construct_s", "s"),
    ("constrained.cg_calls", "count"),
    ("constrained.cg_self_s", "s"),
    ("enumeration.adjacency_sets_s", "s"),
    ("enumeration.count_self_s", "s"),
    ("enumeration.memo_entries", "count"),
    ("enumeration.memo_hits", "count"),
    ("enumeration.walk_self_s", "s"),
    ("enumeration.parallel_s", "s"),
    ("core.graph_builds", "count"),
    ("core.graph_build_s", "s"),
    ("sampling.weighted_sample_s", "s"),
    ("sampling.estimate_draw_s", "s"),
    ("sampling.mr_sample_s", "s"),
    ("sampling.mr_restarts", "count"),
    ("sampling.mr_stub_connections", "count"),
    ("sampling.mr_useful_ratio", "ratio"),
    ("cli.self_s", "s"),
    ("tracing_overhead_s", "s"),
]


class SpanTotals:
    """Calls, total and self seconds per span name, summed over files."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)

    def add_file(self, path: str) -> None:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            count = header["spans"]
            arrays = [array("i"), array("i"), array("d"), array("d")]
            for arr in arrays:
                arr.fromfile(fh, count)
        names, parents, starts, ends = arrays
        duration = [e - s for s, e in zip(starts, ends)]
        children = [0.0] * count
        for idx, parent in enumerate(parents):
            if parent >= 0:
                children[parent] += duration[idx]
        labels = header["names"]
        for idx in range(count):
            name = labels[names[idx]]
            self.calls[name] += 1
            self.total[name] += duration[idx]
            self.self_time[name] += duration[idx] - children[idx]
        for key, value in header["counters"].items():
            self.counters[key] += value


def layer_metrics(t: SpanTotals) -> dict[str, float]:
    """Every PER_LAYER metric except the two measured outside the spans."""
    samples = t.counters["mr_samples"]
    attempts = samples + t.counters["mr_restarts"]
    return {
        "graphicality.eg_calls": t.calls["graphicality.erdos_gallai_test"],
        "graphicality.eg_s": t.total["graphicality.erdos_gallai_test"],
        "graphicality.hh_construct_s": t.total["graphicality.havel_hakimi_construct"],
        "constrained.cg_calls": t.calls["constrained.cg_test"],
        "constrained.cg_self_s": t.self_time["constrained.cg_test"],
        "enumeration.count_self_s": t.self_time["enumeration.count_realizations"],
        "enumeration.memo_entries": t.counters["memo_entries"],
        "enumeration.memo_hits": t.counters["memo_hits"],
        "enumeration.walk_self_s": t.self_time["enumeration.enumerate_all"],
        "enumeration.parallel_s": t.total["enumeration.enumerate_all_parallel"],
        "core.graph_builds": t.calls["core.LabeledGraph"],
        "core.graph_build_s": t.total["core.LabeledGraph"],
        "sampling.weighted_sample_s": t.total["sampling.sample_weighted"],
        "sampling.estimate_draw_s": t.total["sampling.estimate_count"],
        "sampling.mr_sample_s": t.total["sampling.molloy_reed_sample"],
        "sampling.mr_restarts": t.counters["mr_restarts"],
        "sampling.mr_stub_connections": t.counters["mr_stub_connections"],
        "sampling.mr_useful_ratio": samples / attempts if attempts else 0.0,
        "cli.self_s": t.self_time["cli.run"],
    }
