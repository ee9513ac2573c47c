"""Span arithmetic shared by every workload of the benchmark.

A span is a dict ``{"name", "start", "end", "parent", "run"}``: host
times in ns, ``parent`` the index of the enclosing span (or ``None``),
``run`` the iteration it belongs to. Spans are recorded around the
benchmark's own calls into each layer (the Rust ``perfbench`` binary for
the serving workloads, ``run.py`` for the figure binaries) and kept in
memory until the run ends.

A span's self time is its duration minus the part of its interval that
its child spans cover. Children that overlap each other are counted
once, and the parts of a child outside its parent are ignored.
"""

import time


def covered_ns(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of each span, ns, in span order."""
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return [
        (s["end"] - s["start"]) - covered_ns(children[i], s["start"], s["end"])
        for i, s in enumerate(spans)
    ]


def totals(spans):
    """Per span name: ``(count, self_ns, total_ns)`` summed over spans."""
    out = {}
    for s, self_ns in zip(spans, self_times(spans)):
        count, self_sum, total_sum = out.get(s["name"], (0, 0, 0))
        out[s["name"]] = (count + 1, self_sum + self_ns, total_sum + s["end"] - s["start"])
    return out


def fastest_s(spans):
    """Per span name, the shortest duration, s."""
    out = {}
    for s in spans:
        d = (s["end"] - s["start"]) / 1e9
        out[s["name"]] = min(out.get(s["name"], d), d)
    return out


class Recorder:
    """Records spans in memory, in the form ``perfbench`` emits."""

    def __init__(self):
        self.epoch = time.perf_counter_ns()
        self.spans = []

    def open(self, name, parent=None, run=0):
        now = time.perf_counter_ns() - self.epoch
        self.spans.append({"name": name, "start": now, "end": now, "parent": parent, "run": run})
        return len(self.spans) - 1

    def close(self, span):
        self.spans[span]["end"] = time.perf_counter_ns() - self.epoch
