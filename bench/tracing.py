"""Spans recorded from outside the package, and the per-layer metrics
computed from them.

The traced child replaces names that callers import (for example
`misbounds.verify.mis_count`) with wrappers that record one span per
call, or per `next()` for generators. Spans are lists
`[id, parent, name, start_ns, end_ns, tag, value]` kept in memory and
written as JSON when the child ends. Untraced children never import
this module's wrappers.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

ID, PARENT, NAME, START, END, TAG, VALUE = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [0]
        self.tag = ""

    def _open(self, name: str, tag: str) -> list:
        rec = [len(self.spans) + 1, self._stack[-1], name, perf_counter_ns(), 0, tag, None]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag: str = ""):
        rec = self._open(name, tag)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, module, attr: str, name: str, keep_result: bool = False) -> None:
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            rec = self._open(name, self.tag)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(rec)
            if keep_result:
                rec[VALUE] = result
            return result

        setattr(module, attr, wrapper)

    def wrap_generator(self, module, attr: str, name: str) -> None:
        """Time every next() of the generators `attr` returns; the span's
        value is 1 for a graph yielded and 0 for the final StopIteration."""
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self._timed(orig(*args, **kwargs), name)

        setattr(module, attr, wrapper)

    def _timed(self, it, name: str):
        while True:
            rec = self._open(name, self.tag)
            try:
                item = next(it)
            except StopIteration:
                rec[VALUE] = 0
                return
            finally:
                self._close(rec)
            rec[VALUE] = 1
            yield item

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# ---------------------------------------------------------------------------
# aggregation (runs in the benchmark's parent process)


class _Sums:
    """Duration and call totals per (name, tag), and each span's child time."""

    def __init__(self, spans: list[list]) -> None:
        self.time = defaultdict(int)
        self.calls = defaultdict(int)
        self.value = defaultdict(int)
        self.child_time = defaultdict(int)
        for s in spans:
            dur = s[END] - s[START]
            key = (s[NAME], s[TAG])
            self.time[key] += dur
            self.calls[key] += 1
            if isinstance(s[VALUE], int):
                self.value[key] += s[VALUE]
            self.child_time[s[PARENT]] += dur
        self.spans = spans

    def self_time(self, name: str, tag: str | None = None) -> int:
        return sum(
            s[END] - s[START] - self.child_time[s[ID]]
            for s in self.spans
            if s[NAME] == name and (tag is None or s[TAG] == tag)
        )


def _per(total_ns: int, count: int, scale: float) -> float:
    return total_ns / scale / count if count else 0.0


def certify_layers(spans: list[list], minimizers: dict[str, int],
                   lemma_tuples: int) -> dict[str, float]:
    """Per-layer metrics of a traced jobs-1 certify child."""
    t = _Sums(spans)
    out: dict[str, float] = {}
    canon_time = canon_calls = 0
    for cls in ("tree", "unicyclic", "forest"):
        graphs = t.value[("generate.next", cls)]
        out[f"generate.{cls}_us"] = _per(t.time[("generate.next", cls)], graphs, 1e3)
        for layer, name in (("mis_count", "counting.mis_count"), ("alpha", "counting.alpha")):
            key = (name, cls)
            out[f"counting.{layer}.{cls}_us"] = _per(t.time[key], t.calls[key], 1e3)
        calls = t.calls[("graphs.canonical_form", cls)]
        canon_calls += calls
        canon_time += t.time[("graphs.canonical_form", cls)]
        out[f"verify.witness_useful_ratio.{cls}"] = minimizers[cls] / calls if calls else 0.0
    out["graphs.canonical_form_us"] = _per(canon_time, canon_calls, 1e3)
    out["graphs.canonical_form_calls"] = canon_calls
    out["verify.self_s"] = t.self_time("verify.scan") / 1e9
    out["verify.claim1_s"] = t.time[("verify.claim1", "")] / 1e9
    lemma_s = t.time[("bounds.lemmas", "")] / 1e9
    out["bounds.lemma_sweep_s"] = lemma_s
    out["bounds.tuples_per_s"] = lemma_tuples / lemma_s if lemma_s else 0.0
    return out


def traced_scan_seconds(spans: list[list]) -> float:
    return sum(s[END] - s[START] for s in spans if s[NAME] == "verify.scan") / 1e9


def count_layers(spans: list[list], graphs: int) -> dict[str, float]:
    """Per-layer metrics of a traced dense-count `count`/`alpha` child."""
    t = _Sums(spans)
    mis = ("counting.mis_count", "")
    alpha = ("counting.alpha", "")
    return {
        "counting.mis_count.dense_ms": _per(t.time[mis], t.calls[mis], 1e6),
        "counting.alpha.dense_ms": _per(t.time[alpha], t.calls[alpha], 1e6),
        "graphs.parse_graph6_us": _per(t.time[("graphs.parse_graph6", "")],
                                       t.calls[("graphs.parse_graph6", "")], 1e3),
        "graphs.classify_us": _per(t.time[("graphs.classify", "")],
                                   t.calls[("graphs.classify", "")], 1e3),
        "cli.self_us": _per(t.self_time("cli.main"), graphs, 1e3),
        "counting.dense_sets_per_s": t.value[mis] / (t.time[mis] / 1e9) if t.time[mis] else 0.0,
    }
