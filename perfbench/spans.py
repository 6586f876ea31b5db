"""Outside-in tracing: spans around calls into lingspace's public functions.

The tracer replaces a function at the module attribute its callers look up
(``lingspace.ratios.count_units``, not ``lingspace.measures.count_units``)
with a wrapper that records one span per call: name, start, end, parent span
and request id. A call made while no span is open starts a new request, so a
request is one pipeline run or one ``check_fit`` call. Spans are kept in
memory in flat integer arrays and written out when the run ends.

A target that no longer exists raises ``TraceError`` at install time, so a
refactor cannot silently zero a layer.
"""

from __future__ import annotations

import importlib
import json
import os
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns


class TraceError(RuntimeError):
    pass


@dataclass(frozen=True)
class Target:
    """One wrapped name. `span` is the layer the call's self time goes to;
    `count` maps (args, kwargs, result) to {counter: increment}."""

    module: str
    attr: str
    span: str
    count: Callable[[tuple, dict, object], dict[str, int]] | None = None


def _size(path) -> int:
    return os.path.getsize(path)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _exclusions(args, kwargs, result) -> dict[str, int]:
    report = result[1]
    return {"corpus.units_kept": report.kept,
            "corpus.units_dropped": report.missing_language + report.too_short}


def _described(args, kwargs, result) -> dict[str, int]:
    return {"ratios.values_described": result.n}


# Each name is wrapped where the program looks it up. Every span name below
# is reported as its own self-time metric, so the self times of one request
# add up to the duration of its root span.
TARGETS = (
    Target("lingspace.pipeline", "run_pipeline", "pipeline.self"),
    Target("lingspace.pipeline", "load_pipeline_config", "pipeline.config"),
    Target("lingspace.pipeline", "load_subtitle_directory", "corpus.load", _exclusions),
    Target("lingspace.pipeline", "load_udhr_directory", "corpus.load", _exclusions),
    Target("lingspace.pipeline", "save_corpus", "corpus.save"),
    Target("lingspace.corpus", "parse_subtitle", "subtitles.parse",
           lambda a, k, r: {"subtitles.files": 1}),
    Target("lingspace.corpus", "count_units", "measures.count"),
    Target("lingspace.ratios", "count_units", "measures.count"),
    Target("lingspace.microblog", "count_units", "measures.count"),
    Target("lingspace.limits", "count_units", "measures.count"),
    Target("lingspace.measures", "nfc", "measures.nfc"),
    Target("lingspace.limits", "nfc", "measures.nfc"),
    Target("lingspace.measures", "gbk_unit_length", "measures.gbk"),
    Target("lingspace.gsm7", "is_gsm_text", "gsm7.scan"),
    Target("lingspace.gsm7", "septet_length", "gsm7.scan"),
    Target("lingspace.microblog", "strip_urls", "measures.strip_urls"),
    Target("lingspace.microblog", "count_urls", "measures.count_urls"),
    Target("lingspace.microblog", "detect_language", "measures.detect_language",
           lambda a, k, r: {"measures.detect_calls": 1}),
    Target("lingspace.pipeline", "aggregate_ratios", "ratios.aggregate",
           lambda a, k, r: {"ratios.units_skipped":
                            len(_arg(a, k, 0, "corpus").units) - len(r.per_unit)}),
    Target("lingspace.ratios", "describe", "ratios.describe", _described),
    Target("lingspace.pipeline", "describe", "ratios.describe", _described),
    Target("lingspace.pipeline", "load_posts", "microblog.load_posts",
           lambda a, k, r: {"microblog.posts_loaded": len(r)}),
    Target("lingspace.pipeline", "assign_posts", "microblog.assign",
           lambda a, k, r: {"microblog.posts_dropped": r[1]}),
    Target("lingspace.pipeline", "account_length_stats", "microblog.account_stats",
           lambda a, k, r: {"microblog.accounts_excluded": r is None}),
    Target("lingspace.pipeline", "compute_ric", "microblog.ric"),
    Target("lingspace.pipeline", "emit_table", "tables.emit",
           lambda a, k, r: {"tables.bytes_out": _size(_arg(a, k, 2, "destination"))}),
    Target("lingspace.pipeline", "render_boxplot", "svgplot.render",
           lambda a, k, r: {"svgplot.bytes_out": _size(_arg(a, k, 2, "out"))}),
    Target("lingspace.limits", "check_fit", "limits.check",
           lambda a, k, r: {"limits.checks": 1}),
)

COUNTERS = (
    "subtitles.files", "corpus.units_kept", "corpus.units_dropped",
    "measures.count_calls", "measures.detect_calls", "ratios.units_skipped",
    "ratios.values_described", "microblog.posts_loaded", "microblog.posts_dropped",
    "microblog.accounts_excluded", "tables.bytes_out", "svgplot.bytes_out",
    "limits.checks",
)


class Tracer:
    """Install with `with Tracer() as tracer:`; the originals come back on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = list(dict.fromkeys(t.span for t in targets))
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.distinct: set[tuple[int, object]] = set()
        self._stack: list[int] = []
        self._requests = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        resolved = []
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
                original = getattr(module, target.attr)
            except (ImportError, AttributeError) as exc:
                raise TraceError(f"cannot trace {target.module}.{target.attr}: {exc}") from exc
            if not callable(original):
                raise TraceError(f"{target.module}.{target.attr} is not callable")
            resolved.append((module, target, original))
        for module, target, original in resolved:
            self._saved.append((module, target.attr, original))
            setattr(module, target.attr, self._wrap(original, target))
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, target: Target):
        name_id = self.names.index(target.span)
        names, starts, ends, parents, requests = (
            self.name, self.start, self.end, self.parent, self.request)
        stack = self._stack
        count = target.count
        counters = self.counters
        is_count_units = target.span == "measures.count"
        distinct = self.distinct

        def traced(*args, **kwargs):
            index = len(starts)
            if stack:
                parents.append(stack[-1])
                requests.append(requests[stack[-1]])
            else:
                parents.append(-1)
                requests.append(self._requests)
                self._requests += 1
            names.append(name_id)
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if is_count_units:
                counters["measures.count_calls"] += 1
                distinct.add((hash(_arg(args, kwargs, 0, "text")), _arg(args, kwargs, 1, "measure")))
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counters[key] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.attr)
        return traced

    @property
    def requests(self) -> int:
        return self._requests

    def self_times_ns(self) -> dict[str, int]:
        """Per span name: total duration minus the time its child spans cover."""
        n = len(self.start)
        child = [0] * n
        duration = [self.end[i] - self.start[i] for i in range(n)]
        parents = self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += duration[i]
        totals = [0] * len(self.names)
        names = self.name
        for i in range(n):
            totals[names[i]] += duration[i] - child[i]
        return dict(zip(self.names, totals))

    def root_durations_ns(self) -> list[int]:
        return [self.end[i] - self.start[i] for i in range(len(self.start)) if self.parent[i] < 0]

    def write(self, stem: Path) -> None:
        """Write spans as `<stem>.bin` (five int64 columns, one after the
        other) described by `<stem>.json`."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        columns = ("name", "start_ns", "end_ns", "parent", "request")
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for column in (self.name, self.start, self.end, self.parent, self.request):
                column.tofile(fh)
        stem.with_suffix(".json").write_text(json.dumps({
            "names": self.names, "columns": columns, "count": len(self.start),
            "dtype": "int64", "byteorder": "native", "data": stem.with_suffix(".bin").name,
        }, indent=1) + "\n", encoding="utf-8")
