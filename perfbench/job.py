"""One measured sample, run in a fresh interpreter by ``run.py``.

Usage: python3 perfbench/job.py SPEC.json

The spec names the workload's generated inputs. The job imports lingspace,
runs one batch (one ``run_pipeline`` call, or one stream of ``check_fit``
calls), and prints one JSON line with its timings, its peak resident set
size and what the correctness checks need. Talks and posts samples then also
time ``check_fit`` over their own texts. With ``trace`` set, the batch runs
under the tracer and the line carries per-layer metrics instead.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import re
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

from spans import Tracer

GAUGE_EVERY = 5000  # check_fit calls between gauge readings
GAUGE_READS = 3  # gauge readings before and after a pipeline run
# Timings are reported at the speed of a machine that runs gauge_seconds()
# in GAUGE_S: each is multiplied by GAUGE_S / (the gauge read next to it).
GAUGE_S = 0.005


def tree_sha256(root: Path) -> str:
    """Digest of every file under root: relative path, size and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def run_checks(rows, calls: int, check_fit, presets) -> dict:
    """Closed loop with one caller: check_fit over rows, cycled in order,
    `calls` times. Each verdict is compared with the row's expected value.
    The gauge is read between chunks of GAUGE_EVERY calls (its time is not
    counted), and each chunk's timings are taken at the speed the readings
    on either side of it show."""
    limits = {name: presets[name] for name in {row[1] for row in rows}}
    stream = [(text, limits[preset], fits, units, encoding)
              for text, preset, fits, units, encoding in rows]
    n = len(stream)
    chunk = array("q", bytes(8 * GAUGE_EVERY))
    latency_us = array("d")
    bad = 0
    wall = raw_wall = 0.0
    gauge = gauge_seconds()
    clock = perf_counter_ns
    for first in range(0, calls, GAUGE_EVERY):
        size = min(GAUGE_EVERY, calls - first)
        started = perf_counter()
        for j in range(size):
            text, limit, fits, units, encoding = stream[(first + j) % n]
            t0 = clock()
            try:
                result = check_fit(text, limit)
            except Exception:  # a failed call counts as a wrong verdict
                chunk[j] = clock() - t0
                bad += 1
                continue
            chunk[j] = clock() - t0
            if (result.fits is not fits or result.units_used != units
                    or result.encoding_chosen != encoding):
                bad += 1
        elapsed = perf_counter() - started
        before, gauge = gauge, gauge_seconds()
        scale = GAUGE_S / ((before + gauge) / 2)
        raw_wall += elapsed
        wall += elapsed * scale
        latency_us.extend(ns * scale / 1000 for ns in chunk[:size])
    return {"n": calls, "bad": bad, "wall_s": wall, "raw_wall_s": raw_wall,
            "latency_us": latency_us}


def percentiles(stream: dict) -> dict:
    """Replace a stream's per-call latencies by their p50 and p99."""
    cuts = statistics.quantiles(stream.pop("latency_us"), n=100, method="inclusive")
    return dict(stream, p50_us=cuts[49], p99_us=cuts[98])


def gauge_seconds() -> float:
    """A gauge of how fast this machine runs Python right now: the fastest
    of three timings of a fixed stdlib-only workload (strings, dicts, regex,
    sort, JSON) of about 4 ms, so a brief stall does not count. The
    benchmark scales its timings by readings taken next to them, because
    the speed of a shared machine drifts by a third and more."""
    timings = []
    for _ in range(3):
        started = perf_counter()
        words = [f"w{i % 997}x{i}" for i in range(4000)]
        table: dict[str, int] = {}
        for word in words:
            table[word[:4]] = table.get(word[:4], 0) + len(word)
        found = len(re.findall(r"x\d+", " ".join(words)))
        ordered = sorted(words, key=len)
        encoded = json.dumps(table)
        if found + len(ordered) + len(encoded) <= 0:
            raise AssertionError("unreachable")
        timings.append(perf_counter() - started)
    return min(timings)


def _gauge_around() -> list[float]:
    return [gauge_seconds() for _ in range(GAUGE_READS)]


def at_gauge_speed(seconds: float, gauge: float) -> float:
    return seconds * GAUGE_S / gauge


def _probe(module, attr: str, keep) -> None:
    """Record a value from each call's result, leaving the call unchanged."""
    original = getattr(module, attr)

    def probed(*args, **kwargs):
        result = original(*args, **kwargs)
        keep(result)
        return result

    setattr(module, attr, probed)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer self times (s) and counters of one traced batch."""
    metrics = {f"{name}_s": ns / 1e9 for name, ns in tracer.self_times_ns().items()}
    metrics.update(tracer.counters)
    calls = tracer.counters["measures.count_calls"]
    metrics["measures.distinct_share"] = len(tracer.distinct) / calls if calls else 0.0
    return metrics


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import lingspace.limits
    import lingspace.pipeline

    rows = None
    if spec["workload"] == "limits":
        rows = json.loads(Path(spec["checks"]).read_text(encoding="utf-8"))
    out: dict = {"probes": []}
    if spec["workload"] == "talks":
        _probe(lingspace.pipeline, "load_subtitle_directory", lambda r: out["probes"].append(
            [r[1].total_ids, r[1].missing_language, r[1].too_short, r[1].kept]))
    elif spec["workload"] == "posts":
        _probe(lingspace.pipeline, "assign_posts", lambda r: out["probes"].append(r[1]))
    # The job's own inputs stay out of the program's garbage collections.
    gc.collect()
    gc.freeze()

    before = _gauge_around()
    tracer = Tracer() if spec["trace"] else contextlib.nullcontext()
    with tracer:
        if rows is not None:
            stream = run_checks(rows, spec["calls"], lingspace.limits.check_fit,
                                lingspace.limits.PRESETS)
            out.update(wall_s=stream.pop("wall_s"), raw_wall_s=stream.pop("raw_wall_s"),
                       rss_mb=_rss_mb())
            out["checks"] = percentiles(stream)
        else:
            started = perf_counter()
            try:
                rc = lingspace.pipeline.run_pipeline(spec["config"])
            except Exception as exc:  # reported as a failed operation
                print(f"run_pipeline raised {exc!r}", file=sys.stderr)
                rc = -1
            raw_wall = perf_counter() - started
            out.update(raw_wall_s=raw_wall, rss_mb=_rss_mb(), rc=rc,
                       sha256=tree_sha256(Path(spec["out_dir"])))
            out["wall_s"] = at_gauge_speed(raw_wall, statistics.fmean(before + _gauge_around()))
    if spec["trace"]:
        out["layers"] = layer_metrics(tracer)
        out["spans"] = len(tracer.start)
        tracer.write(Path(spec["trace_stem"]))
    elif rows is None:
        rows = json.loads(Path(spec["checks"]).read_text(encoding="utf-8"))
        stream = run_checks(rows, len(rows), lingspace.limits.check_fit, lingspace.limits.PRESETS)
        del stream["wall_s"], stream["raw_wall_s"]
        out["checks"] = percentiles(stream)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: job.py SPEC.json")
    sys.exit(main(sys.argv[1]))
