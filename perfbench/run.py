"""lingspace benchmark: three seeded workloads, measured end to end.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload talks|posts|limits --seed N \
        --seconds S --trace 0|1

The run generates the workload's inputs from the seed under
``.perfbench/``, then starts fresh single-threaded interpreters
(``job.py``), one per sample, until S seconds have passed (at least three
samples). Each sample runs one ``run_pipeline`` (talks, posts) or one stream
of ``check_fit`` calls (limits); all outputs are checked against the
generator's values. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, medians over samples; with
``--trace 1`` half the time goes to untraced samples and one further sample
runs under the tracer, giving per-layer metrics (see README.md).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("talks", "posts", "limits")
MIN_SAMPLES = 3
SETUP_SAMPLES = 11
JOB_TIMEOUT_S = 150
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import lingspace.cli; t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
    "import job; print(job.at_gauge_speed(t, job.gauge_seconds()))"
)
REQUIRED = ("src/lingspace/__init__.py", "tests/tedgen.py", "tests/microgen.py",
            "tests/fixtures/udhr/eng.txt")


class BenchError(RuntimeError):
    pass


def setup_seconds() -> float:
    """Median time, at gauge speed, for a fresh interpreter to import
    lingspace.cli, which every CLI invocation pays; one unmeasured import
    first fills the bytecode cache."""
    command = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(HERE)]
    runs = [float(subprocess.run(command, check=True, capture_output=True, text=True,
                                 timeout=JOB_TIMEOUT_S).stdout)
            for _ in range(SETUP_SAMPLES + 1)]
    return statistics.median(runs[1:])


def run_job(spec: dict, work: Path, trace: bool) -> dict:
    """One sample in a fresh interpreter; returns the job's JSON line."""
    if spec["out_dir"]:
        shutil.rmtree(spec["out_dir"], ignore_errors=True)
    spec_path = work / "job.json"
    spec_path.write_text(json.dumps(dict(spec, trace=trace)), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "job.py"), str(spec_path)],
                          capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"job exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def build_inputs(workload: str, seed: int, work: Path):
    """Generate the inputs; returns the job spec and the output check, a
    function of a sample's probe values (None for limits, whose verdicts
    the job checks call by call)."""
    import gen
    import verify

    spec = {"workload": workload, "src": str(ROOT / "src"), "config": None, "out_dir": None,
            "calls": None, "trace_stem": str(STATE / "traces" / workload)}
    if workload == "talks":
        inputs = gen.build_talks(work, seed)
        check = functools.partial(verify.check_talks, inputs.out_dir, inputs.fixture)
    elif workload == "posts":
        inputs = gen.build_posts(work, seed)
        check = functools.partial(verify.check_posts, inputs.out_dir, inputs.accounts,
                                  inputs.min_posts, inputs.dropped)
    else:
        inputs = gen.build_limits(work, seed)
        spec["calls"] = inputs.calls
        check = None
    if workload != "limits":
        spec.update(config=str(inputs.config), out_dir=str(inputs.out_dir))
    spec["checks"] = str(inputs.checks)
    return spec, check


def tally(samples: list[dict], check) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems). An operation is one pipeline run or one
    check_fit call; a run fails on a nonzero status, on outputs that differ
    from the verified ones, or on a failed output check."""
    attempted = failed = 0
    problems: list[str] = []
    for sample in samples:
        attempted += sample["checks"]["n"] if "checks" in sample else 0
        failed += sample["checks"]["bad"] if "checks" in sample else 0
    if check is None:
        return attempted, failed, problems
    reference = samples[-1]
    if reference["rc"] != 0:
        problems = [f"run_pipeline returned {reference['rc']}"]
    else:
        problems = check(reference["probes"])
    for sample in samples:
        attempted += 1
        same = (sample["rc"], sample["sha256"], sample["probes"]) == (
            reference["rc"], reference["sha256"], reference["probes"])
        failed += bool(problems) or not same
    return attempted, failed, problems


def end_to_end(samples: list[dict], setup_s: float) -> dict:
    """Medians over samples; the job reports timings at gauge speed."""
    median = statistics.median
    return {
        "wall_s": {"value": median(s["wall_s"] for s in samples), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": median(s["rss_mb"] for s in samples), "unit": "MiB"},
        "check_p50_us": {"value": median(s["checks"]["p50_us"] for s in samples), "unit": "us"},
        "check_p99_us": {"value": median(s["checks"]["p99_us"] for s in samples), "unit": "us"},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_out"):
        return "bytes"
    return "fraction" if name.endswith("_share") else "count"


def per_layer(traced: dict, untraced: list[dict]) -> dict:
    metrics = {name: {"value": value, "unit": _layer_unit(name)}
               for name, value in traced["layers"].items()}
    # trace.wall_s is raw, like the self times that add up to it; the
    # overhead compares gauge-scaled times, so a speed drift between the
    # samples does not count as tracing cost.
    baseline = statistics.median(s["wall_s"] for s in untraced)
    metrics["trace.wall_s"] = {"value": traced["raw_wall_s"], "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced["wall_s"] - baseline, "unit": "s"}
    return metrics


def measure(args, work: Path) -> dict:
    spec, check = build_inputs(args.workload, args.seed, work)
    setup_s = None if args.trace else setup_seconds()
    budget = args.seconds / 2 if args.trace else args.seconds
    samples = []
    started = perf_counter()
    # A sample starts only if one more of the usual length still fits.
    while len(samples) < MIN_SAMPLES or (
            perf_counter() - started) * (len(samples) + 1) / len(samples) <= budget:
        samples.append(run_job(spec, work, trace=False))
    traced = run_job(spec, work, trace=True) if args.trace else None
    attempted, failed, problems = tally(samples + ([traced] if traced else []), check)
    for problem in problems[:20]:
        print(f"problem: {problem}")
    calls = sum(s["checks"]["n"] for s in samples)
    digest = samples[-1].get("sha256", "-")
    print(f"{args.workload} seed={args.seed}: {len(samples)} samples, "
          f"{calls} check_fit latency samples, outputs sha256={digest}")
    print("raw wall_s: " + " ".join(f"{s['raw_wall_s']:.4f}" for s in samples))
    print("wall_s at gauge speed: " + " ".join(f"{s['wall_s']:.4f}" for s in samples))
    if traced:
        print(f"trace: {traced['spans']} spans in {spec['trace_stem']}.bin")
    metrics = per_layer(traced, samples) if traced else end_to_end(samples, setup_s)
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps a running job.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"perfbench: {missing[0]} is missing; run from a full lingspace checkout",
              file=sys.stderr)
        return 2
    work = STATE / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(args, work)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
