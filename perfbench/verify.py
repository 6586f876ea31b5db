"""Correctness checks of pipeline outputs against the generators' values.

Each check returns a list of problems; an empty list means the output is
correct. Expected values come from the generators, and recomputations use
the benchmark's own rules in ``gen``, never lingspace.
"""

from __future__ import annotations

import csv
import json
import statistics
from pathlib import Path

import gen


def _table(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_talks(out_dir: Path, fixture, reports: list[list[int]]) -> list[str]:
    """Kept talks and exclusion counts match the tree's design; each ratio
    mean equals the mean of per-talk unit ratios recomputed from corpus.jsonl."""
    problems = []
    designed = [fixture.total, len(fixture.missing_language_ids),
                len(fixture.too_short_ids), len(fixture.kept_ids)]
    for report in reports:
        if report != designed:
            problems.append(f"exclusion report {report} != designed {designed} "
                            "(total, missing language, too short, kept)")
    lines = (out_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    units = [json.loads(line) for line in lines[1:]]
    ids = [unit["unit_id"] for unit in units]
    if ids != fixture.kept_ids:
        problems.append(f"corpus.jsonl holds {len(ids)} talks, designed {len(fixture.kept_ids)}")
    rows = {row["lang_b"]: row for row in _table(out_dir / "ratios.csv")}
    if sorted(rows) != sorted(gen.OTHERS):
        return problems + [f"ratios.csv languages {sorted(rows)} != {sorted(gen.OTHERS)}"]
    for lang in gen.OTHERS:
        ratios = [gen.units_rule(u[lang]) / gen.units_rule(u[gen.BASE]) for u in units]
        want = (gen.BASE, "gbk_units", str(len(ratios)), f"{statistics.fmean(ratios):.4f}")
        row = rows[lang]
        got = (row["lang_a"], row["measure"], row["n"], row["mean"])
        if got != want:
            problems.append(f"ratios.csv {lang}: (base, measure, n, mean) {got} != {want}")
    return problems


def expected_stats_row(plan) -> tuple[str, str, str, str]:
    """(n_posts, mean with URLs, mean without URLs, URL histogram) by design."""
    with_urls, without = gen.designed_means(plan)
    histogram = " ".join(f"{k}:{v}" for k, v in sorted(plan.histogram.items()) if v)
    return str(plan.n_posts), f"{with_urls:.4f}", f"{without:.4f}", histogram


def check_posts(out_dir: Path, accounts, min_posts: int, dropped: int,
                dropped_seen: list[int]) -> list[str]:
    """Every account above the cutoff has its plan's statistics in stats.csv,
    accounts at or below it are absent, and the designed posts are dropped."""
    problems = [f"{seen} posts dropped, designed {dropped}"
                for seen in dropped_seen if seen != dropped]
    want = {(a.screen_name, a.platform, a.language): expected_stats_row(a.plan)
            for a in accounts if a.plan.n_posts > min_posts}
    got = {(r["screen_name"], r["platform"], r["language"]):
           (r["n_posts"], r["mean_chars_with_urls"], r["mean_chars_without_urls"],
            r["url_count_histogram"])
           for r in _table(out_dir / "stats.csv")}
    if set(got) != set(want):
        problems.append(f"stats.csv lists {len(got)} accounts, designed {len(want)}; "
                        f"first difference {sorted(set(got) ^ set(want))[0]}")
    for key in sorted(set(got) & set(want)):
        if got[key] != want[key]:
            problems.append(f"stats.csv {key}: {got[key]} != designed {want[key]}")
    return problems
