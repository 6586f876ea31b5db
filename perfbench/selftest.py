"""Reduced-scale self-test of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that the generators are deterministic for a seed, that every
correctness check rejects a deliberately wrong expected value, and that a
traced run reports every per-layer metric listed in BENCHMARK.json, with
self times that add up to the traced wall time.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import shutil
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import job  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
from spans import Target, TraceError, Tracer  # noqa: E402

import lingspace.limits  # noqa: E402
import lingspace.pipeline  # noqa: E402

SMALL = {
    "talks": lambda work, seed: gen.build_talks(
        work, seed, gen.TalksSpec(n_kept=12, n_missing=3, n_short=2, n_paragraphs=20)),
    "posts": lambda work, seed: gen.build_posts(
        work, seed, gen.PostsSpec(clones=2, bilingual=2, unattributable=10, unregistered=20)),
    "limits": lambda work, seed: gen.build_limits(
        work, seed, gen.LimitsSpec(distinct=300, calls=600)),
}


def setUpModule() -> None:
    # the pipeline warns once per dropped post; keep the test output readable
    logging.getLogger("lingspace").addHandler(logging.NullHandler())


class BenchTestCase(unittest.TestCase):
    def setUp(self) -> None:
        run.STATE.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.STATE))
        self.addCleanup(shutil.rmtree, self.tmp, True)

    def build(self, workload: str, seed: int = 7, name: str = "w"):
        return SMALL[workload](self.tmp / name, seed)

    def run_pipeline(self, inputs, probe_attr: str):
        """Run the pipeline once, returning what the job's probe records."""
        seen = []
        original = getattr(lingspace.pipeline, probe_attr)

        def probed(*args, **kwargs):
            result = original(*args, **kwargs)
            seen.append(result)
            return result

        with mock.patch.object(lingspace.pipeline, probe_attr, probed):
            self.assertEqual(lingspace.pipeline.run_pipeline(inputs.config), 0)
        return seen


class GeneratorTest(BenchTestCase):
    def inputs_digest(self, name: str) -> str:
        """Digest of the generated inputs; configs name their own directory,
        so they are left out."""
        for config in (self.tmp / name).glob("*.ini"):
            config.unlink()
        return job.tree_sha256(self.tmp / name)

    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in SMALL:
            with self.subTest(workload=workload):
                digests = []
                for seed, name in ((3, "a"), (3, "b"), (4, "c")):
                    self.build(workload, seed, f"{workload}-{name}")
                    digests.append(self.inputs_digest(f"{workload}-{name}"))
                self.assertEqual(digests[0], digests[1])
                self.assertNotEqual(digests[0], digests[2])

    def test_limit_messages_straddle_every_cap(self):
        rows = json.loads(self.build("limits").checks.read_text(encoding="utf-8"))
        verdicts = {(preset, fits, encoding) for _, preset, fits, _, encoding in rows}
        for preset, encoding in (("twitter", None), ("weibo", None), ("sms", "gsm7"), ("sms", "ucs2")):
            self.assertIn((preset, True, encoding), verdicts)
            self.assertIn((preset, False, encoding), verdicts)

    def test_posts_include_designed_drops_and_bilingual_accounts(self):
        inputs = self.build("posts")
        languages = {}
        for account in inputs.accounts:
            languages.setdefault(account.screen_name, set()).add(account.language)
        self.assertIn({"eng", "cmn_hans"}, languages.values())
        self.assertEqual(inputs.dropped, 30)


class CorrectnessCheckTest(BenchTestCase):
    def test_talks_outputs_pass_and_wrong_expectations_fail(self):
        inputs = self.build("talks")
        reports = [[r[1].total_ids, r[1].missing_language, r[1].too_short, r[1].kept]
                   for r in self.run_pipeline(inputs, "load_subtitle_directory")]
        self.assertEqual(verify.check_talks(inputs.out_dir, inputs.fixture, reports), [])

        fewer = dataclasses.replace(inputs.fixture, kept_ids=inputs.fixture.kept_ids[1:])
        self.assertTrue(verify.check_talks(inputs.out_dir, fewer, reports))
        wrong_report = [[reports[0][0], reports[0][1] + 1, *reports[0][2:]]]
        self.assertTrue(verify.check_talks(inputs.out_dir, inputs.fixture, wrong_report))
        with mock.patch.object(gen, "units_rule", lambda text: len(text)):
            problems = verify.check_talks(inputs.out_dir, inputs.fixture, reports)
        self.assertTrue(any("ratios.csv" in p for p in problems), problems)

    def test_posts_outputs_pass_and_wrong_expectations_fail(self):
        inputs = self.build("posts")
        dropped = [result[1] for result in self.run_pipeline(inputs, "assign_posts")]

        def problems(accounts=inputs.accounts, designed=inputs.dropped):
            return verify.check_posts(inputs.out_dir, accounts, inputs.min_posts, designed, dropped)

        self.assertEqual(problems(), [])
        self.assertTrue(problems(designed=inputs.dropped + 1))
        first = inputs.accounts[0]
        for change in ({"mean_len": first.plan.mean_len + 1}, {"url_posts": first.plan.url_posts - 1},
                       {"n_posts": first.plan.n_posts + 1}):
            wrong = dataclasses.replace(first, plan=dataclasses.replace(first.plan, **change))
            with self.subTest(change=change):
                self.assertTrue(problems([wrong, *inputs.accounts[1:]]))

    def test_limit_checks_pass_and_wrong_expectations_fail(self):
        rows = json.loads(self.build("limits").checks.read_text(encoding="utf-8"))

        def bad(rows):
            return job.run_checks(rows, len(rows), lingspace.limits.check_fit,
                                  lingspace.limits.PRESETS)["bad"]

        self.assertEqual(bad(rows), 0)
        text, preset, fits, units, encoding = rows[2]
        for wrong in ([text, preset, not fits, units, encoding],
                      [text, preset, fits, units + 1, encoding],
                      [text, preset, fits, units, "ucs2" if encoding == "gsm7" else "gsm7"]):
            with self.subTest(wrong=wrong[1:]):
                self.assertEqual(bad([*rows[:2], wrong]), 1)


class TraceTest(BenchTestCase):
    def per_layer_names(self) -> set[str]:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        return {metric["name"] for metric in spec["per_layer"]}

    def test_every_per_layer_metric_is_reported_and_self_times_add_up(self):
        untraced = [{"wall_s": 1.0}]
        for workload in ("talks", "posts"):
            with self.subTest(workload=workload):
                inputs = self.build(workload, name=workload)
                with Tracer() as tracer:
                    self.assertEqual(lingspace.pipeline.run_pipeline(inputs.config), 0)
                (root,) = tracer.root_durations_ns()
                self.assertEqual(sum(tracer.self_times_ns().values()), root)
                traced = {"raw_wall_s": root / 1e9, "wall_s": root / 1e9,
                          "layers": job.layer_metrics(tracer)}
                self.assertEqual(set(run.per_layer(traced, untraced)), self.per_layer_names())
        self.assertFalse(hasattr(lingspace.pipeline.run_pipeline, "__wrapped__"))

    def test_limits_trace_covers_measures_gsm7_and_limits(self):
        rows = json.loads(self.build("limits").checks.read_text(encoding="utf-8"))
        with Tracer() as tracer:
            job.run_checks(rows, len(rows), lingspace.limits.check_fit, lingspace.limits.PRESETS)
        layers = job.layer_metrics(tracer)
        self.assertEqual(tracer.requests, len(rows))
        self.assertEqual(layers["limits.checks"], len(rows))
        for name in ("limits.check_s", "measures.count_s", "measures.nfc_s", "measures.gbk_s",
                     "gsm7.scan_s"):
            self.assertGreater(layers[name], 0, name)

    def test_a_missing_target_fails_loudly(self):
        with self.assertRaises(TraceError):
            with Tracer((Target("lingspace.measures", "no_such_function", "measures.count"),)):
                pass

    def test_written_spans_read_back(self):
        rows = json.loads(self.build("limits").checks.read_text(encoding="utf-8"))[:30]
        with Tracer() as tracer:
            job.run_checks(rows, len(rows), lingspace.limits.check_fit, lingspace.limits.PRESETS)
        tracer.write(self.tmp / "spans")
        header = json.loads((self.tmp / "spans.json").read_text(encoding="utf-8"))
        data = (self.tmp / header["data"]).read_bytes()
        self.assertEqual(len(data), 8 * len(header["columns"]) * header["count"])


if __name__ == "__main__":
    unittest.main()
