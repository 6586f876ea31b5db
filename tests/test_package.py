"""The package's public names: one `__all__`, each name resolving on first
access to its defining module's object.
Fresh interpreters check what a first access loads."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lingspace

SRC = Path(__file__).resolve().parent.parent / "src"

# The package's `__all__`: every public name, whichever module defines it.
EAGER_ALL = [
    "AccountMeta", "AccountStats", "AlignedUnit", "BoxplotSeries", "CMN_HANS",
    "CMN_HANT", "CharLimit", "DataError", "DescriptiveStats", "ENG",
    "EncodedUnitLimit", "ExclusionReport", "FitResult", "GsmNotRepresentableError",
    "JPN", "LanguageTag", "LimitSpec", "LingspaceError", "ParallelCorpus", "Post",
    "PRESETS", "RatioStats", "RicResult", "SMS", "SingleSms", "SpaceMeasure",
    "SubtitleParseError", "TWITTER", "UsageError", "WEIBO", "account_length_stats",
    "aggregate_ratios", "assign_posts", "build_parallel_corpus", "cell_key",
    "check_fit", "compute_ric", "count_units", "count_urls", "describe",
    "detect_language", "emit_table", "load_accounts", "load_corpus", "load_posts",
    "load_subtitle_directory", "load_udhr_directory", "nfc", "parse_language_list",
    "parse_language_tag", "parse_subtitle", "parse_udhr_language_file",
    "read_table", "register_language", "render_boxplot", "run_pipeline",
    "save_corpus", "strip_urls", "unit_ratio",
]


def fresh(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    return proc.stdout


def test_all_holds_the_eager_names():
    assert lingspace.__all__ == sorted(EAGER_ALL)


@pytest.mark.parametrize("name", EAGER_ALL)
def test_name_resolves_to_its_defining_module_object(name):
    value = getattr(lingspace, name)
    module = importlib.import_module(f"lingspace.{lingspace._MODULE_OF[name]}")
    assert value is getattr(module, name)
    # Functions and classes name where they are defined; aliases of builtins
    # such as `LanguageTag` and plain values name no module.
    assert getattr(value, "__module__", None) in (module.__name__, "builtins", None)


def test_dir_lists_all():
    assert set(lingspace.__all__) <= set(dir(lingspace))
    assert "__version__" in dir(lingspace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'lingspace' has no attribute 'nope'"):
        lingspace.nope
    assert not hasattr(lingspace, "nope")


def test_import_loads_no_module_until_a_name_is_used():
    out = fresh(
        "import sys, lingspace\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('lingspace.'))\n"
        "print(loaded())\n"
        "lingspace.check_fit\n"
        "print(loaded())\n"
    )
    assert out.splitlines() == [
        "[]",
        "['lingspace.errors', 'lingspace.gsm7', 'lingspace.langtags', "
        "'lingspace.limits', 'lingspace.measures']",
    ]


def test_submodule_and_star_imports():
    out = fresh(
        "from lingspace import gsm7\n"
        "print(gsm7.__name__)\n"
        "from lingspace import *\n"
        "import lingspace\n"
        "print(all(globals()[name] is getattr(lingspace, name) for name in lingspace.__all__))\n"
    )
    assert out.splitlines() == ["lingspace.gsm7", "True"]
