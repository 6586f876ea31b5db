"""Shared fixtures: the bundled declaration corpus, a generated talk-subtitle
tree, and a generated microblog post dump.

The generated trees are deterministic, so session scope is safe and keeps the
slow directory builds out of every individual test.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

import microgen
import tedgen
from lingspace.corpus import load_subtitle_directory, load_udhr_directory

ALL_LANGS = ("eng", "jpn", "cmn_hans", "cmn_hant")

# `pytest --hypothesis-profile=ci` runs each property on more examples.
settings.register_profile("ci", max_examples=1000)

_FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(scope="session")
def udhr_dir() -> Path:
    return _FIXTURES / "udhr"


@pytest.fixture(scope="session")
def udhr_corpus(udhr_dir):
    corpus, _ = load_udhr_directory(udhr_dir, ALL_LANGS)
    return corpus


@pytest.fixture(scope="session")
def ted_fixture(tmp_path_factory) -> tedgen.SubtitleFixture:
    root = tmp_path_factory.mktemp("talks")
    return tedgen.build_subtitle_tree(root)


@pytest.fixture(scope="session")
def ted_ingest(ted_fixture):
    """(corpus, report) from ingesting the generated talk tree."""
    return load_subtitle_directory(ted_fixture.root, ALL_LANGS)


@pytest.fixture(scope="session")
def ted_corpus(ted_ingest):
    return ted_ingest[0]


@pytest.fixture(scope="session")
def post_dump(tmp_path_factory) -> tuple[Path, Path]:
    """(posts.jsonl path, accounts.csv path) for the generated dump."""
    root = tmp_path_factory.mktemp("dump")
    return microgen.build_post_dump(root)
