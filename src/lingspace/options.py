"""The settings that both the CLI and `pipeline run` take, each declared once.

A `Setting` gives its config section and key, its CLI flag, how a text
becomes its value, its choices and its default. `cli.build_parser` builds
each flag from it and `pipeline.load_pipeline_config` reads each config key
through it, so a flag and a key accept the same texts and give the same
values. A stage that a Python caller reaches without either front end checks
its argument with the same entry, so each setting has one problem text.

This module imports only what `lingspace.cli` loads anyway, so building the
parser loads no stage.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import UsageError
from .langtags import parse_language_list, parse_language_tag
from .measures import MEASURES_BY_CLI_NAME


class Setting:
    """One setting. `read` takes a text (or a value a Python caller passed)
    to the value, raising ValueError with the problem, phrased to follow the
    setting's name; a choice setting reads with its `choices`. A config
    lacking a `required` setting's key fails; any other takes `default`."""

    __slots__ = ("name", "section", "key", "config_name", "flag", "read", "choices",
                 "default", "required")

    def __init__(self, name, section, key, flag, read=None, *, choices=None,
                 default=None, required=False):
        self.name, self.section, self.key, self.flag = name, section, key, flag
        self.config_name = f"[{section}] {key}"
        self.read = read or _one_of(choices)
        self.choices, self.default, self.required = choices, default, required

    def parse(self, text, name: str):
        """`read(text)`, or a UsageError naming the setting as `name`: its
        flag, its config key or a stage argument. A LingspaceError that
        `read` raises, such as an unknown language tag, keeps its text."""
        # An INI value loses its outer whitespace, so a flag's text does too;
        # only a path keeps it, as a file name may.
        if isinstance(text, str) and self.read is not _path:
            text = text.strip()
        try:
            return self.read(text)
        except ValueError as exc:
            raise UsageError(f"{name} {exc}") from None


def _one_of(choices: tuple[str, ...]):
    expected = (" or ".join(choices) if len(choices) == 2
                else "one of " + ", ".join(choices))

    def read(text):
        if text not in choices:
            raise ValueError(f"must be {expected}, got {text!r}")
        return text
    return read


def _path(text: str) -> Path:
    """A file name, which no file system lets hold a NUL."""
    if "\0" in text:
        raise ValueError(f"holds a NUL character: {text!r}")
    return Path(text)


def _count(text) -> int:
    """A whole number >= 0; a number a Python caller passed is only checked."""
    try:
        value = int(text) if isinstance(text, str) else text
    except ValueError:
        raise ValueError(f"is not a valid int: {text!r}") from None
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def _positive(text) -> float:
    """A finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"is not a valid float: {text!r}") from None
    if not 0 < value < math.inf:
        raise ValueError(f"must be a finite number > 0, got {value:g}")
    return value


# Directory layouts: udhr is <dir>/<lang>.txt, ted is <dir>/<talk_id>/<lang>.*
CORPUS_FORMAT = Setting("corpus_format", "corpus", "format", "--format",
                        choices=("udhr", "ted"), required=True)
CORPUS_INPUT = Setting("corpus_input", "corpus", "input", "--input", _path,
                       required=True)
LANGS = Setting("langs", "corpus", "langs", "--langs", parse_language_list,
                required=True)
# None keeps the loader's default: 0 for udhr, 1000 for ted.
MIN_CHARS = Setting("min_chars", "corpus", "min_chars", "--min-chars", _count)
RATIO_BASE = Setting("ratio_base", "ratios", "base", "--base", parse_language_tag,
                     required=True)
OTHERS = Setting("ratio_others", "ratios", "others", "--others", parse_language_list,
                 required=True)
MEASURE = Setting("measure_name", "ratios", "measure", "--measure",
                  choices=tuple(MEASURES_BY_CLI_NAME), default="characters")
# An empty text means none; a config without the key takes eng when eng is
# among the others.
RESCALE_LANG = Setting("rescale_lang", "ratios", "rescale_lang", "--rescale-lang",
                       lambda text: parse_language_tag(text) if text else None)
# Characters of the rescale language that anchor the ratio plot's right axis:
# the classic 140-character microblog limit.
RESCALE_LIMIT = Setting("rescale_limit", "ratios", "rescale_limit", "--rescale-limit",
                        _positive, default=140.0)
POSTS = Setting("posts_path", "posts", "posts", "--posts", _path, required=True)
# None reads a .csv file as csv and any other as jsonl.
POSTS_FORMAT = Setting("posts_format", "posts", "posts_format", "--posts-format",
                       choices=("jsonl", "csv"))
ACCOUNTS = Setting("accounts_path", "posts", "accounts", "--accounts", _path,
                   required=True)
MIN_POSTS = Setting("min_posts", "posts", "min_posts", "--min-posts", _count,
                    default=50)
# A config without the key takes the ratios base.
RIC_BASE = Setting("ric_base", "ric", "base", "--base", parse_language_tag)
OUT_DIR = Setting("out_dir", "output", "dir", None, _path, required=True)
TABLE_FORMAT = Setting("table_format", "output", "format", "--format",
                       choices=("csv", "json"), default="csv")

# Every setting, in config order.
SETTINGS = (CORPUS_FORMAT, CORPUS_INPUT, LANGS, MIN_CHARS, RATIO_BASE, OTHERS,
            MEASURE, RESCALE_LANG, RESCALE_LIMIT, POSTS, POSTS_FORMAT, ACCOUNTS,
            MIN_POSTS, RIC_BASE, OUT_DIR, TABLE_FORMAT)
