"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed and writes only plain input
files, so the program under test sees nothing but the generated data. Each
generator also returns the values a correct run must reproduce; they come
from the generator's own design and rules, never from lingspace.

The talk tree and the sentence bank come from ``tests/tedgen.py``; the post
dump reuses the designed account plans of ``tests/microgen.py``.
"""

from __future__ import annotations

import csv
import io
import json
import random
import string
import sys
import unicodedata
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import microgen  # noqa: E402
import tedgen  # noqa: E402

LANGS = tedgen.LANGS
BASE = tedgen.CMN_HANS
OTHERS = (tedgen.ENG, tedgen.JPN, tedgen.CMN_HANT)

# Platform caps, restated from the published platform rules.
TWITTER_CAP = 140  # NFC characters
WEIBO_CAP = 280  # 1 unit per ASCII scalar, 2 per other scalar
SMS_GSM7_CAP = 160  # septets; extension characters cost 2
SMS_UCS2_CAP = 70  # characters
PRESETS = ("twitter", "weibo", "sms")

# The generator's alphabet. Every character it emits is in exactly one of
# these classes, so its SMS encoding is known without consulting lingspace.
GSM_BASIC_USED = frozenset(string.ascii_letters + string.digits + " .,:;!?'-/\u00e9\u00e0\u00fc")
GSM_EXTENSION_USED = frozenset("€[]{}")
NON_GSM_LATIN = "ąłőșžč"
# Decomposed sequences whose NFC form is a single GSM basic character.
DECOMPOSED = ("e\u0301", "a\u0300", "u\u0308")


def _is_known_non_gsm(ch: str) -> bool:
    return ord(ch) >= 0x3000 or ch in NON_GSM_LATIN


def expected_fit(text: str, preset: str) -> tuple[bool, int, str | None]:
    """(fits, units_used, encoding_chosen) for a text the generator wrote.

    Rules: count after NFC; Twitter counts characters, Weibo 1 unit per
    ASCII scalar and 2 per other scalar, SMS uses GSM-7 septets when every
    character is in the GSM alphabet and UCS-2 characters otherwise.
    """
    t = unicodedata.normalize("NFC", text)
    if preset == "twitter":
        return len(t) <= TWITTER_CAP, len(t), None
    if preset == "weibo":
        units = _gbk_units(t)
        return units <= WEIBO_CAP, units, None
    if preset != "sms":
        raise ValueError(f"unknown preset {preset!r}")
    chars = set(t)
    if chars <= GSM_BASIC_USED | GSM_EXTENSION_USED:
        septets = len(t) + sum(t.count(ch) for ch in chars & GSM_EXTENSION_USED)
        return septets <= SMS_GSM7_CAP, septets, "gsm7"
    unknown = [ch for ch in chars - GSM_BASIC_USED - GSM_EXTENSION_USED if not _is_known_non_gsm(ch)]
    if unknown:
        raise ValueError(f"character outside the generator alphabet: {unknown[0]!r}")
    return len(t) <= SMS_UCS2_CAP, len(t), "ucs2"


def _gbk_units(normalized: str) -> int:
    return 2 * len(normalized) - len(normalized.encode("ascii", "ignore"))


def units_rule(text: str) -> int:
    """The benchmark's own GBK-unit rule: NFC, then 1 per ASCII scalar and
    2 per other scalar."""
    return _gbk_units(unicodedata.normalize("NFC", text))


def _sentences(lang: str) -> list[str]:
    col = tedgen._LANG_COLUMN[lang]
    return [row[col] for row in tedgen.BANK]


for _s in _sentences(tedgen.ENG):
    if not set(_s) <= GSM_BASIC_USED:
        raise ValueError(f"bank sentence leaves the generator alphabet: {_s!r}")


def write_checks(path: Path, checks: list[tuple[str, str]]) -> None:
    """Write (text, preset) pairs with their expected verdicts as JSON rows
    [text, preset, fits, units_used, encoding_chosen]."""
    rows = [(text, preset, *expected_fit(text, preset)) for text, preset in checks]
    path.write_text(json.dumps(rows, ensure_ascii=False), encoding="utf-8")


def _write_config(path: Path, corpus_format: str, corpus_dir: Path, measure: str,
                  posts: Path, accounts: Path, out_dir: Path) -> None:
    path.write_text(
        "[corpus]\n"
        f"format = {corpus_format}\n"
        f"input = {corpus_dir}\n"
        f"langs = {','.join(LANGS)}\n"
        "[ratios]\n"
        f"base = {BASE}\n"
        f"others = {','.join(OTHERS)}\n"
        f"measure = {measure}\n"
        "[posts]\n"
        f"posts = {posts}\n"
        f"accounts = {accounts}\n"
        "[output]\n"
        f"dir = {out_dir}\n",
        encoding="utf-8",
    )


# --------------------------------------------------------------- talks


@dataclass(frozen=True)
class TalksSpec:
    n_kept: int = 1900
    n_missing: int = 60
    n_short: int = 40
    n_paragraphs: int = 4000


@dataclass
class TalksInputs:
    config: Path
    out_dir: Path
    checks: Path
    fixture: tedgen.SubtitleFixture


def build_talks(work: Path, seed: int, spec: TalksSpec = TalksSpec()) -> TalksInputs:
    """A caption tree of about 2000 talks in four languages (SRT, WebVTT and
    JSON, with missing-language and too-short talks), the unscaled microgen
    post dump, a pipeline config measuring GBK units against cmn_hans, and a
    stream of talk-length paragraphs to check against each platform limit."""
    fixture = tedgen.build_subtitle_tree(
        work / "talks", spec.n_kept, spec.n_missing, spec.n_short, seed=seed
    )
    posts, accounts = microgen.build_post_dump(work / "dump")
    config = work / "talks.ini"
    out_dir = work / "out"
    _write_config(config, "ted", work / "talks", "gbk", posts, accounts, out_dir)

    # The mix of languages and lengths is fixed; the seed picks the sentences.
    rng = random.Random(f"{seed}:talks-checks")
    checks = []
    for i in range(spec.n_paragraphs):
        sentences = _sentences(LANGS[i % len(LANGS)])
        text = " ".join(rng.choice(sentences) for _ in range(4 + i // len(LANGS) % 13))
        checks += [(text, preset) for preset in PRESETS]
    write_checks(work / "checks.json", checks)
    return TalksInputs(config, out_dir, work / "checks.json", fixture)


# --------------------------------------------------------------- posts


@dataclass(frozen=True)
class PostsSpec:
    clones: int = 48  # copies of each microgen plan, as separate accounts
    bilingual: int = 8  # eng/cmn_hans account pairs merged under one name
    unattributable: int = 400  # script-less posts of bilingual accounts
    unregistered: int = 1600  # posts of accounts missing from accounts.csv
    min_posts: int = 50  # the pipeline default


@dataclass(frozen=True)
class ExpectedAccount:
    screen_name: str
    platform: str
    language: str
    plan: microgen.AccountPlan


@dataclass
class PostsInputs:
    config: Path
    out_dir: Path
    checks: Path
    accounts: list[ExpectedAccount]
    dropped: int
    min_posts: int


# Pairs of plans sharing platform and org type, one eng and one cmn_hans;
# their clones become bilingual accounts.
_BILINGUAL_PAIRS = (("usnews_tw", "cnnews_tw"), ("ukembassy_tw", "cnembassy_tw"))


def _bank_stream(lang: str, rng: random.Random) -> str:
    sentences = _sentences(lang)
    rng.shuffle(sentences)
    return " ".join(sentences) + " "


def _body(stream: str, length: int, rng: random.Random) -> str:
    start = rng.randrange(len(stream))
    reps = -(-(start + length) // len(stream))
    return (stream * reps)[start : start + length]


def _post_text(plan: microgen.AccountPlan, i: int, seq: int, streams, rng) -> str:
    """microgen's designed layout with a varying body: stripped length
    mean-5 / mean+5 alternately, and one URL of URL_LEN characters on the
    first url_posts posts, after a space that URL stripping keeps."""
    stripped_len = plan.mean_len - 5 if i % 2 == 0 else plan.mean_len + 5
    stream = streams[plan.language]
    if i < plan.url_posts:
        url = microgen._url(plan.platform, seq % 1_000_000)
        return _body(stream, stripped_len - 1, rng) + " " + url
    return _body(stream, stripped_len, rng)


def build_posts(work: Path, seed: int, spec: PostsSpec = PostsSpec()) -> PostsInputs:
    """A post dump of about 80k posts: every microgen plan cloned into
    separate accounts, some eng/cmn_hans pairs merged into bilingual accounts
    (so posts are routed by detected script), plus a designed number of
    script-less and unregistered-account posts that must be dropped. The
    corpus is the bundled declaration set, measured in characters."""
    rng = random.Random(f"{seed}:posts")
    streams = {lang: _bank_stream(lang, rng) for lang in microgen._SEEDS}
    plans = {plan.screen_name: plan for plan in microgen.PLANS}
    bilingual = {}
    for k in rng.sample(range(spec.clones), spec.bilingual):
        eng, hans = _BILINGUAL_PAIRS[k % len(_BILINGUAL_PAIRS)]
        bilingual[(eng, k)] = bilingual[(hans, k)] = f"bi{k:02d}_{eng}"

    accounts: list[ExpectedAccount] = []
    records: list[dict[str, str]] = []
    seq = 0
    for k in range(spec.clones):
        for plan in microgen.PLANS:
            name = bilingual.get((plan.screen_name, k), f"{plan.screen_name}{k:02d}")
            accounts.append(ExpectedAccount(name, plan.platform, plan.language, plan))
            for i in range(plan.n_posts):
                seq += 1
                records.append(_record(f"{name}-{plan.language}-{i:04d}", name, plan.platform,
                                       _post_text(plan, i, seq, streams, rng), rng))
    bilingual_names = sorted(set(bilingual.values()))
    for i in range(spec.unattributable):
        name = bilingual_names[i % len(bilingual_names)]
        text = f"{rng.randrange(10**6):06d} {rng.randrange(10**4)} #{i}"
        records.append(_record(f"{name}-none-{i:04d}", name, "twitter", text, rng))
    for i in range(spec.unregistered):
        plan = plans[rng.choice(sorted(plans))]
        seq += 1
        name = f"unknown{i % 40:02d}"
        records.append(_record(f"{name}-{i:05d}", name, plan.platform,
                               _post_text(plan, i % plan.n_posts, seq, streams, rng), rng))
    rng.shuffle(records)

    dump = work / "dump"
    dump.mkdir(parents=True)
    posts_path = dump / "posts.jsonl"
    posts_path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
    )
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("screen_name", "platform", "language", "org_type"))
    listed = sorted(accounts, key=lambda a: (rng.random(), a.screen_name, a.language))
    writer.writerows((a.screen_name, a.platform, a.language, a.plan.org_type) for a in listed)
    accounts_path = dump / "accounts.csv"
    accounts_path.write_text(buffer.getvalue(), encoding="utf-8")

    config = work / "posts.ini"
    out_dir = work / "out"
    _write_config(config, "udhr", ROOT / "tests" / "fixtures" / "udhr", "characters",
                  posts_path, accounts_path, out_dir)
    checks = [(r["text"], r["platform"]) for r in records]
    write_checks(work / "checks.json", checks)
    return PostsInputs(config, out_dir, work / "checks.json", accounts,
                       spec.unattributable + spec.unregistered, spec.min_posts)


def _record(post_id: str, account: str, platform: str, text: str, rng: random.Random) -> dict[str, str]:
    stamp = (f"2015-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}T"
             f"{rng.randrange(24):02d}:{rng.randrange(60):02d}:{rng.randrange(60):02d}Z")
    return {"id": post_id, "account": account, "platform": platform, "text": text,
            "created_at": stamp}


def designed_means(plan: microgen.AccountPlan) -> tuple[float, float]:
    """(mean chars with URLs, mean chars without URLs) by design."""
    without = float(plan.mean_len)
    with_urls = (plan.n_posts * plan.mean_len + plan.url_posts * microgen.URL_LEN) / plan.n_posts
    return with_urls, without


# --------------------------------------------------------------- limits


@dataclass(frozen=True)
class LimitsSpec:
    distinct: int = 19998  # 18 (preset, kind) pairs; more than lingspace's 4096-entry cache
    calls: int = 300000  # one stream: the pool, cycled in order
    straddle: int = 8  # target units are cap-straddle .. cap+straddle


@dataclass
class LimitsInputs:
    checks: Path
    calls: int


_CJK_LANGS = (tedgen.JPN, tedgen.CMN_HANS, tedgen.CMN_HANT)
_KINDS = ("ascii", "extension", "decomposed", "latin", "cjk", "mixed")
_EXTRAS = {"extension": tuple(GSM_EXTENSION_USED), "decomposed": DECOMPOSED,
           "latin": tuple(NON_GSM_LATIN)}


def _atoms(rng: random.Random, kind: str) -> list[str]:
    """Indivisible pieces of one message, longer than any cap: characters,
    or a decomposed letter whose NFC form is one character. NFC never joins
    two atoms, so a message costs the sum of its atoms."""
    eng = " ".join(rng.sample(_sentences(tedgen.ENG), 6))
    cjk = "".join(rng.sample(_sentences(rng.choice(_CJK_LANGS)), 10))
    if kind == "cjk":
        return list(cjk)
    if kind == "mixed":
        cut = rng.randrange(20, 60)
        return list(eng[:cut] + " " + cjk[: cut // 2] + " " + eng[cut:])
    atoms = list(eng)
    extras = _EXTRAS.get(kind)
    if extras:
        for _ in range(len(atoms) // 12):
            atoms.insert(rng.randrange(len(atoms) + 1), rng.choice(extras))
        # one early, so the SMS encoding of any prefix is already decided
        atoms.insert(rng.randrange(8), rng.choice(extras))
    return atoms


def _message(rng: random.Random, preset: str, kind: str, straddle: int) -> str:
    atoms = _atoms(rng, kind)
    encoding = expected_fit("".join(atoms), preset)[2]
    cap = {"twitter": TWITTER_CAP, "weibo": WEIBO_CAP, "sms": SMS_GSM7_CAP}[preset]
    if encoding == "ucs2":
        cap = SMS_UCS2_CAP
    target = cap + rng.randint(-straddle, straddle)
    used = 0
    for n, atom in enumerate(atoms):
        if used >= target:
            return "".join(atoms[:n])
        # within one message kind an atom costs what it costs alone
        used += expected_fit(atom, preset)[1]
    raise ValueError("message atoms ran out before the target length")


def build_limits(work: Path, seed: int, spec: LimitsSpec = LimitsSpec()) -> LimitsInputs:
    """A pool of distinct short messages drawn from the sentence bank in all
    four languages, with GSM-extension, decomposed and non-GSM Latin
    characters mixed in. Every (preset, kind) pair gets the same share of
    messages, so the seed changes the texts but not the mix; each length
    straddles its preset's cap."""
    rng = random.Random(f"{seed}:limits")
    work.mkdir(parents=True, exist_ok=True)
    checks = []
    for i in range(spec.distinct):
        preset = PRESETS[i % len(PRESETS)]
        kind = _KINDS[i // len(PRESETS) % len(_KINDS)]
        checks.append((_message(rng, preset, kind, spec.straddle), preset))
    write_checks(work / "checks.json", checks)
    return LimitsInputs(work / "checks.json", spec.calls)
