"""Deterministic builder for a synthetic talk-subtitle corpus.

Writes a directory tree shaped like a downloaded talk dump: one directory per
talk, one subtitle file per language, in a mix of SubRip, WebVTT and JSON
caption formats.  The text comes from a hand-written bank of parallel
conversational sentences, so corpus-level length ratios land near the values
seen in real talk subtitles while staying fully reproducible offline.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

ENG = "eng"
JPN = "jpn"
CMN_HANS = "cmn_hans"
CMN_HANT = "cmn_hant"

LANGS = (ENG, JPN, CMN_HANS, CMN_HANT)

# (eng, cmn_hans, cmn_hant, jpn); hant is a char-for-char conversion of hans.
BANK: tuple[tuple[str, str, str, str], ...] = (
    (
        "So today I want to share with you a story about how it is that we learn to see.",
        "今天我想给大家讲一个关于我们如何学会观察的故事。",
        "今天我想給大家講一個關於我們如何學會觀察的故事。",
        "今日は私たちがどう見ることを学ぶのかについてお話しします。",
    ),
    (
        "When I was a little kid, my grandmother asked me a question that changed my life.",
        "小时候，祖母问过我一个改变了我一生的问题。",
        "小時候，祖母問過我一個改變了我一生的問題。",
        "子供の頃、祖母に人生を変えるような質問をされました。",
    ),
    (
        "Raise your hand if you have ever forgotten where you put your keys.",
        "如果你忘记过钥匙放在哪里，请举手。",
        "如果你忘記過鑰匙放在哪裡，請舉手。",
        "鍵をどこに置いたか忘れた人は手を挙げてください。",
    ),
    (
        "It turns out that the brain is remarkably good at ignoring things.",
        "事实证明，大脑非常擅长忽略事物。",
        "事實證明，大腦非常擅長忽略事物。",
        "実は脳は物事を無視するのがとても得意なのです。",
    ),
    (
        "We collected data from thousands of volunteers around the world.",
        "我们收集了来自世界各地数千名志愿者的数据。",
        "我們收集了來自世界各地數千名志願者的數據。",
        "世界中の何千人ものボランティアからデータを集めました。",
    ),
    (
        "And what we found surprised us more than anything else.",
        "而我们的发现比任何事情都更让我们吃惊。",
        "而我們的發現比任何事情都更讓我們吃驚。",
        "その結果は何よりも私たちを驚かせました。",
    ),
    (
        "Imagine a world where every child can read by the age of six.",
        "想象一个每个孩子六岁就能阅读的世界。",
        "想象一個每個孩子六歲就能閱讀的世界。",
        "子供がみな六歳で字を読める世界を想像してください。",
    ),
    (
        "The first experiment failed completely, and we almost gave up.",
        "第一次实验彻底失败了，我们差点放弃。",
        "第一次實驗徹底失敗了，我們差點放棄。",
        "最初の実験は完全に失敗して、私たちは諦めかけました。",
    ),
    (
        "But failure, it turns out, is the best teacher we ever had.",
        "但事实证明，失败是我们最好的老师。",
        "但事實證明，失敗是我們最好的老師。",
        "しかし失敗こそ最高の教師だったのです。",
    ),
    (
        "So let me show you what this actually looks like in everyday practice.",
        "让我来展示一下这在实践中是什么样子。",
        "讓我來展示一下這在實踐中是什麼樣子。",
        "実際にどうなるかお見せしましょう。",
    ),
    (
        "Every single cell in your body contains the same genetic code.",
        "你身体里的每一个细胞都包含相同的遗传密码。",
        "你身體裡的每一個細胞都包含相同的遺傳密碼。",
        "体のすべての細胞には同じ遺伝情報が入っています。",
    ),
    (
        "We built a small prototype in my garage with spare parts.",
        "我们用零件在我的车库里造了一个小样机。",
        "我們用零件在我的車庫裡造了一個小樣機。",
        "ガレージで余った部品から小さな試作機を作りました。",
    ),
    (
        "Half of the people in this room will live to be ninety.",
        "这个房间里有一半的人会活到九十岁。",
        "這個房間裡有一半的人會活到九十歲。",
        "この会場の半分の人は九十歳まで生きるでしょう。",
    ),
    (
        "Technology is not the answer, but it is part of the story.",
        "技术不是答案，但它是故事的一部分。",
        "技術不是答案，但它是故事的一部分。",
        "技術は答えではありませんが、物語の一部ではあります。",
    ),
    (
        "I spent three years living with fishermen on a small island.",
        "我花了三年时间和渔民一起住在一个小岛上。",
        "我花了三年時間和漁民一起住在一個小島上。",
        "私は三年間、小さな島で漁師たちと暮らしました。",
    ),
    (
        "The ocean produces half of the oxygen we breathe every day.",
        "海洋产生了我们每天呼吸的一半氧气。",
        "海洋產生了我們每天呼吸的一半氧氣。",
        "海は私たちが毎日吸う酸素の半分を作っています。",
    ),
    (
        "Nobody told me it was impossible, so I just kept going.",
        "没有人告诉我这不可能，所以我就一直坚持。",
        "沒有人告訴我這不可能，所以我就一直堅持。",
        "誰も不可能だと言わなかったので、私は続けました。",
    ),
    (
        "Ask yourself: what would you do if you could not fail?",
        "问问自己：如果不会失败，你会做什么？",
        "問問自己：如果不會失敗，你會做什麼？",
        "失敗しないなら何をするか、自問してみてください。",
    ),
    (
        "The numbers tell us one story, but the people themselves tell us quite another.",
        "数字告诉我们一个故事，而人告诉我们另一个。",
        "數字告訴我們一個故事，而人告訴我們另一個。",
        "数字はひとつの物語を、人々は別の物語を語ります。",
    ),
    (
        "In the next ten minutes, someone will invent something new.",
        "在接下来的十分钟里，有人会发明新东西。",
        "在接下來的十分鐘裡，有人會發明新東西。",
        "これからの十分間に、誰かが新しい何かを発明します。",
    ),
    (
        "My team spent the whole summer rewriting the software from scratch.",
        "我的团队花了整个夏天从头重写软件。",
        "我的團隊花了整個夏天從頭重寫軟件。",
        "私のチームは夏中ソフトを一から書き直しました。",
    ),
    (
        "Small changes in daily habits can lead to enormous results.",
        "日常习惯的小改变能带来巨大的结果。",
        "日常習慣的小改變能帶來巨大的結果。",
        "毎日の習慣の小さな変化が大きな結果を生みます。",
    ),
    (
        "She walked into the classroom and everything became quiet.",
        "她走进教室，一切都安静了下来。",
        "她走進教室，一切都安靜了下來。",
        "彼女が教室に入ると、すべてが静かになりました。",
    ),
    (
        "We are the first generation that can end extreme poverty.",
        "我们是第一代能终结极端贫困的人。",
        "我們是第一代能終結極端貧困的人。",
        "私たちは極貧を終わらせられる最初の世代です。",
    ),
    (
        "The question is not whether, but when and how it will happen.",
        "问题不是会不会，而是何时以及如何发生。",
        "問題不是會不會，而是何時以及如何發生。",
        "問題は起こるかどうかではなく、いつどう起こるかです。",
    ),
    (
        "I opened the old notebook and found a map drawn by my father.",
        "我打开旧笔记本，发现了父亲画的一张地图。",
        "我打開舊筆記本，發現了父親畫的一張地圖。",
        "古いノートを開くと、父が描いた地図が出てきました。",
    ),
    (
        "Listening is the most underrated skill in modern leadership.",
        "倾听是现代领导力中最被低估的技能。",
        "傾聽是現代領導力中最被低估的技能。",
        "聞く力はリーダーに最も過小評価された技能です。",
    ),
    (
        "Our cities were designed for cars, not for human beings.",
        "我们的城市是为汽车设计的，不是为人。",
        "我們的城市是為汽車設計的，不是為人。",
        "私たちの街は人ではなく車のために設計されました。",
    ),
    (
        "Think about the last time you changed your mind about something important.",
        "想想你上一次在重要问题上改变主意是什么时候。",
        "想想你上一次在重要問題上改變主意是什麼時候。",
        "大事なことで考えを変えた最後の時を思い出してください。",
    ),
    (
        "A single tree can cool the air like ten air conditioners.",
        "一棵树的降温效果相当于十台空调。",
        "一棵樹的降溫效果相當於十台空調。",
        "一本の木は十台のエアコン分の冷房になります。",
    ),
    (
        "We interviewed two hundred nurses during the longest winter.",
        "在最漫长的冬天，我们采访了两百名护士。",
        "在最漫長的冬天，我們採訪了兩百名護士。",
        "最も長い冬のあいだに二百人の看護師に話を聞きました。",
    ),
    (
        "The answer was hiding in the data we had thrown away.",
        "答案就藏在我们扔掉的数据里。",
        "答案就藏在我們扔掉的數據裡。",
        "答えは捨てたデータの中に隠れていました。",
    ),
    (
        "Give people a reason to care, and they will move mountains.",
        "给人们一个在乎的理由，他们就能移山。",
        "給人們一個在乎的理由，他們就能移山。",
        "人々に関心を持つ理由を与えれば、山をも動かします。",
    ),
    (
        "This tiny sensor costs less than a cup of coffee.",
        "这个小传感器比一杯咖啡还便宜。",
        "這個小傳感器比一杯咖啡還便宜。",
        "この小さなセンサーはコーヒー一杯より安いのです。",
    ),
    (
        "Hope is not a strategy, but it is where every strategy begins.",
        "希望不是战略，但一切战略都始于希望。",
        "希望不是戰略，但一切戰略都始於希望。",
        "希望は戦略ではありませんが、すべての戦略の出発点です。",
    ),
    (
        "And that, my friends, is why we must begin today.",
        "朋友们，这就是我们必须从今天开始的原因。",
        "朋友們，這就是我們必須從今天開始的原因。",
        "だからこそ、私たちは今日始めなければならないのです。",
    ),
)

_LANG_COLUMN = {ENG: 0, CMN_HANS: 1, CMN_HANT: 2, JPN: 3}

for _row in BANK:
    assert len(_row[1]) == len(_row[2]), _row[1]


@dataclass
class SubtitleFixture:
    """What the builder wrote and what an ingest run should conclude."""

    root: Path
    kept_ids: list[str] = field(default_factory=list)
    missing_language_ids: list[str] = field(default_factory=list)
    too_short_ids: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.kept_ids) + len(self.missing_language_ids) + len(self.too_short_ids)


def _split_line(text: str) -> list[str]:
    if " " not in text or len(text) <= 60:
        return [text]
    mid = len(text) // 2
    left = text.rfind(" ", 0, mid)
    right = text.find(" ", mid)
    cut = right if (left < 0 or (right >= 0 and right - mid < mid - left)) else left
    if cut <= 0:
        return [text]
    return [text[:cut], text[cut + 1 :]]

def _srt(sentences: list[str], italic_every: int) -> str:
    parts = []
    t = 0
    for i, s in enumerate(sentences, start=1):
        start, end = t, t + 4
        t = end + 1
        lines = _split_line(s)
        if italic_every and i % italic_every == 0:
            lines = [f"<i>{line}</i>" for line in lines]
        parts.append(
            f"{i}\n"
            f"00:{start // 60:02d}:{start % 60:02d},000 --> 00:{end // 60:02d}:{end % 60:02d},500\n"
            + "\n".join(lines)
        )
    return "\n\n".join(parts) + "\n"

def _vtt(sentences: list[str]) -> str:
    parts = ["WEBVTT", "NOTE synthetic fixture"]
    t = 0
    for s in sentences:
        start, end = t, t + 4
        t = end + 1
        parts.append(
            f"{start // 60:02d}:{start % 60:02d}.000 --> {end // 60:02d}:{end % 60:02d}.500\n"
            + "\n".join(_split_line(s))
        )
    return "\n\n".join(parts) + "\n"

def _json_captions(sentences: list[str]) -> str:
    cues = [
        {"content": s, "start": 5000 * i, "duration": 4500}
        for i, s in enumerate(sentences)
    ]
    return json.dumps({"captions": cues}, ensure_ascii=False, indent=1) + "\n"


def _write_talk(talk_dir: Path, rows: list[int], langs: tuple[str, ...], fmt: str) -> None:
    talk_dir.mkdir(parents=True)
    for lang in langs:
        col = _LANG_COLUMN[lang]
        sentences = [BANK[r][col] for r in rows]
        if fmt == "srt":
            talk_dir.joinpath(f"{lang}.srt").write_text(
                _srt(sentences, italic_every=9), encoding="utf-8"
            )
        elif fmt == "vtt":
            talk_dir.joinpath(f"{lang}.vtt").write_text(_vtt(sentences), encoding="utf-8")
        else:
            talk_dir.joinpath(f"{lang}.json").write_text(
                _json_captions(sentences), encoding="utf-8"
            )


def build_subtitle_tree(
    root: Path,
    n_kept: int = 218,
    n_missing: int = 10,
    n_short: int = 8,
    seed: int = 20150501,
) -> SubtitleFixture:
    """Write a talk dump under root and return the expected ingest outcome.

    Kept talks carry at least 1100 chars of reference-language text, so the
    default 1000-char floor keeps them; short talks get 3 sentences; missing
    talks lack one language file entirely.
    """
    rng = random.Random(seed)
    fixture = SubtitleFixture(root=root)
    formats = ("srt", "vtt", "json")
    total = n_kept + n_missing + n_short
    roles = ["kept"] * n_kept + ["missing"] * n_missing + ["short"] * n_short
    rng.shuffle(roles)
    for i, role in enumerate(roles):
        talk_id = f"talk_{i:04d}"
        fmt = formats[i % len(formats)]
        if role == "short":
            rows = [rng.randrange(len(BANK)) for _ in range(3)]
            _write_talk(root / talk_id, rows, LANGS, fmt)
            fixture.too_short_ids.append(talk_id)
            continue
        target = 1100 + (i % 7) * 60
        rows: list[int] = []
        eng_len = 0
        while eng_len < target:
            r = rng.randrange(len(BANK))
            rows.append(r)
            eng_len += len(BANK[r][0]) + (1 if eng_len else 0)
        if role == "missing":
            dropped = LANGS[1 + i % (len(LANGS) - 1)]
            langs = tuple(l for l in LANGS if l != dropped)
            _write_talk(root / talk_id, rows, langs, fmt)
            fixture.missing_language_ids.append(talk_id)
        else:
            _write_talk(root / talk_id, rows, LANGS, fmt)
            fixture.kept_ids.append(talk_id)
    for ids in (fixture.kept_ids, fixture.missing_language_ids, fixture.too_short_ids):
        ids.sort()
    return fixture


if __name__ == "__main__":
    import statistics
    import sys
    import tempfile

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from lingspace import SpaceMeasure, aggregate_ratios, load_subtitle_directory

    with tempfile.TemporaryDirectory() as tmp:
        fixture = build_subtitle_tree(Path(tmp))
        corpus, report = load_subtitle_directory(Path(tmp), list(LANGS))
        print("report:", report)
        eng = aggregate_ratios(corpus, ENG, CMN_HANS, SpaceMeasure.CHARACTERS)
        jpn = aggregate_ratios(corpus, JPN, CMN_HANS, SpaceMeasure.CHARACTERS)
        print(f"eng/hans mean={eng.stats.mean:.4f} median={eng.stats.median:.4f}")
        print(f"jpn/hans mean={jpn.stats.mean:.4f} median={jpn.stats.median:.4f}")
        print("eq hans:", round(140 / eng.stats.mean, 2))
        print("eq jpn:", round(140 * jpn.stats.mean / eng.stats.mean, 2))
        per_sent = [(len(e) / len(h), len(j) / len(h)) for e, h, _, j in
                    ((r[0], r[1], r[2], r[3]) for r in BANK)]
        print("bank eng/hans spread:", round(min(p[0] for p in per_sent), 2),
              round(statistics.fmean(p[0] for p in per_sent), 2),
              round(max(p[0] for p in per_sent), 2))
        print("bank jpn/hans spread:", round(min(p[1] for p in per_sent), 2),
              round(statistics.fmean(p[1] for p in per_sent), 2),
              round(max(p[1] for p in per_sent), 2))
        for idx, row in enumerate(BANK):
            e, h, j = len(row[0]), len(row[1]), len(row[3])
            print(f"{idx:2d} eng/hans={e / h:.2f} jpn/hans={j / h:.2f} e={e} h={h} j={j}")