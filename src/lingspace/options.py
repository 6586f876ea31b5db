"""Choices and defaults of the options that both the CLI and the stages take.

This module imports nothing, so the CLI can build its parser without loading
the stages; `corpus`, `microblog` and `pipeline` take these from here.
"""

# Directory layouts: udhr is <dir>/<lang>.txt, ted is <dir>/<talk_id>/<lang>.*
CORPUS_FORMATS = ("udhr", "ted")

POSTS_FORMATS = ("jsonl", "csv")

DEFAULT_MIN_POSTS = 50

# Characters of the rescale language that anchor the ratio plot's right axis:
# the classic 140-character microblog limit.
DEFAULT_RESCALE_LIMIT = 140.0
