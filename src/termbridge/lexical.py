"""String and code normalization shared by alignment and similarity.

All functions are pure and read no file: ``ingest`` reads the prefix
dictionary and the stopword lists.  Code prefix rewriting is driven by
a raw -> canonical prefix dictionary so that the same code referenced
under different prefixes or symbols lands on one canonical form.
"""

from __future__ import annotations

import re

from .core import CodeRef


class NormalizationDictionary:
    """Case-insensitive raw-prefix -> canonical-prefix lookup.

    Canonical values are fixed points: canonicalizing a canonical prefix
    changes nothing, so applying the dictionary twice is a no-op.
    ``ingest.load_code_dictionary`` checks that of the rows it reads.
    """

    def __init__(self, rows):
        self._map = {raw.strip().lower(): canonical.strip().upper() for raw, canonical in rows}

    def canonical_prefix(self, raw: str) -> str:
        return self._map.get(raw.strip().lower(), raw.strip().upper())


def canonicalize_code(raw: str, dictionary: NormalizationDictionary) -> CodeRef:
    """Parse a raw code string into a canonical CodeRef.

    The prefix/code split prefers the first ``:``; ``_`` and ``#`` only
    act as separators when no colon is present (underscores occur inside
    real vocabulary prefixes, e.g. SNOMEDCT_US:70305005).  A string with
    no separator at all becomes a code under the UNKNOWN prefix.
    Punctuation inside the code part is preserved.  A string with no code
    part, or whose prefix cannot head a CodeRef, is a ValueError.
    """
    s = raw.strip()
    if not s:
        raise ValueError("empty code string")
    if ":" in s:
        prefix, code = s.split(":", 1)
    else:
        cut = min((i for i in (s.find("_"), s.find("#")) if i >= 0), default=-1)
        if cut >= 0:
            prefix, code = s[:cut], s[cut + 1 :]
        else:
            prefix, code = "", s
    prefix = prefix.strip()
    code = code.strip()
    if not code:
        raise ValueError(f"no code part in {raw!r}")
    return CodeRef(dictionary.canonical_prefix(prefix) if prefix else "UNKNOWN", code)


def normalize_string(s: str) -> str:
    """Lowercase, strip, and collapse internal whitespace runs to one space."""
    return " ".join(s.lower().split())


# Maximal alphanumeric runs; underscore is a boundary, not a word character.
TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

_SIBILANT_STEMS = ("s", "x", "z", "ch", "sh")
_MIN_STEM = 3


def _apply_suffix_rules(token: str) -> str:
    """Deterministic single-pass suffix stripper.

    Rules, first match wins: ``-ies`` -> ``y``; sibilant ``-es``
    stripped; plural ``-s`` stripped (not after ss/us/is); ``-ing``
    stripped; ``-ed`` stripped.  A rule only fires when the stem keeps
    at least three characters; no consonant undoubling is attempted.
    """
    if token.endswith("ies") and len(token) - 2 >= _MIN_STEM:
        return token[: -len("ies")] + "y"
    if token.endswith("es"):
        stem = token[:-2]
        if len(stem) >= _MIN_STEM and stem.endswith(_SIBILANT_STEMS):
            return stem
    if token.endswith("s") and not token.endswith(("ss", "us", "is")):
        if len(token) - 1 >= _MIN_STEM:
            return token[:-1]
    if token.endswith("ing") and len(token) - 3 >= _MIN_STEM:
        return token[:-3]
    if token.endswith("ed") and len(token) - 2 >= _MIN_STEM:
        return token[:-2]
    return token


def tokenize(s: str, stopwords: frozenset[str]) -> list[str]:
    """Word tokens of an already-normalized string.

    Splits on non-alphanumeric boundaries, drops stopwords, then applies
    the suffix rules, dropping a stem that is a stopword.  ``stopwords``
    are lowercase, as ``ingest.load_stopwords`` reads them.  Output never
    contains stopwords, empty tokens, or uppercase: a suffix rule always
    leaves at least three characters.
    """
    out = []
    for token in TOKEN_RE.findall(s):
        if token in stopwords:
            continue
        token = _apply_suffix_rules(token)
        if token not in stopwords:
            out.append(token)
    return out
