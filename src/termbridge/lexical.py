"""String and code normalization shared by alignment and similarity.

All functions are pure.  Code prefix rewriting is driven by a two-column
dictionary file so that the same code referenced under different prefixes
or symbols lands on one canonical form.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from .core import CodeRef
from .errors import DataError, ParseError, open_text


class Lemmatize(Enum):
    OFF = "OFF"
    SUFFIX_RULES = "SUFFIX_RULES"


class NormalizationDictionary:
    """Case-insensitive raw-prefix -> canonical-prefix lookup.

    Canonical values must be fixed points: canonicalizing a canonical
    prefix changes nothing, so applying the dictionary twice is a no-op.
    """

    def __init__(self, rows):
        self._map: dict[str, str] = {}
        for raw, canonical in rows:
            raw_key = raw.strip().lower()
            canon = canonical.strip().upper()
            if not raw_key or not canon:
                raise DataError("EMPTY_PREFIX", "dictionary rows need both columns")
            existing = self._map.get(raw_key)
            if existing is not None and existing != canon:
                raise DataError(
                    "CONFLICTING_PREFIX", f"prefix {raw!r} mapped to both {existing} and {canon}"
                )
            self._map[raw_key] = canon
        for canon in set(self._map.values()):
            if self._map.get(canon.lower(), canon) != canon:
                raise DataError(
                    "NOT_FIXED_POINT",
                    f"canonical prefix {canon} is itself remapped to {self._map[canon.lower()]}",
                )

    @classmethod
    def from_csv(cls, path) -> "NormalizationDictionary":
        rows = []
        with open_text(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip().lower() for c in header[:2]] != [
                "raw_prefix",
                "canonical_prefix",
            ]:
                raise ParseError(
                    "MISSING_COLUMN",
                    "expected header raw_prefix,canonical_prefix",
                    path=str(path),
                    line=1,
                )
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) < 2:
                    raise ParseError(
                        "MALFORMED_ROW", "expected 2 columns", path=str(path), line=lineno
                    )
                rows.append((row[0], row[1]))
        return cls(rows)

    @classmethod
    def empty(cls) -> "NormalizationDictionary":
        return cls([])

    def canonical_prefix(self, raw: str) -> str:
        return self._map.get(raw.strip().lower(), raw.strip().upper())


def canonicalize_code(raw: str, dictionary: NormalizationDictionary) -> CodeRef:
    """Parse a raw code string into a canonical CodeRef.

    The prefix/code split prefers the first ``:``; ``_`` and ``#`` only
    act as separators when no colon is present (underscores occur inside
    real vocabulary prefixes, e.g. SNOMEDCT_US:70305005).  A string with
    no separator at all becomes a code under the UNKNOWN prefix.
    Punctuation inside the code part is preserved.
    """
    s = raw.strip()
    if not s:
        raise DataError("EMPTY_CODE", "empty code string")
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
        raise DataError("EMPTY_CODE", f"no code part in {raw!r}")
    try:
        if not prefix:
            return CodeRef("UNKNOWN", code)
        return CodeRef(dictionary.canonical_prefix(prefix), code)
    except ValueError as exc:
        raise DataError("BAD_PREFIX", f"{raw!r}: {exc}") from None


def normalize_string(s: str) -> str:
    """Lowercase, strip, and collapse internal whitespace runs to one space."""
    return " ".join(s.lower().split())


@dataclass(frozen=True)
class TokenizerConfig:
    stopwords: frozenset[str] = frozenset()
    lemmatize: Lemmatize = Lemmatize.OFF

    def __post_init__(self):
        for w in self.stopwords:
            if w != w.lower():
                raise ValueError(f"stopword not lowercase: {w!r}")


# Maximal alphanumeric runs; underscore is a boundary, not a word character.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

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


def tokenize(s: str, cfg: TokenizerConfig) -> list[str]:
    """Word tokens of an already-normalized string.

    Splits on non-alphanumeric boundaries, drops stopwords, then
    optionally lemmatizes (dropping a stem that is a stopword).  Output
    never contains stopwords, empty tokens, or uppercase: a suffix rule
    always leaves at least three characters.
    """
    out = []
    for token in _TOKEN_RE.findall(s):
        if token in cfg.stopwords:
            continue
        if cfg.lemmatize is Lemmatize.SUFFIX_RULES:
            token = _apply_suffix_rules(token)
            if token in cfg.stopwords:
                continue
        out.append(token)
    return out


def load_stopwords(path) -> frozenset[str]:
    """One lowercase token per line; blank lines ignored."""
    words = set()
    with open_text(path) as fh:
        for line in fh:
            w = line.strip()
            if w:
                words.add(w.lower())
    return frozenset(words)


def default_stopwords() -> frozenset[str]:
    """The English stopword list vendored with the package."""
    text = resources.files("termbridge.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w.strip().lower() for w in text.splitlines() if w.strip())


def default_code_dictionary() -> NormalizationDictionary:
    """Prefix dictionary vendored with the package (common clinical vocabularies)."""
    with resources.as_file(
        resources.files("termbridge.data").joinpath("source_code_vocab_map.csv")
    ) as p:
        return NormalizationDictionary.from_csv(p)
