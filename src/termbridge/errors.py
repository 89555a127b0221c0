"""Error types shared across the package.

Every error carries a short machine-readable ``code`` (stable, uppercase),
one of those its class declares with its CLI exit code, plus a human
message.  Parse errors additionally carry the file and, where one row is
at fault, its 1-based line number, so batch logs point at the offending
row.  ``open_text`` opens every input file, so bytes that are not UTF-8,
and a leading byte-order mark, end in a ``ParseError``.
"""

from __future__ import annotations

from contextlib import contextmanager


class TermbridgeError(Exception):
    """Base class; a ``code`` its class does not declare is a TypeError."""

    exit_code: int
    codes: frozenset[str] = frozenset()

    def __init__(self, code: str, message: str):
        if code not in self.codes:
            raise TypeError(f"{code} is not a {type(self).__name__} code")
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ConfigError(TermbridgeError):
    """Bad run configuration (missing paths, out-of-range thresholds)."""

    exit_code = 1
    codes = frozenset({"BAD_CONFIG", "BAD_THRESHOLD", "MISSING_INPUT", "NO_SUCH_FILE", "USAGE"})


class ParseError(TermbridgeError):
    """Malformed input file content."""

    exit_code = 2
    codes = frozenset({
        "BAD_CUI", "BAD_CURIE", "BAD_ENCODING", "BAD_PREFIX", "BOTH_TARGETS_AND_REASON", "CONFLICTING_CURATION",
        "CONFLICTING_PREFIX", "CONFLICTING_RULE", "DUPLICATE_CURIE", "DUPLICATE_ID", "MALFORMED_LINE",
        "MALFORMED_ROW", "MISSING_COLUMN", "NOT_FIXED_POINT", "SHORT_ROW", "UNKNOWN_ONTOLOGY", "UNKNOWN_REASON",
    })

    def __init__(self, code: str, message: str, path: str | None = None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(code, message + loc)
        self.path = path
        self.line = line


class DataError(TermbridgeError):
    """Semantically invalid data that parsed fine (integrity violations)."""

    exit_code = 3
    codes = frozenset({
        "DEGENERATE_COHORT", "EMPTY_GROUP", "EMPTY_SITE_DATA", "INVALID_RECORD", "MISSING_TARGET_FOR_RESULT",
        "NEGATIVE_WEIGHT", "OUTCOME_MISMATCH", "TOO_FEW_PATIENTS", "UNKNOWN_CONCEPT",
    })


@contextmanager
def open_text(path, newline=None):
    """``path`` opened as UTF-8 text.  A leading UTF-8 byte-order mark is
    ParseError ``BAD_ENCODING`` at line 1, and so are bytes that do not
    decode, met while the file is read, at the line that holds them."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            if fh.buffer.peek(3).startswith(b"\xef\xbb\xbf"):
                raise ParseError("BAD_ENCODING", "the file starts with a UTF-8 byte-order mark", str(path), 1)
            yield fh
    except UnicodeDecodeError as exc:
        line = _undecodable_line(path)
        raise ParseError("BAD_ENCODING", f"not UTF-8: {exc.reason}", str(path), line) from None


def _undecodable_line(path) -> int | None:
    # The reader decodes in chunks, so the error does not say which line
    # failed; a second pass finds the first line with an escaped byte.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return lineno
    return None
