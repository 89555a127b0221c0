"""Error types shared across the package.

Every error carries a short machine-readable ``code`` (stable, uppercase)
plus a human message.  Parse errors additionally carry a 1-based line
number so batch logs point at the offending row.  ``open_text`` opens
every input file, so bytes that are not UTF-8 end in a ``ParseError``.
"""

from __future__ import annotations

from contextlib import contextmanager


class TermbridgeError(Exception):
    """Base class; ``code`` is a stable uppercase identifier."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ConfigError(TermbridgeError):
    """Bad run configuration (missing paths, out-of-range thresholds)."""


class ParseError(TermbridgeError):
    """Malformed input file content."""

    def __init__(self, code: str, message: str, path: str | None = None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(code, message + loc)
        self.path = path
        self.line = line


class DataError(TermbridgeError):
    """Semantically invalid data that parsed fine (integrity violations)."""


@contextmanager
def open_text(path, newline=None):
    """``path`` opened as UTF-8 text.  Bytes that do not decode, met while
    the file is read, are ParseError ``BAD_ENCODING`` naming the file and
    the line that holds them."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
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
