"""The shared exception type, and the line rules of every text format the package loads and writes.

``#`` starts a comment, lines without words are skipped, and lines count from 1. A written
file appears whole: it goes to a temporary file beside its target, which then replaces it.
"""
from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


class DataFormatError(ValueError):
    """A file on disk is missing, malformed, or violates a dataset invariant."""


def read_lines(path: Path) -> list[str]:
    """The lines of a text file; a missing file is a DataFormatError."""
    try:
        return path.read_text().splitlines()
    except FileNotFoundError:
        raise DataFormatError(f"file not found: {path}") from None


@contextmanager
def replacing(path, mode: str = "w"):
    """A file opened in ``mode`` beside ``path`` that replaces ``path`` once the block ends.

    If the block raises, the temporary file is removed and ``path`` stays as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, mode)
    except OSError as exc:   # name the file asked for, not its temporary name
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path, lines) -> None:
    """Write each line followed by a newline, as ``read_lines`` reads them back."""
    with replacing(path) as fh:
        fh.writelines(f"{line}\n" for line in lines)


def check_words(kind: str, words) -> None:
    """ValueError unless each of ``words`` reads back as one word: no whitespace, no '#'."""
    bad = [word for word in words if word.split() != [word] or "#" in word]
    if bad:
        raise ValueError(f"{kind} {bad[0]!r} is empty or holds whitespace or '#'")


def content_lines(lines: list[str], start: int = 0):
    """Yield (lineno, raw, words) for each line from index start with words before its '#'."""
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        words = raw.split("#", 1)[0].split()
        if words:
            yield lineno, raw, words


def read_header(path: Path, lines: list[str], parsers: dict) -> tuple[dict, int]:
    """Leading header lines as {key: parsers[key](words)}, and the index of the first body line.

    A key given twice, or a parser's ValueError, is a DataFormatError naming the line.
    """
    header: dict = {}
    for lineno, _, words in content_lines(lines):
        key = words[0]
        if key not in parsers:
            return header, lineno - 1
        if key in header:
            raise DataFormatError(f"{path}:{lineno}: duplicate header line {key!r}")
        try:
            header[key] = parsers[key](words)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    return header, len(lines)
