"""Exception hierarchy shared across the toolkit, and the text-input readers.

ValidationError covers bad inputs, bad configuration, and contract
violations (CLI exit code 1).  I/O failures are left to the builtin
OSError family (CLI exit code 2).
"""

from __future__ import annotations

import contextlib
from itertools import compress, repeat
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np


class ValidationError(ValueError):
    """Invalid input data, configuration, or argument.

    Given a path (and a line), the message is prefixed ``path:line: ``.
    """

    category = "validation"  # the CLI's error[category] line names it

    def __init__(self, message: str, path: str | Path | None = None,
                 line: int | None = None):
        if path is not None:
            loc = f"{path}:" if line is None else f"{path}:{line}:"
            message = f"{loc} {message}"
        super().__init__(message)


class ParseError(ValidationError):
    """Malformed file content."""

    category = "parse"


@contextlib.contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """Read a UTF-8 file, dropping a byte-order mark; bad bytes raise ParseError."""
    try:
        with Path(path).open("r", encoding="utf-8-sig") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text ({exc.reason})", path=str(path)) from None


CHUNK = 1 << 16  # characters of whole lines that read_rows reads at a time


def read_rows(path: str | Path, width: int) -> Iterator[tuple[list[list[str]], np.ndarray]]:
    """Yield a tab-separated file's nonblank lines as `width` trimmed-field columns
    plus their int64 line numbers, about CHUNK characters of whole lines at a time.

    Lines end at LF, CRLF or a lone CR.  A line with another field count, or
    an empty label among its first three fields, raises ParseError once the
    lines before it are yielded, so a caller's own checks see those first.
    """
    done = 0  # lines read before this chunk
    with open_text(path) as handle:
        while lines := handle.readlines(CHUNK):
            keep = ~np.fromiter(map(str.isspace, lines), bool, len(lines))
            numbers = np.flatnonzero(keep) + (done + 1)
            done += len(lines)
            lines = list(compress(lines, keep.tolist()))
            fields = np.fromiter(map(str.count, lines, repeat("\t")), np.int64, len(lines)) + 1
            wrong = np.flatnonzero(fields != width)
            end = int(wrong[0]) if len(wrong) else len(lines)
            flat = list(map(str.strip, "\t".join(lines[:end]).split("\t"))) if end else []
            columns = [flat[i::width] for i in range(width)]
            empty = min((column.index("") for column in columns[:3] if "" in column),
                        default=end)
            yield [column[:empty] for column in columns], numbers[:empty]
            if empty < len(lines):
                raise ParseError("empty field after whitespace trimming" if empty < end else
                                 f"expected {width} tab-separated fields, got {fields[end]}",
                                 path=str(path), line=int(numbers[empty]))
