"""Exception hierarchy shared across the toolkit, and the text-input opener.

ValidationError covers bad inputs, bad configuration, and contract
violations (CLI exit code 1).  I/O failures are left to the builtin
OSError family (CLI exit code 2).
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import Iterator, TextIO


class ValidationError(ValueError):
    """Invalid input data, configuration, or argument.

    Given a path (and a line), the message is prefixed ``path:line: ``.
    """

    def __init__(self, message: str, path: str | Path | None = None,
                 line: int | None = None):
        if path is not None:
            loc = f"{path}:" if line is None else f"{path}:{line}:"
            message = f"{loc} {message}"
        super().__init__(message)


class ParseError(ValidationError):
    """Malformed file content."""


@contextlib.contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """Read a UTF-8 file, dropping a byte-order mark; bad bytes raise ParseError."""
    try:
        with Path(path).open("r", encoding="utf-8-sig") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text ({exc.reason})", path=str(path)) from None
