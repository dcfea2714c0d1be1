"""File reading and writing shared by the persistence layers, and the one JSON document format.

Every text input is read through `read_lines` and every output file written
through `atomic_write_lines`; the files written inside one `atomic_writes`
block land together or not at all. A document is one compact JSON object whose
first fields are its ``format`` name and ``format_version``, followed by a
newline.
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
from contextvars import ContextVar
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ParseError

__all__ = [
    "FORMAT_VERSION",
    "atomic_write_lines",
    "atomic_write_text",
    "atomic_writes",
    "read_document",
    "read_lines",
    "write_document",
]

FORMAT_VERSION = 1


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    r"""Yield (1-based line number, line without its line break) for each non-empty line.

    The file is read as UTF-8, one line at a time. A leading byte-order mark
    is dropped, and a line ends at ``\n``, ``\r\n`` or ``\r``. A byte
    sequence that is not UTF-8 raises a one-line `ParseError` naming the line
    that holds it.
    """
    path = Path(path)
    with open(path, encoding="utf-8-sig") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if line:
                    yield lineno, line
        except UnicodeDecodeError as exc:
            lineno, reason = _first_undecodable_line(path) or ("?", exc.reason)
            raise ParseError(f"{path}:{lineno}: not valid UTF-8 ({reason})") from exc


def _first_undecodable_line(path: Path) -> tuple[int, str] | None:
    """The number of the first line that is not UTF-8, and why, by a second pass.

    The text layer decodes ahead of the line it yields, so the failure does
    not say which line holds the bad bytes. Latin-1 maps every byte to one
    character and leaves the line breaks where UTF-8 has them, so each line
    re-encodes to its own bytes; the file is streamed, never held whole.
    """
    with open(path, encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError as exc:
                return lineno, exc.reason
    return None


# the (temp file, destination) pairs of the `atomic_writes` block open in this context
_pending: ContextVar[list[tuple[Path, Path]] | None] = ContextVar("pending", default=None)


@contextlib.contextmanager
def atomic_writes() -> Iterator[None]:
    """Rename the temp files of every file written in the block into place at its end.

    If the block raises, as when producing or writing a file fails, every temp
    file is removed and no destination is touched; a failure between two
    renames is not undone. A block inside another adds its files to the outer one.
    """
    if _pending.get() is not None:
        yield
        return
    pending: list[tuple[Path, Path]] = []
    token = _pending.set(pending)
    try:
        yield
        for tmp, target in pending:
            os.replace(tmp, target)
    except BaseException:
        for tmp, _ in pending:
            with contextlib.suppress(OSError):
                tmp.unlink()
        raise
    finally:
        _pending.reset(token)


def atomic_write_lines(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to a temp file beside ``path``, in order, as one file of
    an `atomic_writes` block (of its own outside one).

    Each chunk is written as it is produced, so a file of many records never
    exists whole in memory. The file gets the mode a plain write gives a new
    file, 0o666 less the umask.
    """
    target = Path(path)
    with atomic_writes():
        tmp = target.parent / f"{target.name}.{secrets.token_hex(4)}.tmp"
        try:
            fh = open(tmp, "x", encoding="utf-8", newline="\n")
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(target)) from None
        _pending.get().append((tmp, target))
        with fh:
            fh.writelines(chunks)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically, as `atomic_write_lines` does."""
    atomic_write_lines(path, (text,))


def write_document(path: str | Path, format_name: str, body: dict) -> None:
    """Write ``body`` as a ``format_name`` document of the current version; a NaN or
    infinity, which JSON cannot hold, raises `ValueError` before any file is written."""
    doc = {"format": format_name, "format_version": FORMAT_VERSION, **body}
    atomic_write_text(path, json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n")


def read_document(path: str | Path, format_name: str, fields: tuple[str, ...]) -> dict:
    """Parse a current-version ``format_name`` document that has every field in ``fields``.

    Anything else raises a one-line `ParseError` naming ``path``; checking the
    fields' values is the caller's part.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer of too many digits
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value is not an object")
    if doc.get("format") != format_name:
        raise ParseError(f"{path}: format is {doc.get('format')!r}, expected {format_name!r}")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"{path}: format_version is {version!r}, expected {FORMAT_VERSION}")
    for field in fields:
        if field not in doc:
            raise ParseError(f"{path}: missing field {field!r}")
    return doc
