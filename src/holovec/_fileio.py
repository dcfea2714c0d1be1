"""File reading and writing shared by the persistence layers, and the one JSON document format.

Every text input is read through `read_lines`, which opens it once and names
the line of the first byte that is not UTF-8, and every output file is written
through `atomic_write_lines`; the files written inside one `atomic_writes`
block land together or not at all. A document is one compact JSON object whose
first fields are its ``format`` name and ``format_version``, followed by a
newline.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections import Counter
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

    The file is read once, as UTF-8, one line at a time. A leading byte-order
    mark is dropped, and a line ends at ``\n``, ``\r\n`` or ``\r``. Bytes
    that are not UTF-8 stay in the line that holds them until that line is
    reached, which then raises a one-line `ParseError` naming it, so every
    line before it is yielded first.
    """
    path = Path(path)
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            # only a line with a non-ASCII byte can hold a bad one, and only a bad byte,
            # escaped as a lone surrogate, fails a strict encode; that line is decoded again
            # with its line break, so a sequence cut by the break reads as in the file
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    try:
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as exc:
                        message = f"{path}:{lineno}: not valid UTF-8 ({exc.reason})"
                        raise ParseError(message) from exc
            line = line.rstrip("\n")
            if line:
                yield lineno, line


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
    file, 0o666 less the umask. A ``path`` that resolves to a file already
    written in the block raises `ValueError` before a temp file is opened.
    """
    target = Path(path)
    with atomic_writes():
        if any(target.resolve() == other.resolve() for _, other in _pending.get()):
            raise ValueError(f"{target}: already the path of another output")
        tmp = target.parent / f"{target.name}.{os.urandom(4).hex()}.tmp"
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

    A leading byte-order mark is skipped. Anything else, an object that names
    a member twice included, raises a one-line `ParseError` naming ``path``;
    checking the fields' values is the caller's part.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8-sig"), object_pairs_hook=_unique_members)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
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


def _unique_members(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict; a name given twice raises `ParseError`."""
    members = dict(pairs)
    if len(members) < len(pairs):
        repeated = next(name for name, n in Counter(name for name, _ in pairs).items() if n > 1)
        raise ParseError(f"duplicate member {repeated!r}")
    return members
