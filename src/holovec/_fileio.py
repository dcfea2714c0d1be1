"""File writing shared by the persistence layers, and the one JSON document format.

Every output file is written through `atomic_write_lines`. A document is one
compact JSON object whose first fields are its ``format`` name and
``format_version``, followed by a newline.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable

from .errors import ParseError

__all__ = [
    "FORMAT_VERSION",
    "atomic_write_lines",
    "atomic_write_text",
    "read_document",
    "write_document",
]

FORMAT_VERSION = 1


def atomic_write_lines(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to ``path`` in order, via a temp file in the same directory.

    Each chunk is written as it is produced, so a file of many records never
    exists whole in memory. The rename happens only after every chunk is
    written: if writing or producing a chunk fails, the temp file is removed
    and an existing ``path`` is left untouched.
    """
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=target.name + ".", suffix=".tmp", dir=target.parent or "."
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically, as `atomic_write_lines` does."""
    atomic_write_lines(path, (text,))


def write_document(path: str | Path, format_name: str, body: dict) -> None:
    """Write ``body`` as a ``format_name`` document of the current version."""
    doc = {"format": format_name, "format_version": FORMAT_VERSION, **body}
    atomic_write_text(path, json.dumps(doc, separators=(",", ":")) + "\n")


def read_document(path: str | Path, format_name: str, fields: tuple[str, ...]) -> dict:
    """Parse a current-version ``format_name`` document that has every field in ``fields``.

    Anything else raises a one-line `ParseError` naming ``path``; checking the
    fields' values is the caller's part.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
