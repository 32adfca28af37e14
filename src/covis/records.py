"""The on-disk contract: one atomic writer, one JSON reader, one field checker, one path rule.

A file lands whole or not at all (a temporary file, then os.replace).
A record read back is checked field by field against JSON types, and a
path it names must resolve inside the directory that holds it.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Any, get_args

import numpy as np

from .errors import DomainError

# The bank's and each video directory's manifest file.
MANIFEST = "manifest.json"


def write_text(path: str | Path, text: str) -> None:
    """Write text to path atomically: <name>.tmp first, then os.replace."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_json(path: str | Path, doc: Any) -> None:
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_json(path: Path, what: str, error: type[Exception] = DomainError) -> Any:
    """The JSON document at path; error naming path and what if it does not parse."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
        raise error(f"{path}: invalid {what} ({e})") from e


def _fits(value: Any, kind: Any) -> bool:
    if not isinstance(kind, type):
        return kind(value)
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _describe(kind: Any) -> str:
    """kind in words, with its article: a type's name, null for None, a predicate's name."""
    names = ("null" if k is type(None) else k.__name__ for k in get_args(kind) or (kind,))
    text = " | ".join(name.replace("_", " ") for name in names)
    return ("an " if text[0] in "aeiou" else "a ") + text


def check_fields(
    where: str, rec: Any, fields: dict[str, Any],
    error: type[Exception] = DomainError, partial: bool = False,
) -> dict:
    """rec itself if it is an object whose every field fits its kind, else error.

    A kind is a type, a union of types such as `str | None`, or a predicate
    named for what it accepts. A bool is never a number and an int is also a
    float. A missing field reads as null; with partial it is skipped.
    """
    if not isinstance(rec, dict):
        raise error(f"{where}: expected an object, got {type(rec).__name__}")
    for name, kind in fields.items():
        if partial and name not in rec:
            continue
        value = rec.get(name)
        if not any(_fits(value, k) for k in get_args(kind) or (kind,)):
            raise error(f"{where}: {name!r} must be {_describe(kind)}, got {value!r}")
    return rec


def inside(base: Path, rel: str, where: str, what: str) -> Path:
    """base / rel resolved; DomainError "{where} {rel!r} lies outside {what}" if it escapes base.

    base must already be resolved, so a caller checking many paths resolves it once.
    """
    path = (base / rel).resolve()
    if not path.is_relative_to(base):
        raise DomainError(f"{where} {rel!r} lies outside {what}")
    return path


def positive_int(x: Any) -> bool:
    """An integer of at least 1: a Python or numpy integer, never a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x > 0


def finite_float(x: Any) -> bool:
    """An int or a float, never a bool, within the float range: not NaN or infinite."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def str_list(x: Any) -> bool:
    return isinstance(x, list) and all(isinstance(s, str) for s in x)

