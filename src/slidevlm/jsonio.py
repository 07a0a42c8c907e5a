"""JSON and JSON-lines files: one reader and one writer for each.

Readers turn every malformed file into a UsageError naming the path (and
the line, for JSON lines), so a bad input ends in exit 2, never in a
traceback. Writers sort keys, so equal data always gives equal bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from .numerics import UsageError

__all__ = ["read_json", "read_jsonl", "write_json", "write_jsonl"]


def read_json(path) -> dict[str, Any]:
    """One JSON object from `path`."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise UsageError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def read_jsonl(path, schema: Mapping[str, type], build: Callable[..., Any] | None = None) -> list[Any]:
    """One JSON object per non-blank line, with exactly the keys of `schema`.

    Each value must have its key's type: `str`, say, or `list[str]`. With
    `build`, each row becomes `build(**row)`, and a UsageError it raises
    names the line too.
    """
    rows = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line.decode("utf-8"))
            except ValueError as exc:  # bad UTF-8 or bad JSON
                raise UsageError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise UsageError(f"{path}:{lineno}: expected a JSON object, got {type(row).__name__}")
            if set(row) != set(schema):
                raise UsageError(f"{path}:{lineno}: expected keys {sorted(schema)}, got {sorted(row)}")
            for key, kind in schema.items():
                if not _has_type(row[key], kind):
                    want = kind if hasattr(kind, "__args__") else kind.__name__
                    got = type(row[key]).__name__
                    raise UsageError(f"{path}:{lineno}: {key!r} must be {want}, got {got}")
            if build is not None:
                try:
                    row = build(**row)
                except UsageError as exc:
                    raise UsageError(f"{path}:{lineno}: {exc}") from exc
            rows.append(row)
    return rows


def _has_type(value, kind) -> bool:
    item = getattr(kind, "__args__", None)  # list[str] -> (str,)
    if item:
        return isinstance(value, list) and all(isinstance(v, item[0]) for v in value)
    return isinstance(value, kind)


def write_json(path, obj: Any) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_jsonl(path, rows: Iterable[Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
