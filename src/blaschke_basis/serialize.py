"""Deterministic JSON rendering and atomic file output for the CLI.

Floats are rendered with 12 significant digits so identical inputs produce
byte-identical files; run metadata (timestamps, argv) is segregated into a
sidecar file next to the data.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from datetime import datetime, timezone

from .errors import PreconditionError

FLOAT_FORMAT = ".12g"


def _render(obj, indent: int) -> str:
    pad = "  " * indent
    child_pad = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{child_pad}{json.dumps(str(key))}: {_render(value, indent + 1)}'
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(value) is float and math.isfinite(value) for value in obj):
            # the float branch below, without a call per item; a FLOAT_FORMAT
            # float has at most 19 characters, so the list always fits inline
            return "[" + ", ".join(format(value, FLOAT_FORMAT) for value in obj) + "]"
        rendered = _float_rows(obj) or [_render(value, indent + 1) for value in obj]
        if all(len(r) <= 24 and "\n" not in r for r in rendered):
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(child_pad + r for r in rendered) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int,)):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise PreconditionError(f"cannot serialize non-finite value {obj!r}")
        return format(obj, FLOAT_FORMAT)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise PreconditionError(f"cannot serialize {type(obj).__name__} value {obj!r}")


def _float_rows(obj) -> list[str] | None:
    """The rendered rows of a list of equal-length lists of finite floats
    (the Gram file's [re, im] pairs) from one %-format; None otherwise."""
    width = len(obj[0]) if isinstance(obj[0], (list, tuple)) else 0
    flat = [value for row in obj if isinstance(row, (list, tuple)) and len(row) == width
            for value in row]
    if not width or len(flat) != width * len(obj) or not all(type(v) is float for v in flat):
        return None  # bools, ints and every other value take the recursive path
    text = "\n".join(["[" + ", ".join(["%" + FLOAT_FORMAT] * width) + "]"] * len(obj)) % tuple(flat)
    return None if "inf" in text or "nan" in text else text.split("\n")


def dumps_canonical(obj) -> str:
    """Render a JSON document with fixed float formatting and layout."""
    return _render(obj, 0) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Write UTF-8 text via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def write_with_sidecar(path: str, text: str, argv: list[str], version: str) -> None:
    """Write the data file plus a `<path>.meta.json` sidecar holding the run
    metadata that must stay out of the deterministic data file."""
    write_atomic(path, text)
    meta = {
        "created": datetime.now(timezone.utc).isoformat(),
        "tool_version": version,
        "argv": list(argv),
    }
    write_atomic(path + ".meta.json", json.dumps(meta, indent=2) + "\n")
