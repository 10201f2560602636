"""Deterministic CSV and JSON writers.

Floats are rendered with ``repr`` (shortest round-trip form), so identical
inputs produce byte-identical files across runs.  CSV quoting follows
RFC 4180; JSON keys are emitted in sorted order, and a non-finite float
(NaN or +/-inf) is written to JSON as ``null``, so every JSON file is
RFC 8259 JSON.
"""

from __future__ import annotations

import csv
import io
import json
import math


def _fmt(v):
    if hasattr(v, "tolist"):              # numpy scalar -> python scalar
        v = v.tolist()
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return repr(v)
    if v is None or isinstance(v, (int, str)):
        return v
    raise TypeError(f"a CSV cell must be a scalar, got {v!r}")


def csv_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue().encode("utf-8")


def write_csv(path, header, rows) -> None:
    # render first: a row generator that raises must not leave an empty file
    data = csv_bytes(header, rows)
    with open(path, "wb") as fh:
        fh.write(data)


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if hasattr(obj, "tolist"):            # numpy scalar or array
        return _sanitize(obj.tolist())
    return obj


def json_bytes(obj) -> bytes:
    return (json.dumps(_sanitize(obj), indent=2, sort_keys=True, allow_nan=False)
            + "\n").encode("utf-8")


def write_json(path, obj) -> None:
    # render first, as write_csv does: an object that cannot be rendered
    # must not leave an empty file
    data = json_bytes(obj)
    with open(path, "wb") as fh:
        fh.write(data)
