"""Deterministic report serialization.

Floats are rendered with 12 significant digits (round-half-even, C locale
decimal point) before serialization, so identical runs produce byte-identical
files on any platform.  NaNs become JSON nulls.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import IoError


def fmt_float(x):
    return f"{x:.12g}"


def sanitize(obj):
    """Recursively round floats to 12 significant digits and map NaN/inf to
    None for JSON."""
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return None
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    return obj


def write_json(doc, path):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(sanitize(doc), fh, indent=2, allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def csv_text(rows, columns):
    """Plain deterministic CSV (floats via fmt_float, no quoting needed)."""
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            v = row[col] if isinstance(row, dict) else getattr(row, col)
            if isinstance(v, float):
                cells.append(fmt_float(v))
            elif isinstance(v, bool):
                cells.append("true" if v else "false")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_text(text, path):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_csv(rows, columns, path):
    write_text(csv_text(rows, columns), path)


def ensure_outdir(outdir):
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {outdir}: {exc}") from exc


def samples_csv(sys, traj, path, extra=None):
    """Sample path of a Trajectory (or Orbit): t, the chart's coordinate and
    velocity columns, then one column per entry of extra (name -> per-sample
    values).  Every cell is a float, so one "%.12g" template over the whole
    table, formatted in one operation, gives the bytes ``csv_text`` would
    (``fmt_float``)."""
    extra = extra or {}
    cols = ["t", *sys.surface.columns, *extra]
    table = np.column_stack([traj.times, traj.states, *extra.values()])
    row = ",".join(["%.12g"] * len(cols)) + "\n"
    write_text(",".join(cols) + "\n" + (row * len(table)) % tuple(table.ravel().tolist()), path)


def orbit_samples_csv(sys, orbit, path):
    """Per-orbit sample path: t plus chart coordinates and velocity."""
    samples_csv(sys, orbit, path)
