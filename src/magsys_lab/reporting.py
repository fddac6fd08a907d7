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

from .errors import IoError, ValidationError


def round_sig(x):
    """Round a float to 12 significant digits."""
    if x != x or x in (float("inf"), float("-inf")):
        return x
    return float(f"{x:.12g}")


def fmt_float(x):
    if x != x:
        return "nan"
    return f"{x:.12g}"


def sanitize(obj):
    """Recursively round floats and map NaN/inf to None for JSON."""
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return None
        return round_sig(obj)
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
    values)."""
    extra = extra or {}
    cols = ["t", *sys.surface.columns, *extra]
    table = np.column_stack([traj.times, traj.states, *extra.values()])
    write_text(csv_text((dict(zip(cols, row)) for row in table.tolist()), cols), path)


def orbit_samples_csv(sys, orbit, path):
    """Per-orbit sample path: t plus chart coordinates and velocity."""
    samples_csv(sys, orbit, path)


# --- experiment-report schema -----------------------------------------------------

_REPORT_SCHEMA = {
    "config": dict, "orbit_count": int, "periods": list,
    "magnetic_lengths": list, "residuals": list, "seed_ids": list,
    "l_min": (float, int, type(None)), "l_max": (float, int, type(None)),
    "reference": (float, int), "slack_lower": (float, int, type(None)),
    "slack_upper": (float, int, type(None)), "vol_g": (float, int, type(None)),
    "vol_g0": (float, int, type(None)), "p_at_lmin": (float, int, type(None)),
    "p_at_lmax": (float, int, type(None)), "zoll_flag": bool,
    "verdict_reduced": str, "verdict_two_sided": str, "verdict_full": str,
    "full_lhs": (float, int, type(None)), "full_rhs_affine": (float, int, type(None)),
    "full_rhs_ratio": (float, int, type(None)), "seeds_attempted": int,
    "short_loop_window": (float, int), "error": (str, type(None)),
}


def validate_report_doc(doc):
    """Schema check for an emitted experiment report document."""
    if not isinstance(doc, dict):
        raise ValidationError("report document must be a JSON object")
    for key, typ in _REPORT_SCHEMA.items():
        if key not in doc:
            raise ValidationError(f"report document missing key {key!r}")
        if not isinstance(doc[key], typ):
            raise ValidationError(f"report key {key!r} has wrong type")
    extra = set(doc) - set(_REPORT_SCHEMA)
    if extra:
        raise ValidationError(f"report document has unknown keys {sorted(extra)}")
    return True
