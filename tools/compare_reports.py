"""Compare the outputs of two magsys-lab runs, key by key.

Usage:

    python3 tools/compare_reports.py OLD NEW

OLD and NEW are two output directories (of ``systole``, ``sweep`` or
``volume``, or of ``tools/run_configs.py``, whose subdirectories are
compared too) or two JSON or CSV files.  For each top-level key of every
JSON file the two sides share (report.json, volume.json, ...) and for each
column of every CSV file they share (summary.csv, orbit_*.csv), one line
says "identical" or gives the largest |difference| of the numbers under it.
A change that is not numeric (a verdict, a seed id, a number of entries) is
named instead.  Files found on one side only are listed.  The exit status
is 0 when everything compared is identical and 1 otherwise.  Standard
library only.
"""

import csv
import json
import math
import sys
from pathlib import Path


def leaves(value, path=()):
    """(path, value) for every scalar inside nested dicts and lists."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, path + (i,))
    else:
        yield path, value


def as_number(value):
    """value as a float, or None if it is not a number (bools are not)."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def compare(old, new):
    """'identical', the largest |difference| of the numbers of two values of
    one shape, or where they first differ otherwise."""
    a, b = list(leaves(old)), list(leaves(new))
    if [path for path, _ in a] != [path for path, _ in b]:
        return f"changed shape: {len(a)} -> {len(b)} entries"
    worst, text_only = 0.0, False
    for (path, x), (_, y) in zip(a, b):
        if x == y:
            continue
        fx, fy = as_number(x), as_number(y)
        where = "".join(f"[{p!r}]" for p in path)
        if fx is None or fy is None or math.isnan(fx) != math.isnan(fy):
            return f"changed at {where or 'value'}: {x!r} -> {y!r}"
        if fx == fy or (math.isnan(fx) and math.isnan(fy)):
            text_only = True
        else:
            worst = max(worst, abs(fx - fy))
    if worst > 0.0:
        return f"max |diff| {worst:.3g}"
    return "same numbers, different text" if text_only else "identical"


def read_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def compare_files(old, new, label):
    """The result lines for one pair of files, and whether all are identical."""
    if old.suffix == ".json":
        a, b = json.loads(old.read_text()), json.loads(new.read_text())
    else:
        a, b = read_columns(old), read_columns(new)
    lines, same = [], True
    for key in list(a) + [k for k in b if k not in a]:
        if key not in a or key not in b:
            result = "only in " + ("NEW" if key not in a else "OLD")
        else:
            result = compare(a[key], b[key])
        same = same and result == "identical"
        lines.append(f"{label}: {key}: {result}")
    return lines, same


def report_files(root):
    """The JSON and CSV files under a directory, as paths relative to it."""
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.suffix in (".json", ".csv")}


def main(argv):
    if len(argv) != 2:
        print("usage: python3 tools/compare_reports.py OLD NEW", file=sys.stderr)
        return 2
    old, new = Path(argv[0]), Path(argv[1])
    pairs, only = [(old, new, new.name)], []
    if old.is_dir() and new.is_dir():
        names_a, names_b = report_files(old), report_files(new)
        pairs = [(old / n, new / n, n) for n in sorted(names_a & names_b)]
        only = [f"{n}: only in {'OLD' if n in names_a else 'NEW'}"
                for n in sorted(names_a ^ names_b)]
    all_same = not only
    for a, b, label in pairs:
        lines, same = compare_files(a, b, label)
        all_same = all_same and same
        print("\n".join(lines))
    if only:
        print("\n".join(only))
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
