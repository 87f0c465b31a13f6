#!/usr/bin/env python3
"""Compare two artifact directories file by file.

Usage: python scripts/compare_outputs.py OLD NEW [--rtol R]

CSV files must have the same layout (rows and columns) and the same text
cells; numeric cells may differ by at most R relative to the larger of the
two magnitudes. Every other file must be byte-identical. For each CSV column
the largest relative difference is printed. The exit status is 1 when a file
is missing on one side or any limit is exceeded, 0 otherwise.
"""

import argparse
import csv
import io
import math
import sys
from pathlib import Path


def _number(cell: str):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _relative(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if a == b else abs(a - b) / scale


def compare_csv(name: str, old: bytes, new: bytes, rtol: float) -> bool:
    """Print the largest relative difference per column; True when within rtol."""
    old_rows = list(csv.reader(io.StringIO(old.decode("utf-8"), newline="")))
    new_rows = list(csv.reader(io.StringIO(new.decode("utf-8"), newline="")))
    if [len(r) for r in old_rows] != [len(r) for r in new_rows]:
        print(f"{name}: layout differs ({len(old_rows)} against {len(new_rows)} rows)")
        return False
    header = old_rows[0]
    worst: dict[int, float] = {}
    ok = True
    for line, (a_row, b_row) in enumerate(zip(old_rows, new_rows), start=1):
        for col, (a, b) in enumerate(zip(a_row, b_row)):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                if a != b:
                    print(f"{name}: line {line} column {col + 1}: {a!r} != {b!r}")
                    ok = False
            else:
                worst[col] = max(worst.get(col, 0.0), _relative(x, y))
    for col, diff in sorted(worst.items()):
        column = header[col] if col < len(header) else f"column {col + 1}"
        flag = "  EXCEEDS" if diff > rtol else ""
        print(f"{name}: {column}: max relative difference {diff:.3e}{flag}")
        ok = ok and diff <= rtol
    return ok


def compare_dirs(old_dir: Path, new_dir: Path, rtol: float) -> bool:
    old_names = {p.name for p in old_dir.iterdir() if p.is_file()}
    new_names = {p.name for p in new_dir.iterdir() if p.is_file()}
    ok = True
    for name in sorted(old_names ^ new_names):
        side = "NEW" if name in old_names else "OLD"
        print(f"{name}: missing from {side}")
        ok = False
    for name in sorted(old_names & new_names):
        old = (old_dir / name).read_bytes()
        new = (new_dir / name).read_bytes()
        if old == new:
            print(f"{name}: identical")
        elif name.endswith(".csv"):
            ok = compare_csv(name, old, new, rtol) and ok
        else:
            print(f"{name}: bytes differ")
            ok = False
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative difference allowed in a numeric "
                             "CSV cell (default 0: equal values)")
    args = parser.parse_args(argv)
    for directory in (args.old, args.new):
        if not directory.is_dir():
            parser.error(f"{directory} is not a directory")
    return 0 if compare_dirs(args.old, args.new, args.rtol) else 1


if __name__ == "__main__":
    sys.exit(main())
