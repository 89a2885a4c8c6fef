"""Comparison of a run's CSV output with a stored reference.

Cells that are integers or labels in the reference must match exactly
(`n_elements`, `n_dofs`, row labels, sample counts, the pinned `wall_ms`).
Other cells are floats and must agree to REL_TOL, NaN matching only NaN.
Cells listed in `loose` (those that depend on a seed the reference was not
made with) are only checked for being finite exactly where the reference's
are.
"""

from __future__ import annotations

import csv
import math
import re

REL_TOL = 1e-8
_INT = re.compile(r"-?\d+\Z")


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return not _INT.match(cell)


def read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def differing_cells(tables: list[list[list[str]]]) -> set[tuple[int, int]]:
    """(row, column) of every cell whose text is not the same in all tables."""
    first = tables[0]
    return {(i, j) for table in tables[1:]
            for i, (row, row0) in enumerate(zip(table, first))
            for j, (cell, cell0) in enumerate(zip(row, row0)) if cell != cell0}


def compare(out_rows: list[list[str]], ref_rows: list[list[str]],
            loose: set[tuple[int, int]] = frozenset()) -> list[str]:
    """Mismatches between two parsed CSV tables; empty when they agree."""
    errors: list[str] = []
    if len(out_rows) != len(ref_rows):
        return [f"{len(out_rows)} rows, reference has {len(ref_rows)}"]
    for i, (row, ref) in enumerate(zip(out_rows, ref_rows)):
        if len(row) != len(ref):
            errors.append(f"row {i}: {len(row)} cells, reference has {len(ref)}")
            continue
        for j, (cell, want) in enumerate(zip(row, ref)):
            if not _is_float(want):
                ok = cell == want
            elif not _is_float(cell):
                ok = False
            elif (i, j) in loose:
                ok = math.isfinite(float(cell)) == math.isfinite(float(want))
            else:
                a, b = float(cell), float(want)
                ok = (math.isnan(a) and math.isnan(b)) or math.isclose(
                    a, b, rel_tol=REL_TOL, abs_tol=0.0)
            if not ok:
                errors.append(f"row {i} col {j}: {cell!r}, reference {want!r}")
    return errors
