"""Legacy ASCII VTK output for space-time meshes and solutions.

Space-time elements are written as hexahedra for d=2 (coordinates
(x1, x2, t)) and quads for d=1 (coordinates (x1, t)).
"""

from __future__ import annotations

import numpy as np

from . import fe
from .mesh import SpaceTimeMesh

_CELL_TYPE = {1: 9, 2: 12}  # VTK_QUAD, VTK_HEXAHEDRON


def _corner_loop(lo: np.ndarray, hi: np.ndarray, d: int) -> list[tuple]:
    """Cell corner coordinates in VTK connectivity order, as (x.., t)."""
    t0, t1 = lo[0], hi[0]
    if d == 1:
        x0, x1 = lo[1], hi[1]
        return [(x0, t0, 0.0), (x1, t0, 0.0), (x1, t1, 0.0), (x0, t1, 0.0)]
    x0, x1 = lo[1], hi[1]
    y0, y1 = lo[2], hi[2]
    return [
        (x0, y0, t0), (x1, y0, t0), (x1, y1, t0), (x0, y1, t0),
        (x0, y0, t1), (x1, y0, t1), (x1, y1, t1), (x0, y1, t1),
    ]


def _assemble_grid(corner_lists: list[list[tuple]]):
    points: list[tuple] = []
    index: dict[tuple, int] = {}
    cells: list[list[int]] = []
    for corners in corner_lists:
        conn = []
        for c in corners:
            key = tuple(round(float(v), 12) for v in c)
            i = index.get(key)
            if i is None:
                i = len(points)
                index[key] = i
                points.append(key)
            conn.append(i)
        cells.append(conn)
    return points, cells


def _write_grid(path, points, cells, cell_type: int, cell_data: dict[str, list]):
    lines = [
        "# vtk DataFile Version 3.0",
        "space-time hybrid DG output",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(points)} float",
    ]
    for p in points:
        lines.append("%.9g %.9g %.9g" % p)
    n = len(cells)
    width = len(cells[0]) if cells else 0
    lines.append(f"CELLS {n} {n * (width + 1)}")
    for conn in cells:
        lines.append(" ".join(str(v) for v in [width] + conn))
    lines.append(f"CELL_TYPES {n}")
    lines.extend([str(cell_type)] * n)
    if cell_data:
        lines.append(f"CELL_DATA {n}")
        for name, values in cell_data.items():
            is_int = all(float(v).is_integer() for v in values)
            kind = "int" if is_int else "float"
            lines.append(f"SCALARS {name} {kind} 1")
            lines.append("LOOKUP_TABLE default")
            for v in values:
                lines.append(str(int(v)) if is_int else "%.9g" % v)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_mesh_vtk(
    path, mesh: SpaceTimeMesh, cell_values: dict[str, dict[int, float]] | None = None
) -> None:
    """Dump the space-time mesh with per-element scalars.

    cell_values maps array name -> {element id: value}; `level` and `slab`
    are always included.
    """
    e = mesh.etab
    rows = np.argsort(e.id)
    eids = e.id[rows].tolist()
    corner_lists = [_corner_loop(lo, hi, mesh.d) for lo, hi in zip(e.lo[rows], e.hi[rows])]
    points, cells = _assemble_grid(corner_lists)
    data: dict[str, list] = {
        "level": e.level[rows].tolist(),
        "slab": e.slab[rows].tolist(),
    }
    for name, per_elem in (cell_values or {}).items():
        data[name] = [per_elem.get(e, 0.0) for e in eids]
    _write_grid(path, points, cells, _CELL_TYPE[mesh.d], data)


def center_values(mesh: SpaceTimeMesh, field) -> dict[int, float]:
    """Solution value at each element's space-time center (a FieldEval)."""
    dm = field.dm
    coeffs = field.x[: dm.n_elem_dofs].reshape(-1, dm.n_elem_basis)
    v = fe.get_basis(dm.elem_degrees).eval(np.zeros((1, mesh.d + 1))).values[0]
    return dict(zip(dm.elem_ids, (coeffs @ v).tolist()))
