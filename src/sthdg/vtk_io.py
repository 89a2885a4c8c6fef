"""Legacy ASCII VTK output for space-time meshes and solutions.

Space-time elements are written as hexahedra for d=2 (coordinates
(x1, x2, t)) and quads for d=1 (coordinates (x1, t)).  Cells come in the
row order of the element table `mesh.etab`, which is element-id order, and
cell data are arrays in that order.  Corner coordinates are
rounded to 12 decimals and equal rounded corners share one point; points
are numbered in order of first occurrence over the cells, each written as
its first corner.
"""

from __future__ import annotations

import numpy as np

from . import fe
from .assembly import DofMap, first_occurrence_labels
from .mesh import SpaceTimeMesh

_CELL_TYPE = {1: 9, 2: 12}  # VTK_QUAD, VTK_HEXAHEDRON

# cell corners in VTK connectivity order: 0 takes the element's lo, 1 its
# hi coordinate, per axis (t, x1, .., xd)
_CORNERS = {
    1: np.array([[0, 0], [0, 1], [1, 1], [1, 0]]),
    2: np.array([[0, 0, 0], [0, 1, 0], [0, 1, 1], [0, 0, 1],
                 [1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1]]),
}


def _grid(lo: np.ndarray, hi: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Point lines and cell connectivity (n, corners) of the boxes."""
    n, d1 = lo.shape
    pick = _CORNERS[d1 - 1]
    corners = np.where(pick == 0, lo[:, None, :], hi[:, None, :]).reshape(-1, d1)
    # round each distinct coordinate once; equal rounded values (0.0 and
    # -0.0 too) get one code, and a point is written as its first corner
    raw, inv = np.unique(corners, return_inverse=True)
    rounded = [round(v, 12) for v in raw.tolist()]
    _, code = np.unique(rounded, return_inverse=True)
    inv = inv.reshape(corners.shape)
    # points as (x.., t), padded with 0 to three coordinates
    pad = np.full((len(inv), 3 - d1), len(raw))
    text = ["%.9g" % v for v in rounded] + ["0"]
    coords = np.column_stack((inv[:, 1:], inv[:, :1], pad))
    point = first_occurrence_labels(np.append(code, -1)[coords])
    _, first = np.unique(point, return_index=True)
    lines = [" ".join(text[c] for c in row) for row in coords[first].tolist()]
    return lines, point.reshape(n, len(pick))


def write_mesh_vtk(path, mesh: SpaceTimeMesh, cell_values: dict[str, np.ndarray] | None = None) -> None:
    """Dump the space-time mesh with per-element scalars.

    cell_values maps array name -> values in element-id order; `level` and
    `slab` are always included.
    """
    e = mesh.etab
    points, cells = _grid(e.lo, e.hi)
    n, width = cells.shape
    data = {"level": e.level, "slab": e.slab, **(cell_values or {})}
    lines = [
        "# vtk DataFile Version 3.0",
        "space-time hybrid DG output",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(points)} float",
        *points,
        f"CELLS {n} {n * (width + 1)}",
        *(f"{width} " + " ".join(map(str, c)) for c in cells.tolist()),
        f"CELL_TYPES {n}",
        *[str(_CELL_TYPE[mesh.d])] * n,
        f"CELL_DATA {n}",
    ]
    for name, values in data.items():
        v = np.asarray(values, dtype=float)
        if v.shape != (n,):
            raise ValueError(f"cell data {name!r} needs one value per element")
        # integers if every value is one
        is_int = bool(np.all(np.isfinite(v) & (v == np.floor(v))))
        lines += [f"SCALARS {name} {'int' if is_int else 'float'} 1", "LOOKUP_TABLE default"]
        lines += map(str, map(int, v.tolist())) if is_int else ["%.9g" % x for x in v.tolist()]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def center_values(dm: DofMap, x: np.ndarray) -> np.ndarray:
    """Solution value at each element's space-time center, element-table order."""
    coeffs = np.asarray(x)[: dm.n_elem_dofs].reshape(-1, dm.n_elem_basis)
    v = fe.get_basis(dm.elem_degrees).eval(np.zeros((1, dm.d + 1))).values[0]
    return coeffs @ v
