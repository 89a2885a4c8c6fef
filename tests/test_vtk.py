import numpy as np
import pytest

from sthdg.assembly import assemble
from sthdg.mesh import SpaceTimeMesh
from sthdg.problem import get_problem
from sthdg.solver import solve
from sthdg.vtk_io import center_values, write_mesh_vtk

from conftest import hanging_mesh
from oracles import elements, reference_grid


def _sections(text):
    out = {}
    for line in text.splitlines():
        head = line.split(" ")[0]
        if head in ("POINTS", "CELLS", "CELL_TYPES", "CELL_DATA", "SCALARS"):
            out.setdefault(head, []).append(line)
    return out


def test_mesh_vtk_structure(tmp_path):
    mesh = SpaceTimeMesh.build(1, 2, 2)
    p = tmp_path / "mesh.vtk"
    write_mesh_vtk(p, mesh, {"eta": np.full(mesh.n_elements, 0.5)})
    text = p.read_text()
    lines = text.splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert "DATASET UNSTRUCTURED_GRID" in text
    sec = _sections(text)
    assert sec["POINTS"][0] == "POINTS 9 float"  # 3x3 grid, corners dedup
    assert sec["CELL_TYPES"][0] == "CELL_TYPES 4"
    assert sec["CELL_DATA"][0] == "CELL_DATA 4"
    names = {s.split(" ")[1]: s.split(" ")[2] for s in sec["SCALARS"]}
    assert names["level"] == "int"
    assert names["slab"] == "int"
    assert names["eta"] == "float"
    # quad cells for d = 1
    idx = lines.index("CELL_TYPES 4")
    assert lines[idx + 1 : idx + 5] == ["9"] * 4
    with pytest.raises(ValueError):
        write_mesh_vtk(p, mesh, {"eta": np.zeros(3)})


def test_mesh_vtk_d2_hexahedra(tmp_path):
    mesh = SpaceTimeMesh.build(2, 1, 2)
    p = tmp_path / "mesh.vtk"
    write_mesh_vtk(p, mesh)
    text = p.read_text()
    sec = _sections(text)
    assert sec["POINTS"][0] == "POINTS 18 float"  # 3x3x2 grid
    assert text.splitlines()[text.splitlines().index("CELL_TYPES 4") + 1] == "12"


def test_mesh_vtk_is_deterministic(tmp_path):
    mesh = SpaceTimeMesh.build(2, 2, 2)
    mesh.refine_and_coarsen(mesh.etab.id[:1].tolist())
    vals = np.arange(mesh.n_elements, dtype=float)
    p1, p2 = tmp_path / "a.vtk", tmp_path / "b.vtk"
    write_mesh_vtk(p1, mesh, {"v": vals})
    write_mesh_vtk(p2, mesh, {"v": vals})
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("mesh_of", [
    lambda: hanging_mesh(1), lambda: hanging_mesh(2, policy="h2"),
    # thirds of a shifted domain: coordinates that round at 12 decimals
    lambda: SpaceTimeMesh.build(2, 3, 3, t_final=0.7, x_lo=[-0.5, 0.1], x_hi=[0.5, 0.4]),
], ids=["hanging-d1", "hanging-d2-h2", "thirds-d2"])
def test_grid_matches_per_corner_reference(tmp_path, mesh_of):
    mesh = mesh_of()
    mesh.refine_and_coarsen(mesh.etab.id[-2:].tolist())
    p = tmp_path / "mesh.vtk"
    write_mesh_vtk(p, mesh)
    lines = p.read_text().splitlines()
    points, cells = reference_grid(mesh)
    i = lines.index(f"POINTS {len(points)} float")
    assert lines[i + 1:i + 1 + len(points)] == points
    i = lines.index(f"CELLS {len(cells)} {len(cells) * (len(cells[0].split()))}")
    assert lines[i + 1:i + 1 + len(cells)] == cells


def test_center_and_slice_values():
    spec = get_problem("linear", eps=1.0, d=1)
    mesh = SpaceTimeMesh.build(1, 2, 2)
    sys = assemble(spec, mesh, 1)
    x, _ = solve(sys)
    cv = center_values(sys.dofmap, x)
    els = elements(mesh)
    assert cv.shape == (mesh.n_elements,)
    for eid, v in zip(sys.dofmap.mesh.etab.id.tolist(), cv.tolist()):
        c = els[eid].center()
        assert abs(v - (c[0] + c[1])) < 1e-9
