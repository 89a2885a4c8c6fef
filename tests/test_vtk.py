import numpy as np

from sthdg.assembly import FieldEval, assemble
from sthdg.mesh import SpaceTimeMesh
from sthdg.problem import get_problem
from sthdg.solver import solve
from sthdg.vtk_io import center_values, write_mesh_vtk


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
    write_mesh_vtk(p, mesh, {"eta": {e: 0.5 for e in mesh.element_ids()}})
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
    mesh.refine_and_coarsen([mesh.element_ids()[0]])
    vals = {e: float(i) for i, e in enumerate(mesh.element_ids())}
    p1, p2 = tmp_path / "a.vtk", tmp_path / "b.vtk"
    write_mesh_vtk(p1, mesh, {"v": vals})
    write_mesh_vtk(p2, mesh, {"v": vals})
    assert p1.read_bytes() == p2.read_bytes()


def test_center_and_slice_values():
    spec = get_problem("linear", eps=1.0, d=1)
    mesh = SpaceTimeMesh.build(1, 2, 2)
    sys = assemble(spec, mesh, 1)
    x, _ = solve(sys)
    ev = FieldEval(sys.dofmap, x)
    cv = center_values(mesh, ev)
    for eid, v in cv.items():
        c = mesh.elements[eid].center()
        assert abs(v - (c[0] + c[1])) < 1e-9


def test_missing_cell_values_default_to_zero(tmp_path):
    mesh = SpaceTimeMesh.build(1, 1, 2)
    first = mesh.element_ids()[0]
    p = tmp_path / "partial.vtk"
    write_mesh_vtk(p, mesh, {"v": {first: 2.5}})
    lines = p.read_text().splitlines()
    i = lines.index("SCALARS v float 1")
    assert lines[i + 1] == "LOOKUP_TABLE default"
    vals = sorted(lines[i + 2 : i + 4])
    assert vals == ["0", "2.5"]
