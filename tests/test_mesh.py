"""Mesh generators, refinement, validation and file round-trips."""

import numpy as np
import pytest

from sgdm import (
    Mesh,
    MeshError,
    build_uniform_interval,
    build_uniform_triangulation,
    load_mesh,
    refine,
    save_mesh,
)


class TestIntervalGenerator:
    def test_smallest_mesh(self):
        m = build_uniform_interval(1, 0.0, 1.0)
        assert m.n_vertices == 2
        assert m.n_cells == 1
        assert set(m.boundary_vertices) == {0, 1}

    def test_uniform_partition(self):
        m = build_uniform_interval(4, 0.0, 1.0)
        assert m.n_vertices == 5
        np.testing.assert_allclose(np.sort(m.vertices[:, 0]), np.arange(5) / 4)
        np.testing.assert_allclose(m.cell_measures, 0.25)

    def test_cover_invariant(self):
        m = build_uniform_interval(8, 0.0, 2.0)
        assert abs(m.cell_measures.sum() - 2.0) <= 1e-12 * 2.0

    def test_bad_arguments(self):
        with pytest.raises(MeshError):
            build_uniform_interval(0, 0.0, 1.0)
        with pytest.raises(MeshError):
            build_uniform_interval(4, 1.0, 1.0)


class TestTriangulationGenerator:
    def test_single_quad(self):
        m = build_uniform_triangulation(1, 1)
        assert m.n_cells == 2
        np.testing.assert_allclose(m.cell_measures, 0.5)

    def test_two_by_two(self):
        m = build_uniform_triangulation(2, 2)
        assert m.n_cells == 8
        assert abs(m.cell_measures.sum() - 1.0) <= 1e-12

    def test_rectangle_boundary(self):
        m = build_uniform_triangulation(4, 2, [[0.0, 0.0], [2.0, 1.0]])
        assert m.n_cells == 16
        for i in m.boundary_vertices:
            x, y = m.vertices[i]
            assert min(abs(x), abs(x - 2.0), abs(y), abs(y - 1.0)) <= 1e-14

    def test_degenerate_rectangle(self):
        with pytest.raises(MeshError):
            build_uniform_triangulation(2, 2, [[0.0, 0.0], [0.0, 1.0]])


class TestRefine:
    def test_interval_bisects(self):
        m = build_uniform_interval(4, 0.0, 1.0)
        r = refine(m)
        assert r.n_cells == 8
        assert r.cell_measures.max() <= 0.5 * m.cell_measures.max() + 1e-15

    def test_triangles_split_in_four(self):
        m = build_uniform_triangulation(1, 1)
        r = refine(m)
        assert r.n_cells == 8
        assert abs(r.cell_measures.sum() - 1.0) <= 1e-12

    def test_diameter_quartered_after_two(self):
        m = build_uniform_triangulation(2, 2)
        r = refine(refine(m))
        assert abs(r.h - m.h / 4.0) <= 1e-12 * m.h

    def test_cover_preserved_many_levels(self):
        m = build_uniform_triangulation(2, 1, [[0.0, 0.0], [3.0, 1.0]])
        for _ in range(3):
            m = refine(m)
            assert abs(m.cell_measures.sum() - 3.0) <= 1e-12 * 3.0
            m.validate()


class TestFileRoundTrip:
    @pytest.mark.parametrize("make", [
        lambda: build_uniform_interval(5, -1.0, 2.0),
        lambda: refine(build_uniform_interval(3, 0.0, 1.0)),
        lambda: build_uniform_triangulation(3, 2),
        lambda: refine(build_uniform_triangulation(1, 1)),
    ])
    def test_round_trip(self, make, tmp_path):
        m = make()
        path = tmp_path / "mesh.txt"
        save_mesh(m, path)
        r = load_mesh(path)
        assert r.dim == m.dim
        np.testing.assert_array_equal(r.cells, m.cells)
        np.testing.assert_allclose(r.vertices, m.vertices, rtol=0, atol=0)
        np.testing.assert_array_equal(r.boundary_vertices, np.sort(m.boundary_vertices))

    def test_truncated_file(self, tmp_path):
        m = build_uniform_interval(3, 0.0, 1.0)
        path = tmp_path / "mesh.txt"
        save_mesh(m, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4]) + "\n")
        with pytest.raises(MeshError, match="line"):
            load_mesh(path)

    def test_out_of_range_cell_index(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text(
            "gdmesh dim=1\nvertices 2\n0.0\n1.0\ncells 1\n0 7\nboundary_vertices 2\n0\n1\nend\n"
        )
        with pytest.raises(MeshError, match="out of range"):
            load_mesh(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("trimesh 2\n")
        with pytest.raises(MeshError, match="header"):
            load_mesh(path)


class TestValidation:
    def test_wrong_boundary_flags_rejected(self):
        m = build_uniform_interval(4, 0.0, 1.0)
        bad = Mesh(1, m.vertices, m.cells, np.array([0, 1]))
        with pytest.raises(MeshError, match="boundary"):
            bad.validate()

    def test_flat_cell_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        cells = np.array([[0, 1, 2]])
        bad = Mesh(2, verts, cells, np.array([0, 1, 2]), np.zeros((0, 2), dtype=int))
        with pytest.raises(MeshError):
            bad.validate()


class TestEdgeTable:
    def test_matches_cell_loop(self):
        m = refine(build_uniform_triangulation(3, 2, [[0.0, 0.0], [1.5, 1.0]]))
        loop = {}
        for cell in m.cells.tolist():
            for a, b in ((cell[0], cell[1]), (cell[1], cell[2]), (cell[2], cell[0])):
                key = (min(a, b), max(a, b))
                loop[key] = loop.get(key, 0) + 1
        assert m.edges() == loop
        edges, counts, cell_edges = m.edge_table
        assert list(map(tuple, edges.tolist())) == sorted(loop)
        # local edge i is the one opposite local vertex i
        for c, cell in enumerate(m.cells.tolist()):
            for i in range(3):
                assert sorted(edges[cell_edges[c, i]].tolist()) == sorted(cell[:i] + cell[i + 1 :])

    def test_edge_in_three_cells_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
        cells = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
        bad = Mesh(2, verts, cells, np.arange(5), np.zeros((0, 2), dtype=int))
        with pytest.raises(MeshError, match=r"edge \(0, 1\) shared by more than two cells"):
            bad.validate()

    def test_interval_has_no_edge_table(self):
        with pytest.raises(MeshError, match="2D"):
            build_uniform_interval(2, 0.0, 1.0).edges()
