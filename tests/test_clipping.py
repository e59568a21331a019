"""Batched polygon clipping and fan quadrature against their one-pair
references, bit for bit."""

import numpy as np
import pytest

import scalar_reference
from sgdm import build_gd, build_uniform_triangulation, refine
from sgdm.clipping import clip_polygon
from sgdm.quadrature import polygon_rule

# padding rows must not produce inf or nan on the way
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _ccw(tris):
    """Triangles (n, 3, 2) reordered counter-clockwise."""
    e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    flip = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] < 0
    tris = tris.copy()
    tris[flip] = tris[flip][:, ::-1]
    return tris


def _overlapping_pairs(subjects, clippers):
    """Every (subject, clipper) pair whose bounding boxes meet."""
    lo, hi = subjects.min(axis=1), subjects.max(axis=1)
    meet = (clippers.max(axis=1) >= lo[:, None]) & (clippers.min(axis=1) <= hi[:, None])
    i, j = np.nonzero(meet.all(axis=2))
    return subjects[i], clippers[j]


def _assert_clips_match(subjects, clippers):
    polys, counts = clip_polygon(subjects, clippers)
    assert counts.shape == (len(subjects),)
    for p, (subject, clipper) in enumerate(zip(subjects, clippers)):
        ref = scalar_reference.clip_polygon(subject, clipper)
        got = polys[p, : counts[p]]
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes(), (p, got, ref)
    return polys, counts


def _assert_fans_match(polys, counts):
    pts, wts = polygon_rule(polys, counts)
    n_tri = max(polys.shape[1] - 2, 0)
    assert pts.shape[:2] == wts.shape[:2] == (len(polys), n_tri)
    for p in range(len(polys)):
        ref_x, ref_w = scalar_reference.fan_rule(polys[p, : counts[p]])
        used = max(counts[p] - 2, 0)
        assert pts[p, :used].reshape(-1, 2).tobytes() == ref_x.tobytes()
        assert wts[p, :used].ravel().tobytes() == ref_w.tobytes()
        assert not wts[p, used:].any()


def _mesh_cells(mesh):
    return mesh.vertices[mesh.cells]


class TestClipPolygon:
    def test_folded_example(self):
        # rounding in the inside test leaves a polygon that retraces itself
        cells = _mesh_cells(build_uniform_triangulation(8, 8))
        polys, counts = _assert_clips_match((cells[29] - [0.1, 0.0])[None], cells[13][None])
        folded = [[0.025, 0.775], [0.125, 0.875], [0.0, 0.875], [0.025, 0.875]]
        np.testing.assert_allclose(polys[0, : counts[0]], folded, rtol=0, atol=1e-15)
        _assert_fans_match(polys, counts)

    @pytest.mark.parametrize("grid", [None, 4], ids=["continuous", "on-a-grid"])
    def test_random_triangle_pairs(self, grid):
        # vertices on a coarse grid give shared edges, collinear and
        # coincident vertices
        rng = np.random.default_rng(11)
        tris = rng.uniform(0.0, 1.0, (800, 3, 2))
        if grid:
            tris = np.round(tris * grid) / grid
            e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
            tris = tris[e1[:, 0] * e2[:, 1] != e1[:, 1] * e2[:, 0]]
        tris = _ccw(tris)
        half = len(tris) // 2
        polys, counts = _assert_clips_match(tris[:half], tris[half : 2 * half])
        assert counts.max() > 3 and (counts == 0).any()
        _assert_fans_match(polys, counts)

    @pytest.mark.parametrize("scale", [0.5, 0.25])
    @pytest.mark.parametrize("refinements", [0, 1])
    def test_mesh_cells_shifted_by_benchmark_xi(self, refinements, scale):
        base = build_uniform_triangulation(8, 8)
        mesh = base
        for _ in range(refinements):
            mesh = refine(mesh)
        cells = _mesh_cells(mesh)
        xi = np.array([scale * base.h, 0.0])
        polys, counts = _assert_clips_match(*_overlapping_pairs(cells - xi, cells))
        _assert_fans_match(polys, counts)

    def test_lumped_sub_triangles_shifted(self):
        subs = build_gd(build_uniform_triangulation(4, 4), "p1_lumped").pieces[0]
        polys, counts = _assert_clips_match(*_overlapping_pairs(subs - [0.037, -0.061], subs))
        _assert_fans_match(polys, counts)

    def test_disjoint_touching_and_contained_pairs(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        subjects = np.array(
            [
                tri + [5.0, 0.0],  # disjoint
                tri + [1.0, 0.0],  # touching at a vertex
                [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],  # touching along an edge
                tri + [0.0, -1.0],  # sharing part of an edge
                tri,  # identical
                0.25 * tri + 0.1,  # inside
                4.0 * tri - 1.0,  # around
            ]
        )
        polys, counts = _assert_clips_match(subjects, np.broadcast_to(tri, subjects.shape))
        assert counts[0] == 0 and counts[4] == 3
        _assert_fans_match(polys, counts)

    def test_no_pairs(self):
        polys, counts = clip_polygon(np.empty((0, 3, 2)), np.empty((0, 3, 2)))
        assert len(polys) == len(counts) == 0
        pts, wts = polygon_rule(polys, counts)
        assert pts.size == wts.size == 0


class TestPolygonRule:
    def test_padded_polygons_of_every_count(self):
        rng = np.random.default_rng(5)
        polys = rng.uniform(-1.0, 1.0, (60, 6, 2))
        counts = np.arange(60) % 7
        _assert_fans_match(polys, counts)

    def test_fewer_than_three_slots(self):
        pts, wts = polygon_rule(np.ones((4, 2, 2)), np.full(4, 2))
        assert pts.shape == (4, 0, 12, 2) and wts.shape == (4, 0, 12)
