"""Simplicial meshes of intervals and rectangles with uniform refinement.

A mesh is immutable after construction; all generators produce validated,
positively oriented cells. The text file format is line oriented so that
parse errors can point at the offending line.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class MeshError(ValueError):
    """Raised for invalid mesh data or malformed mesh files."""


@dataclass(frozen=True)
class Mesh:
    """Simplicial partition of an interval (dim=1) or polygon (dim=2).

    Attributes:
        dim: spatial dimension, 1 or 2.
        vertices: (n_vertices, dim) coordinates.
        cells: (n_cells, dim+1) vertex indices, positively oriented.
        boundary_vertices: sorted indices of vertices on the boundary.
        boundary_edges: (n_edges, 2) sorted vertex pairs (2D only, else None).
    """

    dim: int
    vertices: np.ndarray
    cells: np.ndarray
    boundary_vertices: np.ndarray
    boundary_edges: np.ndarray | None = None
    _measures: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_measures", _cell_measures(self.dim, self.vertices, self.cells))

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def cell_measures(self):
        return self._measures

    @property
    def bounding_box(self):
        return np.vstack([self.vertices.min(axis=0), self.vertices.max(axis=0)])

    def cell_diameters(self):
        v = self.vertices[self.cells]  # (n_cells, dim+1, dim)
        if self.dim == 1:
            return np.abs(v[:, 1, 0] - v[:, 0, 0])
        d01 = np.linalg.norm(v[:, 0] - v[:, 1], axis=1)
        d12 = np.linalg.norm(v[:, 1] - v[:, 2], axis=1)
        d20 = np.linalg.norm(v[:, 2] - v[:, 0], axis=1)
        return np.max(np.stack([d01, d12, d20]), axis=0)

    @property
    def h(self):
        """Mesh size: the largest cell diameter."""
        return float(self.cell_diameters().max())

    def interior_vertices(self):
        mask = np.ones(self.n_vertices, dtype=bool)
        mask[self.boundary_vertices] = False
        return np.nonzero(mask)[0]

    @cached_property
    def edge_table(self):
        """The edges of a 2D mesh, enumerated once: ``(edges, counts,
        cell_edges)`` with the sorted vertex pairs in lexicographic order, the
        number of cells sharing each edge, and the (n_cells, 3) index of the
        edge opposite each local vertex of every cell."""
        if self.dim != 2:
            raise MeshError("edges are only defined for 2D meshes")
        c = self.cells
        local = np.sort(np.stack([c[:, [1, 2]], c[:, [2, 0]], c[:, [0, 1]]], axis=1), axis=2)
        keys, cell_edges, counts = np.unique(
            local[..., 0] * self.n_vertices + local[..., 1], return_inverse=True, return_counts=True
        )
        edges = np.column_stack(np.divmod(keys, self.n_vertices))
        return edges, counts, cell_edges.reshape(self.n_cells, 3)

    def edges(self):
        """All edges as sorted vertex pairs with their cell multiplicity (2D)."""
        edges, counts, _ = self.edge_table
        return dict(zip(map(tuple, edges.tolist()), counts.tolist()))

    def validate(self):
        """Check structural invariants; raise MeshError on failure."""
        if self.dim not in (1, 2):
            raise MeshError(f"dim must be 1 or 2, got {self.dim}")
        if self.vertices.ndim != 2 or self.vertices.shape[1] != self.dim:
            raise MeshError("vertices array has wrong shape")
        if self.cells.ndim != 2 or self.cells.shape[1] != self.dim + 1:
            raise MeshError("cells array has wrong shape")
        if self.cells.min(initial=0) < 0 or self.cells.max(initial=-1) >= self.n_vertices:
            raise MeshError("cell vertex index out of range")
        if len(self.boundary_vertices) and (
            self.boundary_vertices.min() < 0 or self.boundary_vertices.max() >= self.n_vertices
        ):
            raise MeshError("boundary vertex index out of range")
        if np.any(self.cell_measures <= 0):
            raise MeshError("cell with non-positive measure")

        # Topological boundary must match the flags.
        if self.dim == 1:
            degree = np.zeros(self.n_vertices, dtype=int)
            np.add.at(degree, self.cells.ravel(), 1)
            computed = set(np.nonzero(degree == 1)[0])
        else:
            pairs = self.edges()
            over = [e for e, k in pairs.items() if k > 2]
            if over:
                raise MeshError(f"edge {over[0]} shared by more than two cells")
            bnd_edges = sorted(e for e, k in pairs.items() if k == 1)
            computed = set(i for e in bnd_edges for i in e)
            declared_edges = set(map(tuple, np.sort(self.boundary_edges, axis=1)))
            if declared_edges != set(bnd_edges):
                raise MeshError("boundary_edges do not match mesh topology")
        if computed != set(self.boundary_vertices.tolist()):
            raise MeshError("boundary_vertices do not match mesh topology")
        return self


def _cell_measures(dim, vertices, cells):
    v = vertices[cells]
    if dim == 1:
        return v[:, 1, 0] - v[:, 0, 0]
    return 0.5 * (
        (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
        - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1])
    )


def _orient(dim, vertices, cells):
    """Return cells reordered so every signed measure is positive."""
    cells = np.array(cells, dtype=int)
    meas = _cell_measures(dim, np.asarray(vertices, dtype=float), cells)
    flip = meas < 0
    if dim == 1:
        cells[flip] = cells[flip][:, ::-1]
    else:
        cells[flip] = cells[flip][:, [0, 2, 1]]
    return cells


def build_uniform_interval(n_cells, a, b):
    """Uniform 1D mesh with n_cells equal cells on [a, b]."""
    if n_cells < 1:
        raise MeshError(f"n_cells must be >= 1, got {n_cells}")
    if not a < b:
        raise MeshError(f"need a < b, got a={a}, b={b}")
    x = np.linspace(a, b, n_cells + 1)
    vertices = x[:, None]
    cells = np.column_stack([np.arange(n_cells), np.arange(1, n_cells + 1)])
    return Mesh(1, vertices, cells, np.array([0, n_cells])).validate()


def build_uniform_triangulation(nx, ny, rect=((0.0, 0.0), (1.0, 1.0))):
    """Criss-cross triangulation of a rectangle: 2 triangles per grid cell."""
    if nx < 1 or ny < 1:
        raise MeshError(f"nx and ny must be >= 1, got ({nx}, {ny})")
    (x0, y0), (x1, y1) = rect
    if not (x0 < x1 and y0 < y1):
        raise MeshError(f"degenerate rectangle {rect}")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    xv, yv = np.meshgrid(xs, ys, indexing="ij")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(i, j):
        return i * (ny + 1) + j

    cells = []
    for i in range(nx):
        for j in range(ny):
            n00, n10 = vid(i, j), vid(i + 1, j)
            n01, n11 = vid(i, j + 1), vid(i + 1, j + 1)
            cells.append([n00, n10, n11])
            cells.append([n00, n11, n01])
    cells = _orient(2, vertices, cells)

    bedges = []
    for i in range(nx):
        bedges.append((vid(i, 0), vid(i + 1, 0)))
        bedges.append((vid(i, ny), vid(i + 1, ny)))
    for j in range(ny):
        bedges.append((vid(0, j), vid(0, j + 1)))
        bedges.append((vid(nx, j), vid(nx, j + 1)))
    bedges = np.sort(np.array(bedges), axis=1)
    bverts = np.unique(bedges)
    return Mesh(2, vertices, cells, bverts, bedges).validate()


def refine(mesh):
    """Uniform refinement: cells bisected (1D) or split into 4 children (2D)."""
    if mesh.dim == 1:
        v = mesh.vertices[:, 0]
        mids = 0.5 * (v[mesh.cells[:, 0]] + v[mesh.cells[:, 1]])
        vertices = np.concatenate([v, mids])[:, None]
        mid_ids = mesh.n_vertices + np.arange(mesh.n_cells)
        cells = np.vstack(
            [
                np.column_stack([mesh.cells[:, 0], mid_ids]),
                np.column_stack([mid_ids, mesh.cells[:, 1]]),
            ]
        )
        return Mesh(1, vertices, cells, mesh.boundary_vertices.copy()).validate()

    verts = [tuple(p) for p in mesh.vertices]
    midpoint = {}

    def mid(a, b):
        key = (min(a, b), max(a, b))
        if key not in midpoint:
            verts.append(tuple(0.5 * (mesh.vertices[a] + mesh.vertices[b])))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    cells = []
    for v0, v1, v2 in mesh.cells:
        m01, m12, m20 = mid(v0, v1), mid(v1, v2), mid(v2, v0)
        cells.extend([[v0, m01, m20], [v1, m12, m01], [v2, m20, m12], [m01, m12, m20]])
    vertices = np.array(verts)
    cells = _orient(2, vertices, cells)

    bedges = []
    bverts = set(mesh.boundary_vertices.tolist())
    for a, b in mesh.boundary_edges:
        m = mid(a, b)
        bverts.add(m)
        bedges.append((min(a, m), max(a, m)))
        bedges.append((min(m, b), max(m, b)))
    bedges = np.sort(np.array(bedges), axis=1)
    return Mesh(2, vertices, cells, np.array(sorted(bverts)), bedges).validate()


# -- text file format ---------------------------------------------------------

_SECTIONS_1D = ("vertices", "cells", "boundary_vertices")
_SECTIONS_2D = ("vertices", "cells", "boundary_vertices", "boundary_edges")


def save_mesh(mesh, path):
    """Write a mesh in the line-oriented text format used by load_mesh."""
    with open(path, "w") as f:
        f.write(f"gdmesh dim={mesh.dim}\n")
        f.write(f"vertices {mesh.n_vertices}\n")
        for p in mesh.vertices:
            f.write(" ".join(repr(float(x)) for x in p) + "\n")
        f.write(f"cells {mesh.n_cells}\n")
        for c in mesh.cells:
            f.write(" ".join(str(int(i)) for i in c) + "\n")
        f.write(f"boundary_vertices {len(mesh.boundary_vertices)}\n")
        for i in mesh.boundary_vertices:
            f.write(f"{int(i)}\n")
        if mesh.dim == 2:
            f.write(f"boundary_edges {len(mesh.boundary_edges)}\n")
            for a, b in mesh.boundary_edges:
                f.write(f"{int(a)} {int(b)}\n")
        f.write("end\n")


class _Lines:
    def __init__(self, path):
        with open(path) as f:
            self.lines = f.read().splitlines()
        self.pos = 0
        self.path = path

    def next(self, expected):
        if self.pos >= len(self.lines):
            raise MeshError(f"{self.path}: line {self.pos + 1}: expected {expected}, file ends")
        self.pos += 1
        return self.lines[self.pos - 1].strip()

    def error(self, msg):
        raise MeshError(f"{self.path}: line {self.pos}: {msg}")


def load_mesh(path):
    """Read a mesh written by save_mesh, validating structure on the way."""
    src = _Lines(path)
    header = src.next("header 'gdmesh dim=<d>'")
    if not header.startswith("gdmesh dim="):
        src.error(f"expected header 'gdmesh dim=<d>', got {header!r}")
    try:
        dim = int(header.split("=", 1)[1])
    except ValueError:
        src.error(f"bad dimension in header {header!r}")
    if dim not in (1, 2):
        src.error(f"dim must be 1 or 2, got {dim}")

    def section(name, n_fields, conv):
        line = src.next(f"section '{name} <count>'")
        parts = line.split()
        if len(parts) != 2 or parts[0] != name:
            src.error(f"expected section '{name} <count>', got {line!r}")
        try:
            count = int(parts[1])
        except ValueError:
            src.error(f"bad count in section header {line!r}")
        rows = []
        for _ in range(count):
            row = src.next(f"{name} entry ({n_fields} fields)").split()
            if len(row) != n_fields:
                src.error(f"expected {n_fields} fields, got {len(row)}")
            try:
                rows.append([conv(x) for x in row])
            except ValueError:
                src.error(f"bad {name} entry {row}")
        return rows

    vertices = np.array(section("vertices", dim, float), dtype=float).reshape(-1, dim)
    cells = np.array(section("cells", dim + 1, int), dtype=int).reshape(-1, dim + 1)
    bverts = np.array(section("boundary_vertices", 1, int), dtype=int).reshape(-1)
    bedges = None
    if dim == 2:
        bedges = np.array(section("boundary_edges", 2, int), dtype=int).reshape(-1, 2)
        bedges = np.sort(bedges, axis=1)
    tail = src.next("'end'")
    if tail != "end":
        src.error(f"expected 'end', got {tail!r}")

    if cells.size and (cells.min() < 0 or cells.max() >= len(vertices)):
        raise MeshError(f"{path}: cell vertex index out of range")
    cells = _orient(dim, vertices, cells)
    return Mesh(dim, vertices, cells, np.sort(bverts), bedges).validate()
