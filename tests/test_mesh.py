import warnings

import numpy as np
import pytest

from gdflow import mesh as mesh_module
from gdflow.mesh import (
    MeshError,
    MeshParseError,
    TriangularMesh,
    build_cartesian,
    build_dual,
    build_structured_triangulation,
    load_mesh,
    save_mesh,
    validate_mesh,
)

from oracles import loop_edge_counts, loop_triangles


def jittered_mesh_file(tmp_path, reps=3, seed=3):
    """A ``load_mesh`` round trip of the structured triangulation with its
    interior vertices moved at random: irregular triangles."""
    mesh = build_structured_triangulation(reps, 1.0)
    v = mesh.vertices.copy()
    inner = np.all((v > 1e-9) & (v < 1.0 - 1e-9), axis=1)
    h = 1.0 / (2 * reps)
    v[inner] += np.random.default_rng(seed).uniform(
        -0.3 * h, 0.3 * h, (int(inner.sum()), 2))
    path = tmp_path / "jittered.mesh"
    save_mesh(TriangularMesh(vertices=v, triangles=mesh.triangles), path)
    return load_mesh(path)


def edge_count_map(mesh):
    edges, counts = mesh_module._unique_edges(mesh.triangles)
    return {tuple(e): int(c) for e, c in zip(edges.tolist(), counts)}


def unit_square_two_triangles():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    triangles = np.array([[0, 1, 2], [0, 2, 3]])
    return TriangularMesh(vertices=vertices, triangles=triangles)


class TestCartesianGrid:
    def test_n2_counts_and_recon_areas(self):
        grid = build_cartesian(2, 1.0)
        assert grid.n_nodes == 9
        assert grid.n_squares == 4
        areas = np.sort(grid.recon_areas)
        assert np.allclose(areas[:4], 1.0 / 16.0)   # corners
        assert np.allclose(areas[4:8], 1.0 / 8.0)   # edge midpoints
        assert np.allclose(areas[8], 1.0 / 4.0)     # interior node
        assert np.isclose(grid.recon_areas.sum(), 1.0)

    def test_recon_areas_partition_domain(self):
        grid = build_cartesian(7, 3.0)
        assert np.isclose(grid.recon_areas.sum(), 9.0)

    def test_node_index_matches_coordinates(self):
        # node (i, j) has index i + j (N + 1)
        grid = build_cartesian(4, 2.0)
        idx = 3 + 1 * (grid.N + 1)
        assert np.allclose(grid.nodes[idx], [3 * grid.h, 1 * grid.h])

    @pytest.mark.parametrize("N,L", [(1, 1.0), (0, 1.0), (4, 0.0), (4, -2.0),
                                     (4, np.nan), (4, np.inf), (4, 1e160)])
    def test_invalid_parameters(self, N, L):
        with pytest.raises(MeshError):
            build_cartesian(N, L)


class TestStructuredTriangulation:
    def test_single_rep_crisscross_counts(self):
        mesh = build_structured_triangulation(1, 1.0)
        assert mesh.n_triangles == 8
        assert np.isclose(mesh.areas().sum(), 1.0)

    def test_all_triangles_positively_oriented(self):
        for reps in (1, 2, 5):
            mesh = build_structured_triangulation(reps, 1.0)
            assert np.all(mesh.areas() > 0)

    def test_area_scales_with_side(self):
        mesh = build_structured_triangulation(3, 1000.0)
        assert np.isclose(mesh.areas().sum(), 1.0e6)

    def test_boundary_edge_count(self):
        mesh = build_structured_triangulation(2, 1.0)
        # 4 blocks per side, one boundary edge per block side
        assert len(mesh.boundary_edges()) == 16

    def test_invalid_parameters(self):
        with pytest.raises(MeshError):
            build_structured_triangulation(0, 1.0)
        for L in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(MeshError, match="finite and positive"):
                build_structured_triangulation(2, L)

    @pytest.mark.parametrize("reps,L", [(2, 1e200), (1000, 1e155)])
    def test_overflowing_area_rejected(self, reps, L):
        # a triangle area, or only their sum, overflows; NumPy stays quiet
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match="not finite"):
                build_structured_triangulation(reps, L)

    @pytest.mark.parametrize("reps", [1, 2, 4, 7])
    def test_matches_loop_builder(self, reps):
        mesh = build_structured_triangulation(reps, 1.0)
        ref = loop_triangles(reps)
        assert mesh.triangles.dtype == ref.dtype
        assert np.array_equal(mesh.triangles, ref)


class TestValidateMesh:
    def test_inverted_triangle_rejected(self):
        mesh = unit_square_two_triangles()
        bad = TriangularMesh(vertices=mesh.vertices,
                             triangles=mesh.triangles[:, ::-1].copy())
        with pytest.raises(MeshError, match="inverted"):
            validate_mesh(bad)

    def test_index_out_of_range(self):
        mesh = unit_square_two_triangles()
        bad = TriangularMesh(vertices=mesh.vertices,
                             triangles=np.array([[0, 1, 7]]))
        with pytest.raises(MeshError, match="index"):
            validate_mesh(bad)

    def test_area_check(self):
        with pytest.raises(MeshError, match="sum"):
            validate_mesh(unit_square_two_triangles(), area=2.0)

    def test_non_finite_area_rejected(self):
        # finite vertices whose cross product overflows; NumPy stays quiet
        vertices = np.array([[0.0, 0.0], [1e200, 0.0], [0.0, 1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match="not finite"):
                validate_mesh(TriangularMesh(vertices=vertices,
                                             triangles=np.array([[0, 1, 2]])))

    @pytest.mark.parametrize("vertices, triangles", [
        # both products overflow, and their difference is inf - inf
        ([[0.0, 0.0], [1e200, 1e200], [1e200, 2e200]], [[0, 1, 2]]),
        # every area is finite, only their sum overflows
        (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                   [0.5, 0.5]]) * 1.5e154,
         [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])])
    def test_overflow_raises_without_warning(self, vertices, triangles):
        mesh = TriangularMesh(vertices=np.asarray(vertices),
                              triangles=np.array(triangles))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match="not finite"):
                validate_mesh(mesh)

    def test_edge_shared_by_three_triangles(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0]])
        triangles = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 2]])
        with pytest.raises(MeshError, match=r"edge \(0, 1\) shared by 3"):
            validate_mesh(TriangularMesh(vertices=vertices, triangles=triangles))


class TestEdges:
    def test_structured_counts_match_loop(self):
        for reps in (1, 4):
            mesh = build_structured_triangulation(reps, 1.0)
            assert edge_count_map(mesh) == loop_edge_counts(mesh.triangles)

    def test_irregular_counts_match_loop(self, tmp_path):
        mesh = jittered_mesh_file(tmp_path)
        assert edge_count_map(mesh) == loop_edge_counts(mesh.triangles)

    def test_boundary_edges_match_loop(self, tmp_path):
        for mesh in (build_structured_triangulation(4, 1.0),
                     jittered_mesh_file(tmp_path)):
            ref = {e for e, c in loop_edge_counts(mesh.triangles).items()
                   if c == 1}
            edges = mesh.boundary_edges()
            assert edges.shape == (len(ref), 2)
            assert set(map(tuple, edges.tolist())) == ref


class TestDualMesh:
    def test_two_triangle_square_measures(self):
        mesh = unit_square_two_triangles()
        dual = build_dual(mesh)
        # vertices 0 and 2 touch both triangles, 1 and 3 just one
        assert np.allclose(dual.measures, [1 / 3, 1 / 6, 1 / 3, 1 / 6])
        assert np.isclose(dual.measures.sum(), 1.0)

    def test_single_triangle_thirds(self):
        mesh = TriangularMesh(
            vertices=np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]),
            triangles=np.array([[0, 1, 2]]))
        dual = build_dual(mesh)
        assert np.allclose(dual.measures, 2.0 / 3.0)

    def test_crisscross_interior_measures(self):
        # interior vertex (i, j) meets 8 triangles when i + j is even (both
        # halves of its four blocks), 4 otherwise: 4 h^2 / 3 or 2 h^2 / 3
        n = 4
        h = 1.0 / n
        dual = build_dual(build_structured_triangulation(2, 1.0))
        for j in range(1, n):
            for i in range(1, n):
                expected = (4.0 if (i + j) % 2 == 0 else 2.0) * h * h / 3.0
                assert np.isclose(dual.measures[i + j * (n + 1)], expected)

    def test_measures_partition_domain(self):
        mesh = build_structured_triangulation(3, 1.0)
        assert np.isclose(build_dual(mesh).measures.sum(), 1.0)


class TestMeshFile:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "square.mesh"
        path.write_text(
            "# unit square\n"
            "vertices 4\n"
            "0 0\n1 0\n1 1\n0 1\n"
            "triangles 2\n"
            "0 1 2\n0 2 3\n")
        mesh = load_mesh(path)
        assert mesh.n_vertices == 4
        assert mesh.n_triangles == 2

    def test_inverted_triangle_file_rejected(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 2 1\n")
        with pytest.raises(MeshError):
            load_mesh(path)

    def test_non_finite_vertex_rejected(self, tmp_path):
        path = tmp_path / "nan.mesh"
        path.write_text("vertices 3\n0 0\n1 0\nnan 1\ntriangles 1\n0 1 2\n")
        with pytest.raises(MeshError, match="vertex 2 has non-finite"):
            load_mesh(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("vertices 2\n0 0\noops here\n")
        with pytest.raises(MeshParseError, match="line 3"):
            load_mesh(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.mesh"
        path.write_text("vertices 4\n0 0\n1 0\n")
        with pytest.raises(MeshParseError, match="end of file"):
            load_mesh(path)

    def test_round_trip(self, tmp_path):
        mesh = build_structured_triangulation(2, 1.0)
        path = tmp_path / "rt.mesh"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)
