import io
import warnings

import numpy as np
import pytest

from gdflow.gd import scheme_a, scheme_b
from gdflow import assembly, io_cli, linalg, quality
from gdflow.io_cli import (
    main,
    parse_config,
    validate_vtk,
    write_error_rows,
    write_vtk,
)
from gdflow.mesh import (
    TriangularMesh,
    build_cartesian,
    build_dual,
    build_structured_triangulation,
    load_mesh,
    save_mesh,
)
from gdflow.sim import ConfigError, RunConfig

from oracles import loop_scheme_a_polygons, loop_scheme_b_polygons


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_basic(self, tmp_path):
        path = write_config(tmp_path,
                            "# analytic run\n"
                            "test=analytic1\n"
                            "scheme=a\n"
                            "n=10\n"
                            "dt=0.02\n")
        cfg = parse_config(path)
        assert cfg.test == "analytic1"
        assert cfg.n == 10
        assert cfg.dt == 0.02
        assert cfg.t_final == 0.4  # default filled in

    def test_level_maps_to_reps(self, tmp_path):
        path = write_config(tmp_path,
                            "test=analytic1\nscheme=b\nlevel=4\ndt=0.02\n")
        assert parse_config(path).reps == 4

    def test_reps_is_not_a_file_key(self, tmp_path):
        path = write_config(tmp_path,
                            "test=analytic1\nscheme=b\nreps=4\ndt=0.02\n")
        with pytest.raises(ConfigError, match=":3: unknown key 'reps'"):
            parse_config(path)

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_config(tmp_path, "test=analytic1\nwhat=3\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config(path)

    def test_bad_scheme_rejected(self, tmp_path):
        path = write_config(tmp_path, "test=analytic1\nscheme=c\nn=5\ndt=0.02\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = write_config(tmp_path, "test=analytic1\nn=abc\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write_config(tmp_path, "test=analytic1\ntest=lit1\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_round_trip(self, tmp_path):
        cfg = RunConfig(test="analytic2", scheme="b", variant="dh",
                        reps=8, dt=0.01).resolved()
        path = tmp_path / "rt.cfg"
        path.write_text("".join(
            f"{'level' if name == 'reps' else name}={value}\n"
            for name, value in vars(cfg).items() if value is not None))
        assert parse_config(path) == cfg


class TestCsv:
    def test_deterministic_bytes(self, tmp_path):
        rows = [{"scheme": "a", "variant": "centred", "mesh": "25x25",
                 "dt": 0.02, "l1": 0.023960615924, "l2": 0.032629837827,
                 "ratio_l1": float("nan")}]
        p1, p2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        write_error_rows(p1, rows)
        write_error_rows(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_six_significant_digits(self, tmp_path):
        rows = [{"scheme": "a", "variant": "centred", "mesh": "25x25",
                 "dt": 0.02, "l1": 0.0239606159, "l2": 0.0326298378,
                 "ratio_l1": 3.5714285}]
        path = tmp_path / "errors.csv"
        write_error_rows(path, rows)
        content = path.read_text()
        assert "0.0239606" in content
        assert "3.57143" in content


class TestVtk:
    @pytest.mark.parametrize("rows, fmt", [
        (np.array([1.5, -0.0, 1e-300, np.nan, -np.inf, 123456789.123]),
         "%.9g"),
        (np.array([[0.25, -0.0], [1e-300, np.nan], [-7e22, 3.0]]),
         "%.9g %.9g 0"),
        (np.array([[2.0, -0.0, np.nan]]), "%.9g %.9g %.9g"),
        (np.zeros((0, 2)), "%.9g %.9g 0"),
    ])
    def test_bulk_rows_match_savetxt(self, rows, fmt):
        reference = io.StringIO()
        np.savetxt(reference, rows, fmt=fmt)
        assert io_cli._format_rows(rows, fmt) == reference.getvalue()

    def test_2x2_grid_constant_field(self, tmp_path):
        gd = scheme_a(build_cartesian(2, 1.0))
        path = tmp_path / "c.vtk"
        write_vtk(gd, {"c": np.ones(gd.ndof)}, path)
        validate_vtk(path)
        lines = path.read_text().splitlines()
        cells_line = next(ln for ln in lines if ln.startswith("CELLS"))
        assert int(cells_line.split()[1]) == 9
        start = lines.index("LOOKUP_TABLE default") + 1
        vals = [float(v) for v in lines[start:start + 9]]
        assert vals == [1.0] * 9

    def test_scheme_b_polygon_count(self, tmp_path):
        mesh = build_structured_triangulation(2, 1.0)
        gd = scheme_b(mesh, build_dual(mesh))
        path = tmp_path / "b.vtk"
        write_vtk(gd, {"c": np.zeros(gd.ndof)}, path,
                  velocity=np.ones((gd.n_grad_cells, 2)))
        validate_vtk(path)
        lines = path.read_text().splitlines()
        cells_line = next(ln for ln in lines if ln.startswith("CELLS"))
        assert int(cells_line.split()[1]) == gd.ndof

    def test_field_length_mismatch(self, tmp_path):
        gd = scheme_a(build_cartesian(2, 1.0))
        with pytest.raises(ValueError):
            write_vtk(gd, {"c": np.ones(3)}, tmp_path / "x.vtk")

    def test_validator_rejects_truncation(self, tmp_path):
        gd = scheme_a(build_cartesian(2, 1.0))
        path = tmp_path / "c.vtk"
        write_vtk(gd, {"c": np.ones(gd.ndof)}, path)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-3]) + "\n")
        with pytest.raises(ValueError):
            validate_vtk(path)

    def test_geometry_built_once_per_discretisation(self, tmp_path,
                                                     monkeypatch):
        calls, polygons = [], io_cli._scheme_b_polygons

        def counted(gd):
            calls.append(gd)
            return polygons(gd)
        monkeypatch.setattr(io_cli, "_scheme_b_polygons", counted)
        mesh = build_structured_triangulation(2, 1.0)
        gd = scheme_b(mesh, build_dual(mesh))
        for step, value in ((5, 0.0), (10, 1.0)):
            write_vtk(gd, {"c": np.full(gd.ndof, value)},
                      tmp_path / f"fields_{step}.vtk",
                      velocity=np.ones((gd.n_grad_cells, 2)))
            validate_vtk(tmp_path / f"fields_{step}.vtk")
        assert calls == [gd]

    def test_geometry_follows_discretisation_not_size(self, tmp_path):
        # scheme A n=4 and scheme B reps=2 both have 25 dofs
        mesh = build_structured_triangulation(2, 1.0)
        gd_a = scheme_a(build_cartesian(4, 1.0))
        gd_b = scheme_b(mesh, build_dual(mesh))
        assert gd_a.ndof == gd_b.ndof == 25
        cases = [(gd_a, loop_scheme_a_polygons(gd_a.geometry)[1]),
                 (gd_b, loop_scheme_b_polygons(mesh)[1])]
        paths = []
        for k, (gd, ref) in enumerate(cases + cases[:1]):
            paths.append(tmp_path / f"{k}.vtk")
            write_vtk(gd, {"c": np.arange(25.0)}, paths[-1])
            validate_vtk(paths[-1])
            lines = paths[-1].read_text().splitlines()
            start = next(i for i, ln in enumerate(lines)
                         if ln.startswith("CELLS")) + 1
            cells = [[int(v) for v in ln.split()[1:]]
                     for ln in lines[start:start + 25]]
            assert cells == ref
        assert paths[0].read_bytes() == paths[2].read_bytes()
        assert paths[0].read_bytes() != paths[1].read_bytes()

    @pytest.mark.parametrize("kind", ["a", "b"])
    def test_geometry_text_matches_savetxt_of_oracle(self, kind):
        if kind == "a":
            gd = scheme_a(build_cartesian(3, 1.0))
            points, polys = loop_scheme_a_polygons(gd.geometry)
        else:
            mesh = build_structured_triangulation(2, 1.0)
            gd = scheme_b(mesh, build_dual(mesh))
            points, polys = loop_scheme_b_polygons(mesh)
        ref = io.StringIO()
        ref.write("# vtk DataFile Version 3.0\ngdflow fields\nASCII\n"
                  f"DATASET UNSTRUCTURED_GRID\nPOINTS {len(points)} double\n")
        np.savetxt(ref, points, fmt="%.9g %.9g 0")
        ref.write(f"CELLS {len(polys)} {sum(len(p) + 1 for p in polys)}\n")
        for p in polys:
            ref.write(f"{len(p)} {' '.join(map(str, p))}\n")
        ref.write(f"CELL_TYPES {len(polys)}\n")
        np.savetxt(ref, [9 if len(p) == 4 else 7 for p in polys], fmt="%d")
        built = io_cli._geometry_text(gd)
        cached = io_cli._geometry_text(gd)
        assert built == ref.getvalue()
        assert cached is built

    @staticmethod
    def assert_same_polygons(built, ref):
        (points, polys), (ref_points, ref_polys) = built, ref
        assert np.array_equal(points, ref_points)
        assert [list(map(int, p)) for p in polys] == ref_polys

    def test_scheme_a_polygons_match_loop(self):
        gd = scheme_a(build_cartesian(4, 1.0))
        self.assert_same_polygons(io_cli._scheme_a_polygons(gd),
                                  loop_scheme_a_polygons(gd.geometry))

    def test_scheme_b_polygons_match_loop(self):
        mesh = build_structured_triangulation(4, 1.0)
        gd = scheme_b(mesh, build_dual(mesh))
        self.assert_same_polygons(io_cli._scheme_b_polygons(gd),
                                  loop_scheme_b_polygons(mesh))

    def test_irregular_mesh_polygons_match_loop(self, tmp_path):
        mesh = build_structured_triangulation(3, 1.0)
        v = mesh.vertices.copy()
        inner = np.all((v > 1e-9) & (v < 1.0 - 1e-9), axis=1)
        v[inner] += np.random.default_rng(3).uniform(
            -0.05, 0.05, (int(inner.sum()), 2))
        path = tmp_path / "jittered.mesh"
        save_mesh(TriangularMesh(vertices=v, triangles=mesh.triangles), path)
        mesh = load_mesh(path)
        gd = scheme_b(mesh, build_dual(mesh))
        self.assert_same_polygons(io_cli._scheme_b_polygons(gd),
                                  loop_scheme_b_polygons(mesh))

    def test_independent_parser_cross_check(self, tmp_path):
        # minimal independent reader: walks the legacy-ASCII layout directly
        gd = scheme_a(build_cartesian(3, 1.0))
        rng = np.random.default_rng(0)
        c = rng.random(gd.ndof)
        path = tmp_path / "snap.vtk"
        write_vtk(gd, {"c": c}, path, velocity=np.ones((gd.n_grad_cells, 2)))
        tokens = path.read_text().split()

        def after(keyword):
            return tokens.index(keyword)

        n_pts = int(tokens[after("POINTS") + 1])
        i = after("CELLS")
        n_cells = int(tokens[i + 1])
        assert n_cells == gd.ndof
        i = after("LOOKUP_TABLE") + 1
        vals = np.array([float(t) for t in tokens[i + 1:i + 1 + n_cells]])
        assert np.allclose(vals, c, atol=1e-8)
        assert n_pts == 4 * n_cells


class TestCli:
    def test_run_bad_config_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path, "test=analytic1\nscheme=c\nn=5\ndt=0.02\n")
        assert main(["run", "--config", str(path)]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["perm=inf", "dm=nan"])
    def test_run_non_finite_physics_exit_1(self, tmp_path, capsys, line):
        path = write_config(
            tmp_path, f"test=lit2\nscheme=a\nn=4\ndt=18\n{line}\n"
                      f"out_dir={tmp_path / 'out'}\n")
        assert main(["run", "--config", str(path)]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", ["dt=inf", "dt=nan",
                                       "dt=18\nt_final=inf"])
    def test_run_non_finite_time_exit_1(self, tmp_path, capsys, lines):
        path = write_config(tmp_path, f"test=lit2\nscheme=a\nn=4\n{lines}\n")
        assert main(["run", "--config", str(path)]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", ["scheme=a\nn=4", "scheme=b\nlevel=8"])
    def test_run_conflicting_mesh_keys_exit_1(self, tmp_path, capsys, lines):
        mesh_path = tmp_path / "tri2.mesh"
        save_mesh(build_structured_triangulation(2, 1.0), mesh_path)
        path = write_config(tmp_path, f"test=analytic1\n{lines}\n"
                                      f"mesh_file={mesh_path}\ndt=0.2\n"
                                      f"out_dir={tmp_path / 'out'}\n")
        assert main(["run", "--config", str(path)]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exit_1(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_run_small_analytic(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "test=analytic1\nscheme=a\nn=8\ndt=0.05\nvtk_every=4\n"
            f"out_dir={tmp_path / 'out'}\n")
        assert main(["run", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert (out / "errors.csv").exists()
        assert (out / "diagnostics.csv").exists()
        assert (out / "fields_8.vtk").exists()
        validate_vtk(out / "fields_8.vtk")
        assert "L1=" in capsys.readouterr().out

    def test_run_determinism(self, tmp_path):
        cfg_text = "test=analytic1\nscheme=a\nn=8\ndt=0.05\n"
        outs = []
        for tag in ("o1", "o2"):
            path = write_config(tmp_path,
                                cfg_text + f"out_dir={tmp_path / tag}\n",
                                name=f"{tag}.cfg")
            assert main(["run", "--config", str(path)]) == 0
            outs.append((tmp_path / tag / "errors.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_quality_monotone_s_column(self, tmp_path, capsys):
        assert main(["quality", "--scheme", "a", "--levels", "3",
                     "--base", "4", "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "quality.csv").read_text().splitlines()
        assert len(rows) == 4  # header + 3 levels
        header = rows[0].split(",")
        s_idx = header.index("S_D")
        s_vals = [float(r.split(",")[s_idx]) for r in rows[1:]]
        assert s_vals[0] > s_vals[1] > s_vals[2]

    @pytest.mark.parametrize("levels", ["0", "-1"])
    def test_quality_without_levels_exit_1(self, tmp_path, capsys, levels):
        assert main(["quality", "--scheme", "a", "--levels", levels,
                     "--base", "4", "--out-dir", str(tmp_path)]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "quality.csv").exists()

    def test_mesh_info_cartesian(self, capsys):
        assert main(["mesh-info", "--n", "4"]) == 0
        assert "16 primal squares" in capsys.readouterr().out

    def test_mesh_info_triangulation(self, capsys):
        assert main(["mesh-info", "--reps", "2"]) == 0
        out = capsys.readouterr().out
        assert "25 vertices" in out
        assert "32 triangles" in out

    @pytest.mark.parametrize("side", ["nan", "inf"])
    def test_mesh_info_non_finite_side_exit_1(self, capsys, side):
        assert main(["mesh-info", "--n", "4", "--side", side]) == 1
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("args", [["--reps", "2", "--side", "1e200"],
                                      ["--n", "4", "--side", "1e160"]])
    def test_mesh_info_overflowing_side_exit_1(self, capsys, args):
        # stderr holds the error line alone, with no NumPy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mesh-info", *args]) == 1
        captured = capsys.readouterr()
        message = ("triangle areas overflow: their sum is not finite"
                   if "--reps" in args else
                   "side length must be finite and positive with a finite "
                   "square, got L=1e+160")
        assert captured.err == f"configuration error: {message}\n"
        assert captured.out == ""

    def test_mesh_info_overflowing_area_file_exit_1(self, tmp_path, capsys):
        path = tmp_path / "big.mesh"
        path.write_text("vertices 3\n0 0\n1e200 0\n0 1e200\n"
                        "triangles 1\n0 1 2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mesh-info", "--mesh-file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("configuration error: triangle areas "
                                "overflow: their sum is not finite\n")
        assert captured.out == ""

    def test_mesh_info_requires_argument(self, capsys):
        assert main(["mesh-info"]) == 1

    @pytest.mark.parametrize("args", [
        ["--n", "4", "--reps", "2"], ["--n", "4", "--mesh-file", "m.mesh"],
        ["--reps", "2", "--mesh-file", "m.mesh"]])
    def test_mesh_info_conflicting_meshes_exit_1(self, tmp_path, capsys,
                                                 monkeypatch, args):
        save_mesh(build_structured_triangulation(2, 1.0), tmp_path / "m.mesh")
        monkeypatch.chdir(tmp_path)
        assert main(["mesh-info", *args]) == 1
        captured = capsys.readouterr()
        assert "only one of --n, --reps, --mesh-file" in captured.err
        assert captured.out == ""

    def test_mesh_info_non_finite_vertex_exit_1(self, tmp_path, capsys):
        path = tmp_path / "nan.mesh"
        path.write_text("vertices 3\n0 0\n1 0\nnan 1\ntriangles 1\n0 1 2\n")
        assert main(["mesh-info", "--mesh-file", str(path)]) == 1
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert "area" not in captured.out

    def test_run_solver_failure_exit_2(self, tmp_path, capsys, monkeypatch):
        def fail(self, A, b):
            raise linalg.SolverError("forced singular transport matrix")
        monkeypatch.setattr(linalg.FactorizationCache, "solve", fail)
        path = write_config(
            tmp_path, "test=analytic1\nscheme=a\nn=4\ndt=0.1\n"
                      f"out_dir={tmp_path / 'out'}\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_run_picard_failure_exit_2(self, tmp_path, capsys, monkeypatch):
        # one Picard iteration cannot converge the first transport step
        monkeypatch.setattr(assembly, "PICARD_MAX_ITER", 1)
        path = write_config(
            tmp_path, "test=analytic1\nscheme=a\nn=4\ndt=0.1\n"
                      f"out_dir={tmp_path / 'out'}\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_quality_failure_exit_2(self, tmp_path, capsys, monkeypatch):
        # one power iteration cannot meet the convergence test
        monkeypatch.setattr(quality, "POWER_MAX_ITER", 1)
        assert main(["quality", "--scheme", "a", "--levels", "1",
                     "--base", "4", "--out-dir", str(tmp_path)]) == 2
        assert "numerical failure" in capsys.readouterr().err
