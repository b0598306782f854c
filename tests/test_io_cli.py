import io
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gdflow.gd import scheme_a, scheme_b
from gdflow import assembly, io_cli, linalg, quality, sim
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
)
from gdflow.sim import ConfigError, RunConfig

from oracles import HUGE_VERTEX_COUNT_FILE, REPEATED_EDGE_FILES, \
    VERTICES_ONLY_FILE, loop_scheme_a_polygons, loop_scheme_b_polygons, \
    save_mesh


def perturbed_triangulation(reps, amplitude, seed=0):
    """The structured triangulation of the unit square with its interior
    vertices moved by up to ``amplitude`` in x and y."""
    mesh = build_structured_triangulation(reps, 1.0)
    v = mesh.vertices.copy()
    inner = np.all((v > 1e-9) & (v < 1.0 - 1e-9), axis=1)
    v[inner] += np.random.default_rng(seed).uniform(
        -amplitude, amplitude, (int(inner.sum()), 2))
    return TriangularMesh(vertices=v, triangles=mesh.triangles)


# scheme b meshes whose VTK geometry is checked against the loop oracle
B_MESHES = {
    "b": lambda: build_structured_triangulation(2, 1.0),
    "b-tri5-L1000": lambda: build_structured_triangulation(5, 1000.0),
    "b-tri16": lambda: build_structured_triangulation(16, 1.0),
    "b-tri8-perturbed": lambda: perturbed_triangulation(8, 0.02),
}


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

    @pytest.mark.parametrize("cut", [
        lambda lines, at: lines[:at + 4],
        lambda lines, at: lines[:at + 2] + [""] + lines[at + 3:],
    ], ids=["after_three_records", "blank_record"])
    def test_validator_rejects_truncated_cells(self, tmp_path, cut):
        gd = scheme_a(build_cartesian(3, 1.0))
        path = tmp_path / "c.vtk"
        write_vtk(gd, {"c": np.ones(gd.ndof)}, path)
        lines = path.read_text().splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith("CELLS"))
        path.write_text("\n".join(cut(lines, at)) + "\n")
        with pytest.raises(ValueError, match="truncated CELLS records"):
            validate_vtk(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.replace("CELL_TYPES", "CELLTYPES"),
         "missing 'CELL_TYPES' section"),
        (lambda t: t.replace("CELLS 9 45", "CELLS 9 44"),
         "CELLS size 44 != records 45"),
        (lambda t: t.replace("CELL_TYPES 9", "CELL_TYPES 8"),
         "CELL_TYPES count mismatch"),
        (lambda t: t.replace("CELL_DATA 9", "CELL_DATA 10"),
         "CELL_DATA count mismatch"),
        (lambda t: t[:t.rindex("\n", 0, -1) + 1], "truncated VECTORS array"),
        (lambda t: t[:-2] + "\n", "truncated VECTORS array"),
    ])
    def test_validator_rejects_inconsistent_file(self, tmp_path, edit,
                                                 message):
        gd = scheme_a(build_cartesian(2, 1.0))
        path = tmp_path / "c.vtk"
        write_vtk(gd, {"c": np.ones(gd.ndof)}, path,
                  velocity=np.ones((gd.n_grad_cells, 2)))
        text = path.read_text()
        path.write_text(edit(text))
        assert path.read_text() != text
        with pytest.raises(ValueError, match=message):
            validate_vtk(path)

    @pytest.mark.parametrize("header, kept, message", [
        ("POINTS", "POINTS", "POINTS header lacks its count"),
        ("CELLS", "CELLS 9", "CELLS header lacks its size"),
        ("CELL_TYPES", "CELL_TYPES", "CELL_TYPES header lacks its count"),
        ("CELL_DATA", "CELL_DATA", "CELL_DATA header lacks its count"),
    ], ids=["POINTS", "CELLS", "CELL_TYPES", "CELL_DATA"])
    def test_validator_rejects_header_without_count(self, tmp_path, header,
                                                    kept, message):
        gd = scheme_a(build_cartesian(2, 1.0))
        path = tmp_path / "c.vtk"
        write_vtk(gd, {"c": np.ones(gd.ndof)}, path)
        lines = path.read_text().splitlines()
        at = next(i for i, ln in enumerate(lines)
                  if ln.split()[0] == header)
        lines[at] = kept
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
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

    @pytest.mark.parametrize("kind", ["a", *B_MESHES])
    def test_geometry_text_matches_savetxt_of_oracle(self, kind):
        if kind == "a":
            gd = scheme_a(build_cartesian(3, 1.0))
            points, polys = loop_scheme_a_polygons(gd.geometry)
        else:
            mesh = B_MESHES[kind]()
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

    # the last two overflow t_final / dt
    @pytest.mark.parametrize("lines", ["dt=inf", "dt=nan",
                                       "dt=18\nt_final=inf", "dt=1e-320",
                                       "dt=1e-300\nt_final=1e300"])
    def test_run_non_finite_time_exit_1(self, tmp_path, capsys, lines):
        path = write_config(tmp_path, f"test=lit2\nscheme=a\nn=4\n{lines}\n")
        assert main(["run", "--config", str(path)]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("dm", ["0", "1e-320"])
    def test_run_analytic_without_series_order_exit_1(self, tmp_path, capsys,
                                                      dm):
        path = write_config(tmp_path, f"test=analytic1\nscheme=a\nn=4\n"
                                      f"dt=0.1\ndm={dm}\n"
                                      f"out_dir={tmp_path / 'out'}\n")
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("configuration error:")

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

    @pytest.mark.parametrize("text, message", [
        ("test=analytic1\nscheme a\n", ":2: expected key=value"),
        ("# no test\nscheme=a\nn=4\ndt=0.1\n", "missing required key 'test'"),
    ])
    def test_run_malformed_config_exit_1(self, tmp_path, capsys, text,
                                         message):
        path = write_config(tmp_path, text)
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error")
        assert message in err

    def test_missing_config_file_exit_1(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_config_directory_exit_1(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: ")
        assert "Is a directory" in captured.err

    def test_out_dir_below_file_exit_1_before_run(self, tmp_path, capsys,
                                                  monkeypatch):
        (tmp_path / "file").write_text("")
        path = write_config(tmp_path, "test=analytic1\nscheme=a\nn=4\n"
                                      "dt=0.1\n")
        runs = []
        monkeypatch.setattr(sim, "run_coupled",
                            lambda *args, **kwargs: runs.append(1))
        assert main(["run", "--config", str(path),
                     "--out-dir", str(tmp_path / "file" / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: ")
        assert "Not a directory" in captured.err
        assert runs == []

    def test_run_small_analytic(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "test=analytic1\nscheme=a\nn=8\ndt=0.05\nvtk_every=4\n"
            f"out_dir={tmp_path / 'out'}\n")
        assert main(["run", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert (out / "errors.csv").exists()
        assert (out / "diagnostics.csv").read_text().splitlines()[0] == (
            "step,t,mass_residual,pressure_mean,picard_iters,"
            "picard_residual,picard_relative,backtracks,factorizations,"
            "cmin,cmax")
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

    def test_quality_scheme_b(self, tmp_path, capsys):
        assert main(["quality", "--scheme", "b", "--levels", "2",
                     "--base", "2", "--out-dir", str(tmp_path)]) == 0
        header, *rows = (tmp_path / "quality.csv").read_text().splitlines()
        assert header == "mesh,h,ndof,C_D,S_D,W_D"
        rows = [r.split(",") for r in rows]
        assert [r[0] for r in rows] == ["tri2", "tri4"]
        assert [int(r[2]) for r in rows] == [25, 81]
        rep = quality.quality_report(sim.build_discretisation("b", 4, 1.0))
        assert rows[1][3:] == [f"{v:.6g}" for v in (
            rep.coercivity, rep.consistency, rep.limit_conformity)]
        assert "tri4" in capsys.readouterr().out

    def test_table_rows_and_ratios(self, tmp_path, monkeypatch, capsys):
        a4 = RunConfig(test="analytic1", scheme="a", n=4, dt=0.1)
        b1 = RunConfig(test="analytic1", scheme="b", reps=1, dt=0.1)
        monkeypatch.setattr(sim, "STUDIES", {"ta1": (
            (a4, replace(a4, n=8, dt=0.05)),
            (b1, replace(b1, reps=2, dt=0.05)))})
        assert main(["table", "--suite", "ta1",
                     "--out-dir", str(tmp_path)]) == 0
        header, *rows = (tmp_path / "errors.csv").read_text().splitlines()
        assert header == "scheme,variant,mesh,dt,l1,l2,ratio_l1"
        rows = [dict(zip(header.split(","), r.split(","))) for r in rows]
        assert [(r["scheme"], r["mesh"], r["dt"]) for r in rows] == [
            ("a", "4x4", "0.1"), ("a", "8x8", "0.05"),
            ("b", "tri1", "0.1"), ("b", "tri2", "0.05")]
        for first, second in (rows[:2], rows[2:]):
            assert first["ratio_l1"] == "nan"
            ratio = float(first["l1"]) / float(second["l1"])
            assert float(second["ratio_l1"]) == pytest.approx(ratio,
                                                              rel=1e-5)
        assert f"wrote {tmp_path / 'errors.csv'}" in capsys.readouterr().out

    def test_run_and_table_write_the_same_row(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, "test=analytic2\nscheme=b\nlevel=2\n"
                                      "variant=dh\ndt=0.1\n")
        assert main(["run", "--config", str(path),
                     "--out-dir", str(tmp_path / "run")]) == 0
        monkeypatch.setattr(sim, "STUDIES", {"ta2b": ((RunConfig(
            test="analytic2", scheme="b", variant="dh", reps=2, dt=0.1),),)})
        assert main(["table", "--suite", "ta2b",
                     "--out-dir", str(tmp_path / "table")]) == 0
        run, table = ((tmp_path / d / "errors.csv").read_bytes()
                      for d in ("run", "table"))
        assert run == table
        assert run.count(b"\n") == 2

    def test_run_out_dir_overrides_config(self, tmp_path):
        path = write_config(
            tmp_path, "test=analytic1\nscheme=a\nn=4\ndt=0.1\n"
                      f"out_dir={tmp_path / 'config_out'}\n")
        assert main(["run", "--config", str(path),
                     "--out-dir", str(tmp_path / "cli_out")]) == 0
        assert (tmp_path / "cli_out" / "errors.csv").exists()
        assert (tmp_path / "cli_out" / "diagnostics.csv").exists()
        assert not (tmp_path / "config_out").exists()

    def test_run_mesh_file_matches_level(self, tmp_path):
        mesh_path = tmp_path / "tri2.mesh"
        save_mesh(build_structured_triangulation(2, 1.0), mesh_path)
        results = []
        for tag, line in (("level", "level=2"),
                          ("file", f"mesh_file={mesh_path}")):
            path = write_config(
                tmp_path, f"test=analytic2\nscheme=b\n{line}\ndt=0.1\n"
                          f"out_dir={tmp_path / tag}\n", name=f"{tag}.cfg")
            assert main(["run", "--config", str(path)]) == 0
            state, report = sim.run_coupled(parse_config(path))
            results.append((state, report,
                            (tmp_path / tag / "diagnostics.csv").read_bytes()))
        (s1, r1, d1), (s2, r2, d2) = results
        for name in ("c", "p", "U"):
            assert np.array_equal(getattr(s1, name), getattr(s2, name))
        assert (r1.l1, r1.l2) == (r2.l1, r2.l2)
        assert d1 == d2

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

    def test_mesh_info_directory_exit_1(self, tmp_path, capsys):
        assert main(["mesh-info", "--mesh-file", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: ")
        assert "Is a directory" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["duplicated", "folded"])
    def test_mesh_info_repeated_directed_edge_exit_1(self, tmp_path, capsys,
                                                     name):
        path = tmp_path / f"{name}.mesh"
        path.write_text(REPEATED_EDGE_FILES[name])
        assert main(["mesh-info", "--mesh-file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("configuration error: directed edge (0, 1) "
                                "shared by 2 triangles\n")
        assert captured.out == ""

    def test_mesh_info_file_without_triangles_exit_1(self, tmp_path, capsys):
        path = tmp_path / "vertices_only.mesh"
        path.write_text(VERTICES_ONLY_FILE)
        assert main(["mesh-info", "--mesh-file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("configuration error: unexpected end of file, "
                                "expected 'triangles' header\n")
        assert captured.out == ""

    def test_mesh_info_huge_vertex_count_exit_1(self, tmp_path, capsys):
        path = tmp_path / "huge.mesh"
        path.write_text(HUGE_VERTEX_COUNT_FILE)
        assert main(["mesh-info", "--mesh-file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("configuration error: unexpected end of file "
                                "while reading vertex\n")
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--n", "--reps"])
    def test_mesh_info_unallocatable_size_exit_1(self, capsys, flag):
        # 10**15 per side asks for arrays of 7 to 14 PiB, more than any
        # address space holds: the allocation fails at once
        assert main(["mesh-info", flag, str(10 ** 15)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: Unable to "
                                       "allocate ")
        assert captured.out == ""

    def test_run_unallocatable_level_exit_1(self, tmp_path, capsys):
        path = write_config(
            tmp_path, f"test=analytic1\nscheme=b\nlevel={10 ** 15}\n"
                      f"dt=0.1\nout_dir={tmp_path / 'out'}\n")
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            "configuration error: Unable to allocate ")

    def test_mesh_info_int64_overflow_exit_1(self, tmp_path, capsys):
        path = tmp_path / "overflow.mesh"
        path.write_text("vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n"
                        "0 1 99999999999999999999\n")
        assert main(["mesh-info", "--mesh-file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("configuration error: line 6: bad triangle "
                                "entry ['0', '1', '99999999999999999999']\n")
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

    def test_mesh_info_isolated_vertex_exit_1(self, tmp_path, capsys):
        path = tmp_path / "isolated.mesh"
        path.write_text("vertices 4\n0 0\n1 0\n0 1\n1 1\n"
                        "triangles 1\n0 1 2\n")
        assert main(["mesh-info", "--mesh-file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("configuration error: isolated vertex: "
                                "zero dual measure\n")
        assert captured.out == ""

    def test_mesh_info_non_finite_vertex_exit_1(self, tmp_path, capsys):
        path = tmp_path / "nan.mesh"
        path.write_text("vertices 3\n0 0\n1 0\nnan 1\ntriangles 1\n0 1 2\n")
        assert main(["mesh-info", "--mesh-file", str(path)]) == 1
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert "area" not in captured.out

    def test_run_solver_failure_exit_2(self, tmp_path, capsys, monkeypatch):
        def fail(self, J, b, theta):
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

    def test_quality_cg_failure_exit_2(self, tmp_path, capsys, monkeypatch):
        # one CG iteration cannot solve the consistency system
        monkeypatch.setattr(linalg, "CG_MAX_ITER", 1)
        assert main(["quality", "--scheme", "b", "--levels", "1",
                     "--base", "4", "--out-dir", str(tmp_path)]) == 2
        assert "CG did not converge" in capsys.readouterr().err
