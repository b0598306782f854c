"""Tests of the benchmark itself: a tiny-size smoke run of every workload,
the correctness gate on corrupted results, the trace hooks, and the
command line.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q benchmark/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from gdflow import assembly, io_cli, sim  # noqa: E402
from gdflow.gd import scheme_b  # noqa: E402
from gdflow.mesh import build_dual, build_structured_triangulation  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the four workloads at toy sizes; references recorded like the full ones
TINY = {
    "radial-p1": W.coupled(
        test="analytic1", scheme="b", reps=4, dt=0.02, variant="centred",
        t_final=4 * 0.02,
        reference={"l1": 4.442911195e-2, "l2": 1.249813462e-1}),
    "fivespot-vtk": W.coupled(
        test="lit2", scheme="b", reps=4, dt=18.0, t_final=10 * 18.0,
        snapshot_every=5),
    "quality-seq": W.QualitySequence(levels=(("a", (4, 8, 16)),
                                             ("b", (4, 8)))),
}


def bench(capsys, workload, trace, seconds=0.2):
    result = run.main(["--workload", workload, "--seed", "3",
                       "--seconds", str(seconds), "--trace", str(trace)],
                      root=ROOT, workloads=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1]) == result
    return result, json.loads(lines[-2])


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY)


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_unit(capsys, workload, trace):
    result, info = bench(capsys, workload, trace)
    assert result["correct"], info["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    assert info["env"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    scratch = [p for p in (ROOT / ".bench_out").glob(f"{workload}-*")
               if p.is_dir()]
    assert scratch == []


def test_traced_layers_account_for_solve_time(capsys):
    result, info = bench(capsys, "fivespot-vtk", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["trace.accounted_s"] == pytest.approx(m["trace.solve_s"],
                                                   rel=1e-9)
    assert m["trace.absent_targets"] == 0 and info["absent_targets"] == []
    # pure Neumann: no elimination, one pressure solve per step
    assert m["assembly.eliminate_dirichlet_calls"] == 0
    assert m["linalg.pressure_solve_calls"] == 10
    assert m["linalg.transport_solve_calls"] == m["sim.picard_iters_total"]
    assert m["linalg.factorizations"] >= 1 and m["linalg.lu_fill_nnz"] > 0
    assert m["io_cli.write_vtk_s"] > 0 and m["io_cli.vtk_bytes"] > 0


def test_radial_counts_match_picard_iterations(capsys):
    result, _ = bench(capsys, "radial-p1", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["linalg.pressure_solve_calls"] == 1   # M = 1: solved once
    assert m["linalg.transport_solve_calls"] == m["sim.picard_iters_total"]
    assert m["assembly.eliminate_dirichlet_calls"] == m[
        "sim.picard_iters_total"]


def run_once(name):
    wl = TINY[name]
    out_dir = ROOT / ".bench_out" / f"test-{name}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    outcome = wl.run(wl.setup(0), 0, out_dir, lambda: None)
    assert wl.check(outcome) == []
    return wl, outcome, out_dir


@pytest.mark.parametrize("name", ["radial-p1", "fivespot-vtk"])
def test_gate_rejects_nan_concentration(name):
    wl, outcome, out_dir = run_once(name)
    outcome["state"].c = outcome["state"].c.copy()
    outcome["state"].c[3] = np.nan
    assert any("non-finite" in f for f in wl.check(outcome))
    shutil.rmtree(out_dir)


def test_gate_rejects_wrong_error_norm():
    wl, outcome, out_dir = run_once("radial-p1")
    outcome["report"].l1 *= 1.01
    assert any(f.startswith("L1=") for f in wl.check(outcome))
    shutil.rmtree(out_dir)


def test_gate_rejects_too_many_picard_iterations():
    wl, outcome, out_dir = run_once("radial-p1")
    outcome["report"].diagnostics[0]["picard_iters"] = W.PICARD_MAX + 1
    assert any("Picard" in f for f in wl.check(outcome))
    shutil.rmtree(out_dir)


def test_gate_rejects_mis_sized_and_truncated_vtk():
    wl, outcome, out_dir = run_once("fivespot-vtk")
    vtk = out_dir / "fields_5.vtk"
    coarse = build_structured_triangulation(2, 1000.0)
    gd = scheme_b(coarse, build_dual(coarse))
    io_cli.write_vtk(gd, {"c": np.zeros(gd.ndof)}, vtk)  # a valid file
    assert any("cells for" in f for f in wl.check(outcome))
    lines = (out_dir / "fields_10.vtk").read_text().splitlines()
    (out_dir / "fields_10.vtk").write_text("\n".join(lines[:-20]) + "\n")
    assert any("invalid VTK fields_10" in f for f in wl.check(outcome))
    shutil.rmtree(out_dir)


def test_gate_rejects_neumann_mass_defect():
    wl, outcome, out_dir = run_once("fivespot-vtk")
    outcome["report"].diagnostics[4]["mass_residual"] = 1e-6
    assert any("mass residual" in f for f in wl.check(outcome))
    shutil.rmtree(out_dir)


def test_gate_rejects_quality_not_decreasing():
    wl = TINY["quality-seq"]
    outcome = wl.run(wl.setup(0), 0, None, lambda: None)
    assert wl.check(outcome) == []
    rows = outcome["rows"]
    rows[1] = rows[1][:2] + (rows[0][2],) + rows[1][3:]
    assert any("S_D not strictly decreasing" in f for f in wl.check(outcome))
    rows[0] = rows[0][:1] + (float("nan"),) + rows[0][2:]
    assert any("non-finite" in f for f in wl.check(outcome))


def test_failing_repetition_is_counted(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise assembly.PicardError("forced", [1.0])
    monkeypatch.setattr(sim.assembly, "transport_step", broken)
    result, info = bench(capsys, "radial-p1", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "PicardError" in info["failures"][0]


def test_tracer_reports_missing_targets_and_restores():
    original = assembly.transport_step
    targets = tracing.TARGETS + (
        ("gdflow.linalg", "NoSuchSolver.solve", "linalg"),
        ("gdflow.linalg", "no_such_function", "linalg"),
        ("gdflow.no_such_module", "f", "linalg"),
    )
    with tracing.traced(targets) as tracer:
        assert assembly.transport_step is not original
        assert sim.assembly.transport_step is not original
    assert tracer.absent == ["gdflow.linalg.NoSuchSolver.solve",
                             "gdflow.linalg.no_such_function",
                             "gdflow.no_such_module.f"]
    assert assembly.transport_step is original


def test_tracer_counts_krylov_iterations_and_keeps_callbacks():
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    A = sp.diags([np.arange(1.0, 51.0)], [0], format="csr")
    b = np.ones(50)
    seen = []
    with tracing.traced() as tracer:
        with tracer.span("bench.rep", "bench"):
            spla.cg(A, b, rtol=1e-12, callback=seen.append)
            lu = spla.splu(A.tocsc())
            x = lu.solve(b)
    m = tracing.summarize(tracer.spans)
    assert m["linalg.krylov_iters"] == len(seen) > 0
    assert m["linalg.factorizations"] == 1
    assert m["linalg.lu_fill_nnz"] == lu.nnz
    np.testing.assert_allclose(x, b / np.arange(1.0, 51.0))


def cli(args, cwd):
    return subprocess.run([sys.executable, "benchmark/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_cli_end_to_end_on_quality_seq():
    proc = cli(["--workload", "quality-seq", "--seed", "5",
                "--seconds", "1", "--trace", "0"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = cli(["--workload", "quality-seq", "--seed", "1",
                "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
