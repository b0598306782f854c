"""gdflow benchmark: one workload per invocation, timed, checked, and
printed as one JSON line.

    python3 benchmark/run.py --workload radial-p1 --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout; it imports gdflow from ``src/``
there and nowhere else.  With ``--trace 0`` it prints the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` the per-layer metrics (the
untraced repetitions alternate with the traced ones, to measure the
tracing overhead).
The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment and run details.  Scratch output goes to
``.bench_out/`` in the checkout.  See benchmark/README.md.
"""

import os

# one BLAS thread, fixed before NumPy loads the library
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (the benchmark's own; imports no gdflow code)

SETUP_REPEATS = 7         # at least this many set-ups ...
SETUP_SECONDS = 1.0       # ... and at least this long, for a steady median
TRACED_SETUPS = 3
MIN_STEP_SAMPLES = 100    # p90 with at least ten samples beyond it
OVERRUN = 1.5             # give up on MIN_STEP_SAMPLES past this x --seconds


def import_program(root):
    """Import gdflow from ``root/src`` only, never from an installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import gdflow
    except ImportError as exc:
        raise SystemExit(f"cannot import gdflow from {src}: {exc}")
    if Path(gdflow.__file__).resolve().parent != src / "gdflow":
        raise SystemExit(f"gdflow imported from {gdflow.__file__}, "
                         f"not from {src}")


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def run_reps(workload, state, seed, budget, out_dir, tracer=None,
             min_samples=0):
    """Repeat the workload until ``budget`` seconds have passed (and, when
    asked, until ``min_samples`` step times are pooled)."""
    reps = []
    samples = 0
    start = time.perf_counter()
    while True:
        stamps = []
        rec = {"ok": False}
        span = (tracer.span(tracing.REP_ROOT, "bench") if tracer
                else contextlib.nullcontext())
        t0 = time.perf_counter()
        try:
            with span:
                outcome = workload.run(
                    state, seed, out_dir,
                    lambda: stamps.append(time.perf_counter()))
            rec["solve_s"] = time.perf_counter() - t0
        except Exception:  # a failing repetition is counted, not fatal
            rec["error"] = traceback.format_exc(limit=3)
        if "solve_s" in rec:
            failures = workload.check(outcome)
            rec["ok"] = not failures
            rec["failures"] = failures
            rec["steps"] = [b - a for a, b in zip([t0] + stamps, stamps)]
            report = outcome.get("report")
            rec["picard"] = [d["picard_iters"] for d in
                             getattr(report, "diagnostics", ())]
            if report is not None:
                rec["l1_l2"] = [v if math.isfinite(v) else None
                                for v in (report.l1, report.l2)]
            rec["bytes"] = sum(f.stat().st_size
                               for f in outcome.get("files", ()))
            if rec["ok"]:
                samples += len(rec["steps"])
            del outcome
        # start every repetition from a collected heap, so that the peak
        # memory depends less on how many set-ups or repetitions ran
        gc.collect()
        reps.append(rec)
        elapsed = time.perf_counter() - start
        if elapsed >= budget and (samples >= min_samples
                                  or elapsed >= OVERRUN * budget):
            return reps


def quantile(values, q):
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (pos - lo) * (values[hi] - values[lo])


def end_to_end(reps, setup_times, work):
    ok = [r for r in reps if r["ok"]]
    if not ok:
        return {}
    steps = [s for r in ok for s in r["steps"]]
    solve = statistics.median(r["solve_s"] for r in ok)
    return {
        "solve_s": solve,
        "setup_s": statistics.median(setup_times),
        "step_p50_ms": 1e3 * quantile(steps, 0.5),
        "step_p90_ms": 1e3 * quantile(steps, 0.9),
        "dof_steps_per_s": work / solve,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(untraced, traced, tracer):
    metrics = tracing.summarize(tracer.spans)
    ok = [r for r in traced if r["ok"]] or traced
    picard = [p for r in ok for p in r.get("picard", ())]
    metrics["sim.picard_iters_total"] = sum(picard) / len(ok)
    metrics["sim.picard_iters_max"] = max(picard, default=0)
    metrics["io_cli.vtk_bytes"] = statistics.mean(
        r.get("bytes", 0) for r in ok)
    plain = [r["solve_s"] for r in untraced if "solve_s" in r]
    metrics["trace.untraced_solve_s"] = statistics.mean(plain) if plain \
        else 0.0
    metrics["trace.overhead_ratio"] = (
        metrics["trace.solve_s"] / metrics["trace.untraced_solve_s"]
        if plain else 0.0)
    metrics["trace.absent_targets"] = len(tracer.absent)
    return metrics


def timed_setups(workload, seed, count, tracer=None, seconds=0.0):
    times = []
    while len(times) < count or sum(times) < seconds:
        span = (tracer.span(tracing.SETUP_ROOT, "bench") if tracer
                else contextlib.nullcontext())
        t0 = time.perf_counter()
        with span:
            state = workload.setup(seed)
        times.append(time.perf_counter() - t0)
    gc.collect()
    return state, times


def traced_run(workload, seed, seconds, out_dir):
    """Alternate untraced and traced repetitions until ``seconds`` have
    passed, in ABBA order so that drift and warm-up fall on both sides.
    The hooks are installed only around the traced set-ups and
    repetitions."""
    tracer = tracing.Tracer()
    with tracing.traced(tracer=tracer):
        state, _ = timed_setups(workload, seed, TRACED_SETUPS, tracer)
    untraced, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for hooked in order:
            if hooked:
                with tracing.traced(tracer=tracer):
                    traced += run_reps(workload, state, seed, 0, out_dir,
                                       tracer)
            else:
                untraced += run_reps(workload, state, seed, 0, out_dir)
    return untraced, traced, tracer


def main(argv=None, root=None, workloads=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd() if root is None else Path(root)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    import_program(root)
    if workloads is None:
        from workloads import WORKLOADS as workloads
    if args.workload not in workloads:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads)}")
    workload = workloads[args.workload]
    out_dir = root / ".bench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            untraced, traced, tracer = traced_run(workload, args.seed,
                                                  args.seconds, out_dir)
            reps = untraced + traced
            metrics = per_layer(untraced, traced, tracer)
            wanted = spec["per_layer"]
            trace_file = out_dir.parent / (
                f"trace-{args.workload}-seed{args.seed}.json")
            trace_file.write_text(json.dumps(
                {"absent": tracer.absent, "spans": tracer.spans}))
            extra = {"absent_targets": tracer.absent,
                     "trace_file": str(trace_file.relative_to(root))}
        else:
            state, setup_times = timed_setups(workload, args.seed,
                                              SETUP_REPEATS,
                                              seconds=SETUP_SECONDS)
            reps = run_reps(workload, state, args.seed, args.seconds,
                            out_dir, min_samples=MIN_STEP_SAMPLES)
            metrics = end_to_end(reps, setup_times,
                                 workload.work_units(state))
            wanted = spec["end_to_end"]
            extra = {"setups": len(setup_times)}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = [r for r in reps if not r["ok"]]
    ok = [r for r in reps if r["ok"]]
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": environment(),
        "reps": len(reps), "step_samples": sum(len(r["steps"]) for r in ok),
        "solve_s_each": [round(r["solve_s"], 4) for r in ok],
        "l1_l2": ok[-1].get("l1_l2") if ok else None,
        "failures": [r.get("failures") or r.get("error")
                     for r in failed[:3]],
        **extra,
    }
    print(json.dumps(info))
    correct = bool(ok) and not failed
    result = {
        "correct": correct,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
