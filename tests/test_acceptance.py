"""End-to-end acceptance suite.

Each test covers one numbered criterion and finishes by printing a single
PASS line with the measured numbers.  Coupled runs are cached so that later
criteria (Picard bounds, work counts) can inspect every run performed here.
"""

import math

import numpy as np
import scipy.linalg

from gdflow.gd import scheme_a
from gdflow.io_cli import write_error_rows
from gdflow.mesh import build_cartesian
from gdflow.physics import psi
from gdflow.quality import (
    coercivity_constant,
    consistency_defect,
    default_test_field,
    default_test_function,
    limit_conformity_defect,
    quality_report,
)
from gdflow.sim import STUDIES, RunConfig, error_row, run_coupled

from oracles import psi_direct

_RUNS = {}


def run_cached(config):
    if config not in _RUNS:
        _RUNS[config] = run_coupled(config)
    return _RUNS[config]


def column(study, scheme, variant):
    """The column of ``study`` that runs ``scheme`` with ``variant``."""
    found, = (c for c in STUDIES[study]
              if (c[0].scheme, c[0].variant) == (scheme, variant))
    return found


def within(value, target, rel):
    return abs(value - target) <= rel * target


# the paper's errors at the (mesh, dt) levels of sim.STUDIES
TA1_A = column("ta1", "a", "centred")
TA1_B = column("ta1", "b", "centred")
TA2A_CENTRED = column("ta2a", "a", "centred")
TA2A_DH = column("ta2a", "a", "dh")

TA1_A_TARGETS = [  # (L1, L2) per level of TA1_A
    (2.38e-2, 3.23e-2),
    (6.69e-3, 9.10e-3),
    (1.73e-3, 2.36e-3),
]

TA1_B_TARGETS = [  # (L1, L2) per level of TA1_B
    (2.39e-2, 3.20e-2),
    (6.70e-3, 9.04e-3),
    (1.73e-3, 2.38e-3),
]

TA2A_DH_TARGETS = [1.51e-1, 1.11e-1, 7.80e-2]  # L1 per level of TA2A_DH


def test_criterion_01_table1_scheme_a():
    results = []
    assert len(TA1_A_TARGETS) == len(TA1_A)
    for config, (l1_t, l2_t) in zip(TA1_A, TA1_A_TARGETS):
        n = config.n
        _, rep = run_cached(config)
        assert within(rep.l1, l1_t, 0.15), (n, rep.l1, l1_t)
        assert within(rep.l2, l2_t, 0.15), (n, rep.l2, l2_t)
        results.append((n, rep.l1, rep.l2))
    print("criterion 1 PASS: Table 1 scheme A within 15% -- "
          + ", ".join(f"{n}x{n}: L1={l1:.3e} L2={l2:.3e}"
                      for n, l1, l2 in results))


def test_criterion_02_table1_scheme_b():
    l1s = []
    results = []
    assert len(TA1_B_TARGETS) == len(TA1_B)
    for config, (l1_t, l2_t) in zip(TA1_B, TA1_B_TARGETS):
        reps = config.reps
        _, rep = run_cached(config)
        assert within(rep.l1, l1_t, 0.20), (reps, rep.l1, l1_t)
        assert within(rep.l2, l2_t, 0.20), (reps, rep.l2, l2_t)
        l1s.append(rep.l1)
        results.append((reps, rep.l1, rep.l2))
    ratios = [l1s[i] / l1s[i + 1] for i in range(2)]
    for r in ratios:
        assert 3.0 <= r <= 4.6, ratios
    print("criterion 2 PASS: Table 1 scheme B within 20%, L1 ratios "
          f"{ratios[0]:.2f}, {ratios[1]:.2f} in [3.0, 4.6] -- "
          + ", ".join(f"tri{m}: L1={l1:.3e} L2={l2:.3e}"
                      for m, l1, l2 in results))


def test_criterion_03_table2_dh_and_centred():
    dh_l1 = []
    assert len(TA2A_DH_TARGETS) == len(TA2A_DH)
    for config, l1_t in zip(TA2A_DH, TA2A_DH_TARGETS):
        _, rep = run_cached(config)
        assert within(rep.l1, l1_t, 0.25), (config.n, rep.l1, l1_t)
        dh_l1.append(rep.l1)
    assert dh_l1[0] > dh_l1[1] > dh_l1[2], dh_l1
    centred_l1 = []
    for config in TA2A_CENTRED:
        _, rep = run_cached(config)
        centred_l1.append(rep.l1)
    assert centred_l1[0] <= centred_l1[1] <= centred_l1[2], centred_l1
    print("criterion 3 PASS: Table 2 stabilised variant decreasing "
          f"({dh_l1[0]:.3e} > {dh_l1[1]:.3e} > {dh_l1[2]:.3e}, within 25%), "
          f"centred non-decreasing ({centred_l1[0]:.3e} -> "
          f"{centred_l1[1]:.3e} -> {centred_l1[2]:.3e})")


def test_criterion_04_psi_recurrence_vs_oracle():
    z = np.linspace(0.0, 50.0, 500)
    worst = 0.0
    for N in (0, 1, 9, 99, 499):
        diff = np.max(np.abs(psi(z, N) - psi_direct(z, N)))
        worst = max(worst, diff)
        assert diff <= 1e-12, (N, diff)
    print(f"criterion 4 PASS: psi recurrence matches the partial-sum oracle, "
          f"max |difference| = {worst:.2e} <= 1e-12")


LIT1 = RunConfig(test="lit1", scheme="a", n=50, dt=18.0)
LIT2 = RunConfig(test="lit2", scheme="a", n=50, dt=18.0)


def test_criterion_05_mass_balance_lit1():
    _, rep = run_cached(LIT1)
    residuals = [row["mass_residual"] for row in rep.diagnostics]
    assert len(residuals) == 60
    assert max(residuals) <= 1e-8, max(residuals)
    print(f"criterion 5 PASS: lit test 1 per-step mass-balance residual, "
          f"max = {max(residuals):.2e} <= 1e-8 over 60 steps")


def test_criterion_06_pressure_mean_neumann():
    worst = 0.0
    for config in (LIT1, LIT2):
        _, rep = run_cached(config)
        for row in rep.diagnostics:
            rel = abs(row["pressure_mean"]) / row["pressure_rhs_norm"]
            worst = max(worst, rel)
            assert rel <= 1e-8, (config, row["step"], rel)
    print(f"criterion 6 PASS: |mean of reconstructed pressure| <= 1e-8 * "
          f"||rhs|| at every Neumann step (worst ratio {worst:.2e})")


def test_criterion_07_constant_fixed_point():
    cfg = RunConfig(test="lit1", scheme="a", n=50, dt=18.0, t_final=180.0)
    state, rep = run_coupled(cfg, c0=lambda p: np.ones(len(p)))
    assert len(rep.diagnostics) == 10
    drift = float(np.max(np.abs(state.c - 1.0)))
    assert drift <= 1e-10, drift
    print(f"criterion 7 PASS: c == 1 preserved over 10 lit-1 steps, "
          f"max drift {drift:.2e} <= 1e-10")


def test_criterion_08_quality_indicators():
    reports = {n: quality_report(scheme_a(build_cartesian(n, 1.0)))
               for n in (8, 16, 32)}
    cds = [reports[n].coercivity for n in (8, 16, 32)]
    spread = (max(cds) - min(cds)) / min(cds)
    assert spread <= 0.05, cds
    sds = [reports[n].consistency for n in (8, 16, 32)]
    wds = [reports[n].limit_conformity for n in (8, 16, 32)]
    assert sds[0] > sds[1] > sds[2], sds
    assert wds[0] > wds[1] > wds[2], wds

    # dense oracles on the 3x3 grid
    gd = scheme_a(build_cartesian(3, 1.0))
    P = np.diag(gd.recon_measures)
    m = gd.recon_measures
    H = gd.grad_gram().toarray() + np.outer(m, m)
    lam = scipy.linalg.eigh(P, H, eigvals_only=True)[-1]
    cd_err = abs(coercivity_constant(gd) - np.sqrt(lam))
    assert cd_err <= 1e-6, cd_err

    f, grad_f = default_test_function()
    rq, gq = gd.recon_quad, gd.grad_quad
    fv, gv = f(rq.points), grad_f(gq.points)

    def cell_int(quad, vals, n_cells):
        out = np.zeros(n_cells)
        np.add.at(out, quad.cells, quad.weights * vals)
        return out

    Gx, Gy = gd.grad_x.toarray(), gd.grad_y.toarray()
    rhs_pi = cell_int(rq, fv, gd.ndof)
    rhs_gx = Gx.T @ cell_int(gq, gv[:, 0], gd.n_grad_cells)
    rhs_gy = Gy.T @ cell_int(gq, gv[:, 1], gd.n_grad_cells)
    w = np.linalg.solve(P + gd.grad_gram().toarray(),
                        rhs_pi + rhs_gx + rhs_gy)
    gw = np.column_stack([Gx @ w, Gy @ w])
    err_pi = (gd.recon_measures @ w ** 2 - 2 * w @ rhs_pi
              + rq.weights @ fv ** 2)
    err_g = (gd.grad_measures @ (gw ** 2).sum(axis=1)
             - 2 * w @ (rhs_gx + rhs_gy)
             + gq.weights @ (gv ** 2).sum(axis=1))
    sd_oracle = np.sqrt(max(err_pi, 0.0)) + np.sqrt(max(err_g, 0.0))
    sd_err = abs(consistency_defect(gd, f, grad_f) - sd_oracle)
    assert sd_err <= 1e-6, sd_err

    phi, div_phi = default_test_field()
    pv = phi(gq.points)
    ell = (Gx.T @ cell_int(gq, pv[:, 0], gd.n_grad_cells)
           + Gy.T @ cell_int(gq, pv[:, 1], gd.n_grad_cells)
           + cell_int(rq, div_phi(rq.points), gd.ndof))
    wd_oracle = np.sqrt(ell @ np.linalg.solve(H, ell))
    wd_err = abs(limit_conformity_defect(gd, phi, div_phi) - wd_oracle)
    assert wd_err <= 1e-6, wd_err

    print(f"criterion 8 PASS: C_D spread {spread:.2%} <= 5% "
          f"({cds[0]:.4f}, {cds[1]:.4f}, {cds[2]:.4f}); S_D and W_D strictly "
          f"decreasing; 3x3 oracle gaps C_D={cd_err:.1e} S_D={sd_err:.1e} "
          f"W_D={wd_err:.1e} <= 1e-6")


PICARD_RELATIVE_MAX = 1e-8  # ten times the Picard tolerance


def test_criterion_09_picard_and_solver_residuals():
    assert _RUNS, "earlier criteria populate the run registry"
    worst_picard = 0
    worst_rel = 0.0
    for (key, (_, rep)) in _RUNS.items():
        for row in rep.diagnostics:
            worst_picard = max(worst_picard, row["picard_iters"])
            worst_rel = max(worst_rel, row["picard_relative"])
            assert row["picard_iters"] <= 30, (key, row)
            assert row["picard_relative"] <= PICARD_RELATIVE_MAX, (key, row)
    print(f"criterion 9 PASS: Picard converged on all {len(_RUNS)} acceptance "
          f"runs, max iterations {worst_picard} <= 30, max relative nonlinear "
          f"residual {worst_rel:.2e} <= {PICARD_RELATIVE_MAX:.0e}")


def test_criterion_10_determinism(tmp_path):
    files = []
    for tag in ("first", "second"):
        config = RunConfig(test="analytic1", scheme="a", n=25, dt=0.02)
        _, rep = run_coupled(config)
        path = tmp_path / f"errors_{tag}.csv"
        write_error_rows(path, [error_row(config, rep)])
        files.append(path.read_bytes())
    assert files[0] == files[1]
    print("criterion 10 PASS: repeated 25x25 run produced a bit-identical "
          "errors.csv")


BOUNDED_SLACK = 1e-9       # dh keeps c in [0, 1] up to rounding
CENTRED_EXCURSION = 0.05   # by how much centred leaves [0, 1] when refined


def c_range(rep):
    return (min(row["cmin"] for row in rep.diagnostics),
            max(row["cmax"] for row in rep.diagnostics))


def test_criterion_11_boundedness():
    """The stabilised variant keeps c in [0, 1] on every step of criterion
    3's Table 2 A runs; the centred one leaves it at n = 50 and 100 (at
    n = 25 it overshoots by about 1%, which is not gated)."""
    dh = []
    for config in TA2A_DH:
        _, rep = run_cached(config)
        for row in rep.diagnostics:
            assert -BOUNDED_SLACK <= row["cmin"], (config.n, row)
            assert row["cmax"] <= 1.0 + BOUNDED_SLACK, (config.n, row)
        dh.append(c_range(rep))
    centred = []
    for config in TA2A_CENTRED:
        n = config.n
        if n < 50:
            continue
        _, rep = run_cached(config)
        cmin, cmax = c_range(rep)
        assert max(-cmin, cmax - 1.0) > CENTRED_EXCURSION, (n, cmin, cmax)
        centred.append((n, cmin, cmax))
    print(f"criterion 11 PASS: dh c in [{min(lo for lo, _ in dh):.2e}, "
          f"1 + {max(hi for _, hi in dh) - 1.0:.2e}] on every step, within "
          f"{BOUNDED_SLACK:.0e} of [0, 1]; centred leaves [0, 1] by more "
          f"than {CENTRED_EXCURSION} -- "
          + ", ".join(f"{n}x{n}: c in [{lo:.3f}, {hi:.3f}]"
                      for n, lo, hi in centred))


# (transport LUs, Picard iterations, backtracks) totalled over each run that
# criteria 1-3, 5, 6 and 11 make, as measured; counts are deterministic on
# one platform (criterion 10), so a change that adds solver work shows here
# whatever the host's timing noise
WORK_MEASURED = {
    **dict(zip(TA1_A, [(2, 41, 0), (5, 141, 0), (13, 383, 0)])),
    **dict(zip(TA1_B, [(3, 42, 0), (8, 157, 0), (25, 424, 0)])),
    **dict(zip(TA2A_DH, [(20, 20, 0), (40, 40, 0), (80, 80, 0)])),
    **dict(zip(TA2A_CENTRED, [(20, 64, 0), (49, 103, 0), (122, 169, 3)])),
    LIT1: (3, 101, 0),
    LIT2: (60, 129, 1),
}
# rounding has flipped a clamp flag and moved an LU count by 1-2, and such
# a flip can cost a Picard iteration or a halving: the slack on each
# total is 5% of the measured count, and at least 2
WORK_NAMES = ("factorizations", "picard_iters", "backtracks")


def work_bound(count):
    return count + max(2, math.ceil(count / 20))


def test_criterion_12_work_counts():
    for config in WORK_MEASURED:
        run_cached(config)
    assert set(_RUNS) == set(WORK_MEASURED), set(_RUNS) ^ set(WORK_MEASURED)
    tightest = []
    for config, measured in WORK_MEASURED.items():
        _, rep = _RUNS[config]
        totals = [sum(row[k] for row in rep.diagnostics) for k in WORK_NAMES]
        for name, total, count in zip(WORK_NAMES, totals, measured):
            assert total <= work_bound(count), (config, name, total, count)
        tightest.append(min(work_bound(c) - t
                            for t, c in zip(totals, measured)))
    print(f"criterion 12 PASS: transport LUs, Picard iterations and "
          f"backtracks within their bounds (measured + max(2, 5%)) on all "
          f"{len(WORK_MEASURED)} acceptance runs, least headroom "
          f"{min(tightest)}")
