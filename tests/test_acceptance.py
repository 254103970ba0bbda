"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (visible with `pytest -s` or
`pytest -rA`); run the whole module with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np

from oracles import weight_index
from rpnn_ode import (
    SeededRng,
    SegmentSolution,
    SolverConfig,
    StepControl,
    TruncationRule,
    assemble_jacobian,
    assemble_residual,
    dense_eval,
    dp45_solve,
    effective_rank,
    eval_solution,
    make_benchmark,
    make_grid,
    sample_basis,
    sdirk_solve,
    solve_adaptive,
    truncated_pinv_solve,
)

SEED = 0


def report(criterion, ok, detail):
    print(f"\nacceptance {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{criterion}: {detail}"


def timed_solve(problem, config):
    start = time.perf_counter()
    sol = solve_adaptive(problem, config)
    return sol, time.perf_counter() - start


def test_criterion_1_prothero_robinson():
    pr = make_benchmark("prothero_robinson", lam=-1e5)
    grid = np.linspace(0.0, 2.0 * math.pi, 3000)

    sol3, t3 = timed_solve(pr, SolverConfig(tol=1e-3, seed=SEED))
    linf3 = np.abs(eval_solution(sol3, grid)[:, 0] - np.sin(grid)).max()

    sol6, t6 = timed_solve(pr, SolverConfig(tol=1e-6, seed=SEED))
    linf6 = np.abs(eval_solution(sol6, grid)[:, 0] - np.sin(grid)).max()

    ok = (linf3 <= 1e-5 and linf6 <= 1e-6 and sol3.total_points <= 80
          and sol3.n_segments >= 1 and t3 < 5.0 and t6 < 5.0)
    report("criterion 1 (Prothero-Robinson)", ok,
           f"Linf(tol 1e-3)={linf3:.2e} (<=1e-5), Linf(tol 1e-6)={linf6:.2e} (<=1e-6), "
           f"points={sol3.total_points} (<=80), solve times {t3:.2f}/{t6:.2f}s (<5s)")


def test_criterion_2_van_der_pol_100(reference_cache):
    vdp = make_benchmark("van_der_pol", mu=100)
    sol, elapsed = timed_solve(vdp, SolverConfig(tol=1e-6, seed=SEED))
    ref = reference_cache("van_der_pol", mu=100.0)
    grid = np.linspace(0.0, 300.0, 60000)
    mae_y1 = np.abs(eval_solution(sol, grid)[:, 0] - dense_eval(ref, grid)[:, 0]).mean()
    ok = mae_y1 <= 1e-5 and elapsed < 60.0
    report("criterion 2 (van der Pol mu=100)", ok,
           f"MAE(y1)={mae_y1:.2e} (<=1e-5), solve time {elapsed:.2f}s (<60s)")


def test_criterion_3_van_der_pol_1000():
    vdp = make_benchmark("van_der_pol", mu=1000)
    sol, elapsed = timed_solve(vdp, SolverConfig(tol=1e-3, seed=SEED))
    ok = 1300 <= sol.total_points <= 12000 and elapsed < 120.0
    report("criterion 3 (van der Pol mu=1000)", ok,
           f"collocation points={sol.total_points} (in [1300, 12000]), "
           f"solve time {elapsed:.2f}s (<120s)")


def test_criterion_4_rober(reference_cache):
    rob = make_benchmark("rober")
    sol, elapsed = timed_solve(rob, SolverConfig(tol=1e-6, seed=SEED))
    ref = reference_cache("rober")
    grid = np.linspace(0.0, 40.0, 20000)
    values = eval_solution(sol, grid)
    mae = np.abs(values - dense_eval(ref, grid)).mean(axis=0)
    conservation = np.abs(values.sum(axis=1) - 1.0).max()
    ok = np.all(mae <= 1e-7) and conservation <= 1e-6 and elapsed < 30.0
    report("criterion 4 (ROBER)", ok,
           f"MAE={[f'{v:.1e}' for v in mae]} (each <=1e-7), "
           f"conservation={conservation:.2e} (<=1e-6), solve time {elapsed:.2f}s (<30s)")


def test_criterion_5_hires(reference_cache):
    hires = make_benchmark("hires")
    sol, elapsed = timed_solve(hires, SolverConfig(tol=1e-3, seed=SEED))
    ref = reference_cache("hires")
    grid = np.linspace(0.0, 321.8122, 150000)
    linf = np.abs(eval_solution(sol, grid) - dense_eval(ref, grid)).max(axis=0)
    ok = np.all(linf <= 1e-4) and elapsed < 60.0
    report("criterion 5 (HIRES)", ok,
           f"max Linf={linf.max():.2e} (each <=1e-4), solve time {elapsed:.2f}s (<60s)")


def test_criterion_6a_jacobian_vs_finite_differences():
    configs = []
    for name, params in (("prothero_robinson", {"lam": -1e5}), ("van_der_pol", {"mu": 10.0}),
                         ("rober", {}), ("hires", {})):
        configs += [(name, params, trial) for trial in range(5)]
    assert len(configs) == 20
    worst = 0.0
    for name, params, trial in configs:
        problem = make_benchmark(name, **params)
        rng = SeededRng(1000 + 17 * trial)
        h, n = 10, 5
        span = 0.01 * (problem.x_end - problem.x0)
        basis = sample_basis(problem.x0, span, h, problem.m, rng)
        weights = rng.uniform(-0.2, 0.2, size=(h, problem.m))
        seg = SegmentSolution(basis=basis, alpha=problem.alpha.copy(), weights=weights,
                              x_stop=problem.x0 + span)
        grid = make_grid(problem.x0, span, n)
        jac = assemble_jacobian(problem, seg, grid)
        jac_fd = np.empty_like(jac)
        delta = 1e-5
        for k in range(problem.m):
            for j in range(h):
                seg.weights[j, k] += delta
                fp = assemble_residual(problem, seg, grid)
                seg.weights[j, k] -= 2 * delta
                fm = assemble_residual(problem, seg, grid)
                seg.weights[j, k] += delta
                jac_fd[:, weight_index(j, k, h)] = (fp - fm) / (2 * delta)
        rel = np.abs(jac - jac_fd).max() / max(np.abs(jac).max(), 1.0)
        worst = max(worst, rel)
    report("criterion 6a (Jacobian vs finite differences)", worst <= 1e-6,
           f"worst relative error over 20 configurations = {worst:.2e} (<=1e-6)")


def test_criterion_6b_continuity_at_knots():
    from rpnn_ode import trial_eval

    worst_cases = 0
    for name, params, tol in (("rober", {}, 1e-6), ("van_der_pol", {"mu": 10.0}, 1e-3),
                              ("hires", {}, 1e-3)):
        problem = make_benchmark(name, **params)
        sol = solve_adaptive(problem, SolverConfig(tol=tol, seed=SEED))
        for left, right in zip(sol.segments[:-1], sol.segments[1:]):
            if np.any(trial_eval(left, left.x_stop) != trial_eval(right, right.x_start)):
                worst_cases += 1
    report("criterion 6b (C0 continuity at knots)", worst_cases == 0,
           f"{worst_cases} discontinuous knots across three solves (exact equality required)")


def test_criterion_6c_determinism():
    identical = True
    for name, params, tol in (("prothero_robinson", {"lam": -1e5}, 1e-6),
                              ("rober", {}, 1e-3)):
        problem = make_benchmark(name, **params)
        a = solve_adaptive(problem, SolverConfig(tol=tol, seed=42))
        b = solve_adaptive(problem, SolverConfig(tol=tol, seed=42))
        identical &= a.n_segments == b.n_segments
        identical &= all(np.all(sa.weights == sb.weights)
                         and np.all(sa.basis.biases == sb.basis.biases)
                         and sa.x_stop == sb.x_stop
                         for sa, sb in zip(a.segments, b.segments))
    report("criterion 6c (bitwise determinism under fixed seed)", identical,
           "two solves with the same seed produce bitwise-identical solutions")


def test_criterion_6d_truncated_pseudoinverse_properties():
    rng = np.random.default_rng(99)
    ok = True
    details = []
    # minimum-norm property on a constructed rank-deficient matrix
    u, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    v, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    s = np.array([3.0, 1.0, 0.2, 1e-8, 1e-11, 0.0, 0.0, 0.0])
    a = u @ np.diag(s) @ v[:, :8].T
    rule = TruncationRule("relative", 1e-6)
    rank = effective_rank(a, rule)
    ok &= rank == 3
    details.append(f"rank(diag {s[:5]}...)={rank} (expect 3)")
    b = rng.normal(size=8)
    x = truncated_pinv_solve(a, b, rule)
    null_overlap = max(abs(x @ v[:, col]) for col in range(3, 12))
    ok &= null_overlap <= 1e-10
    details.append(f"null-space overlap={null_overlap:.1e} (<=1e-10)")
    # truncation: tiny singular value discarded
    x2 = truncated_pinv_solve(np.diag([1.0, 1e-20]), np.array([1.0, 1.0]),
                              TruncationRule("relative", 1e-12))
    ok &= np.allclose(x2, [1.0, 0.0], atol=1e-15)
    details.append(f"diag truncation -> {x2}")
    # monotonicity of the effective rank in epsilon
    ranks = [effective_rank(a, TruncationRule("relative", e))
             for e in (1e-12, 1e-9, 1e-6, 1e-2, 0.5)]
    ok &= all(r1 >= r2 for r1, r2 in zip(ranks, ranks[1:]))
    details.append(f"ranks vs epsilon {ranks} (non-increasing)")
    report("criterion 6d (truncated pseudoinverse)", ok, "; ".join(details))


def test_criterion_6e_integrator_cross_agreement():
    vdp = make_benchmark("van_der_pol", mu=1)
    ctrl = StepControl(abs_tol=1e-10, rel_tol=1e-10)
    explicit = dp45_solve(vdp, ctrl)
    implicit = sdirk_solve(vdp, ctrl)
    grid = np.linspace(0.0, 30.0, 1000)
    linf = np.abs(dense_eval(explicit, grid) - dense_eval(implicit, grid)).max()
    report("criterion 6e (dp45/sdirk cross-agreement, vdP mu=1)", linf <= 1e-7,
           f"Linf difference on 1000-point grid = {linf:.2e} (<=1e-7)")


def test_criterion_6f_stiffness_step_count_signature():
    pr = make_benchmark("prothero_robinson", lam=-1e5)
    ctrl = StepControl(abs_tol=1e-3, rel_tol=1e-3)
    implicit = sdirk_solve(pr, ctrl)
    explicit = dp45_solve(pr, ctrl)
    ratio = explicit.n_steps / max(implicit.n_steps, 1)
    report("criterion 6f (stiffness signature)", ratio >= 100.0,
           f"dp45 steps={explicit.n_steps}, sdirk steps={implicit.n_steps}, "
           f"ratio={ratio:.0f} (>=100)")
