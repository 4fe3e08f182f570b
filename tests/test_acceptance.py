"""Acceptance suite: ten numbered criteria, each with pinned tolerances.

Every test measures first, records a one-line PASS/FAIL summary with the
observed margins (printed at the end of the run), and only then asserts,
so a failing criterion still reports its numbers.  The desk-scale
training runs are shared between criteria 9 and 10 through a
module-scoped fixture.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from acceptance_report import record
from lcv.cayley import (
    SkewParams,
    cayley_forward,
    cayley_inverse,
    is_in_so_star,
    so_star_path,
    unpack_skew,
)
from lcv.cli import main as cli_main
from lcv.costvolume import (
    FeatureMap,
    learnable_cost_volume,
    vanilla_cost_volume,
    wssd,
)
from lcv.harness import PerturbSpec, SyntheticSpec, run_experiment, run_gradcheck
from lcv.kernel import (
    assemble_kernel,
    identity_kernel,
    param_count,
    whitening_pca,
    whitening_zca,
)
from lcv.optim import (
    OptimizerConfig,
    step_benchmark,
    stiefel_project,
    stiefel_retract,
)
from lcv.cayley import DiagParams


def random_skew(rng, n, scale):
    return unpack_skew(SkewParams(entries=rng.uniform(-scale, scale, n * (n - 1) // 2), dim=n))


def random_kernel(rng, c, scale=1.0):
    return assemble_kernel(
        SkewParams(entries=rng.uniform(-scale, scale, c * (c - 1) // 2), dim=c),
        DiagParams(t=rng.uniform(-scale, scale, c)),
    )


def test_criterion_01_cayley_transform_suite():
    # 1000 random skew matrices, 250 per size; entries uniform in [-5, 5].
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst_orth = 0.0
    min_det = np.inf
    min_gap = np.inf
    worst_rt = 0.0
    for n in (2, 8, 64, 128):
        for _ in range(250):
            S = random_skew(rng, n, scale=5.0)
            P = cayley_forward(S)
            worst_orth = max(worst_orth, np.max(np.abs(P.values.T @ P.values - np.eye(n))))
            min_det = min(min_det, np.linalg.det(P.values))
            min_gap = min(min_gap, np.min(np.abs(np.linalg.eigvals(P.values) + 1.0)))
            worst_rt = max(worst_rt, np.max(np.abs(cayley_inverse(P) - S)))
    runtime = time.perf_counter() - t0

    passed = (
        worst_orth < 1e-10
        and min_det > 0
        and min_gap > 1e-8
        and worst_rt < 1e-9
        and runtime < 30.0
    )
    record(1, "cayley-transform-suite", passed,
           f"orth_max={worst_orth:.2e} det_min={min_det:.6f} gap_min={min_gap:.2e} "
           f"roundtrip_max={worst_rt:.2e} runtime={runtime:.1f}s")
    assert worst_orth < 1e-10
    assert min_det > 0
    assert min_gap > 1e-8
    assert worst_rt < 1e-9
    assert runtime < 30.0


def test_criterion_02_identity_degeneracy():
    # Zero parameters: the learned volume must equal the plain one within
    # 1e-12 on 100 random pairs at c=16, 16x16 frames, 5x5 window.
    rng = np.random.default_rng(1002)
    kernel = identity_kernel(16)
    worst = 0.0
    for _ in range(100):
        f1 = FeatureMap(rng.standard_normal((16, 16, 16)))
        f2 = FeatureMap(rng.standard_normal((16, 16, 16)))
        learned = learnable_cost_volume(f1, f2, kernel, 5, 5).data
        plain = vanilla_cost_volume(f1, f2, 5, 5).data
        worst = max(worst, np.max(np.abs(learned - plain)))
    record(2, "identity-degeneracy", worst < 1e-12, f"max_diff={worst:.2e}")
    assert worst < 1e-12


def test_criterion_03_whitening_equivalences():
    # Both factorizations must reproduce the learned volume within 1e-8 on
    # 100 random (kernel, feature-pair) instances, and their Gram products
    # must recover the kernel within 1e-10.
    rng = np.random.default_rng(1003)
    c = 8
    worst_cv = 0.0
    worst_gram = 0.0
    for _ in range(100):
        kernel = random_kernel(rng, c)
        Q = whitening_pca(kernel)
        R = whitening_zca(kernel)
        worst_gram = max(
            worst_gram,
            np.max(np.abs(Q.T @ Q - kernel.W)),
            np.max(np.abs(R @ R - kernel.W)),
        )
        f1 = FeatureMap(rng.standard_normal((c, 8, 8)))
        f2 = FeatureMap(rng.standard_normal((c, 8, 8)))
        learned = learnable_cost_volume(f1, f2, kernel, 3, 3).data
        for T in (Q, R):
            t1 = FeatureMap(np.einsum("dc,chw->dhw", T, f1.data))
            t2 = FeatureMap(np.einsum("dc,chw->dhw", T, f2.data))
            worst_cv = max(worst_cv, np.max(np.abs(vanilla_cost_volume(t1, t2, 3, 3).data - learned)))
    passed = worst_cv < 1e-8 and worst_gram < 1e-10
    record(3, "whitening-equivalences", passed,
           f"volume_diff_max={worst_cv:.2e} gram_diff_max={worst_gram:.2e}")
    assert worst_cv < 1e-8
    assert worst_gram < 1e-10


def test_criterion_04_wssd_expansion():
    # (f2-f1)'W(f2-f1) = f1'Wf1 + f2'Wf2 - 2 f1'Wf2 within 1e-10 on
    # 10^4 random vector pairs per kernel, c in {2, 16}.
    rng = np.random.default_rng(1004)
    worst = 0.0
    for c in (2, 16):
        kernel = random_kernel(rng, c)
        for _ in range(10_000):
            x, y = rng.standard_normal((2, c))
            expanded = x @ kernel.W @ x + y @ kernel.W @ y - 2.0 * (x @ kernel.W @ y)
            worst = max(worst, abs(wssd(x, y, kernel) - expanded))
    record(4, "wssd-expansion", worst < 1e-10, f"identity_diff_max={worst:.2e}")
    assert worst < 1e-10


def test_criterion_05_gradient_gate():
    # Trace-type and softmax-matching losses vs central finite differences
    # (eps 1e-5): relative error < 1e-5 on 20 instances each, and the
    # gradcheck subcommand exits 0.  Runtime < 2 min.
    t0 = time.perf_counter()
    checks = run_gradcheck(seed=0, tolerance=1e-5, eps=1e-5)
    cli_rc = cli_main(["gradcheck"])
    runtime = time.perf_counter() - t0

    worst = max(c.rel_error for c in checks)
    n_pass = sum(c.passed for c in checks)
    passed = n_pass == 40 and worst < 1e-5 and cli_rc == 0 and runtime < 120.0
    record(5, "gradient-gate", passed,
           f"passed={n_pass}/40 rel_err_max={worst:.2e} cli_exit={cli_rc} "
           f"runtime={runtime:.1f}s")
    assert n_pass == 40
    assert worst < 1e-5
    assert cli_rc == 0
    assert runtime < 120.0


def test_criterion_06_stiefel_suite():
    rng = np.random.default_rng(1006)

    # Projection tangency: X' P_X(Z) skew within 1e-10.
    worst_tan = 0.0
    for _ in range(50):
        X = cayley_forward(random_skew(rng, 8, scale=1.0))
        Z = stiefel_project(X, rng.standard_normal((8, 8)))
        XtZ = X.values.T @ Z
        worst_tan = max(worst_tan, np.max(np.abs(XtZ + XtZ.T)))

    # Retraction: orthogonality < 1e-8 per step, drift < 1e-7 over 100 steps.
    X = cayley_forward(random_skew(rng, 8, scale=0.5))
    worst_step = 0.0
    for _ in range(100):
        Z = stiefel_project(X, 0.1 * rng.standard_normal((8, 8)))
        X = stiefel_retract(X, Z)
        worst_step = max(worst_step, np.max(np.abs(X.values.T @ X.values - np.eye(8))))
    drift = np.max(np.abs(X.values.T @ X.values - np.eye(8)))

    # Zero step must return the base point bitwise.
    X0 = cayley_forward(random_skew(rng, 6, scale=1.0))
    zero_exact = np.array_equal(stiefel_retract(X0, np.zeros((6, 6))).values, X0.values)

    passed = worst_tan < 1e-10 and worst_step < 1e-8 and drift < 1e-7 and zero_exact
    record(6, "stiefel-suite", passed,
           f"tangency_max={worst_tan:.2e} step_orth_max={worst_step:.2e} "
           f"drift_100={drift:.2e} zero_step_exact={zero_exact}")
    assert worst_tan < 1e-10
    assert worst_step < 1e-8
    assert drift < 1e-7
    assert zero_exact


def test_criterion_07_connectedness_path():
    # 100 random members, n in {4, 8}, 10 steps: endpoints within 1e-8,
    # every intermediate inside the admissible set.
    rng = np.random.default_rng(1007)
    worst_start = 0.0
    worst_end = 0.0
    all_member = True
    for n in (4, 8):
        for _ in range(50):
            P = cayley_forward(random_skew(rng, n, scale=2.0))
            path = so_star_path(P, 10)
            assert len(path) == 11
            worst_start = max(worst_start, np.max(np.abs(path[0].values - np.eye(n))))
            worst_end = max(worst_end, np.max(np.abs(path[-1].values - P.values)))
            all_member = all_member and all(bool(is_in_so_star(q.values)) for q in path)
    passed = worst_start < 1e-8 and worst_end < 1e-8 and all_member
    record(7, "connectedness-path", passed,
           f"start_diff_max={worst_start:.2e} end_diff_max={worst_end:.2e} "
           f"all_in_set={all_member}")
    assert worst_start < 1e-8
    assert worst_end < 1e-8
    assert all_member


def test_criterion_08_parameter_count():
    full, free = param_count([64, 64, 128, 128, 128])
    passed = full == 57344
    record(8, "parameter-count", passed, f"kernel_entries={full} free_parameters={free}")
    assert full == 57344


DESK_SPEC = SyntheticSpec(height=32, width=32, signal_channels=4,
                          noise_channels=12, max_displacement=2)
DESK_PERTURB = PerturbSpec(noise_std=0.1)
DESK_SEEDS = tuple(range(10))


@pytest.fixture(scope="module")
def desk_scale_runs():
    """Ten-seed training runs in both optimizer modes, with wall times."""
    results = {}
    timings = {}
    for mode in ("cayley", "stiefel"):
        opt = OptimizerConfig(learning_rate=0.01, max_steps=500, mode=mode)
        t0 = time.perf_counter()
        results[mode] = [
            run_experiment(replace(DESK_SPEC, seed=s), DESK_PERTURB, opt,
                           (5, 5), instances=10)
            for s in DESK_SEEDS
        ]
        timings[mode] = time.perf_counter() - t0
    return results, timings


def test_criterion_09_desk_scale_learning(desk_scale_runs):
    # 4 signal + 12 noise channels, 32x32, 5x5 window, noise_std 0.1,
    # 10 seeds, 500 steps: median learned AEPE strictly below median
    # identity AEPE, median Fl-all not increased.  Runtime < 10 min.
    results, timings = desk_scale_runs
    runs = results["cayley"]
    med_ident = float(np.median([r.aepe_identity for r in runs]))
    med_learn = float(np.median([r.aepe_learned for r in runs]))
    med_fl_i = float(np.median([r.fl_identity for r in runs]))
    med_fl_l = float(np.median([r.fl_learned for r in runs]))
    runtime = timings["cayley"]

    passed = med_learn < med_ident and med_fl_l <= med_fl_i and runtime < 600.0
    record(9, "desk-scale-learning", passed,
           f"aepe_median identity={med_ident:.4f} learned={med_learn:.4f} "
           f"fl_median identity={med_fl_i:.2f} learned={med_fl_l:.2f} "
           f"runtime={runtime:.0f}s")
    assert med_learn < med_ident
    assert med_fl_l <= med_fl_i
    assert runtime < 600.0


def test_criterion_10_optimizer_consistency(desk_scale_runs):
    # Both parameterizations on identical seeds: final AEPE within 10%
    # relative; per-step wall-clock at c in {64, 128} reported, no threshold.
    results, _ = desk_scale_runs
    med = {
        mode: float(np.median([r.aepe_learned for r in results[mode]]))
        for mode in ("cayley", "stiefel")
    }
    rel = abs(med["cayley"] - med["stiefel"]) / max(med["cayley"], med["stiefel"])

    bench = {
        (mode, c): step_benchmark(c, mode, iters=10)
        for mode in ("cayley", "stiefel")
        for c in (64, 128)
    }
    bench_str = " ".join(
        f"{mode}_c{c}={bench[(mode, c)]:.1f}ms"
        for mode in ("cayley", "stiefel") for c in (64, 128)
    )

    passed = rel < 0.10
    record(10, "optimizer-consistency", passed,
           f"aepe cayley={med['cayley']:.4f} stiefel={med['stiefel']:.4f} "
           f"rel_diff={rel:.3%} | per-step {bench_str}")
    assert rel < 0.10
