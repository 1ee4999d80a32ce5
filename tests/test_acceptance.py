"""Acceptance suite: one test per criterion, each registering a pass/fail
line that conftest prints in the terminal summary.

The default end-to-end experiment is executed once (session fixture) and
shared by the criteria that inspect its artifacts.
"""

import filecmp
import json
import time

import numpy as np
import pytest

from mrfkit import bundle, epg, experiment, forward_model as fm
from mrfkit import inference, phantom, solver, subspace
from mrfkit.inference import MrfNet, TrainConfig
from mrfkit.solver import SolverConfig
from mrfkit.tvprox import TvConfig, tv_prox

from oracles import bloch_fingerprint, simulate_fingerprint, tv_objective, tv_prox_subgradient

RESULTS = []


def report(num, name, ok, detail):
    RESULTS.append(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(scope="session")
def default_experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_experiment")
    start = time.monotonic()
    scores = experiment.run_experiment(None, out)
    elapsed = time.monotonic() - start
    return out, scores, elapsed


def test_criterion_01_adjoint_correctness(rng):
    start = time.monotonic()
    worst = 0.0
    combos = [(h, c, s) for h in (32, 64) for c in (1, 4) for s in (3, 10)]
    for draw in range(20):
        h, n_coils, rank = combos[draw % len(combos)]
        n_frames = 12
        basis = subspace.learn_subspace(random_complex(rng, (n_frames, 40)), rank)
        pattern = fm.make_vd_cartesian_masks(h, h, n_frames, accel=4.0, seed=100 + draw)
        coils = fm.make_coil_maps(h, h, n_coils,
                                  kind="uniform" if n_coils == 1 else "gaussian-ring")
        x = random_complex(rng, (h * h, rank))
        y = fm.KSpaceData(y=random_complex(rng, (n_frames, n_coils, h, h)), pattern=pattern)
        lhs = np.vdot(fm.forward(x, basis, coils, pattern).y, y.y)
        rhs = np.vdot(x, fm.adjoint(y, basis, coils, pattern))
        worst = max(worst, abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(y.y)))
    elapsed = time.monotonic() - start
    report(1, "adjoint identity", worst < 1e-10 and elapsed < 10.0,
           f"worst rel err {worst:.2e} over 20 draws in {elapsed:.1f}s")


def test_criterion_02_gradient_finite_differences(rng):
    n_frames, rank, size = 6, 3, 8
    basis = subspace.learn_subspace(random_complex(rng, (n_frames, 30)), rank)
    pattern = fm.make_vd_cartesian_masks(size, size, n_frames, accel=1.5, seed=3,
                                         center_radius=1)
    coils = fm.make_coil_maps(size, size, 2, kind="gaussian-ring")
    y = fm.KSpaceData(
        y=random_complex(rng, (n_frames, 2, size, size)) * pattern.masks[:, None],
        pattern=pattern,
    )

    def fidelity(x):
        r = y.y - fm.forward(x, basis, coils, pattern).y
        return np.vdot(r, r).real

    # the gradient solve() steps along: the normal operator through the
    # k-space kernel, minus the back-projected data
    kernel = fm.gram_kernel(basis, pattern)
    ahyv = fm.adjoint(y, basis, coils, pattern)
    worst = 0.0
    h = 1e-6
    for _ in range(3):
        x = random_complex(rng, (size * size, rank))
        g = 2.0 * (fm.normal(x, kernel, coils) - ahyv)  # factor-2 convention
        fd = np.zeros_like(g)
        for i in range(size * size):
            for s in range(rank):
                for direction, assign in ((1.0, "real"), (1.0j, "imag")):
                    e = np.zeros_like(x)
                    e[i, s] = direction
                    num = (fidelity(x + h * e) - fidelity(x - h * e)) / (2 * h)
                    if assign == "real":
                        fd[i, s] += num
                    else:
                        fd[i, s] += 1j * num
        worst = max(worst, np.linalg.norm(fd - g) / np.linalg.norm(fd))
    report(2, "normal-operator gradient vs finite differences", worst < 1e-5,
           f"worst rel err {worst:.2e} at 3 random points")


def test_criterion_03_tv_prox_optimality(rng):
    worst = 0.0
    for tau in (0.01, 0.1, 1.0):
        img = rng.random((8, 8))
        out, *_ = tv_prox(img, tau, TvConfig(max_iters=2000, dual_gap_tol=1e-14))
        f_fgp = tv_objective(out, img, tau, "isotropic")
        _, f_oracle = tv_prox_subgradient(img, tau, "isotropic", iters=100_000)
        worst = max(worst, abs(f_fgp - f_oracle))
    closed, *_ = tv_prox(np.array([[0.0, 2.0]]), 0.5,
                         TvConfig(variant="anisotropic", max_iters=500, dual_gap_tol=1e-14))
    closed_err = np.abs(closed - np.array([[0.5, 1.5]])).max()
    report(3, "tv prox optimality", worst <= 1e-5 and closed_err < 1e-10,
           f"|obj-oracle| max {worst:.2e}; 1x2 closed-form err {closed_err:.2e}")


def test_criterion_04_epg_vs_bloch(rng):
    schedule = epg.default_schedule(100)
    worst = 0.0
    for _ in range(10):
        t1 = rng.uniform(100, 4000)
        t2 = rng.uniform(20, min(t1, 600))
        sig = simulate_fingerprint(t1, t2, schedule, k_max=100)
        ref = bloch_fingerprint(t1, t2, schedule, n_spins=2048)
        worst = max(worst, np.abs(sig - ref).max() / np.abs(ref).max())
    report(4, "EPG vs isochromat oracle", worst < 1e-2,
           f"worst rel deviation {worst:.2e} over 10 tissues")


def test_criterion_05_solver_majorization(rng):
    violations = 0
    checked = 0
    for trial, (mode, lam) in enumerate([("lr", 0.0), ("lrtv", 1e-3), ("lrtv", 1e-2)]):
        n_frames, rank, size = 14, 4, 32
        basis = subspace.learn_subspace(random_complex(rng, (n_frames, 60)), rank)
        pattern = fm.make_vd_cartesian_masks(size, size, n_frames, accel=3.0,
                                             seed=50 + trial)
        coils = fm.make_coil_maps(size, size, 3, kind="gaussian-ring")
        y = fm.KSpaceData(
            y=random_complex(rng, (n_frames, 3, size, size)) * pattern.masks[:, None],
            pattern=pattern,
        )
        cfg = SolverConfig(mode=mode, lam=lam, max_outer_iters=15, stop_rel_change=0.0)
        _, trace = solver.solve(y, basis, coils, pattern, cfg)
        norm_y_sq = float(np.vdot(y.y, y.y).real)
        assert trace.records[-1].objective <= norm_y_sq
        for rec in trace.records[1:]:
            checked += 1
            if rec.fidelity > rec.majorization_rhs * (1 + 1e-12) + 1e-12:
                violations += 1
    report(5, "accepted steps satisfy majorization", violations == 0,
           f"{checked} accepted iterates checked, {violations} violations; "
           "final objective <= ||Y||^2 in all solves")


def test_criterion_06_bpi_is_first_lr_iterate(rng):
    n_frames, rank, size = 16, 5, 32
    basis = subspace.learn_subspace(random_complex(rng, (n_frames, 64)), rank)
    pattern = fm.make_vd_cartesian_masks(size, size, n_frames, accel=4.0, seed=8)
    coils = fm.make_coil_maps(size, size, 4, kind="gaussian-ring")
    x_true = random_complex(rng, (size * size, rank))
    y = fm.forward(x_true, basis, coils, pattern)
    x1, trace = solver.solve(y, basis, coils, pattern,
                             SolverConfig(mode="lr", max_outer_iters=1))
    b, _ = solver.solve(y, basis, coils, pattern, SolverConfig(mode="bpi", max_outer_iters=50))
    mu1 = trace.records[-1].mu
    err = np.linalg.norm(x1 - mu1 * b) / np.linalg.norm(x1)
    report(6, "first LR iterate = mu1 * BPI", err < 1e-12,
           f"rel err {err:.2e} (mu1 = {mu1:.4g})")


def test_criterion_07_objective_converged_by_iteration_12(default_experiment):
    out, _, _ = default_experiment
    data, coils = fm.load_kspace(out / "kspace.mrfb")
    basis = subspace.load_basis(out / "basis.mrfb")
    cfg_json = json.loads((out / "exp_config.json").read_text())
    cfg = SolverConfig(
        mode="lrtv",
        lam=cfg_json["recon"]["lambda"],
        max_outer_iters=100,
        stop_rel_change=0.0,
        tv=TvConfig(),
    )
    _, trace = solver.solve(data, basis, coils, data.pattern, cfg)
    objs = [r.objective for r in trace.records]
    ratio = (objs[12] - objs[100]) / objs[100]
    report(7, "LRTV objective at iter 12 within 1% of iter 100", ratio <= 0.01,
           f"(obj12 - obj100)/obj100 = {100 * ratio:.3f}%")


def test_criterion_08_method_ordering(default_experiment):
    _, scores, elapsed = default_experiment
    b, l, v = scores["bpi"], scores["lr"], scores["lrtv"]
    order_t1 = v["t1"]["rmse"] < l["t1"]["rmse"] < b["t1"]["rmse"]
    order_t2 = v["t2"]["rmse"] < l["t2"]["rmse"] < b["t2"]["rmse"]
    halved = (v["t1"]["rmse"] <= 0.5 * b["t1"]["rmse"]
              and v["t2"]["rmse"] <= 0.5 * b["t2"]["rmse"])
    ok = order_t1 and order_t2 and halved and elapsed < 600.0
    report(8, "LRTV < LR < BPI and LRTV <= BPI/2", ok,
           f"T1 rmse {v['t1']['rmse']:.1f}/{l['t1']['rmse']:.1f}/{b['t1']['rmse']:.1f}, "
           f"T2 rmse {v['t2']['rmse']:.1f}/{l['t2']['rmse']:.1f}/{b['t2']['rmse']:.1f} "
           f"(lrtv/lr/bpi), experiment took {elapsed:.0f}s")


def test_criterion_09_full_grid_energy():
    schedule = epg.default_schedule(1000)
    grid = epg.GridSpec(t1=epg.GridRange(100, 10, 4000), t2=epg.GridRange(20, 2, 600))
    dictionary = epg.build_dictionary(grid, schedule, k_max=100)
    assert dictionary.n_atoms == 113781
    basis = subspace.learn_subspace(dictionary, 10)
    energy = basis.captured_energy()
    report(9, "S=10 captures >= 99% energy on the full grid", energy >= 0.99,
           f"captured fraction {energy:.6f} of 113781-atom dictionary")


def test_criterion_10_net_matches_dictionary_matching(default_experiment):
    out, _, _ = default_experiment
    net = inference.load_net(out / "net.mrfb")
    dictionary = epg.load_dictionary(out / "dict.mrfb")
    basis = subspace.load_basis(out / "basis.mrfb")
    clean_cfg = TrainConfig(noise_sigma=0.0, augment_factor=1, epochs=0, seed=0)
    inputs, _ = inference.make_training_set(dictionary, basis, clean_cfg)
    pred = net.predict_ms(inputs)
    maps, _ = inference.dictionary_match(inputs, dictionary, basis)
    step_t1 = dictionary.grid_spec.t1.step
    step_t2 = dictionary.grid_spec.t2.step
    frac_t1 = float((np.abs(pred[:, 0] - maps[:, 0]) <= step_t1 + 1e-9).mean())
    frac_t2 = float((np.abs(pred[:, 1] - maps[:, 1]) <= step_t2 + 1e-9).mean())
    report(10, "net within one grid step of matching for >= 90% of atoms",
           frac_t1 >= 0.9 and frac_t2 >= 0.9,
           f"T1 {100 * frac_t1:.1f}%, T2 {100 * frac_t2:.1f}% of {dictionary.n_atoms} atoms")


def test_criterion_11_backprop_gradient_check():
    rng = np.random.default_rng(5)
    net = MrfNet.initialize(5, (100.0, 4000.0), (20.0, 600.0), hidden=(7, 6),
                            seed=9, dtype=np.float64)
    x = rng.standard_normal((5, 5))
    y = rng.random((5, 2))
    _, grad_ws, grad_bs = net.loss_and_gradients(x, y)
    h = 1e-6
    worst = 0.0
    for params, grads in ((net.weights, grad_ws), (net.biases, grad_bs)):
        for tensor, grad in zip(params, grads):
            flat = tensor.ravel()
            num = np.zeros(flat.size)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp, *_ = net.loss_and_gradients(x, y)
                flat[i] = orig - h
                lm, *_ = net.loss_and_gradients(x, y)
                flat[i] = orig
                num[i] = (lp - lm) / (2 * h)
            rel = np.linalg.norm(grad.ravel() - num) / max(np.linalg.norm(num), 1e-12)
            worst = max(worst, rel)
    report(11, "backprop vs finite differences", worst < 1e-4,
           f"worst per-tensor rel err {worst:.2e} on a 5-sample batch")


def test_criterion_12_experiment_determinism(tmp_path):
    config = {
        "seed": 77,
        "size": [32, 32],
        "frames": 40,
        "rank": 3,
        "coils": 2,
        "accel": 4.0,
        "dict": {"t1": "300:300:2100", "t2": "40:60:340"},
        "recon": {"iters": 6},
        "train": {"augment": 5, "epochs": 6, "batch_size": 64, "hidden": [16, 16]},
    }
    dir_a = tmp_path / "run_a"
    dir_b = tmp_path / "run_b"
    experiment.run_experiment(config, dir_a)
    experiment.run_experiment(config, dir_b)
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    assert names_a == names_b
    differing = [
        name for name in names_a
        if not filecmp.cmp(dir_a / name, dir_b / name, shallow=False)
    ]
    report(12, "reruns are bitwise identical", not differing,
           f"{len(names_a)} files compared byte-for-byte"
           + (f"; differing: {differing}" if differing else ""))
