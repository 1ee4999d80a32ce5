import csv

import numpy as np
import pytest

from mrfkit import forward_model as fm
from mrfkit import solver, subspace
from mrfkit.solver import SolverConfig, TraceRecord
from mrfkit.tvprox import TvConfig, tv_norm, tv_prox_stack

from oracles import adjoint_frames, backtrack_ok, forward_frames, gradient


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture
def problem(rng):
    """Small masked multi-coil problem with data from a known ground truth."""
    n_frames, rank, size = 16, 3, 16
    basis = subspace.learn_subspace(random_complex(rng, (n_frames, 64)), rank)
    pattern = fm.make_vd_cartesian_masks(size, size, n_frames, accel=2.0, seed=21)
    coils = fm.make_coil_maps(size, size, 2, kind="gaussian-ring")
    x_true = random_complex(rng, (size * size, rank))
    y = fm.forward(x_true, basis, coils, pattern)
    rng2 = np.random.default_rng(99)
    y.y += 0.01 * (
        rng2.standard_normal(y.y.shape) + 1j * rng2.standard_normal(y.y.shape)
    ) * pattern.masks[:, None, :, :]
    return y, basis, coils, pattern, x_true, size


def bpi(y, basis, coils, pattern):
    return solver.solve(y, basis, coils, pattern, SolverConfig(mode="bpi", max_outer_iters=50))[0]


class TestBpi:
    def test_zero_data(self, problem):
        y, basis, coils, pattern, _, size = problem
        zero = fm.KSpaceData(y=np.zeros_like(y.y), pattern=pattern)
        assert np.all(bpi(zero, basis, coils, pattern) == 0)

    def test_unitary_case_recovers_projection(self, rng):
        n_frames, rank, size = 10, 3, 16
        basis = subspace.learn_subspace(random_complex(rng, (n_frames, 50)), rank)
        pattern = fm.make_vd_cartesian_masks(size, size, n_frames, accel=1.0, seed=0)
        coils = fm.make_coil_maps(size, size, 1, kind="uniform")
        x = random_complex(rng, (size * size, rank))
        recon = bpi(fm.forward(x, basis, coils, pattern), basis, coils, pattern)
        np.testing.assert_allclose(recon, x, atol=1e-10)


class TestGradient:
    def test_zero_point(self, problem):
        y, basis, coils, pattern, _, size = problem
        g = gradient(np.zeros((size * size, basis.rank_s), complex), y, basis, coils, pattern)
        np.testing.assert_allclose(g, -fm.adjoint(y, basis, coils, pattern), atol=1e-12)

    def test_consistent_data_zero_gradient(self, rng):
        n_frames, rank, size = 12, 3, 16
        basis = subspace.learn_subspace(random_complex(rng, (n_frames, 50)), rank)
        pattern = fm.make_vd_cartesian_masks(size, size, n_frames, accel=2.0, seed=5)
        coils = fm.make_coil_maps(size, size, 2, kind="gaussian-ring")
        x = random_complex(rng, (size * size, rank))
        y = fm.forward(x, basis, coils, pattern)
        g = gradient(x, y, basis, coils, pattern)
        assert np.abs(g).max() < 1e-10 * np.abs(x).max()

    def test_matches_finite_differences(self, rng):
        # f(X) = ||Y - A(X V^H)||^2; with the no-factor-two convention the
        # complex-gradient identity is grad f = 2 * gradient(X)
        n_frames, rank, size = 6, 3, 8
        basis = subspace.learn_subspace(random_complex(rng, (n_frames, 30)), rank)
        pattern = fm.make_vd_cartesian_masks(size, size, n_frames, accel=1.0, seed=2,
                                             center_radius=1)
        coils = fm.make_coil_maps(size, size, 2, kind="gaussian-ring")
        y = fm.KSpaceData(y=random_complex(rng, (n_frames, 2, size, size)) * pattern.masks[:, None],
                          pattern=pattern)

        def fidelity(x):
            r = y.y - fm.forward(x, basis, coils, pattern).y
            return np.vdot(r, r).real

        for _ in range(3):
            x = random_complex(rng, (size * size, rank))
            g = gradient(x, y, basis, coils, pattern)
            h = 1e-6
            # a handful of random coordinates, real and imaginary parts
            for _ in range(6):
                i = rng.integers(0, size * size)
                s = rng.integers(0, rank)
                for direction in (1.0, 1.0j):
                    e = np.zeros_like(x)
                    e[i, s] = direction
                    num = (fidelity(x + h * e) - fidelity(x - h * e)) / (2 * h)
                    # df/dRe = 2 Re(grad), df/dIm = 2 Im(grad)
                    ana = 2 * (g[i, s].real if direction == 1.0 else g[i, s].imag)
                    assert num == pytest.approx(ana, rel=1e-5, abs=1e-7)


class TestBacktrackOk:
    def test_equal_points(self, problem):
        y, basis, coils, pattern, x_true, size = problem
        g = gradient(x_true, y, basis, coils, pattern)
        assert backtrack_ok(x_true, x_true, g, 1.0, y, basis, coils, pattern)

    def test_unitary_mu_one_is_equality(self, rng):
        # full sampling, one uniform coil: A^H A is the identity on the
        # coefficients, so at mu = 1 the majorization holds with equality, and
        # backtrack_ok's one-sided test passes or fails by the sign of roundoff
        n_frames, rank, size = 8, 3, 16
        basis = subspace.learn_subspace(random_complex(rng, (n_frames, 40)), rank)
        pattern = fm.make_vd_cartesian_masks(size, size, n_frames, accel=1.0, seed=0)
        coils = fm.make_coil_maps(size, size, 1, kind="uniform")
        y = fm.KSpaceData(y=random_complex(rng, (n_frames, 1, size, size)), pattern=pattern)
        x = random_complex(rng, (size * size, rank))
        g = gradient(x, y, basis, coils, pattern)
        z = x - 1.0 * g

        def fidelity(c):
            r = y.y - forward_frames(c, basis, coils, pattern).y
            return np.vdot(r, r).real

        diff = z - x
        rhs = fidelity(x) + 2.0 * np.vdot(g, diff).real + np.vdot(diff, diff).real
        # each side sums a few thousand products; over 400 seeds the two
        # differ by at most 14 ulps of rhs
        assert abs(fidelity(z) - rhs) <= 32 * np.spacing(rhs)

    def test_huge_step_violates(self, problem):
        y, basis, coils, pattern, _, size = problem
        x = np.zeros((size * size, basis.rank_s), dtype=complex)
        g = gradient(x, y, basis, coils, pattern)
        mu = 1e6
        z = x - mu * g
        assert not backtrack_ok(z, x, g, mu, y, basis, coils, pattern)


class TestSolverConfig:
    def test_lambda_resolution(self):
        # one TV-weight default, 0 in every mode; the experiment config sets lrtv's
        for mode in solver.MODES:
            assert SolverConfig(mode=mode, max_outer_iters=50).lam == 0.0
        assert SolverConfig(mode="lrtv", max_outer_iters=50, lam=1e-3).lam == 1e-3

    def test_invalid_combos(self):
        with pytest.raises(ValueError):
            SolverConfig(mode="lr", max_outer_iters=50, lam=0.1)
        with pytest.raises(ValueError):
            SolverConfig(mode="nope", max_outer_iters=50)


class TestSolve:
    def test_lr_equals_lrtv_lambda_zero(self, problem):
        y, basis, coils, pattern, _, _ = problem
        x_lr, tr_lr = solver.solve(y, basis, coils, pattern,
                                   SolverConfig(mode="lr", max_outer_iters=6))
        x_tv, tr_tv = solver.solve(y, basis, coils, pattern,
                                   SolverConfig(mode="lrtv", lam=0.0, max_outer_iters=6))
        np.testing.assert_array_equal(x_lr, x_tv)
        assert [r.mu for r in tr_lr.records] == [r.mu for r in tr_tv.records]

    def test_first_lr_iterate_is_scaled_bpi(self, problem):
        y, basis, coils, pattern, _, _ = problem
        x1, trace = solver.solve(y, basis, coils, pattern,
                                 SolverConfig(mode="lr", max_outer_iters=1))
        b = bpi(y, basis, coils, pattern)
        mu1 = trace.records[-1].mu
        err = np.linalg.norm(x1 - mu1 * b) / np.linalg.norm(x1)
        assert err < 1e-12

    def test_unitary_one_iteration_exact(self, rng):
        n_frames, rank, size = 8, 3, 16
        basis = subspace.learn_subspace(random_complex(rng, (n_frames, 40)), rank)
        pattern = fm.make_vd_cartesian_masks(size, size, n_frames, accel=1.0, seed=0)
        coils = fm.make_coil_maps(size, size, 1, kind="uniform")
        x_true = random_complex(rng, (size * size, rank))
        y = fm.forward(x_true, basis, coils, pattern)
        assert solver.auto_step_size(pattern, coils.n_coils) == 1.0
        cfg = SolverConfig(mode="lr", max_outer_iters=1)
        x, _ = solver.solve(y, basis, coils, pattern, cfg)
        np.testing.assert_allclose(x, x_true, atol=1e-10)

    def test_bpi_mode(self, problem):
        y, basis, coils, pattern, _, _ = problem
        x, trace = solver.solve(y, basis, coils, pattern,
                                SolverConfig(mode="bpi", max_outer_iters=50))
        np.testing.assert_array_equal(x, fm.adjoint(y, basis, coils, pattern))
        assert len(trace) == 1

    @pytest.mark.parametrize("mode,lam", [("lr", 0.0), ("lrtv", 1e-3)])
    def test_trace_invariants(self, problem, mode, lam):
        y, basis, coils, pattern, _, _ = problem
        cfg = SolverConfig(mode=mode, lam=lam, max_outer_iters=10, stop_rel_change=0.0)
        x, trace = solver.solve(y, basis, coils, pattern, cfg)
        records = trace.records
        assert len(records) == 11  # initial + 10 accepted
        norm_y_sq = float(np.vdot(y.y, y.y).real)
        assert records[0].objective == pytest.approx(norm_y_sq)
        # final objective never above the zero-iterate objective
        assert records[-1].objective <= norm_y_sq
        mus = [r.mu for r in records]
        assert all(a >= b for a, b in zip(mus, mus[1:]))
        for k, rec in enumerate(records[1:], start=1):
            assert rec.iteration == k
            assert rec.momentum == pytest.approx((k - 1) / (k + 2))
            # accepted steps satisfy the majorization (negated line-7 test)
            assert rec.fidelity <= rec.majorization_rhs * (1 + 1e-12) + 1e-12

    def test_objective_decreases_substantially(self, problem):
        y, basis, coils, pattern, _, _ = problem
        cfg = SolverConfig(mode="lr", max_outer_iters=30, stop_rel_change=0.0)
        _, trace = solver.solve(y, basis, coils, pattern, cfg)
        assert trace.records[-1].fidelity < 0.1 * trace.records[0].fidelity

    def test_deterministic(self, problem):
        y, basis, coils, pattern, _, _ = problem
        cfg = SolverConfig(mode="lrtv", lam=1e-3, max_outer_iters=5)
        x1, t1 = solver.solve(y, basis, coils, pattern, cfg)
        x2, t2 = solver.solve(y, basis, coils, pattern, cfg)
        np.testing.assert_array_equal(x1, x2)
        assert t1.records == t2.records

    def test_stop_rel_change(self, problem):
        y, basis, coils, pattern, _, _ = problem
        cfg = SolverConfig(mode="lr", max_outer_iters=200, stop_rel_change=1e-3)
        _, trace = solver.solve(y, basis, coils, pattern, cfg)
        assert len(trace) - 1 < 200
        assert trace.records[-1].rel_change < 1e-3

    def test_fortran_ordered_basis(self, problem):
        # a SubspaceBasis may hold any memory layout: the kernel and an lr
        # solve on a Fortran-ordered v equal those on the row-major v bitwise
        y, basis, coils, pattern, _, _ = problem
        assert basis.v.flags.c_contiguous
        fortran = subspace.SubspaceBasis(np.asfortranarray(basis.v), basis.s_values)
        np.testing.assert_array_equal(fm.gram_kernel(fortran, pattern),
                                      fm.gram_kernel(basis, pattern))
        cfg = SolverConfig(mode="lr", max_outer_iters=5)
        x, trace = solver.solve(y, basis, coils, pattern, cfg)
        x_f, trace_f = solver.solve(y, fortran, coils, pattern, cfg)
        np.testing.assert_array_equal(x_f, x)
        assert trace_f.records == trace.records

    def test_auto_step_size(self, problem):
        y, basis, coils, pattern, _, size = problem
        mu = solver.auto_step_size(pattern, coils.n_coils)
        per_frame = pattern.per_frame_counts.mean() * coils.n_coils
        assert mu == pytest.approx(size * size / per_frame)


def tv_term_reference(z, cfg, hw):
    """lambda times the TV of z, measured by tv_norm channel by channel, real
    part first: the reference for the trace's tv_term, which solve takes
    from the prox."""
    tv_term = 0.0
    if cfg.lam > 0:
        for s in range(z.shape[1]):
            channel = z[:, s].reshape(hw)
            tv_term += tv_norm(channel.real, cfg.tv.variant)
            tv_term += tv_norm(channel.imag, cfg.tv.variant)
        tv_term *= cfg.lam
    return tv_term


def reference_solve(y, basis, coils, pattern, cfg, mu):
    """The solve loop on the per-frame k-space operator from the initial step
    size mu: the oracles' gradient and backtrack_ok run forward_frames and
    adjoint_frames at every step. Returns the iterates, the exact fidelities
    and TV terms of the accepted z, step sizes and halvings."""
    h, w = pattern.shape
    ahyv = adjoint_frames(y, basis, coils, pattern)
    x = np.zeros((h * w, basis.rank_s), dtype=complex)
    z_prev = np.zeros_like(x)
    duals = None
    out = {"x": [], "fidelity": [], "tv_term": [], "mu": [], "halvings": []}
    for k in range(1, cfg.max_outer_iters + 1):
        grad = gradient(x, y, basis, coils, pattern, ahyv=ahyv)
        halvings = 0
        while True:
            step = x - mu * grad
            if cfg.lam > 0:
                z, new_duals, _ = tv_prox_stack(step, cfg.lam * mu, cfg.tv, (h, w),
                                                dual_init=duals)
            else:
                z, new_duals = step, None
            if backtrack_ok(z, x, grad, mu, y, basis, coils, pattern):
                break
            mu *= 0.5
            halvings += 1
        duals = new_duals
        resid = y.y - forward_frames(z, basis, coils, pattern).y
        momentum = (k - 1.0) / (k + 2.0)
        x, z_prev = z + momentum * (z - z_prev), z
        for key, value in (("x", x), ("fidelity", np.vdot(resid, resid).real),
                           ("tv_term", tv_term_reference(z, cfg, (h, w))),
                           ("mu", mu), ("halvings", halvings)):
            out[key].append(value)
    return out


class TestSolveMatchesReference:
    """solve() runs on the kernel normal operator; the reference loop on the
    per-frame forward/adjoint oracles must take the same steps."""

    @pytest.mark.parametrize("mode,lam", [("lr", 0.0), ("lrtv", 1e-3)])
    def test_same_halvings_and_iterates(self, problem, monkeypatch, mode, lam):
        y, basis, coils, pattern, _, _ = problem
        # a step size well above 1/||A^H A|| so that backtracking halves
        monkeypatch.setattr(solver, "auto_step_size", lambda *_: 16.0)
        cfg = SolverConfig(mode=mode, lam=lam, max_outer_iters=8, stop_rel_change=0.0)
        _, trace = solver.solve(y, basis, coils, pattern, cfg)
        ref = reference_solve(y, basis, coils, pattern, cfg, 16.0)
        records = trace.records[1:]
        assert [r.halvings for r in records] == ref["halvings"]
        assert sum(ref["halvings"]) > 0
        assert [r.mu for r in records] == ref["mu"]
        assert [r.tv_term for r in records] == pytest.approx(ref["tv_term"], rel=1e-9, abs=0)
        # every iterate: stopping after k iterations returns the k-th
        for k, ref_x in enumerate(ref["x"], start=1):
            cfg.max_outer_iters = k
            x, _ = solver.solve(y, basis, coils, pattern, cfg)
            assert np.linalg.norm(x - ref_x) / np.linalg.norm(ref_x) < 1e-10

    @pytest.mark.parametrize("mode,lam", [("lr", 0.0), ("lrtv", 1e-3)])
    def test_fidelity_matches_exact_residual(self, problem, monkeypatch, mode, lam):
        # the expanded fidelity ||y||^2 - 2 Re<A^H y v, z> + Re<z, Gz> must not
        # lose the residual to cancellation as the solve converges
        y, basis, coils, pattern, _, _ = problem
        monkeypatch.setattr(solver, "auto_step_size", lambda *_: 16.0)
        cfg = SolverConfig(mode=mode, lam=lam, max_outer_iters=30, stop_rel_change=0.0)
        _, trace = solver.solve(y, basis, coils, pattern, cfg)
        ref = reference_solve(y, basis, coils, pattern, cfg, 16.0)
        norm_y_sq = float(np.vdot(y.y, y.y).real)
        assert ref["fidelity"][-1] < 1e-2 * norm_y_sq  # the residual is a small difference
        for rec, exact in zip(trace.records[1:], ref["fidelity"]):
            assert rec.fidelity == pytest.approx(exact, rel=1e-9)


    @pytest.mark.parametrize("variant", ["isotropic", "anisotropic"])
    def test_tv_term_is_tv_norm_of_accepted_z(self, problem, monkeypatch, variant):
        # the trace's TV term comes from the prox; the tv_norm loop over the
        # accepted z, the last prox output of each iteration, gives equal bits
        y, basis, coils, pattern, _, size = problem
        monkeypatch.setattr(solver, "auto_step_size", lambda *_: 16.0)
        outputs = []

        def recording_prox(*args, **kwargs):
            result = tv_prox_stack(*args, **kwargs)
            outputs.append(result[0])
            return result

        monkeypatch.setattr(solver, "tv_prox_stack", recording_prox)
        cfg = SolverConfig(mode="lrtv", lam=1e-3, max_outer_iters=8, stop_rel_change=0.0,
                           tv=TvConfig(variant=variant))
        _, trace = solver.solve(y, basis, coils, pattern, cfg)
        records = trace.records[1:]
        accepted = np.cumsum([r.halvings + 1 for r in records]) - 1
        assert accepted[-1] == len(outputs) - 1 and sum(r.halvings for r in records) > 0
        got = np.array([r.tv_term for r in records])
        ref = np.array([tv_term_reference(outputs[i], cfg, (size, size)) for i in accepted])
        assert np.all(got > 0)
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestTraceCsv:
    def test_csv_round_shape(self, problem, tmp_path):
        # one column per TraceRecord field; every row reads back as its record
        y, basis, coils, pattern, _, _ = problem
        _, trace = solver.solve(y, basis, coils, pattern,
                                SolverConfig(mode="lrtv", lam=1e-3, max_outer_iters=3))
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["iteration", "objective", "fidelity", "tv_term", "mu", "halvings",
                          "rel_change", "momentum", "majorization_rhs"]
        kinds = [int, float, float, float, float, int, float, float, float]
        assert [TraceRecord(*(kind(v) for kind, v in zip(kinds, row)))
                for row in rows] == trace.records


class TestNumericalError:
    @pytest.mark.parametrize("owner,name,replacement,iteration", [
        # no step is ever accepted, so the step size halves below its floor
        (solver, "_majorization_rhs", lambda *_: -np.inf, 1),
        # a NaN normal operator is accepted once and poisons the next iterate
        (fm, "normal", lambda z, *_: np.full_like(z, np.nan), 2),
    ], ids=["step-collapse", "non-finite-iterate"])
    def test_message_names_iteration(self, problem, monkeypatch, owner, name, replacement,
                                     iteration):
        y, basis, coils, pattern, _, _ = problem
        monkeypatch.setattr(owner, name, replacement)
        with pytest.raises(solver.NumericalError, match=f" at iteration {iteration}$"):
            solver.solve(y, basis, coils, pattern, SolverConfig(mode="lr", max_outer_iters=5))


class TestReconstructionRoundTrip:
    def test_save_load(self, problem, tmp_path):
        y, basis, coils, pattern, _, size = problem
        x, _ = solver.solve(y, basis, coils, pattern, SolverConfig(mode="lr", max_outer_iters=2))
        path = tmp_path / "x.mrfb"
        solver.save_reconstruction(x, basis, (size, size), path)
        loaded_x, loaded_basis, shape = solver.load_reconstruction(path)
        assert shape == (size, size)
        np.testing.assert_allclose(loaded_x, x, atol=1e-4)
        assert loaded_basis.rank_s == basis.rank_s
        np.testing.assert_allclose(loaded_basis.v, basis.v, atol=1e-6)
