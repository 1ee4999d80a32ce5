import dataclasses

import numpy as np
import pytest

from mrfkit import tvprox
from mrfkit.tvprox import TvConfig, tv_norm, tv_prox, tv_prox_stack

from oracles import tv_objective, tv_prox_reference, tv_prox_subgradient

TIGHT = TvConfig(max_iters=500, dual_gap_tol=1e-12)
TIGHT_ANISO = TvConfig(variant="anisotropic", max_iters=500, dual_gap_tol=1e-12)


def _image_prox(rng, tau):
    """tv_prox of a random 8x8 image: (input, result, dual, TV of the result,
    iterations, final gap)."""
    x = rng.standard_normal((8, 8))
    return x, *tv_prox(x, tau, TIGHT)


def _stack_prox(rng, tau):
    """tv_prox_stack of a random complex stack of three 8x8 images."""
    x = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
    return x, *tv_prox_stack(x, tau, TIGHT, (8, 8))


both_proxes = pytest.mark.parametrize("prox", [_image_prox, _stack_prox],
                                      ids=["tv_prox", "tv_prox_stack"])


def bits(value):
    """Unsigned-integer view of a float64, for bitwise comparison."""
    return np.float64(value).view(np.uint64)


class TestTvNorm:
    def test_constant_image(self):
        assert tv_norm(np.full((6, 7), 3.2), "isotropic") == 0.0
        assert tv_norm(np.full((6, 7), 3.2), "anisotropic") == 0.0

    def test_single_difference(self):
        img = np.array([[0.0], [1.0]])
        assert tv_norm(img, "isotropic") == pytest.approx(1.0)
        assert tv_norm(img, "anisotropic") == pytest.approx(1.0)

    def test_two_by_two(self):
        img = np.array([[0.0, 1.0], [0.0, 1.0]])
        # two horizontal unit differences; vertical differences are zero
        assert tv_norm(img, "isotropic") == pytest.approx(2.0)
        assert tv_norm(img, "anisotropic") == pytest.approx(2.0)

    def test_variants_inequality(self, rng):
        img = rng.standard_normal((10, 10))
        assert tv_norm(img, "isotropic") <= tv_norm(img, "anisotropic") + 1e-12

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            tv_norm(np.zeros((3, 3)), "huber")


class TestGradAdjoint:
    def test_adjointness(self, rng):
        u = rng.standard_normal((9, 11))
        pq = rng.standard_normal((2, 9, 11))
        pq[0, -1, :] = 0
        pq[1, :, -1] = 0
        d = np.zeros((2, 9, 11))
        tvprox._diff(u, d)
        adj = np.empty_like(u)
        tvprox._diff_adj(pq, adj, np.empty(9))
        lhs = np.sum(d * pq)
        rhs = np.sum(u * adj)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestTvProx:
    @both_proxes
    def test_tau_zero_identity(self, rng, prox):
        x, out, dual, _, iters, gap = prox(rng, 0.0)
        np.testing.assert_array_equal(out, x)
        assert dual.shape[-3:] == (2, 8, 8) and not dual.any()
        assert (iters, gap) == (0, 0.0)

    def test_constant_unchanged(self):
        img = np.full((12, 9), 1.7)
        np.testing.assert_array_equal(tv_prox(img, 2.5, TIGHT)[0], img)

    @both_proxes
    def test_negative_tau_rejected(self, rng, prox):
        with pytest.raises(ValueError):
            prox(rng, -0.1)

    def test_1x2_closed_form(self):
        # prox moves each endpoint min(tau, |a-b|/2) toward the mean
        img = np.array([[0.0, 2.0]])
        out, *_ = tv_prox(img, 0.5, TIGHT_ANISO)
        np.testing.assert_allclose(out, [[0.5, 1.5]], atol=1e-10)
        out, *_ = tv_prox(img, 5.0, TIGHT_ANISO)
        np.testing.assert_allclose(out, [[1.0, 1.0]], atol=1e-10)

    def test_1x2_brute_force(self):
        # dense grid search over u confirms the closed form
        img = np.array([[0.0, 2.0]])
        tau = 0.5
        grid = np.arange(-0.5, 2.5, 1e-3)
        u1, u2 = np.meshgrid(grid, grid, indexing="ij")
        objective = 0.5 * ((u1 - 0.0) ** 2 + (u2 - 2.0) ** 2) + tau * np.abs(u2 - u1)
        best = np.unravel_index(np.argmin(objective), objective.shape)
        out, *_ = tv_prox(img, tau, TIGHT_ANISO)
        assert abs(grid[best[0]] - out[0, 0]) < 2e-3
        assert abs(grid[best[1]] - out[0, 1]) < 2e-3

    @pytest.mark.parametrize("variant", ["isotropic", "anisotropic"])
    @pytest.mark.parametrize("tau", [0.01, 0.1, 1.0])
    def test_objective_vs_subgradient_oracle(self, rng, variant, tau):
        img = rng.random((8, 8))
        cfg = TvConfig(variant=variant, max_iters=2000, dual_gap_tol=1e-14)
        out, *_ = tv_prox(img, tau, cfg)
        f_fgp = tv_objective(out, img, tau, variant)
        _, f_oracle = tv_prox_subgradient(img, tau, variant, iters=20_000)
        assert f_fgp <= f_oracle + 1e-5

    def test_mean_preserved(self, rng):
        img = rng.standard_normal((16, 16))
        for tau in (0.05, 0.5, 5.0):
            out, *_ = tv_prox(img, tau, TIGHT)
            assert out.mean() == pytest.approx(img.mean(), abs=1e-8)

    def test_tv_shrinks(self, rng):
        img = rng.standard_normal((12, 12))
        for variant, cfg in (("isotropic", TIGHT), ("anisotropic", TIGHT_ANISO)):
            out, *_ = tv_prox(img, 0.3, cfg)
            assert tv_norm(out, variant) <= tv_norm(img, variant)

    def test_nonexpansive(self, rng):
        cfg = TvConfig(max_iters=300, dual_gap_tol=1e-10)
        for _ in range(5):
            a = rng.standard_normal((10, 10))
            b = rng.standard_normal((10, 10))
            pa, *_ = tv_prox(a, 0.4, cfg)
            pb, *_ = tv_prox(b, 0.4, cfg)
            slack = 2 * np.sqrt(cfg.dual_gap_tol * max(np.sum(a**2), np.sum(b**2)))
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + slack

    def test_warm_start_dual_reuse(self, rng):
        img = rng.standard_normal((12, 12))
        out_cold, dual, *_ = tv_prox(img, 0.2, TIGHT)
        # a warm restart from the converged dual should change nothing much
        out_warm, *_ = tv_prox(img, 0.2, TvConfig(max_iters=1, dual_gap_tol=1e-12), dual_init=dual)
        assert np.abs(out_warm - out_cold).max() < 1e-6

    def test_deterministic(self, rng):
        img = rng.standard_normal((8, 8))
        a, dual_a, *_ = tv_prox(img, 0.3, TIGHT)
        b, dual_b, *_ = tv_prox(img, 0.3, TIGHT)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(dual_a, dual_b)


SHAPES = [(64, 64), (17, 33), (2, 2), (1, 5), (8, 1)]
# a stop by the gap rule long before max_iters, and a stop by max_iters
# (unless the gap vanishes at once, as it does for tiny images at small tau)
STOPS = {"gap": {"max_iters": 1000, "dual_gap_tol": 1e-3},
         "max_iters": {"max_iters": 4, "dual_gap_tol": 1e-14}}


class TestMatchesReference:
    """tv_prox updates fixed work arrays in place; its result, dual, TV,
    iteration count and final gap equal those of oracles.tv_prox_reference,
    the loop that allocates fresh arrays at every step, bit for bit."""

    @staticmethod
    def same_bits(img, tau, cfg, dual=None):
        """Run both; assert bitwise equal results and return the reference's."""
        got = tv_prox(img, tau, cfg, dual_init=dual)
        want = tv_prox_reference(img, tau, cfg, dual_init=dual)
        assert len(got) == len(want) == 5
        for a, b in zip(got, want):
            assert np.shape(a) == np.shape(b)
            np.testing.assert_array_equal(bits(a), bits(b))
        return want

    @pytest.mark.parametrize("stop", list(STOPS))
    @pytest.mark.parametrize("tau", [0.01, 0.3, 10.0])
    @pytest.mark.parametrize("variant", ["isotropic", "anisotropic"])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_cold_warm_and_signed_zeros(self, rng, shape, variant, tau, stop):
        cfg = TvConfig(variant=variant, **STOPS[stop])
        img = rng.standard_normal(shape)
        _, dual, *_ = self.same_bits(img, tau, cfg)
        # a strided view, as tv_prox_stack passes the columns of its stack
        self.same_bits(np.stack([img, -img], axis=-1)[..., 0], tau, cfg)
        # a warm start whose last row (p) and last column (q) are nonzero
        warm = dual + rng.standard_normal(dual.shape)
        assert warm[0, -1].all() and warm[1, :, -1].all()
        self.same_bits(img, tau, cfg, warm)
        img[rng.random(shape) < 0.3] = -0.0
        self.same_bits(img, tau, cfg)

    @pytest.mark.parametrize("fill", [0.0, -0.0])
    @pytest.mark.parametrize("variant", ["isotropic", "anisotropic"])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_zero_image(self, shape, variant, fill):
        self.same_bits(np.full(shape, fill), 0.3, TvConfig(variant=variant))

    @pytest.mark.parametrize("variant", ["isotropic", "anisotropic"])
    def test_both_stops_reached(self, rng, variant):
        img = rng.standard_normal((17, 33))
        for stop, settings in STOPS.items():
            cfg = TvConfig(variant=variant, **settings)
            longer = dataclasses.replace(cfg, max_iters=cfg.max_iters + 1)
            same = np.array_equal(tv_prox_reference(img, 0.3, cfg)[0],
                                  tv_prox_reference(img, 0.3, longer)[0])
            assert same == (stop == "gap")


class TestReturnedTv:
    """The TV tv_prox returns, measured at its last gap check, is tv_norm of
    its output bit for bit; tv_prox_stack's is the sum of tv_norm over its
    output's channels, real part first. The iteration count and gap tell
    which rule stopped it."""

    @pytest.mark.parametrize("variant", ["isotropic", "anisotropic"])
    @pytest.mark.parametrize("case", ["gap", "max_iters", "warm", "tau_zero"])
    def test_tv_is_tv_norm_of_output(self, rng, variant, case):
        img = rng.standard_normal((12, 12))
        tau = 0.0 if case == "tau_zero" else 0.3
        cfg = TvConfig(variant=variant, max_iters=500, dual_gap_tol=1e-4)
        dual = None
        if case == "max_iters":
            cfg = TvConfig(variant=variant, max_iters=3, dual_gap_tol=1e-14)
        elif case == "warm":
            dual = tv_prox(img + 0.1 * rng.standard_normal(img.shape), tau, cfg)[1]
        out, _, tv, iters, gap = tv_prox(img, tau, cfg, dual_init=dual)
        assert bits(tv) == bits(tv_norm(out, variant))
        gap_bound = cfg.dual_gap_tol * np.sum(img**2)
        if case in ("gap", "warm"):  # the gap rule stopped it: one more iteration allowed
            assert 1 <= iters < cfg.max_iters and gap <= gap_bound
            longer = dataclasses.replace(cfg, max_iters=cfg.max_iters + 1)
            np.testing.assert_array_equal(tv_prox(img, tau, longer, dual_init=dual)[0], out)
        elif case == "max_iters":  # it ran out of iterations: one more changes it
            assert iters == cfg.max_iters and gap > gap_bound
            longer = dataclasses.replace(cfg, max_iters=cfg.max_iters + 1)
            assert not np.array_equal(tv_prox(img, tau, longer)[0], out)

    @pytest.mark.parametrize("variant", ["isotropic", "anisotropic"])
    @pytest.mark.parametrize("tau", [0.0, 0.3])
    def test_stack_tv_is_channel_loop(self, rng, variant, tau):
        x = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
        cfg = TvConfig(variant=variant, max_iters=40, dual_gap_tol=1e-6)
        _, dual, *_ = tv_prox_stack(x, 0.2, cfg, (8, 8))
        for init in (None, dual):
            out, _, tv, *_ = tv_prox_stack(x, tau, cfg, (8, 8), dual_init=init)
            loop = 0.0
            for s in range(3):
                channel = out[:, s].reshape(8, 8)
                loop += tv_norm(channel.real, variant)
                loop += tv_norm(channel.imag, variant)
            assert bits(tv) == bits(loop)


class TestTvProxStack:
    def test_real_stack_stays_real(self, rng):
        x = rng.standard_normal((64, 3)).astype(complex)
        out, *_ = tv_prox_stack(x, 0.4, TIGHT, (8, 8))
        assert np.all(out.imag == 0)

    def test_constant_channel_unchanged(self, rng):
        x = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
        x[:, 1] = 2.0 + 1.0j
        out, *_ = tv_prox_stack(x, 0.4, TIGHT, (8, 8))
        np.testing.assert_allclose(out[:, 1], x[:, 1], atol=1e-12)

    def test_separable_channels(self, rng):
        x = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
        # the stack's iterations are the images' sum, its gap their largest
        out, duals, _, iters, gap = tv_prox_stack(x, 0.3, TIGHT, (8, 8))
        assert duals.shape == (4, 2, 8, 8)  # [column of the float64 view, p/q]
        image_iters, image_gaps = [], []
        for s in range(2):
            re, dual_re, _, iters_re, gap_re = tv_prox(x[:, s].real.reshape(8, 8), 0.3, TIGHT)
            im, dual_im, _, iters_im, gap_im = tv_prox(x[:, s].imag.reshape(8, 8), 0.3, TIGHT)
            np.testing.assert_allclose(out[:, s], (re + 1j * im).ravel(), atol=1e-14)
            np.testing.assert_array_equal(duals[2 * s], dual_re)
            np.testing.assert_array_equal(duals[2 * s + 1], dual_im)
            image_iters += [iters_re, iters_im]
            image_gaps += [gap_re, gap_im]
        assert iters == sum(image_iters) and len(set(image_iters)) > 1
        assert bits(gap) == bits(max(image_gaps))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            tv_prox_stack(np.zeros((63, 2), dtype=complex), 0.1, TvConfig(), (8, 8))
