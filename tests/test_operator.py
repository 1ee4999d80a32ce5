import numpy as np
import pytest

from mrfkit import bundle, forward_model as fm, subspace

from oracles import adjoint_frames, forward_frames


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_basis(rng, n_frames, rank):
    """A real orthonormal basis, as a learned one is, but with no structure
    of a dictionary."""
    v = np.linalg.qr(rng.standard_normal((n_frames, rank)))[0]
    return subspace.SubspaceBasis(v=v, s_values=np.ones(rank))


def rel_err(fast, reference):
    assert fast.shape == reference.shape
    return np.linalg.norm(fast - reference) / np.linalg.norm(reference)


# (h, w, n_coils, coil kind, rank, frames) of the subspace operators' checks
# against the per-frame oracles
OPERATOR_SHAPES = [
    (32, 32, 1, "uniform", 1, 12),
    (24, 40, 4, "gaussian-ring", 3, 12),
    (40, 24, 3, "uniform", 10, 16),
    (32, 32, 4, "gaussian-ring", 10, 12),
    # frame counts that are not a multiple of the frame block
    (16, 20, 2, "gaussian-ring", 3, fm._FRAME_BLOCK + 5),
    (20, 16, 3, "uniform", 1, 2 * fm._FRAME_BLOCK + 1),
]


class TestMasks:
    def test_full_sampling(self):
        p = fm.make_vd_cartesian_masks(32, 32, 5, accel=1.0, seed=0)
        assert p.masks.all()
        np.testing.assert_array_equal(p.per_frame_counts, 32 * 32)

    def test_expected_budget_and_center(self):
        p = fm.make_vd_cartesian_masks(64, 64, 10, accel=8.0, seed=7)
        target = 64 * 64 / 8
        counts = p.per_frame_counts
        assert np.all(counts > target * 0.85)
        assert np.all(counts < target * 1.15)
        # 9x9 center block fully sampled every frame (wrap-around indexing)
        idx = np.r_[0:5, 60:64]
        block = p.masks[:, idx][:, :, idx]
        assert block.all()

    def test_deterministic(self):
        a = fm.make_vd_cartesian_masks(48, 48, 6, accel=6.0, seed=11)
        b = fm.make_vd_cartesian_masks(48, 48, 6, accel=6.0, seed=11)
        np.testing.assert_array_equal(a.masks, b.masks)
        c = fm.make_vd_cartesian_masks(48, 48, 6, accel=6.0, seed=12)
        assert (a.masks != c.masks).any()

    def test_frames_differ(self):
        p = fm.make_vd_cartesian_masks(64, 64, 4, accel=8.0, seed=3)
        assert (p.masks[0] != p.masks[1]).any()

    def test_center_exceeds_budget(self):
        with pytest.raises(ValueError):
            fm.make_vd_cartesian_masks(32, 32, 2, accel=64.0, seed=0, center_radius=6)

    def test_density_decays_radially(self):
        # corners should be sampled much less often than the mid-frequencies
        p = fm.make_vd_cartesian_masks(64, 64, 200, accel=8.0, seed=5)
        freq = p.masks.mean(axis=0)
        corner = freq[28:36, 28:36].mean()  # +/- Nyquist corner in fft layout
        mid = freq[0:4, 0:4].mean()  # around DC (excluding forced block it is 1)
        assert corner < 0.2
        assert mid > 0.9


class TestCoilMaps:
    def test_uniform_single(self):
        maps = fm.make_coil_maps(24, 24, 1, kind="uniform")
        np.testing.assert_array_equal(maps.sens, np.ones((1, 24, 24)))

    def test_uniform_rss_one(self):
        maps = fm.make_coil_maps(16, 16, 4, kind="uniform")
        np.testing.assert_allclose(maps.rss(), 1.0, atol=1e-12)

    def test_gaussian_ring_rss(self):
        maps = fm.make_coil_maps(64, 64, 8, kind="gaussian-ring")
        rss = maps.rss()
        assert rss.max() == pytest.approx(1.0, abs=1e-12)
        yy, xx = np.mgrid[0:64, 0:64]
        disk = (yy - 31.5) ** 2 + (xx - 31.5) ** 2 <= 16.0**2
        assert rss[disk].min() > 0.1

    def test_even_coil_count_symmetry(self):
        maps = fm.make_coil_maps(32, 32, 6, kind="gaussian-ring")
        rss = maps.rss()
        np.testing.assert_allclose(rss, rss[::-1, ::-1], atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fm.make_coil_maps(8, 8, 2, kind="birdcage")


class TestForwardAdjoint:
    @pytest.mark.parametrize("size,n_coils,rank", [(32, 1, 3), (32, 4, 10), (64, 4, 3)])
    def test_adjoint_identity(self, rng, size, n_coils, rank):
        n_frames = 12
        basis = random_basis(rng, n_frames, rank)
        pattern = fm.make_vd_cartesian_masks(size, size, n_frames, accel=4.0, seed=1)
        coils = fm.make_coil_maps(size, size, n_coils, kind="gaussian-ring")
        x = random_complex(rng, (size * size, rank))
        y = fm.KSpaceData(
            y=random_complex(rng, (n_frames, n_coils, size, size)), pattern=pattern
        )
        ax = fm.forward(x, basis, coils, pattern)
        ahy = fm.adjoint(y, basis, coils, pattern)
        lhs = np.vdot(ax.y, y.y)
        rhs = np.vdot(x, ahy)
        assert abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(y.y)) < 1e-10

    def test_zero_maps(self, rng):
        basis = random_basis(rng, 8, 3)
        pattern = fm.make_vd_cartesian_masks(16, 16, 8, accel=2.0, seed=2)
        coils = fm.make_coil_maps(16, 16, 2, kind="gaussian-ring")
        assert np.all(fm.forward(np.zeros((256, 3), dtype=complex), basis, coils, pattern).y == 0)
        zero_y = fm.KSpaceData(y=np.zeros((8, 2, 16, 16), dtype=complex), pattern=pattern)
        assert np.all(fm.adjoint(zero_y, basis, coils, pattern) == 0)

    def test_unitary_case_round_trip(self, rng):
        # full sampling, one uniform coil: A^H A = identity on the subspace
        n_frames, rank, size = 10, 4, 24
        basis = random_basis(rng, n_frames, rank)
        pattern = fm.make_vd_cartesian_masks(size, size, n_frames, accel=1.0, seed=0)
        coils = fm.make_coil_maps(size, size, 1, kind="uniform")
        x = random_complex(rng, (size * size, rank))
        back = fm.adjoint(fm.forward(x, basis, coils, pattern), basis, coils, pattern)
        np.testing.assert_allclose(back, x, atol=1e-10)

    def test_full_sampling_identity_basis(self, rng):
        # S = L with V = I: forward is the per-frame unitary FFT of the series
        n_frames, size = 6, 16
        eye_basis = subspace.SubspaceBasis(v=np.eye(n_frames), s_values=np.ones(n_frames))
        pattern = fm.make_vd_cartesian_masks(size, size, n_frames, accel=1.0, seed=0)
        coils = fm.make_coil_maps(size, size, 1, kind="uniform")
        x = random_complex(rng, (size * size, n_frames))
        ks = fm.forward(x, eye_basis, coils, pattern)
        for t in range(n_frames):
            expected = np.fft.fft2(x[:, t].reshape(size, size), norm="ortho")
            np.testing.assert_allclose(ks.y[t, 0], expected, atol=1e-12)

    def test_linearity(self, rng):
        basis = random_basis(rng, 9, 3)
        pattern = fm.make_vd_cartesian_masks(16, 16, 9, accel=3.0, seed=4)
        coils = fm.make_coil_maps(16, 16, 3, kind="gaussian-ring")
        x1 = random_complex(rng, (256, 3))
        x2 = random_complex(rng, (256, 3))
        a, b = 1.7 - 0.3j, -0.6 + 2.1j
        combined = fm.forward(a * x1 + b * x2, basis, coils, pattern).y
        separate = a * fm.forward(x1, basis, coils, pattern).y + b * fm.forward(
            x2, basis, coils, pattern
        ).y
        np.testing.assert_allclose(combined, separate, atol=1e-10)

    def test_operator_norm_bounds(self, rng):
        # power iteration on A^H A; unitary case has norm 1, masked case <= 1
        n_frames, rank, size = 8, 3, 32
        basis = random_basis(rng, n_frames, rank)
        coils = fm.make_coil_maps(size, size, 4, kind="gaussian-ring")
        for accel in (1.0, 4.0):
            pattern = fm.make_vd_cartesian_masks(size, size, n_frames, accel=accel, seed=6)
            x = random_complex(rng, (size * size, rank))
            x /= np.linalg.norm(x)
            norm = 0.0
            for _ in range(30):
                x = fm.adjoint(fm.forward(x, basis, coils, pattern), basis, coils, pattern)
                norm = np.linalg.norm(x)
                x /= norm
            assert norm <= 1.0 + 1e-6

    def test_dimension_mismatch(self, rng):
        basis = random_basis(rng, 8, 3)
        pattern = fm.make_vd_cartesian_masks(16, 16, 8, accel=2.0, seed=2)
        coils = fm.make_coil_maps(16, 16, 2, kind="gaussian-ring")
        with pytest.raises(ValueError):
            fm.forward(random_complex(rng, (256, 4)), basis, coils, pattern)
        bad_y = fm.KSpaceData(y=random_complex(rng, (8, 3, 16, 16)), pattern=pattern)
        with pytest.raises(ValueError):
            fm.adjoint(bad_y, basis, coils, pattern)

    @pytest.mark.parametrize("h,w,n_coils,kind,rank,n_frames", OPERATOR_SHAPES)
    def test_matches_per_frame_oracles(self, rng, h, w, n_coils, kind, rank, n_frames):
        basis = random_basis(rng, n_frames, rank)
        pattern = fm.make_vd_cartesian_masks(h, w, n_frames, accel=3.0, seed=31)
        coils = fm.make_coil_maps(h, w, n_coils, kind=kind)
        x = random_complex(rng, (h * w, rank))
        y = fm.KSpaceData(y=random_complex(rng, (n_frames, n_coils, h, w)), pattern=pattern)
        ks = fm.forward(x, basis, coils, pattern)
        assert ks.pattern is pattern
        assert rel_err(ks.y, forward_frames(x, basis, coils, pattern).y) < 1e-12
        assert np.all(ks.y[~np.broadcast_to(pattern.masks[:, None], ks.y.shape)] == 0)
        assert rel_err(fm.adjoint(y, basis, coils, pattern),
                       adjoint_frames(y, basis, coils, pattern)) < 1e-12


class TestNormalOperator:
    """The kernel normal operator against the per-frame oracles,
    adjoint_frames(forward_frames(x))."""

    def problem(self, rng, h, w, n_coils, kind, rank, n_frames):
        basis = random_basis(rng, n_frames, rank)
        pattern = fm.make_vd_cartesian_masks(h, w, n_frames, accel=3.0, seed=31)
        coils = fm.make_coil_maps(h, w, n_coils, kind=kind)
        return basis, pattern, coils, fm.gram_kernel(basis, pattern)

    @pytest.mark.parametrize("h,w,n_coils,kind,rank,n_frames", OPERATOR_SHAPES)
    def test_matches_adjoint_of_forward(self, rng, h, w, n_coils, kind, rank, n_frames):
        basis, pattern, coils, kernel = self.problem(rng, h, w, n_coils, kind, rank, n_frames)
        assert kernel.shape == (h, w, rank, rank) and kernel.dtype == np.float64
        x = random_complex(rng, (h * w, rank))
        reference = adjoint_frames(forward_frames(x, basis, coils, pattern), basis, coils, pattern)
        assert rel_err(fm.normal(x, kernel, coils), reference) < 1e-12

    @pytest.mark.parametrize("rank", [1, 3, 10])
    def test_hermitian_positive_semidefinite(self, rng, rank):
        h, w = 24, 20
        _, _, coils, kernel = self.problem(rng, h, w, 3, "gaussian-ring", rank, 14)
        for _ in range(5):
            x = random_complex(rng, (h * w, rank))
            y = random_complex(rng, (h * w, rank))
            gx, gy = fm.normal(x, kernel, coils), fm.normal(y, kernel, coils)
            scale = np.linalg.norm(x) * np.linalg.norm(y)
            assert abs(np.vdot(gx, y) - np.vdot(x, gy)) / scale < 1e-12
            quad = np.vdot(x, gx)
            assert abs(quad.imag) < 1e-12 * np.vdot(x, x).real
            assert quad.real >= 0.0

    def test_shape_mismatch(self, rng):
        _, _, coils, kernel = self.problem(rng, 16, 16, 2, "uniform", 3, 8)
        with pytest.raises(ValueError):
            fm.normal(random_complex(rng, (256, 4)), kernel, coils)
        with pytest.raises(ValueError):
            fm.normal(random_complex(rng, (256, 3)), kernel, fm.make_coil_maps(16, 8, 2))


class TestKspaceRoundTrip:
    def test_save_load(self, rng, tmp_path):
        pattern = fm.make_vd_cartesian_masks(16, 16, 4, accel=2.0, seed=5)
        coils = fm.make_coil_maps(16, 16, 2, kind="gaussian-ring")
        y = random_complex(rng, (4, 2, 16, 16)).astype(np.complex64)
        data = fm.KSpaceData(y=y, pattern=pattern)
        path = tmp_path / "kspace.mrfb"
        fm.save_kspace(data, coils, path, seed=5, accel=2.0, kspace_noise=0.5)
        loaded, loaded_coils = fm.load_kspace(path)
        assert loaded.y.dtype == np.complex64  # as stored: no complex128 copy
        np.testing.assert_array_equal(loaded.y, y)
        np.testing.assert_array_equal(loaded.pattern.masks, pattern.masks)
        np.testing.assert_array_equal(
            loaded_coils.sens, coils.sens.astype(np.complex64)
        )
        meta = bundle.read_bundle(path)[1]
        assert (meta["seed"], meta["accel"], meta["kspace_noise"]) == (5, 2.0, 0.5)
