import numpy as np
import pytest

from mrfkit import bundle, epg, subspace

from oracles import expand, learn_subspace_complex


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def stacked(atoms):
    """The real L x 2d matrix [Re D | Im D] whose left singular vectors the
    basis holds."""
    return np.hstack([atoms.real, atoms.imag])


class TestLearnSubspace:
    def test_orthonormal_columns(self, rng):
        atoms = random_complex(rng, (40, 120))
        basis = subspace.learn_subspace(atoms, 7)
        gram = basis.v.conj().T @ basis.v
        assert np.abs(gram - np.eye(7)).max() < 1e-10

    def test_rank_one_dictionary(self, rng):
        # one real signal under a common phase: [Re D | Im D] has rank one
        signal = np.exp(0.7j) * rng.standard_normal(30)
        scales = rng.uniform(0.5, 2.0, 25)
        atoms = signal[:, None] * scales[None, :]
        basis = subspace.learn_subspace(atoms, 1)
        # v spans the signal: the column projection v v^H removes nothing
        recon = basis.v @ (basis.v.conj().T @ signal)
        np.testing.assert_allclose(recon, signal, atol=1e-10)
        u = np.linalg.svd(stacked(atoms), full_matrices=False)[0][:, :1]
        np.testing.assert_allclose(basis.v @ basis.v.conj().T, u @ u.T, atol=1e-10)
        assert basis.captured_energy() == pytest.approx(1.0, abs=1e-12)

    def test_residual_matches_svd_tail(self, rng):
        atoms = random_complex(rng, (20, 50))
        basis = subspace.learn_subspace(atoms, 5)
        residual = atoms - basis.v @ (basis.v.conj().T @ atoms)
        tail = np.linalg.svd(stacked(atoms), compute_uv=False)[5:]
        lhs = np.linalg.norm(residual) ** 2
        rhs = np.sum(tail**2)
        assert abs(lhs - rhs) / rhs < 1e-8

    @pytest.mark.parametrize("shape", [(10, 512), (20, 20), (30, 12)],
                             ids=["wide", "square", "narrow"])
    def test_matches_svd(self, rng, shape):
        atoms = random_complex(rng, shape)
        rank = 4
        basis = subspace.learn_subspace(atoms, rank)
        u, s, _ = np.linalg.svd(stacked(atoms), full_matrices=False)
        np.testing.assert_allclose(basis.v @ basis.v.conj().T,
                                   u[:, :rank] @ u[:, :rank].T, atol=1e-10)
        np.testing.assert_allclose(basis.s_values[:rank], s[:rank], rtol=1e-8)
        assert basis.s_values.shape == (min(shape[0], 2 * shape[1]),)
        assert np.all(np.diff(basis.s_values) <= 0)
        assert np.all(basis.s_values >= 0)
        assert basis.v.flags.c_contiguous
        assert basis.v.dtype == np.float64

    def test_imaginary_atoms_match_complex_svd(self, rng):
        # atoms i times a real signal, as every simulated dictionary's are:
        # the subspace is that of the complex SVD of D itself
        atoms = 1j * rng.standard_normal((24, 90))
        rank = 5
        basis = subspace.learn_subspace(atoms, rank)
        u, s, _ = np.linalg.svd(atoms, full_matrices=False)
        np.testing.assert_allclose(basis.v @ basis.v.conj().T,
                                   u[:, :rank] @ u[:, :rank].conj().T, atol=1e-10)
        np.testing.assert_allclose(basis.s_values[:24], s, rtol=1e-8)

    def test_phase_convention(self, rng):
        atoms = random_complex(rng, (16, 40))
        basis = subspace.learn_subspace(atoms, 3)
        for j in range(3):
            col = basis.v[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_captured_energy_is_energy_inside(self, rng):
        # narrow: min(L, 2d) singular values, more than min(L, d)
        atoms = random_complex(rng, (30, 12))
        basis = subspace.learn_subspace(atoms, 4)
        inside = np.linalg.norm(basis.v.conj().T @ atoms) ** 2
        assert basis.captured_energy() == pytest.approx(
            inside / np.linalg.norm(atoms) ** 2, rel=1e-12)

    def test_epg_dictionary_matches_complex_gram(self, desk_dictionary):
        # the real Gram against the complex Gram and complex eigh it replaces,
        # at the default rank
        basis = subspace.learn_subspace(desk_dictionary, 5)
        reference = learn_subspace_complex(desk_dictionary.atoms, 5)
        assert np.abs(basis.v - reference).max() < 1e-10

    def test_complex_v_refused(self, rng):
        v = np.linalg.qr(rng.standard_normal((10, 3)))[0]
        with pytest.raises(ValueError, match="must be real"):
            subspace.SubspaceBasis(v=v + 0j, s_values=np.ones(3))

    def test_rank_bounds(self, rng):
        atoms = random_complex(rng, (10, 20))
        with pytest.raises(ValueError):
            subspace.learn_subspace(atoms, 0)
        with pytest.raises(ValueError):
            subspace.learn_subspace(atoms, 11)

    def test_on_dictionary(self, small_dictionary):
        basis = subspace.learn_subspace(small_dictionary, 3)
        assert basis.v.shape == (small_dictionary.n_frames, 3)
        n_frames, n_atoms = small_dictionary.atoms.shape
        assert basis.s_values.shape == (min(n_frames, 2 * n_atoms),)
        assert np.all(np.diff(basis.s_values) <= 1e-9)
        assert np.all(basis.s_values >= 0)


class TestProjectExpand:
    @pytest.fixture
    def basis(self, rng):
        return subspace.learn_subspace(random_complex(rng, (24, 60)), 6)

    def test_unit_coefficient_round_trip(self, basis):
        for j in range(basis.rank_s):
            e = np.zeros(basis.rank_s, dtype=complex)
            e[j] = 1.0
            x = expand(e, basis)  # row j of V^H
            np.testing.assert_allclose(subspace.project(x, basis), e, atol=1e-12)

    def test_zero_maps_to_zero(self, basis):
        assert np.all(subspace.project(np.zeros(24), basis) == 0)

    def test_projection_is_least_squares(self, basis, rng):
        x = random_complex(rng, (24,))
        recon = expand(subspace.project(x, basis), basis)
        assert np.linalg.norm(recon) <= np.linalg.norm(x) + 1e-12
        # oracle: direct least-squares fit of x over the rows of V^H
        vh = basis.v.conj().T
        coeff, *_ = np.linalg.lstsq(vh.T, x, rcond=None)
        np.testing.assert_allclose(recon, coeff @ vh, atol=1e-10)

    def test_in_span_round_trip(self, basis, rng):
        c = random_complex(rng, (5, basis.rank_s))
        x = expand(c, basis)
        np.testing.assert_allclose(subspace.project(x, basis), c, atol=1e-10)

    def test_expand_is_isometry(self, basis, rng):
        c = random_complex(rng, (7, basis.rank_s))
        assert np.linalg.norm(expand(c, basis)) == pytest.approx(
            np.linalg.norm(c), abs=1e-10
        )

    def test_dimension_mismatch(self, basis, rng):
        with pytest.raises(ValueError):
            subspace.project(random_complex(rng, (23,)), basis)
        with pytest.raises(ValueError):
            expand(random_complex(rng, (4,)), basis)

    def test_stack_shapes(self, basis, rng):
        x = random_complex(rng, (50, 24))
        c = subspace.project(x, basis)
        assert c.shape == (50, basis.rank_s)
        assert expand(c, basis).shape == (50, 24)


class TestPhaseAlign:
    def test_real_nonnegative_unchanged(self):
        c = np.array([3.0, 1.0, 2.0], dtype=complex)
        np.testing.assert_allclose(subspace.phase_align(c), [3.0, 1.0, 2.0], atol=1e-15)

    def test_global_phase_removal(self, rng):
        r = rng.standard_normal(8)
        c = np.exp(1j * 1.234) * r
        aligned = subspace.phase_align(c)
        sign = np.sign(aligned[np.argmax(np.abs(r))]) * np.sign(r[np.argmax(np.abs(r))])
        np.testing.assert_allclose(aligned, sign * r, atol=1e-12)
        assert aligned[np.argmax(np.abs(aligned))] > 0

    def test_global_phase_invariance(self, rng):
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        base = subspace.phase_align(c)
        for theta in rng.uniform(0, 2 * np.pi, 8):
            np.testing.assert_allclose(
                subspace.phase_align(np.exp(1j * theta) * c), base, atol=1e-12
            )

    def test_zero_vector(self):
        assert np.all(subspace.phase_align(np.zeros(5, dtype=complex)) == 0)

    def test_idempotent_on_output(self, rng):
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        once = subspace.phase_align(c)
        twice = subspace.phase_align(once.astype(complex))
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_dominant_entry_and_energy_sweep(self, rng):
        # constant-phase input: alignment recovers the dominant magnitude and
        # at least the best real-part energy of a 10000-point phase sweep
        r = rng.standard_normal(7)
        c = np.exp(1j * 0.789) * r
        aligned = subspace.phase_align(c)
        j = np.argmax(np.abs(c))
        assert abs(aligned[j]) == pytest.approx(np.abs(c[j]), abs=1e-12)
        phis = np.linspace(0, 2 * np.pi, 10_000, endpoint=False)
        sweep = np.sum(
            (c[None, :] * np.exp(-1j * phis)[:, None]).real ** 2, axis=1
        ).max()
        assert np.sum(aligned**2) + 1e-9 >= sweep

    def test_batched_rows(self, rng):
        c = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
        batched = subspace.phase_align(c)
        for i in range(12):
            np.testing.assert_allclose(batched[i], subspace.phase_align(c[i]), atol=1e-14)


class TestBasisRoundTrip:
    def test_save_load(self, rng, tmp_path):
        basis = subspace.learn_subspace(random_complex(rng, (20, 40)), 4)
        path = tmp_path / "basis.mrfb"
        subspace.save_basis(basis, path)
        loaded = subspace.load_basis(path)
        assert loaded.rank_s == 4
        # v is stored as float32 and loaded as float64
        assert bundle.read_bundle(path)[0]["v"].dtype == np.float32
        assert loaded.v.dtype == np.float64
        np.testing.assert_array_equal(loaded.v, basis.v.astype(np.float32))
        np.testing.assert_allclose(loaded.s_values, basis.s_values, rtol=1e-6)

    def test_energy_on_desk_dictionary(self, desk_basis):
        assert desk_basis.captured_energy() > 0.99
