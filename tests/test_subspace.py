import numpy as np
import pytest

from mrfkit import epg, subspace

from oracles import expand


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestLearnSubspace:
    def test_orthonormal_columns(self, rng):
        atoms = random_complex(rng, (40, 120))
        basis = subspace.learn_subspace(atoms, 7)
        gram = basis.v.conj().T @ basis.v
        assert np.abs(gram - np.eye(7)).max() < 1e-10

    def test_rank_one_dictionary(self, rng):
        signal = random_complex(rng, (30,))
        scales = rng.uniform(0.5, 2.0, 25)
        atoms = signal[:, None] * scales[None, :]
        basis = subspace.learn_subspace(atoms, 1)
        # v spans the signal: the column projection v v^H removes nothing
        recon = basis.v @ (basis.v.conj().T @ signal)
        np.testing.assert_allclose(recon, signal, atol=1e-10)
        assert basis.captured_energy() == pytest.approx(1.0, abs=1e-12)

    def test_residual_matches_svd_tail(self, rng):
        atoms = random_complex(rng, (20, 50))
        basis = subspace.learn_subspace(atoms, 5)
        residual = atoms - basis.v @ (basis.v.conj().T @ atoms)
        tail = np.linalg.svd(atoms, compute_uv=False)[5:]
        lhs = np.linalg.norm(residual) ** 2
        rhs = np.sum(tail**2)
        assert abs(lhs - rhs) / rhs < 1e-8

    def test_gram_path_matches_direct(self, rng):
        # force the wide-matrix path and compare against the direct SVD
        atoms = random_complex(rng, (10, 512))
        direct = subspace.learn_subspace(atoms, 4)
        old = subspace._GRAM_WIDTH_RATIO
        subspace._GRAM_WIDTH_RATIO = 2
        try:
            gram = subspace.learn_subspace(atoms, 4)
        finally:
            subspace._GRAM_WIDTH_RATIO = old
        np.testing.assert_allclose(gram.v, direct.v, atol=1e-8)
        np.testing.assert_allclose(gram.s_values, direct.s_values, rtol=1e-8)

    def test_phase_convention(self, rng):
        atoms = random_complex(rng, (16, 40))
        basis = subspace.learn_subspace(atoms, 3)
        for j in range(3):
            col = basis.v[:, j]
            k = np.argmax(np.abs(col))
            assert col[k].imag == pytest.approx(0.0, abs=1e-12)
            assert col[k].real > 0

    def test_rank_bounds(self, rng):
        atoms = random_complex(rng, (10, 20))
        with pytest.raises(ValueError):
            subspace.learn_subspace(atoms, 0)
        with pytest.raises(ValueError):
            subspace.learn_subspace(atoms, 11)

    def test_on_dictionary(self, small_dictionary):
        basis = subspace.learn_subspace(small_dictionary, 3)
        assert basis.v.shape == (small_dictionary.n_frames, 3)
        assert basis.s_values.shape == (min(small_dictionary.atoms.shape),)
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
        np.testing.assert_allclose(loaded.v, basis.v, atol=1e-6)
        np.testing.assert_allclose(loaded.s_values, basis.s_values, rtol=1e-6)

    def test_energy_on_desk_dictionary(self, desk_basis):
        assert desk_basis.captured_energy() > 0.99
