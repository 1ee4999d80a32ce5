import tracemalloc

import numpy as np
import pytest

from mrfkit import bundle, epg, experiment, subspace

from oracles import expand, learn_subspace_complex, learn_subspace_stacked


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


def gram_input(name, rng, desk_dictionary):
    """An atom matrix for the Gram tests; the simulated one ends in a partial
    block (4661 = 9 * 512 + 53 atoms), and the joined one in a single atom
    that joins the block before it (4097 = 8 * 512 + 1)."""
    if name == "simulated":
        return desk_dictionary.atoms
    if name == "joined":
        return desk_dictionary.atoms[:, : 8 * epg.CHUNK_SIZE + 1]
    if name == "complex":  # both planes nonzero
        return random_complex(rng, (40, 2 * epg.CHUNK_SIZE + 76))
    if name == "real":
        return rng.standard_normal((40, 700))
    return (rng.standard_normal((40, 700)) + 0j).astype(np.complex64)  # a zero imaginary plane


GRAM_INPUTS = ["simulated", "joined", "complex", "real", "zero-imaginary"]


class TestAtomGram:
    """atom_gram sums one plane of one CHUNK_SIZE block at a time and skips
    zero planes; the 2048-atom blocks of both planes side by side give the same
    basis to roundoff."""

    @pytest.mark.parametrize("name", GRAM_INPUTS)
    def test_matches_stacked_blocks(self, rng, desk_dictionary, name):
        atoms = gram_input(name, rng, desk_dictionary)
        rank = 5
        basis = subspace.learn_subspace(atoms, rank)
        v, s_values = learn_subspace_stacked(atoms, rank)
        assert np.abs(basis.v - v).max() < 1e-10
        assert basis.s_values.shape == s_values.shape
        np.testing.assert_allclose(basis.s_values[:rank], s_values[:rank], rtol=1e-10)

    @pytest.mark.parametrize("name,products", [("simulated", 10), ("complex", 6),
                                               ("real", 2), ("zero-imaginary", 2)])
    def test_zero_planes_are_skipped(self, rng, desk_dictionary, monkeypatch, name, products):
        # one product per nonzero plane of each block: a simulated dictionary's
        # real plane, and a real or zero-imaginary input's imaginary one, add none
        calls = []
        matmul = np.matmul

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return matmul(*args, **kwargs)

        atoms = gram_input(name, rng, desk_dictionary)
        monkeypatch.setattr(np, "matmul", counting)
        subspace.atom_gram(atoms, 5)
        assert len(calls) == products

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_in_zero_real_plane_raises(self, desk_dictionary, bad):
        # the entry makes its block's real plane nonzero, so it reaches G
        atoms = desk_dictionary.atoms.copy()
        atoms.real[100, 2000] = bad
        with pytest.raises(ValueError, match="non-finite"):
            subspace.learn_subspace(atoms, 5)

    @pytest.mark.parametrize("rank", [0, 201])
    def test_rank_checked_before_gram(self, desk_dictionary, monkeypatch, rank):
        def no_product(*args, **kwargs):
            raise AssertionError("Gram work before the rank check")

        monkeypatch.setattr(np, "matmul", no_product)
        with pytest.raises(ValueError, match="rank must be in"):
            subspace.learn_subspace(desk_dictionary, rank)


def gram_bound(n_frames):
    """atom_gram's working memory: G, one (L, L) product, one float64 block
    plane, and 1 MB for the rest."""
    return 2 * n_frames * n_frames * 8 + n_frames * epg.CHUNK_SIZE * 8 + 2**20


class TestGramMemory:
    @pytest.mark.parametrize("copies", [1, 3])
    def test_working_memory_does_not_grow_with_atoms(self, desk_dictionary, traced_peak,
                                                     copies):
        atoms = np.tile(desk_dictionary.atoms, (1, copies))
        peak, basis = traced_peak(subspace.learn_subspace, atoms, 5)
        assert basis.rank_s == 5
        assert peak <= gram_bound(atoms.shape[0])

    def test_stage_frees_atoms_before_eigh(self, desk_dictionary, tmp_path, traced_peak,
                                           monkeypatch):
        # the learn-subspace stage holds the loaded atoms only while it forms
        # G, so eigh's workspace is not added on top of them
        dict_path = tmp_path / "dict.mrfb"
        epg.save_dictionary(desk_dictionary, dict_path)
        held = []
        eigh = np.linalg.eigh

        def recording_eigh(a):
            held.append(tracemalloc.get_traced_memory()[0])
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        cfg = experiment.resolve_config(None)
        peak, _ = traced_peak(experiment.learn_subspace, cfg, dict_path, tmp_path / "b.mrfb")
        atoms_bytes = desk_dictionary.atoms.nbytes
        assert len(held) == 1 and held[0] < atoms_bytes
        # the atoms are read one block at a time into one complex64 buffer,
        # so the stage never holds them whole
        n_frames = desk_dictionary.n_frames
        assert peak <= gram_bound(n_frames) + n_frames * epg.CHUNK_SIZE * 8 < atoms_bytes


class TestStreamedGram:
    """The learn-subspace stage reads the atoms from the file a block at a
    time; its G, and so its basis file, are those of the atoms read whole."""

    @pytest.fixture
    def dict_path(self, rng, tmp_path):
        """A hand-made dictionary bundle, 10 x 9 = 90 atoms of 24 frames, whose
        real and imaginary planes are both nonzero."""
        grid = epg.GridSpec(t1=epg.GridRange(100, 100, 1000), t2=epg.GridRange(20, 10, 100))
        atoms = random_complex(rng, (24, 90)).astype(np.complex64)
        path = tmp_path / "dict.mrfb"
        epg.save_dictionary(epg.Dictionary(atoms, epg.default_schedule(24), grid), path)
        return path

    @pytest.mark.parametrize("chunk", [16, 89, 512],
                             ids=["partial-last-block", "joined-single-atom", "one-block"])
    def test_stage_matches_loaded_dictionary(self, dict_path, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(epg, "CHUNK_SIZE", chunk)
        streamed, loaded = tmp_path / "streamed.mrfb", tmp_path / "loaded.mrfb"
        experiment.learn_subspace(experiment.resolve_config({"rank": 4}), dict_path, streamed)
        subspace.save_basis(subspace.learn_subspace(whole_atoms(dict_path), 4), loaded)
        assert streamed.read_bytes() == loaded.read_bytes()

    def test_gram_is_bitwise(self, dict_path, monkeypatch):
        monkeypatch.setattr(epg, "CHUNK_SIZE", 16)
        gram, n_atoms = subspace.atom_gram(epg.load_dictionary(dict_path), 4)
        expected, _ = subspace.atom_gram(whole_atoms(dict_path), 4)
        assert n_atoms == 90 and np.array_equal(gram, expected)


def whole_atoms(path):
    """The atoms of a dictionary bundle, read whole into memory."""
    return bundle.read_bundle(path, kind="dictionary")[0]["atoms"]


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
        c = np.array([[3.0, 1.0, 2.0]], dtype=complex)
        np.testing.assert_allclose(subspace.phase_align(c), [[3.0, 1.0, 2.0]], atol=1e-15)

    def test_global_phase_removal(self, rng):
        r = rng.standard_normal(8)
        c = np.exp(1j * 1.234) * r
        aligned = subspace.phase_align(c[None, :])[0]
        sign = np.sign(aligned[np.argmax(np.abs(r))]) * np.sign(r[np.argmax(np.abs(r))])
        np.testing.assert_allclose(aligned, sign * r, atol=1e-12)
        assert aligned[np.argmax(np.abs(aligned))] > 0

    def test_global_phase_invariance(self, rng):
        c = rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6))
        base = subspace.phase_align(c)
        for theta in rng.uniform(0, 2 * np.pi, 8):
            np.testing.assert_allclose(
                subspace.phase_align(np.exp(1j * theta) * c), base, atol=1e-12
            )

    def test_zero_vector(self):
        assert np.all(subspace.phase_align(np.zeros((1, 5), dtype=complex)) == 0)

    def test_idempotent_on_output(self, rng):
        c = rng.standard_normal((1, 9)) + 1j * rng.standard_normal((1, 9))
        once = subspace.phase_align(c)
        twice = subspace.phase_align(once.astype(complex))
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_dominant_entry_and_energy_sweep(self, rng):
        # constant-phase input: alignment recovers the dominant magnitude and
        # at least the best real-part energy of a 10000-point phase sweep
        r = rng.standard_normal(7)
        c = np.exp(1j * 0.789) * r
        aligned = subspace.phase_align(c[None, :])[0]
        j = np.argmax(np.abs(c))
        assert abs(aligned[j]) == pytest.approx(np.abs(c[j]), abs=1e-12)
        phis = np.linspace(0, 2 * np.pi, 10_000, endpoint=False)
        sweep = np.sum(
            (c[None, :] * np.exp(-1j * phis)[:, None]).real ** 2, axis=1
        ).max()
        assert np.sum(aligned**2) + 1e-9 >= sweep

    def test_batched_rows(self, rng):
        # each row is aligned on its own: the other rows do not change it
        c = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
        batched = subspace.phase_align(c)
        for i in range(12):
            np.testing.assert_array_equal(batched[i : i + 1], subspace.phase_align(c[i : i + 1]))


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
