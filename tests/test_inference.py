import dataclasses

import numpy as np
import pytest

from mrfkit import epg, experiment, inference, subspace
from mrfkit.inference import MrfNet, TrainConfig

from oracles import (atom_projections_reference, dictionary_match_reference,
                     loss_and_gradients_reference, match_full_space, train_reference,
                     training_set_lspace, training_set_reference)

# TrainConfig at the shipped training settings
_TRAIN = experiment.DEFAULT_EXPERIMENT["train"]
TRAIN_DEFAULTS = TrainConfig(noise_sigma=_TRAIN["sigma"], augment_factor=_TRAIN["augment"],
                             epochs=_TRAIN["epochs"], batch_size=_TRAIN["batch_size"],
                             learning_rate=_TRAIN["learning_rate"],
                             seed=experiment.DEFAULT_EXPERIMENT["seed"])


@pytest.fixture(scope="module")
def toy_setup(small_dictionary):
    basis = subspace.learn_subspace(small_dictionary, 3)
    return small_dictionary, basis


def bits(a):
    """Unsigned-integer view of a float or complex array, for bitwise
    comparison."""
    a = np.asarray(a)
    return a.view({4: np.uint32, 8: np.uint64, 16: np.uint64}[a.itemsize])


def atom_subset(dictionary, n_t1, n_t2):
    """The first n_t1 * n_t2 atoms of dictionary, labelled by an n_t1 x n_t2 grid."""
    grid = epg.GridSpec(t1=epg.GridRange(1, 1, n_t1), t2=epg.GridRange(1, 1, n_t2))
    return epg.Dictionary(dictionary.atoms[:, : n_t1 * n_t2], dictionary.schedule, grid)


# atom counts about epg.CHUNK_SIZE (512): 4661 ends in a partial block, 513 in
# a single atom that joins the block before it, 514 in a block of two, and 9
# is less than a block
ATOM_GRIDS = [(79, 59), (27, 19), (2, 257), (3, 3)]


def clean_projections(dictionary, basis):
    cfg = TrainConfig(noise_sigma=0.0, augment_factor=1, epochs=0, seed=0)
    return inference.make_training_set(dictionary, basis, cfg)


def per_row(data):
    """make_training_set's (inputs, labels) with each label repeated for every
    row that copies its atom: the one-label-per-row form of the same set."""
    inputs, labels = data
    return inputs, np.repeat(labels, len(inputs) // len(labels), axis=0)


class TestMakeTrainingSet:
    def test_clean_single_augment(self, toy_setup):
        d, basis = toy_setup
        inputs, labels = clean_projections(d, basis)
        assert inputs.shape == (d.n_atoms, basis.rank_s)
        norms = np.linalg.norm(d.atoms, axis=0, keepdims=True)
        norms[norms == 0] = 1.0
        expected = subspace.phase_align(
            subspace.project((d.atoms / norms).T.astype(np.complex128), basis)
        )
        expected /= np.linalg.norm(expected, axis=1, keepdims=True)
        np.testing.assert_allclose(inputs, expected, atol=1e-6)
        np.testing.assert_array_equal(labels[:, 0], d.t1_ms)

    def test_augment_count(self, toy_setup):
        d, basis = toy_setup
        cfg = TrainConfig(noise_sigma=0.01, augment_factor=100, epochs=0, seed=3)
        inputs, labels = inference.make_training_set(d, basis, cfg)
        assert inputs.shape[0] == d.n_atoms * 100
        assert labels.shape == (d.n_atoms, 2) and labels.dtype == np.float32
        np.testing.assert_array_equal(labels, np.stack([d.t1_ms, d.t2_ms], axis=1))

    def test_rows_unit_norm(self, toy_setup):
        d, basis = toy_setup
        cfg = TrainConfig(noise_sigma=0.05, augment_factor=9, epochs=0, seed=5)
        inputs, _ = inference.make_training_set(d, basis, cfg)
        np.testing.assert_allclose(np.linalg.norm(inputs, axis=1), 1.0, atol=1e-6)

    def test_deterministic_given_seed(self, toy_setup):
        d, basis = toy_setup
        cfg = TrainConfig(noise_sigma=0.02, augment_factor=4, epochs=0, seed=11)
        a, _ = inference.make_training_set(d, basis, cfg)
        b, _ = inference.make_training_set(d, basis, cfg)
        np.testing.assert_array_equal(a, b)

    def test_working_memory_does_not_grow_with_rows(self, desk_dictionary, desk_basis,
                                                    traced_peak):
        # 46,610 and 466,100 rows: the outputs are the rows and one label per
        # atom, and the memory beyond them is the clean projections and one
        # block's temporaries at both
        extra = []
        for aug in (10, 100):
            cfg = TrainConfig(noise_sigma=0.002, augment_factor=aug, epochs=0, seed=1)
            peak, data = traced_peak(inference.make_training_set, desk_dictionary,
                                     desk_basis, cfg)
            outputs = sum(a.nbytes for a in data)
            assert outputs == data[0].nbytes + 8 * desk_dictionary.n_atoms
            extra.append(peak - outputs)
        assert abs(extra[1] - extra[0]) <= 2**20, extra

    @pytest.mark.parametrize("aug", [2**62, np.int64(2**62)], ids=["int", "int64"])
    def test_unaddressable_row_count_refused_first(self, toy_setup, traced_peak, aug):
        # 9 x 2**62 rows wrap in int64; the count is refused before any
        # array is allocated
        d, basis = toy_setup
        cfg = TrainConfig(noise_sigma=0.01, augment_factor=aug, epochs=0, seed=1)

        def build():
            with pytest.raises(ValueError, match=f"9 atoms x augment {2**62} = {9 * 2**62} "):
                inference.make_training_set(d, basis, cfg)

        peak, _ = traced_peak(build)
        assert peak < 2**20, peak

    def test_empty_dictionary_rejected(self, toy_setup, short_schedule):
        # every grid has a pair, so a dictionary without atoms cannot be made
        d, _ = toy_setup
        with pytest.raises(ValueError, match="'grid' has 3 x 3 .* but 'atoms' has 0 columns"):
            epg.Dictionary(np.zeros((100, 0), np.complex64), short_schedule, d.grid_spec)


class TestAtomProjections:
    @pytest.mark.parametrize("grid", ATOM_GRIDS, ids=lambda g: str(g[0] * g[1]))
    @pytest.mark.parametrize("normalized", [True, False])
    def test_blocks_equal_whole_matrix(self, desk_dictionary, desk_basis, grid, normalized):
        d = atom_subset(desk_dictionary, *grid)
        got = inference._atom_projections(d, desk_basis, normalized)
        ref = atom_projections_reference(d, desk_basis, normalized)
        assert got.dtype == ref.dtype == np.complex128
        np.testing.assert_array_equal(bits(got), bits(ref))

    def test_normalized_atoms_have_unit_norm(self, small_dictionary):
        # on the identity basis the projections are the atoms themselves
        frames = small_dictionary.n_frames
        identity = subspace.SubspaceBasis(v=np.eye(frames), s_values=np.ones(frames))
        normed = inference._atom_projections(small_dictionary, identity, normalized=True)
        np.testing.assert_allclose(np.linalg.norm(normed, axis=1), 1.0, rtol=1e-5)
        raw = inference._atom_projections(small_dictionary, identity, normalized=False)
        assert not np.allclose(np.linalg.norm(raw, axis=1), 1.0)


class TestFileBackedAtoms:
    """A loaded dictionary's atoms stay in its file; atom_blocks reads them in
    the blocks it takes from an in-memory matrix, a last single atom joined to
    the block before it."""

    @pytest.fixture
    def dictionaries(self, short_schedule, tmp_path, monkeypatch):
        """A built 3 x 3 dictionary, 9 = 2 * 4 + 1 atoms in blocks of 4, its
        file-backed load and a rank-3 basis."""
        monkeypatch.setattr(epg, "CHUNK_SIZE", 4)
        grid = epg.GridSpec(t1=epg.GridRange(400, 800, 2000), t2=epg.GridRange(40, 80, 200))
        built = epg.build_dictionary(grid, short_schedule)
        path = tmp_path / "dict.mrfb"
        epg.save_dictionary(built, path)
        return built, epg.load_dictionary(path), subspace.learn_subspace(built, 3)

    @pytest.mark.parametrize("normalized", [True, False])
    def test_projections_equal_whole_matrix(self, dictionaries, normalized):
        built, loaded, basis = dictionaries
        got = inference._atom_projections(loaded, basis, normalized)
        ref = atom_projections_reference(built, basis, normalized)
        np.testing.assert_array_equal(bits(got), bits(ref))

    def test_match_equals_in_memory(self, dictionaries, rng, monkeypatch):
        built, loaded, basis = dictionaries
        monkeypatch.setattr(inference, "MATCH_SCORES", 64 * built.n_atoms)  # 64-row blocks
        rows = np.concatenate([rng.standard_normal((2 * 64 + 3, 3)),
                               clean_projections(built, basis)[0]])
        maps, pd = inference.dictionary_match(rows, loaded, basis)
        ref_maps, ref_pd = inference.dictionary_match(rows, built, basis)
        np.testing.assert_array_equal(bits(maps), bits(ref_maps))
        np.testing.assert_array_equal(bits(pd), bits(ref_pd))


class TestWorkingMemory:
    """tracemalloc bounds on what the blocked paths hold beyond their outputs."""

    def test_training_set_does_not_grow_with_atoms(self, desk_dictionary, desk_basis,
                                                   traced_peak):
        # 1025 and 4661 atoms: beyond the outputs (the rows and one label per
        # atom), only the (d, S) complex128 table of clean projections grows
        # with the atom count, not a copy of the (L, d) atoms
        cfg = TrainConfig(noise_sigma=0.002, augment_factor=10, epochs=0, seed=1)
        extra = []
        for grid in ((25, 41), (79, 59)):
            d = atom_subset(desk_dictionary, *grid)
            peak, data = traced_peak(inference.make_training_set, d, desk_basis, cfg)
            outputs = sum(a.nbytes for a in data)
            assert outputs == data[0].nbytes + 8 * d.n_atoms
            extra.append((d.n_atoms, peak - outputs))
        (n0, extra0), (n1, extra1) = extra
        assert extra1 - extra0 <= (n1 - n0) * desk_basis.rank_s * 16 + 2**20, extra

    def test_train_holds_no_float64_targets(self, desk_dictionary, desk_basis, traced_peak):
        # an epoch over the shipped 466,100 rows holds its uint32 order (1.9 MB)
        # and one batch's temporaries, not a per-row copy of the 4661 labels
        # (3.7 MB as float32), normalized or not, nor an int64 order (3.7 MB)
        cfg = TrainConfig(noise_sigma=0.002, augment_factor=100, epochs=1, seed=1)
        data = inference.make_training_set(desk_dictionary, desk_basis, cfg)
        assert data[1].nbytes == 8 * desk_dictionary.n_atoms
        net = MrfNet.initialize(desk_basis.rank_s, (100, 4000), (20, 600), (8, 8), seed=0)
        peak, _ = traced_peak(inference.train, net, data, cfg)
        n = data[0].shape[0]
        assert peak <= n * np.dtype(np.uint32).itemsize + 2**19, (peak, n)

    # each side of the uint8, uint16 and uint32 boundaries, and the shipped N
    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 65535, 65536, 65537, 466_100])
    def test_compact_order_is_the_permutation(self, n):
        # two draws in a row: rng.permutation(n)'s values, and the generator
        # left in its state
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(2):
            order = inference._row_order(rng, n)
            assert order.dtype == np.min_scalar_type(n - 1)
            np.testing.assert_array_equal(order, ref_rng.permutation(n))
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_matching_holds_no_copy_of_the_atoms(self, desk_dictionary, desk_basis,
                                                 traced_peak):
        # one block of scores and the (d, S) projections, not a complex128 copy
        # of the (L, d) atoms; the rows fill three blocks
        d = desk_dictionary
        rows = clean_projections(d, desk_basis)[0][: 3 * (inference.MATCH_SCORES // d.n_atoms)]
        peak, _ = traced_peak(inference.dictionary_match, rows, d, desk_basis)
        table = d.n_atoms * desk_basis.rank_s * 16
        assert peak <= 2 * table + inference.MATCH_SCORES * 8 + 2**20, peak


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("noise_sigma", float("nan")), ("noise_sigma", float("inf")), ("noise_sigma", -0.1),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("learning_rate", -float("inf")), ("learning_rate", 0.0),
        ("augment_factor", 0), ("epochs", -1), ("batch_size", 0),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            dataclasses.replace(TRAIN_DEFAULTS, **{field: value})


class TestNetBasics:
    def test_zero_epochs_returns_init(self, toy_setup):
        d, basis = toy_setup
        data = clean_projections(d, basis)
        net = MrfNet.initialize(3, (400.0, 2000.0), (40.0, 200.0), hidden=(16, 16), seed=4)
        cfg = dataclasses.replace(TRAIN_DEFAULTS, epochs=0)
        trained, history = inference.train(net, data, cfg)
        assert history == []
        for w0, w1 in zip(net.weights, trained.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_forward_shapes(self):
        net = MrfNet.initialize(5, (100.0, 4000.0), (20.0, 600.0), hidden=(8, 8), seed=0)
        out = net.forward(np.random.default_rng(0).standard_normal((10, 5)).astype(np.float32))
        assert out.shape == (10, 2)

    def test_predict_clamped_to_grid(self):
        net = MrfNet.initialize(3, (100.0, 4000.0), (20.0, 600.0), hidden=(4, 4), seed=1)
        # saturate with huge inputs; outputs must stay inside the ranges
        x = 1e4 * np.ones((5, 3), dtype=np.float32)
        pred = net.predict_ms(x)
        assert np.all(pred[:, 0] >= 100.0) and np.all(pred[:, 0] <= 4000.0)
        assert np.all(pred[:, 1] >= 20.0) and np.all(pred[:, 1] <= 600.0)

    def test_output_relu_flag(self):
        net = MrfNet.initialize(3, (0.0, 1.0), (0.0, 1.0), hidden=(4, 4), seed=2,
                                output_relu=True)
        x = np.random.default_rng(3).standard_normal((20, 3)).astype(np.float32)
        assert np.all(net.forward(x) >= 0.0)


class TestBackpropGradients:
    @pytest.mark.parametrize("output_relu", [False, True])
    def test_matches_finite_differences(self, output_relu):
        rng = np.random.default_rng(12)
        net = MrfNet.initialize(4, (100.0, 4000.0), (20.0, 600.0), hidden=(6, 5),
                                seed=7, output_relu=output_relu, dtype=np.float64)
        x = rng.standard_normal((5, 4))
        y = rng.random((5, 2))
        _, grad_ws, grad_bs = net.loss_and_gradients(x, y)
        h = 1e-6
        for params, grads in ((net.weights, grad_ws), (net.biases, grad_bs)):
            for tensor, grad in zip(params, grads):
                flat = tensor.ravel()
                num = np.zeros_like(grad).ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    lp, *_ = net.loss_and_gradients(x, y)
                    flat[i] = orig - h
                    lm, *_ = net.loss_and_gradients(x, y)
                    flat[i] = orig
                    num[i] = (lp - lm) / (2 * h)
                num = num.reshape(grad.shape)
                denom = max(np.linalg.norm(num), 1e-12)
                assert np.linalg.norm(grad - num) / denom < 1e-4


class TestLossAndGradientsReference:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("output_relu", [False, True])
    def test_matches_reference_on_zero_preactivations(self, dtype, output_relu):
        # zero input rows, a dead unit in each hidden layer and a dead output
        # make pre-activations exactly zero, where the mask must be 0
        rng = np.random.default_rng(21)
        net = MrfNet.initialize(4, (100.0, 4000.0), (20.0, 600.0), hidden=(6, 5),
                                seed=3, output_relu=output_relu, dtype=dtype)
        net.weights[0][:, 0] = 0.0
        net.weights[1][:, 2] = 0.0
        net.weights[2][:, 1] = 0.0
        x = rng.standard_normal((8, 4)).astype(dtype)
        x[2] = 0.0
        x[5] = -0.0
        y = rng.random((8, 2)).astype(dtype)
        pre0 = x @ net.weights[0] + net.biases[0]
        assert np.count_nonzero(pre0 == 0) > 8 and np.count_nonzero(pre0 < 0) > 0
        loss, grad_ws, grad_bs = net.loss_and_gradients(x, y)
        ref_loss, ref_ws, ref_bs = loss_and_gradients_reference(net, x, y)
        assert bits(np.float64(loss)) == bits(np.float64(ref_loss))
        for got, ref in zip(grad_ws + grad_bs, ref_ws + ref_bs):
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(bits(got), bits(ref))


def dense_gradients(net, x, targets_norm):
    """The backward pass over every unit of every layer, weights then biases:
    post.T @ delta and delta @ w.T at full width."""
    post = net._forward_cached(x)
    diff = post[-1] - targets_norm
    delta = (2.0 / diff.size) * diff
    if net.output_relu:
        delta = delta * (post[-1] > 0)
    last = len(net.weights) - 1
    grad_ws, grad_bs = [None] * (last + 1), [None] * (last + 1)
    for i in range(last, -1, -1):
        grad_ws[i] = post[i].T @ delta
        grad_bs[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i].T) * (post[i] > 0)
    return grad_ws + grad_bs


# float roundoff of a product whose summation order changed
ROUNDOFF = {np.float32: 1e-6, np.float64: 1e-14}
SHIPPED_HIDDEN = tuple(_TRAIN["hidden"])


def live_units(net, x, layer):
    """How many units of a hidden layer some row of x activates."""
    return int(np.count_nonzero((net._forward_cached(x)[layer + 1] > 0).any(axis=0)))


def assert_matches_dense(net, x, y):
    _, grad_ws, grad_bs = net.loss_and_gradients(x, y)
    tol = ROUNDOFF[net.weights[0].dtype.type]
    for got, ref in zip(grad_ws + grad_bs, dense_gradients(net, x, y)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.abs(got - ref).max() <= tol * np.abs(ref).max()


class TestLiveUnitStep:
    """loss_and_gradients forms the products of the layer between the hidden
    layers over the units a batch activates; its gradients equal the dense
    products to roundoff."""

    @pytest.fixture(scope="class", params=[np.float32, np.float64], ids=["float32", "float64"])
    def trained(self, request, desk_dictionary, desk_basis):
        # the shipped widths trained for 74 batches of 512: about a quarter of
        # the second-layer units no longer fire
        dtype = request.param
        cfg = dataclasses.replace(TRAIN_DEFAULTS, augment_factor=4, epochs=2)
        x, labels_ms = inference.make_training_set(desk_dictionary, desk_basis, cfg)
        x = x.astype(dtype)
        net = MrfNet.initialize(desk_basis.rank_s, (100.0, 4000.0), (20.0, 600.0),
                                hidden=SHIPPED_HIDDEN, seed=cfg.seed, dtype=dtype)
        net, _ = inference.train(net, (x, labels_ms), cfg)
        _, targets_ms = per_row((x, labels_ms))
        lo, hi = net._bounds()
        y = inference._normalized(targets_ms.astype(np.float64), lo, hi - lo).astype(dtype)
        order = np.random.default_rng(8).permutation(x.shape[0])
        return net, x[order], y[order]

    @pytest.mark.parametrize("rows", [512, 196, 1])
    def test_trained_batches(self, trained, rows):
        net, x, y = trained
        assert x.shape[1] == 5 and live_units(net, x[:512], 1) < SHIPPED_HIDDEN[1]
        assert_matches_dense(net, x[:rows], y[:rows])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_without_live_units(self, dtype):
        rng = np.random.default_rng(9)
        net = MrfNet.initialize(5, (100.0, 4000.0), (20.0, 600.0), hidden=SHIPPED_HIDDEN,
                                seed=9, dtype=dtype)
        net.biases[1][:] = -1e3
        x = rng.standard_normal((64, 5)).astype(dtype)
        y = rng.random((64, 2)).astype(dtype)
        assert live_units(net, x, 1) == 0
        _, grad_ws, grad_bs = net.loss_and_gradients(x, y)
        assert not grad_ws[0].any() and not grad_ws[1].any() and grad_bs[2].any()
        assert_matches_dense(net, x, y)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_relu(self, dtype):
        rng = np.random.default_rng(10)
        net = MrfNet.initialize(5, (100.0, 4000.0), (20.0, 600.0), hidden=SHIPPED_HIDDEN,
                                seed=10, output_relu=True, dtype=dtype)
        net.biases[1][::2] = -1e3  # half the second layer never fires
        x = rng.standard_normal((196, 5)).astype(dtype)
        y = rng.random((196, 2)).astype(dtype)
        out = net.forward(x)
        assert (out > 0).any() and (out == 0).any()
        assert live_units(net, x, 1) <= SHIPPED_HIDDEN[1] // 2
        assert_matches_dense(net, x, y)


class TestTraining:
    def test_toy_dictionary_convergence(self, toy_setup):
        # 9 atoms, sigma=0: the net should interpolate the labels
        d, basis = toy_setup
        cfg = TrainConfig(noise_sigma=0.0, augment_factor=1, epochs=5000,
                          batch_size=9, learning_rate=0.2, seed=2)
        data = clean_projections(d, basis)
        net = MrfNet.initialize(3, (float(d.t1_ms.min()), float(d.t1_ms.max())),
                                (float(d.t2_ms.min()), float(d.t2_ms.max())),
                                hidden=(32, 32), seed=2, dtype=np.float64)
        trained, history = inference.train(net, data, cfg)
        assert history[-1] < 1e-4
        assert history[-1] < history[0]

    def test_deterministic(self, toy_setup):
        d, basis = toy_setup
        cfg = TrainConfig(noise_sigma=0.0, augment_factor=1, epochs=50,
                          batch_size=4, learning_rate=0.05, seed=3)
        data = clean_projections(d, basis)
        net = MrfNet.initialize(3, (400.0, 2000.0), (40.0, 200.0), hidden=(8, 8), seed=3)
        t1, h1 = inference.train(net, data, cfg)
        t2, h2 = inference.train(net, data, cfg)
        assert h1 == h2
        for a, b in zip(t1.weights, t2.weights):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self, toy_setup):
        d, basis = toy_setup
        data = clean_projections(d, basis)
        cfg = TrainConfig(noise_sigma=0.0, augment_factor=1, epochs=200,
                          batch_size=9, learning_rate=1e9, seed=0)
        net = MrfNet.initialize(3, (400.0, 2000.0), (40.0, 200.0), hidden=(8, 8), seed=1)
        with pytest.raises(FloatingPointError, match="^training loss became non-finite at epoch "):
            inference.train(net, data, cfg)


def assert_trains_like_reference(net, data, cfg, rates=None):
    """Train with the library on data and with the oracle on data's one label
    per row (at the given per-epoch rates, by default its own rule), require
    equal bits in every weight, bias and loss; returns the oracle's final
    velocities."""
    got, got_history = inference.train(net, data, cfg)
    ref, ref_history, velocities = train_reference(net, per_row(data), cfg, rates)
    assert len(got_history) == cfg.epochs
    for g, r in zip(got.weights + got.biases, ref.weights + ref.biases):
        assert g.dtype == r.dtype
        np.testing.assert_array_equal(bits(g), bits(r))
    np.testing.assert_array_equal(bits(got_history), bits(ref_history))
    return velocities


class TestBitwiseReference:
    """make_training_set and train reproduce the out-of-place oracles in
    tests/oracles.py bit for bit."""

    @staticmethod
    def check_training_set(dictionary, basis, cfg):
        got = inference.make_training_set(dictionary, basis, cfg)
        assert len(got[1]) == dictionary.n_atoms
        ref = training_set_reference(dictionary, basis, cfg)
        for g, r in zip(per_row(got), ref):
            assert g.dtype == r.dtype
            np.testing.assert_array_equal(bits(g), bits(r))

    # (0.002, 100) is the shipped setting: 466,100 rows in many blocks, the
    # last one partial
    @pytest.mark.parametrize("sigma,aug", [(0.002, 3), (0.0, 2), (0.01, 1), (0.002, 100),
                                           (0.0, 100)])
    def test_training_set(self, desk_dictionary, desk_basis, sigma, aug):
        cfg = TrainConfig(noise_sigma=sigma, augment_factor=aug, epochs=0, seed=7)
        self.check_training_set(desk_dictionary, desk_basis, cfg)

    @pytest.mark.parametrize("sigma", [0.01, 0.0])
    def test_training_set_atom_straddles_blocks(self, toy_setup, sigma):
        # each atom's copies outnumber a block, so block edges fall inside them
        d, basis = toy_setup
        aug = inference._TRAINING_BLOCK * 3 // 2
        cfg = TrainConfig(noise_sigma=sigma, augment_factor=aug, epochs=0, seed=7)
        self.check_training_set(d, basis, cfg)

    @pytest.mark.parametrize("grid", ATOM_GRIDS[1:], ids=lambda g: str(g[0] * g[1]))
    def test_training_set_atom_blocks(self, desk_dictionary, desk_basis, grid):
        cfg = TrainConfig(noise_sigma=0.002, augment_factor=3, epochs=0, seed=7)
        self.check_training_set(atom_subset(desk_dictionary, *grid), desk_basis, cfg)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("output_relu", [False, True])
    def test_train(self, toy_setup, dtype, output_relu):
        d, basis = toy_setup
        # 90 rows in batches of 32: the last batch holds 26
        cfg = TrainConfig(noise_sigma=0.01, augment_factor=10, epochs=40,
                          batch_size=32, learning_rate=0.1, seed=4)
        data = inference.make_training_set(d, basis, cfg)
        net = MrfNet.initialize(3, (400.0, 2000.0), (40.0, 200.0), hidden=(16, 16), seed=4,
                                output_relu=output_relu, dtype=dtype)
        assert_trains_like_reference(net, data, cfg)

    def test_train_through_subnormal_velocities(self, toy_setup):
        # units that die early keep decaying velocities for ~800 batches
        # until these are float32 subnormals, where the float32 product is slow
        d, basis = toy_setup
        cfg = TrainConfig(noise_sigma=0.01, augment_factor=1, epochs=300,
                          batch_size=4, learning_rate=0.2, seed=5)
        data = inference.make_training_set(d, basis, cfg)
        net = MrfNet.initialize(3, (400.0, 2000.0), (40.0, 200.0), hidden=(32, 32), seed=5)
        velocities = assert_trains_like_reference(net, data, cfg)
        tiny = np.finfo(np.float32).tiny
        assert sum(np.count_nonzero((v != 0) & (np.abs(v) < tiny)) for v in velocities) > 0


    def test_train_through_a_long_stall(self, toy_setup):
        # one full batch per epoch at a rate too small to move the loss: every
        # epoch after the first stalls, through the last two at a tenth of it
        d, basis = toy_setup
        cfg = TrainConfig(noise_sigma=0.01, augment_factor=4, epochs=13,
                          batch_size=64, learning_rate=1e-12, seed=6)
        data = inference.make_training_set(d, basis, cfg)
        net = MrfNet.initialize(3, (400.0, 2000.0), (40.0, 200.0), hidden=(8, 8), seed=6,
                                dtype=np.float64)
        assert_trains_like_reference(net, data, cfg)
        _, history = inference.train(net, data, cfg)
        assert max(history) - min(history) < 1e-6 * history[0]


class TestSharedLabels:
    """train on one label per atom trains as on that label repeated for every
    row that copies the atom."""

    @pytest.mark.parametrize("aug", [1, 4])
    def test_equals_one_label_per_row(self, toy_setup, aug):
        # 9 x aug rows in batches of 8: the last batch is partial at both
        d, basis = toy_setup
        cfg = TrainConfig(noise_sigma=0.01, augment_factor=aug, epochs=12,
                          batch_size=8, learning_rate=0.1, seed=9)
        data = inference.make_training_set(d, basis, cfg)
        net = MrfNet.initialize(3, (400.0, 2000.0), (40.0, 200.0), hidden=(16, 16), seed=9)
        got, got_history = inference.train(net, data, cfg)
        rows, rows_history = inference.train(net, per_row(data), cfg)
        ref, ref_history, _ = train_reference(net, per_row(data), cfg)
        for g, r, o in zip(got.weights + got.biases, rows.weights + rows.biases,
                           ref.weights + ref.biases):
            np.testing.assert_array_equal(bits(g), bits(r))
            np.testing.assert_array_equal(bits(g), bits(o))
        np.testing.assert_array_equal(bits(got_history), bits(rows_history))
        np.testing.assert_array_equal(bits(got_history), bits(ref_history))

    def test_one_label_for_a_whole_compact_order(self, toy_setup):
        # 256 rows of one atom: the uint8 order's idx // 256 must not overflow
        d, basis = toy_setup
        cfg = TrainConfig(noise_sigma=0.01, augment_factor=256, epochs=2,
                          batch_size=64, learning_rate=0.1, seed=9)
        data = inference.make_training_set(atom_subset(d, 1, 1), basis, cfg)
        assert inference._row_order(np.random.default_rng(0), 256).dtype == np.uint8
        net = MrfNet.initialize(3, (400.0, 2000.0), (40.0, 200.0), hidden=(8, 8), seed=9)
        assert_trains_like_reference(net, data, cfg)

    @pytest.mark.parametrize("rows,labels", [(10, 3), (10, 0), (0, 3)])
    def test_rows_not_a_positive_multiple_refused(self, rows, labels):
        net = MrfNet.initialize(3, (400.0, 2000.0), (40.0, 200.0), hidden=(8, 8), seed=0)
        data = (np.ones((rows, 3), np.float32), np.full((labels, 2), 500.0, np.float32))
        cfg = TrainConfig(noise_sigma=0.0, augment_factor=1, epochs=3, batch_size=4)
        seen = []
        with pytest.raises(ValueError, match=f"^{rows} training rows for {labels} labels: "):
            inference.train(net, data, cfg, on_epoch=lambda *args: seen.append(args))
        assert seen == []


class TestRateRule:
    """train runs the configured rate, then a tenth of it for the last
    epochs // 5 epochs."""

    @pytest.mark.parametrize("epochs", [0, 1, 4, 5, 6, 12, 30])
    def test_decayed_epoch_count(self, epochs):
        cfg = dataclasses.replace(TRAIN_DEFAULTS, epochs=epochs)
        rates = [inference.learning_rate(cfg, epoch) for epoch in range(epochs)]
        lr, n_decayed = cfg.learning_rate, epochs // 5
        assert rates == [lr] * (epochs - n_decayed) + [lr / 10] * n_decayed

    @pytest.fixture
    def setup(self, toy_setup):
        d, basis = toy_setup
        cfg = TrainConfig(noise_sigma=0.01, augment_factor=10, epochs=5,
                          batch_size=32, learning_rate=0.1, seed=8)
        data = inference.make_training_set(d, basis, cfg)
        net = MrfNet.initialize(3, (400.0, 2000.0), (40.0, 200.0), hidden=(16, 16), seed=8)
        return net, data, cfg

    def test_four_epochs_keep_the_constant_rate(self, setup):
        net, data, cfg = setup
        cfg = dataclasses.replace(cfg, epochs=4)
        assert_trains_like_reference(net, data, cfg, rates=[cfg.learning_rate] * 4)

    def test_five_epochs_decay_the_last_only(self, setup):
        net, data, cfg = setup
        lr = cfg.learning_rate
        assert_trains_like_reference(net, data, cfg, rates=[lr] * 4 + [lr / 10])
        seen = []
        got, history = inference.train(net, data, cfg,
                                       on_epoch=lambda *args: seen.append(args))
        assert [(epoch, loss, rate) for epoch, _, loss, rate in seen] == [
            (epoch, loss, lr if epoch < 4 else lr / 10) for epoch, loss in enumerate(history)]
        assert all(net_seen is got for _, net_seen, _, _ in seen)  # the net being trained
        # the constant-rate loop agrees for four epochs and parts in the fifth
        const, const_history, _ = train_reference(net, per_row(data), cfg, rates=[lr] * 5)
        np.testing.assert_array_equal(bits(history[:4]), bits(const_history[:4]))
        assert history[4] != const_history[4]


def assert_same_means(a, b, z=5.0):
    """The column means of two independent samples (rows) differ by less
    than z standard errors of their difference."""
    se = np.sqrt(a.var(axis=0) / len(a) + b.var(axis=0) / len(b))
    np.testing.assert_array_less(np.abs(a.mean(axis=0) - b.mean(axis=0)), z * se)


class TestSubspaceNoise:
    """make_training_set draws its noise in the subspace; the frame-space
    construction in tests/oracles.py is the distribution it must match."""

    def test_projected_white_noise_is_white(self, desk_basis):
        sigma, n = 0.01, 20000
        rng = np.random.default_rng(0)
        noise = sigma * rng.standard_normal((n, desk_basis.n_frames, 2)).view(np.complex128)
        c = subspace.project(noise[..., 0], desk_basis)
        # each entry's standard error is at most sqrt(2) * 2 sigma^2 / sqrt(n)
        tol = 5.0 * np.sqrt(2.0 / n)
        rank = desk_basis.rank_s
        np.testing.assert_allclose(c.conj().T @ c / (n * 2 * sigma**2), np.eye(rank), atol=tol)
        np.testing.assert_allclose(c.T @ c / (n * 2 * sigma**2), np.zeros((rank, rank)),
                                   atol=tol)

    def test_rows_match_frame_space_noise(self, desk_dictionary, desk_basis):
        # every 8th T1 and every 10th T2 value of the desk grid: 10 x 6 atoms
        grid = epg.GridSpec(t1=epg.GridRange(100, 400, 3700), t2=epg.GridRange(20, 100, 520))
        atoms = desk_dictionary.atoms.reshape(-1, 79, 59)[:, ::8, ::10].reshape(-1, 60)
        d = dataclasses.replace(desk_dictionary, atoms=atoms, grid_spec=grid)
        for sub, full in ((d.t1_ms, desk_dictionary.t1_ms), (d.t2_ms, desk_dictionary.t2_ms)):
            np.testing.assert_array_equal(sub, full.reshape(79, 59)[::8, ::10].ravel())
        cfg = TrainConfig(noise_sigma=0.01, augment_factor=200, epochs=0, seed=21)
        clean = np.repeat(clean_projections(d, desk_basis)[0], cfg.augment_factor, axis=0)
        resid = [np.asarray(rows, dtype=np.float64) - clean
                 for rows in (inference.make_training_set(d, desk_basis, cfg)[0],
                              training_set_lspace(d, desk_basis, cfg))]
        assert_same_means(*resid)
        # the covariance is the mean of the products of the centered residuals
        products = []
        for r in resid:
            r = r - r.mean(axis=0)
            products.append((r[:, :, None] * r[:, None, :]).reshape(len(r), -1))
        assert_same_means(*products)


class TestMomentumProduct:
    """train forms MOMENTUM * v for float32 v as a float64 product rounded
    once to float32. The product of two float32 values is exact in float64,
    so the single rounding gives the float32 product."""

    @staticmethod
    def positive_patterns():
        subnormal = np.arange(1, 2**23, dtype=np.uint32)
        special = np.array([0, 0x7F800000, 0x7FC00000, 0x7F7FFFFF], dtype=np.uint32)
        normal = np.random.default_rng(0).integers(0x00800000, 0x7F800000, 10**6,
                                                   dtype=np.uint32)
        return np.concatenate([subnormal, special, normal])

    @pytest.mark.parametrize("sign", [0, 0x80000000])
    def test_float64_product_is_float32_product(self, sign):
        v = (self.positive_patterns() | np.uint32(sign)).view(np.float32)
        want = np.float32(inference.MOMENTUM) * v
        got = (v.astype(np.float64) * np.float64(np.float32(inference.MOMENTUM))).astype(
            np.float32)
        nan = np.isnan(want)
        assert nan.sum() == 1 and np.array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(bits(got)[~nan], bits(want)[~nan])

    def test_double_momentum_would_differ(self):
        v = self.positive_patterns().view(np.float32)
        wrong = (v.astype(np.float64) * np.float64(inference.MOMENTUM)).astype(np.float32)
        assert np.any(bits(wrong) != bits(np.float32(inference.MOMENTUM) * v))


class TestInfer:
    @pytest.mark.parametrize("estimator", ["infer", "match"])
    def test_background_masked(self, toy_setup, estimator):
        d, basis = toy_setup
        coeffs = np.zeros((10, 3))
        coeffs[0] = [1.0, 0.2, 0.1]
        coeffs[1] = [1e-6, 0.0, 0.0]  # below the relative threshold
        coeffs[2] = [2e-3, 0.0, 0.0]  # above it
        if estimator == "infer":
            net = MrfNet.initialize(3, (400.0, 2000.0), (40.0, 200.0), hidden=(8, 8), seed=0)
            maps = inference.infer(net, coeffs)
        else:
            maps, pd = inference.dictionary_match(coeffs, d, basis)
            assert np.all(pd[3:] == 0) and pd[1] == 0
            assert np.all(pd[[0, 2]] > 0)
        assert np.all(maps[3:] == 0) and np.all(maps[1] == 0)
        assert np.all(maps[[0, 2]] > 0)

    def test_row_permutation_equivariance(self, toy_setup, rng):
        d, basis = toy_setup
        net = MrfNet.initialize(3, (400.0, 2000.0), (40.0, 200.0), hidden=(8, 8), seed=0)
        coeffs = rng.standard_normal((12, 3))
        perm = rng.permutation(12)
        np.testing.assert_allclose(
            inference.infer(net, coeffs)[perm], inference.infer(net, coeffs[perm]),
            atol=1e-6,
        )

    def test_width_mismatch(self):
        net = MrfNet.initialize(3, (400.0, 2000.0), (40.0, 200.0), hidden=(8, 8), seed=0)
        with pytest.raises(ValueError):
            inference.infer(net, np.zeros((4, 5)))


class TestDictionaryMatch:
    def test_atoms_match_themselves(self, toy_setup):
        d, basis = toy_setup
        inputs, targets = clean_projections(d, basis)
        maps, pd = inference.dictionary_match(inputs, d, basis)
        np.testing.assert_array_equal(maps[:, 0], targets[:, 0])
        np.testing.assert_array_equal(maps[:, 1], targets[:, 1])

    def test_scale_invariance(self, toy_setup, rng):
        d, basis = toy_setup
        inputs, _ = clean_projections(d, basis)
        scales = rng.uniform(0.1, 10.0, (inputs.shape[0], 1))
        maps_a, _ = inference.dictionary_match(inputs, d, basis)
        maps_b, _ = inference.dictionary_match(inputs * scales, d, basis)
        np.testing.assert_array_equal(maps_a, maps_b)

    def test_pd_recovers_amplitude(self, toy_setup):
        d, basis = toy_setup
        # a voxel that is exactly 0.7x a raw atom projected into the subspace
        atom = d.atoms[:, 4].astype(np.complex128)
        coeff = subspace.phase_align(subspace.project(0.7 * atom[None, :], basis))
        maps, pd = inference.dictionary_match(coeff, d, basis)
        assert maps[0, 0] == d.t1_ms[4]
        assert pd[0] == pytest.approx(0.7, rel=1e-3)

    def test_small_dictionary_scores_one_block(self, toy_setup, monkeypatch):
        # 200 rows against 9 atoms are 1800 scores, far under MATCH_SCORES, so
        # one block holds them all; np.argmax sees each block of scores
        d, basis = toy_setup
        rows = np.tile(clean_projections(d, basis)[0], (23, 1))[:200]
        blocks, argmax = [], np.argmax

        def spy(a, *args, **kwargs):
            if np.ndim(a) == 2 and a.shape[1] == d.n_atoms:
                blocks.append(a.shape[0])
            return argmax(a, *args, **kwargs)

        monkeypatch.setattr(np, "argmax", spy)
        inference.dictionary_match(rows, d, basis)
        assert blocks == [200]

    def test_matches_large_block_reference(self, desk_dictionary, desk_basis, rng,
                                           monkeypatch):
        # BLAS may round a score 1 ulp differently in a smaller block; the
        # argmax, and so the maps, must not move
        monkeypatch.setattr(inference, "MATCH_SCORES", 64 * desk_dictionary.n_atoms)
        rows = rng.standard_normal((3 * 64 + 5, 5))
        rows = np.concatenate([rows, clean_projections(desk_dictionary, desk_basis)[0]])
        maps, pd = inference.dictionary_match(rows, desk_dictionary, desk_basis)
        ref_maps, ref_pd = dictionary_match_reference(rows, desk_dictionary, desk_basis)
        np.testing.assert_array_equal(bits(maps), bits(ref_maps))
        np.testing.assert_allclose(pd, ref_pd, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("grid", ATOM_GRIDS, ids=lambda g: str(g[0] * g[1]))
    def test_blocked_projections_keep_maps_and_pd(self, desk_dictionary, desk_basis, rng,
                                                  monkeypatch, grid):
        # the same scoring on the whole-matrix projections gives the same bits
        d = atom_subset(desk_dictionary, *grid)
        monkeypatch.setattr(inference, "MATCH_SCORES", 64 * d.n_atoms)  # 64-row blocks
        rows = np.concatenate([rng.standard_normal((2 * 64 + 3, 5)),
                               clean_projections(d, desk_basis)[0]])
        maps, pd = inference.dictionary_match(rows, d, desk_basis)
        monkeypatch.setattr(inference, "_atom_projections", atom_projections_reference)
        ref_maps, ref_pd = inference.dictionary_match(rows, d, desk_basis)
        np.testing.assert_array_equal(bits(maps), bits(ref_maps))
        np.testing.assert_array_equal(bits(pd), bits(ref_pd))

    def test_agrees_with_full_space_oracle(self, desk_dictionary, desk_basis):
        d, basis = desk_dictionary, desk_basis
        inputs, _ = clean_projections(d, basis)
        maps, _ = inference.dictionary_match(inputs, d, basis)
        oracle_idx = match_full_space(d.atoms.T.astype(np.complex128), d.atoms)
        agree_t1 = maps[:, 0] == d.t1_ms[oracle_idx]
        agree_t2 = maps[:, 1] == d.t2_ms[oracle_idx]
        assert (agree_t1 & agree_t2).mean() >= 0.99


class TestNetVsMatching:
    def test_small_grid_agreement(self, short_schedule):
        # trainable in seconds: coarse grid, rich fingerprints
        grid = epg.GridSpec(t1=epg.GridRange(300, 300, 2100), t2=epg.GridRange(40, 60, 340))
        d = epg.build_dictionary(grid, short_schedule)
        basis = subspace.learn_subspace(d, 4)
        cfg = TrainConfig(noise_sigma=0.002, augment_factor=40, epochs=120,
                          batch_size=64, learning_rate=0.05, seed=6)
        data = inference.make_training_set(d, basis, cfg)
        net = MrfNet.initialize(4, (float(d.t1_ms.min()), float(d.t1_ms.max())),
                                (float(d.t2_ms.min()), float(d.t2_ms.max())),
                                hidden=(48, 48), seed=6)
        net, _ = inference.train(net, data, cfg)
        inputs, _ = clean_projections(d, basis)
        pred = net.predict_ms(inputs)
        maps, _ = inference.dictionary_match(inputs, d, basis)
        within_t1 = np.abs(pred[:, 0] - maps[:, 0]) <= 300.0
        within_t2 = np.abs(pred[:, 1] - maps[:, 1]) <= 60.0
        assert within_t1.mean() >= 0.9
        assert within_t2.mean() >= 0.9


class TestNetRoundTrip:
    def test_save_load(self, tmp_path):
        net = MrfNet.initialize(5, (100.0, 4000.0), (20.0, 600.0), hidden=(12, 9), seed=8)
        cfg = TrainConfig(noise_sigma=0.01, augment_factor=10, epochs=3)
        path = tmp_path / "net.mrfb"
        inference.save_net(net, cfg, path)
        loaded = inference.load_net(path)
        assert loaded.t1_range == net.t1_range
        assert loaded.output_relu == net.output_relu
        for a, b in zip(loaded.weights, net.weights):
            np.testing.assert_array_equal(a, b)
        x = np.random.default_rng(1).standard_normal((6, 5)).astype(np.float32)
        np.testing.assert_allclose(loaded.forward(x), net.forward(x), atol=1e-6)
