import dataclasses

import numpy as np
import pytest

from mrfkit import epg, experiment, inference, subspace
from mrfkit.inference import MrfNet, TrainConfig

from oracles import (dictionary_match_reference, loss_and_gradients_reference, match_full_space,
                     train_reference, training_set_lspace, training_set_reference)

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
    """Unsigned-integer view of a float array, for bitwise comparison."""
    a = np.asarray(a)
    return a.view({4: np.uint32, 8: np.uint64}[a.itemsize])


def clean_projections(dictionary, basis):
    cfg = TrainConfig(noise_sigma=0.0, augment_factor=1, epochs=0, seed=0)
    return inference.make_training_set(dictionary, basis, cfg)


class TestMakeTrainingSet:
    def test_clean_single_augment(self, toy_setup):
        d, basis = toy_setup
        inputs, targets = clean_projections(d, basis)
        assert inputs.shape == (d.n_atoms, basis.rank_s)
        expected = subspace.phase_align(
            subspace.project(d.normalized_atoms().T.astype(np.complex128), basis)
        )
        expected /= np.linalg.norm(expected, axis=1, keepdims=True)
        np.testing.assert_allclose(inputs, expected, atol=1e-6)
        np.testing.assert_array_equal(targets[:, 0], d.t1_ms)

    def test_augment_count(self, toy_setup):
        d, basis = toy_setup
        cfg = TrainConfig(noise_sigma=0.01, augment_factor=100, epochs=0, seed=3)
        inputs, targets = inference.make_training_set(d, basis, cfg)
        assert inputs.shape[0] == d.n_atoms * 100
        assert targets.shape == (d.n_atoms * 100, 2)

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

    def test_empty_dictionary_rejected(self, toy_setup, short_schedule):
        # every grid has a pair, so a dictionary without atoms cannot be made
        d, _ = toy_setup
        with pytest.raises(ValueError, match="'grid' has 3 x 3 .* but 'atoms' has 0 columns"):
            epg.Dictionary(np.zeros((100, 0), np.complex64), short_schedule, d.grid_spec)


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
        with pytest.raises(inference.DivergenceError):
            inference.train(net, data, cfg)


def assert_trains_like_reference(net, data, cfg):
    """Train with the library and with the oracle, require equal bits in every
    weight, bias and loss; returns the oracle's final velocities."""
    got, got_history = inference.train(net, data, cfg)
    ref, ref_history, velocities = train_reference(net, data, cfg)
    assert len(got_history) == cfg.epochs
    for g, r in zip(got.weights + got.biases, ref.weights + ref.biases):
        assert g.dtype == r.dtype
        np.testing.assert_array_equal(bits(g), bits(r))
    np.testing.assert_array_equal(bits(got_history), bits(ref_history))
    return velocities


class TestBitwiseReference:
    """make_training_set and train reproduce the out-of-place oracles in
    tests/oracles.py bit for bit."""

    @pytest.mark.parametrize("sigma,aug", [(0.002, 3), (0.0, 2), (0.01, 1)])
    def test_training_set(self, desk_dictionary, desk_basis, sigma, aug):
        cfg = TrainConfig(noise_sigma=sigma, augment_factor=aug, epochs=0, seed=7)
        got = inference.make_training_set(desk_dictionary, desk_basis, cfg)
        ref = training_set_reference(desk_dictionary, desk_basis, cfg)
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype
            np.testing.assert_array_equal(bits(g), bits(r))

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
        # epoch after the first stalls, and the rate stays constant throughout
        d, basis = toy_setup
        cfg = TrainConfig(noise_sigma=0.01, augment_factor=4, epochs=13,
                          batch_size=64, learning_rate=1e-12, seed=6)
        data = inference.make_training_set(d, basis, cfg)
        net = MrfNet.initialize(3, (400.0, 2000.0), (40.0, 200.0), hidden=(8, 8), seed=6,
                                dtype=np.float64)
        assert_trains_like_reference(net, data, cfg)
        _, history = inference.train(net, data, cfg)
        assert max(history) - min(history) < 1e-6 * history[0]


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

    def test_matches_large_block_reference(self, desk_dictionary, desk_basis, rng):
        # BLAS may round a score 1 ulp differently in a smaller block; the
        # argmax, and so the maps, must not move
        rows = rng.standard_normal((3 * inference.MATCH_CHUNK + 5, 5))
        rows = np.concatenate([rows, clean_projections(desk_dictionary, desk_basis)[0]])
        maps, pd = inference.dictionary_match(rows, desk_dictionary, desk_basis)
        ref_maps, ref_pd = dictionary_match_reference(rows, desk_dictionary, desk_basis)
        np.testing.assert_array_equal(bits(maps), bits(ref_maps))
        np.testing.assert_allclose(pd, ref_pd, rtol=1e-15, atol=0)

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
