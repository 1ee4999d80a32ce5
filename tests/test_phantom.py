import numpy as np
import pytest

from mrfkit import phantom

from oracles import simulate_fingerprint


class TestMakePhantom:
    def test_full_frame_rectangle(self):
        spec = [{"shape": "rectangle", "x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 1.0,
                 "t1": 900.0, "t2": 90.0, "pd": 1.0}]
        gt = phantom.make_phantom(16, 16, spec)
        assert np.all(gt.t1_map == 900.0)
        assert np.all(gt.pd_map == 1.0)
        assert np.all(gt.region_labels == 1)

    def test_painters_rule(self):
        spec = [
            {"shape": "rectangle", "x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 1.0,
             "t1": 900.0, "t2": 90.0, "pd": 1.0},
            {"shape": "rectangle", "x0": 0.0, "y0": 0.0, "x1": 0.5, "y1": 1.0,
             "t1": 1500.0, "t2": 150.0, "pd": 0.5},
        ]
        gt = phantom.make_phantom(16, 16, spec)
        assert np.all(gt.t1_map[:, :8] == 1500.0)
        assert np.all(gt.t1_map[:, 8:] == 900.0)
        assert np.all(gt.region_labels[:, :8] == 2)

    def test_default_region_areas(self):
        gt = phantom.make_phantom(64, 64)
        spec = phantom.default_head_spec()
        areas = {
            label: float(np.sum(gt.region_labels == label))
            for label in range(1, len(spec) + 1)
        }
        # later shapes are fully contained in earlier ones, so the visible
        # analytic area of a shape subtracts its successors' full areas
        full = [np.pi * e["a"] * e["b"] * 64 * 64 for e in spec]
        expected = {1: full[0] - full[1], 2: full[1] - full[2] - full[3],
                    3: full[2], 4: full[3]}
        for label, exp in expected.items():
            assert areas[label] == pytest.approx(exp, rel=0.05), f"region {label}"

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            phantom.make_phantom(8, 8, [])

    @pytest.mark.parametrize("key,value,match", [
        ("t1", -5, "> 0"), ("t2", 0.0, "> 0"), ("pd", -0.1, ">= 0"),
        ("t1", float("inf"), "finite number"), ("t2", float("nan"), "finite number"),
        ("t1", None, "finite number"), ("pd", True, "finite number"), ("y1", "a", "finite number"),
        ("shape", "circle", "unknown shape kind"),
    ])
    def test_bad_values_rejected(self, key, value, match):
        entry = {"shape": "rectangle", "x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 1.0,
                 "t1": 900.0, "t2": 90.0, "pd": 1.0, key: value}
        with pytest.raises(ValueError, match=f"phantom entry 2 .*{match}"):
            phantom.make_phantom(8, 8, [phantom.default_head_spec()[0], entry])

    def test_deterministic(self):
        a = phantom.make_phantom(32, 32)
        b = phantom.make_phantom(32, 32)
        np.testing.assert_array_equal(a.t1_map, b.t1_map)
        np.testing.assert_array_equal(a.region_labels, b.region_labels)

    def test_offgrid_values(self):
        gt = phantom.make_phantom(32, 32, phantom.offgrid_head_spec())
        fg_values = np.unique(gt.t1_map[gt.foreground()])
        assert not np.any(fg_values % 50 == 0)


class TestSynthesizeTimeseries:
    def test_zero_pd(self, short_schedule):
        spec = [{"shape": "rectangle", "x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 1.0,
                 "t1": 900.0, "t2": 90.0, "pd": 0.0}]
        gt = phantom.make_phantom(8, 8, spec)
        series = phantom.synthesize_timeseries(gt, short_schedule)
        assert np.all(series == 0)

    def test_single_region_shares_fingerprint(self, short_schedule):
        spec = [{"shape": "rectangle", "x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 1.0,
                 "t1": 1200.0, "t2": 110.0, "pd": 0.7}]
        gt = phantom.make_phantom(4, 4, spec)
        series = phantom.synthesize_timeseries(gt, short_schedule)
        expected = 0.7 * simulate_fingerprint(1200.0, 110.0, short_schedule).astype(np.complex64)
        for voxel in series:
            np.testing.assert_array_equal(voxel, expected)

    def test_matches_dictionary_atom_exactly(self, small_dictionary, short_schedule):
        spec = [{"shape": "rectangle", "x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 1.0,
                 "t1": float(small_dictionary.t1_ms[5]), "t2": float(small_dictionary.t2_ms[5]),
                 "pd": 1.0}]
        gt = phantom.make_phantom(4, 4, spec)
        series = phantom.synthesize_timeseries(gt, short_schedule)
        np.testing.assert_array_equal(series[0], small_dictionary.atoms[:, 5])

    def test_linear_in_pd(self, short_schedule):
        base = [{"shape": "rectangle", "x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 1.0,
                 "t1": 800.0, "t2": 80.0, "pd": 0.5}]
        double = [dict(base[0], pd=1.0)]
        s1 = phantom.synthesize_timeseries(phantom.make_phantom(4, 4, base), short_schedule)
        s2 = phantom.synthesize_timeseries(phantom.make_phantom(4, 4, double), short_schedule)
        np.testing.assert_allclose(2 * s1, s2, rtol=1e-6)


class TestScoreMaps:
    def test_perfect_estimate(self):
        gt = phantom.make_phantom(32, 32)
        score = phantom.score_maps(gt.t1_map, gt.t2_map, gt)
        assert score["t1"]["rmse"] == 0.0
        assert score["t2"]["mae"] == 0.0

    def test_constant_offset(self):
        gt = phantom.make_phantom(32, 32)
        score = phantom.score_maps(gt.t1_map + 10.0, gt.t2_map + 10.0, gt)
        assert score["t1"]["rmse"] == pytest.approx(10.0)
        assert score["t1"]["mae"] == pytest.approx(10.0)
        assert score["t2"]["rmse"] == pytest.approx(10.0)

    def test_sign_symmetry(self):
        gt = phantom.make_phantom(32, 32)
        up = phantom.score_maps(gt.t1_map + 25.0, gt.t2_map, gt)
        down = phantom.score_maps(gt.t1_map - 25.0, gt.t2_map, gt)
        assert up["t1"]["rmse"] == pytest.approx(down["t1"]["rmse"])
        assert up["t1"]["mae"] == pytest.approx(down["t1"]["mae"])

    def test_gaussian_noise_rmse(self):
        gt = phantom.make_phantom(144, 144)
        rng = np.random.default_rng(7)
        sigma = 40.0
        noisy = gt.t1_map + sigma * rng.standard_normal(gt.shape)
        score = phantom.score_maps(noisy, gt.t2_map, gt)
        assert gt.foreground().sum() >= 10_000
        assert score["t1"]["rmse"] == pytest.approx(sigma, rel=0.05)

    def test_nrmse_normalization(self):
        gt = phantom.make_phantom(32, 32)
        score = phantom.score_maps(gt.t1_map + 27.0, gt.t2_map + 9.0, gt)
        span_t1 = gt.t1_map[gt.foreground()].max() - gt.t1_map[gt.foreground()].min()
        assert score["t1"]["nrmse"] == pytest.approx(27.0 / span_t1)

    def test_empty_mask_rejected(self):
        spec = [{"shape": "rectangle", "x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 1.0,
                 "t1": 800.0, "t2": 80.0, "pd": 0.0}]
        gt = phantom.make_phantom(16, 16, spec)
        with pytest.raises(ValueError, match="no foreground"):
            phantom.score_maps(gt.t1_map, gt.t2_map, gt)

    def test_shape_mismatch(self):
        gt = phantom.make_phantom(16, 16)
        with pytest.raises(ValueError):
            phantom.score_maps(np.zeros((8, 8)), np.zeros((8, 8)), gt)


class TestGroundTruthRoundTrip:
    def test_save_load(self, tmp_path):
        gt = phantom.make_phantom(32, 32)
        path = tmp_path / "gt.mrfb"
        phantom.save_ground_truth(gt, path)
        loaded = phantom.load_ground_truth(path)
        np.testing.assert_array_equal(loaded.t1_map, gt.t1_map)
        np.testing.assert_array_equal(loaded.region_labels, gt.region_labels)
