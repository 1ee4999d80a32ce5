import os

import numpy as np
import pytest

from mrfkit import epg

from oracles import bloch_fingerprint, epg_reference, simulate_fingerprint

# the timings of epg.default_schedule
TIMINGS = {"tr_ms": 10.0, "te_ms": 1.908, "tinv_ms": 18.0}


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype == np.complex64
    assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


class TestSchedule:
    def test_default_timings(self):
        s = epg.default_schedule(1000)
        assert s.tr_ms == 10.0
        assert s.te_ms == 1.908
        assert s.tinv_ms == 18.0
        assert s.n_frames == 1000

    def test_single_frame(self):
        s = epg.default_schedule(1)
        assert s.n_frames == 1
        assert s.tr_ms == 10.0

    def test_sinusoid_shape(self):
        s = epg.default_schedule(200, alpha_max_deg=70.0, period=250)
        t = np.arange(200)
        expected = 70.0 * np.abs(np.sin(np.pi * t / 250))
        np.testing.assert_allclose(s.flip_angles_deg, expected)
        full = epg.default_schedule(500)
        assert full.flip_angles_deg.max() == pytest.approx(70.0, abs=1e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            epg.default_schedule(0)
        with pytest.raises(ValueError):
            epg.SequenceSchedule(np.array([190.0]), **TIMINGS)
        with pytest.raises(ValueError):
            epg.SequenceSchedule(np.array([10.0]), **{**TIMINGS, "tr_ms": 1.0, "te_ms": 2.0})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, 180.5])
    def test_rejects_flip_angle_outside_range(self, bad):
        with pytest.raises(ValueError, match=r"must lie in \[0, 180\] degrees"):
            epg.SequenceSchedule(np.array([10.0, bad]), **TIMINGS)


class TestTissueParams:
    """simulate_fingerprints rejects a bad T1 or T2 anywhere in its inputs."""

    @staticmethod
    def assert_rejected(short_schedule, bad, match):
        for t1, t2 in ((bad, 100.0), (1000.0, bad)):
            with pytest.raises(ValueError, match=match):
                epg.simulate_fingerprints([800.0, t1], [80.0, t2], short_schedule)

    def test_rejects_nonpositive(self, short_schedule):
        for bad in (0.0, -1.0):
            self.assert_rejected(short_schedule, bad, "positive")

    def test_rejects_nonfinite(self, short_schedule):
        for bad in (np.nan, np.inf, -np.inf):
            self.assert_rejected(short_schedule, bad, "finite")


class TestSimulateFingerprint:
    def test_zero_flips_zero_signal(self, short_schedule):
        s = epg.SequenceSchedule(np.zeros(50), **TIMINGS)
        for t1, t2 in [(500.0, 60.0), (3000.0, 400.0)]:
            sig = simulate_fingerprint(t1, t2, s)
            assert np.all(sig == 0)

    def test_matches_bloch_oracle(self, short_schedule):
        sig = simulate_fingerprint(1000.0, 100.0, short_schedule, k_max=100)
        ref = bloch_fingerprint(1000.0, 100.0, short_schedule, n_spins=2048)
        err = np.abs(sig - ref).max() / np.abs(ref).max()
        assert err < 1e-2

    def test_matches_bloch_oracle_random_tissues(self, short_schedule, rng):
        for _ in range(10):
            t1 = rng.uniform(100, 4000)
            t2 = rng.uniform(20, min(t1, 600))
            sig = simulate_fingerprint(t1, t2, short_schedule, k_max=100)
            ref = bloch_fingerprint(t1, t2, short_schedule, n_spins=2048)
            err = np.abs(sig - ref).max() / np.abs(ref).max()
            assert err < 1e-2, f"t1={t1:.0f} t2={t2:.0f}: {err:.2e}"

    def test_kmax_beyond_frames_is_inert(self, short_schedule):
        a = simulate_fingerprint(800.0, 90.0, short_schedule, k_max=100)
        b = simulate_fingerprint(800.0, 90.0, short_schedule, k_max=200)
        np.testing.assert_array_equal(a, b)

    def test_pure_function(self, short_schedule):
        a = simulate_fingerprint(1234.0, 77.0, short_schedule)
        b = simulate_fingerprint(1234.0, 77.0, short_schedule)
        np.testing.assert_array_equal(a, b)

    def test_t2_monotonicity_constant_flips(self):
        # at moderate flips the refocused coherence interferes destructively
        # with the fresh FID and breaks pointwise ordering; this regime
        # (75 deg, long T1) keeps the ordering with a 2e-3 margin
        s = epg.SequenceSchedule(np.full(30, 75.0), **TIMINGS)
        signals = [
            np.abs(simulate_fingerprint(2000.0, t2, s))
            for t2 in (50.0, 100.0, 200.0)
        ]
        assert np.all(signals[1] > signals[0])
        assert np.all(signals[2] > signals[1])

    def test_rejects_bad_kmax(self, short_schedule):
        with pytest.raises(ValueError):
            simulate_fingerprint(1000.0, 100.0, short_schedule, k_max=0)


class TestMatchesReference:
    """The blocked, offset-indexed kernel reproduces the per-frame reference
    loop of tests/oracles.py bit for bit."""

    @staticmethod
    def tissues(rng, n):
        return rng.uniform(100, 4000, n), rng.uniform(20, 600, n)

    @pytest.mark.parametrize("n_frames,k_max", [
        (30, 5), (30, 29), (30, 30), (30, 64), (1, 1), (1, 100), (2, 1), (2, 100), (7, 3),
        (7, 100),
    ])
    # inverted: the train starts 18 ms after the inversion; otherwise 1e6 ms
    # after it, when each tissue has fully recovered (z0 = 1 exactly)
    @pytest.mark.parametrize("inverted", [True, False])
    def test_random_flips(self, rng, monkeypatch, n_frames, k_max, inverted):
        flips = rng.uniform(0, 180, n_frames)
        flips[::5] = 180.0
        flips[1::4] = 0.0
        tinv_ms = 18.0 if inverted else 1e6
        schedule = epg.SequenceSchedule(flips, **{**TIMINGS, "tinv_ms": tinv_ms})
        t1, t2 = self.tissues(rng, 37)
        monkeypatch.setattr(epg, "CHUNK_SIZE", 16)
        assert_same_bits(epg.simulate_fingerprints(t1, t2, schedule, k_max=k_max),
                         epg_reference(t1, t2, schedule, k_max=k_max))

    def test_zero_flips(self, rng):
        schedule = epg.SequenceSchedule(np.zeros(20), **TIMINGS)
        t1, t2 = self.tissues(rng, 5)
        assert_same_bits(epg.simulate_fingerprints(t1, t2, schedule),
                         epg_reference(t1, t2, schedule))

    @pytest.mark.parametrize("n_atoms", [2 * epg.CHUNK_SIZE + 3, 1, 0])
    def test_default_chunking(self, rng, n_atoms):
        schedule = epg.default_schedule(300)
        t1, t2 = self.tissues(rng, n_atoms)
        assert_same_bits(epg.simulate_fingerprints(t1, t2, schedule, k_max=100),
                         epg_reference(t1, t2, schedule, k_max=100))


def assert_no_children():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    """simulate_fingerprints splits its blocks across forked worker processes;
    every worker count reproduces the reference and the serial run bit for bit."""

    @pytest.fixture
    def small_blocks(self, rng, monkeypatch):
        """Seven full 16-atom blocks and a partial eighth, on a 40-frame train."""
        monkeypatch.setattr(epg, "CHUNK_SIZE", 16)
        t1, t2 = TestMatchesReference.tissues(rng, 7 * 16 + 5)
        return t1, t2, epg.default_schedule(40)

    @pytest.mark.parametrize("workers", [1, 2, 3, 20])
    def test_worker_counts(self, small_blocks, monkeypatch, workers):
        t1, t2, schedule = small_blocks
        monkeypatch.setattr(epg, "_worker_count", lambda: workers)
        out = epg.simulate_fingerprints(t1, t2, schedule)
        assert_no_children()
        assert_same_bits(out, epg_reference(t1, t2, schedule))
        monkeypatch.setattr(epg, "_worker_count", lambda: 1)
        assert_same_bits(out, epg.simulate_fingerprints(t1, t2, schedule))

    def test_one_block_does_not_fork(self, short_schedule, monkeypatch):
        def no_fork():
            raise AssertionError("forked for a single block")

        monkeypatch.setattr(epg, "_worker_count", lambda: 4)
        monkeypatch.setattr(os, "fork", no_fork)
        epg.simulate_fingerprints([800.0, 1200.0], [80.0, 60.0], short_schedule)

    @staticmethod
    def fail_in(monkeypatch, where, exc):
        """Make _simulate_block raise exc in the parent ("parent") or in the
        forked workers only ("child")."""
        parent, simulate_block = os.getpid(), epg._simulate_block

        def block(*args):
            if (os.getpid() == parent) == (where == "parent"):
                raise exc
            simulate_block(*args)

        monkeypatch.setattr(epg, "_worker_count", lambda: 3)
        monkeypatch.setattr(epg, "_simulate_block", block)

    def test_child_failure_raises(self, small_blocks, monkeypatch):
        self.fail_in(monkeypatch, "child", RuntimeError("child block"))
        with pytest.raises(ChildProcessError, match="EPG worker process .* exit status 1"):
            epg.simulate_fingerprints(*small_blocks)
        assert_no_children()

    @pytest.mark.parametrize("exc", [RuntimeError("parent block"), KeyboardInterrupt()])
    def test_parent_failure_propagates(self, small_blocks, monkeypatch, exc):
        self.fail_in(monkeypatch, "parent", exc)
        with pytest.raises(type(exc)):
            epg.simulate_fingerprints(*small_blocks)
        assert_no_children()


class TestGrid:
    def test_full_grid_count(self):
        grid = epg.GridSpec(
            t1=epg.GridRange(100, 10, 4000), t2=epg.GridRange(20, 2, 600)
        )
        t1, t2 = grid.pairs()
        assert t1.size == 391 * 291 == 113781

    def test_parse(self):
        r = epg.GridRange.parse("100:10:4000")
        assert (r.start, r.step, r.stop) == (100.0, 10.0, 4000.0)
        with pytest.raises(ValueError):
            epg.GridRange.parse("100:4000")

    @pytest.mark.parametrize("text", ["100:1:inf", "nan:1:200", "100:nan:200", "100:inf:200",
                                      "-inf:1:200"])
    def test_rejects_nonfinite(self, text):
        with pytest.raises(ValueError, match="grid range .* must be finite"):
            epg.GridRange.parse(text)


class TestBuildDictionary:
    def test_single_point_grid(self, short_schedule):
        grid = epg.GridSpec(t1=epg.GridRange(1000, 1, 1000), t2=epg.GridRange(100, 1, 100))
        d = epg.build_dictionary(grid, short_schedule)
        assert d.n_atoms == 1
        assert (d.t1_ms[0], d.t2_ms[0]) == (1000.0, 100.0)

    def test_lexicographic_order(self, short_schedule):
        grid = epg.GridSpec(t1=epg.GridRange(100, 100, 300), t2=epg.GridRange(20, 20, 60))
        d = epg.build_dictionary(grid, short_schedule)
        assert d.n_atoms == 9
        np.testing.assert_array_equal(
            d.t1_ms, [100, 100, 100, 200, 200, 200, 300, 300, 300]
        )
        np.testing.assert_array_equal(d.t2_ms, [20, 40, 60, 20, 40, 60, 20, 40, 60])

    def test_atoms_match_single_simulation(self, small_dictionary, short_schedule):
        j = 4
        single = simulate_fingerprint(float(small_dictionary.t1_ms[j]),
                                      float(small_dictionary.t2_ms[j]), short_schedule)
        np.testing.assert_array_equal(small_dictionary.atoms[:, j], single)

    def test_atoms_finite(self, small_dictionary):
        assert np.all(np.isfinite(small_dictionary.atoms.view(np.float32)))

    def test_chunking_is_invisible(self, short_schedule, monkeypatch):
        grid = epg.GridSpec(t1=epg.GridRange(200, 300, 1700), t2=epg.GridRange(30, 60, 270))
        a = epg.build_dictionary(grid, short_schedule)
        monkeypatch.setattr(epg, "CHUNK_SIZE", 4)
        b = epg.build_dictionary(grid, short_schedule)
        np.testing.assert_array_equal(a.atoms, b.atoms)

    def test_labels_are_grid_pairs(self, small_dictionary):
        t1, t2 = small_dictionary.grid_spec.pairs()
        for labels, pairs in ((small_dictionary.t1_ms, t1), (small_dictionary.t2_ms, t2)):
            assert labels.dtype == np.float32
            np.testing.assert_array_equal(labels, pairs.astype(np.float32))

    def test_grid_pair_count_must_match_atoms(self, short_schedule):
        # about 3.9e15 T1 values: refused before pairs() would allocate them
        grid = epg.GridSpec(t1=epg.GridRange(100, 1e-12, 4000), t2=epg.GridRange(20, 1, 20))
        with pytest.raises(ValueError,
                           match=r"'grid' has \d+ x 1 \(T1, T2\) pairs, but 'atoms' has 2 columns"):
            epg.Dictionary(np.zeros((100, 2), np.complex64), short_schedule, grid)

    def test_normalized_atoms(self, small_dictionary):
        normed = small_dictionary.normalized_atoms()
        np.testing.assert_allclose(np.linalg.norm(normed, axis=0), 1.0, rtol=1e-5)
        # raw atoms untouched
        assert not np.allclose(np.linalg.norm(small_dictionary.atoms, axis=0), 1.0)


class TestDictionaryRoundTrip:
    def test_save_load(self, small_dictionary, tmp_path):
        path = tmp_path / "dict.mrfb"
        epg.save_dictionary(small_dictionary, path)
        loaded = epg.load_dictionary(path)
        np.testing.assert_array_equal(loaded.atoms, small_dictionary.atoms)
        np.testing.assert_array_equal(loaded.t1_ms, small_dictionary.t1_ms)
        assert loaded.schedule.tr_ms == small_dictionary.schedule.tr_ms
        assert loaded.grid_spec == small_dictionary.grid_spec
