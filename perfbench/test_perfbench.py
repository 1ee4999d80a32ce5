"""Each benchmark check passes on a correct output and fails on a deliberately
wrong one, at tiny sizes; and the tracer records and restores what it wraps."""

from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import workloads
from checks import CheckError
from mrfkit import bundle, epg, inference, phantom, solver, subspace
from mrfkit import forward_model as fm

ROOT = Path(__file__).resolve().parents[1]


def cplx(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(scope="module")
def tiny_dictionary():
    grid = epg.GridSpec(t1=epg.GridRange(300, 300, 1800), t2=epg.GridRange(30, 30, 150))
    return epg.build_dictionary(grid, epg.default_schedule(24))


@pytest.fixture(scope="module")
def tiny_scan(tiny_dictionary):
    """A 16x16, 24-frame, 2-coil scan of the default phantom, its LR solve and basis."""
    basis = subspace.learn_subspace(tiny_dictionary, 3)
    pattern = fm.make_vd_cartesian_masks(16, 16, 24, accel=2.0, seed=4, center_radius=2)
    coils = fm.make_coil_maps(16, 16, 2)
    gt = phantom.make_phantom(16, 16)
    series = phantom.synthesize_timeseries(gt, tiny_dictionary.schedule)
    data = fm.apply_frames(series.T.reshape(24, 16, 16).astype(np.complex128), coils, pattern)
    x, _ = solver.solve(data, basis, coils, pattern,
                        solver.SolverConfig(mode="lr", max_outer_iters=3))
    return basis, coils, pattern, data, x


def test_own_forward_matches_library(tiny_scan):
    basis, coils, pattern, _, x = tiny_scan
    ours = checks.own_forward(x, basis.v, coils.sens, pattern.masks)
    assert np.allclose(ours, fm.forward(x, basis, coils, pattern).y, atol=1e-12)


def test_adjoint_check(tiny_scan):
    basis, coils, pattern, data, _ = tiny_scan
    rng = np.random.default_rng(0)
    x = cplx(rng, (256, 3))
    y = cplx(rng, data.y.shape)

    def forward(a):
        return fm.forward(a, basis, coils, pattern).y

    def adjoint(b, c=coils):
        return fm.adjoint(fm.KSpaceData(y=b, pattern=pattern), basis, c, pattern)

    checks.check_adjoint(forward, adjoint, x, y)
    unconjugated = fm.CoilMaps(sens=coils.sens.conj())
    with pytest.raises(CheckError):
        checks.check_adjoint(forward, lambda b: adjoint(b, unconjugated), x, y)


def test_objective_check(tiny_scan):
    basis, coils, pattern, data, x = tiny_scan
    args = (data.y, basis.v, coils.sens, pattern.masks, 0.0, "lr")
    checks.check_objective_below_data(x, *args)
    with pytest.raises(CheckError):
        checks.check_objective_below_data(-x, *args)
    lam_args = (data.y, basis.v, coils.sens, pattern.masks, 1e9, "lrtv")
    with pytest.raises(CheckError):
        checks.check_objective_below_data(x, *lam_args)


def test_ordering_check():
    errors = {"bpi": (0.09, 0.12), "lr": (0.05, 0.08), "lrtv": (0.04, 0.07)}
    checks.check_method_ordering(errors, "net")
    with pytest.raises(CheckError):
        checks.check_method_ordering(dict(errors, lrtv=errors["bpi"]), "net")
    with pytest.raises(CheckError):
        checks.check_method_ordering(dict(errors, lr=(0.05, 0.07)), "net")


def test_maps_range_check():
    fg = np.array([True, True, False])
    t1, t2 = np.array([800.0, 1300.0, 0.0]), np.array([80.0, 110.0, 0.0])
    ranges = ((100.0, 4000.0), (20.0, 600.0))
    checks.check_maps_in_range(t1, t2, fg, *ranges, "ok")
    with pytest.raises(CheckError):
        checks.check_maps_in_range(np.array([800.0, np.nan, 0.0]), t2, fg, *ranges, "nan")
    with pytest.raises(CheckError):
        checks.check_maps_in_range(np.array([800.0, 0.0, 0.0]), t2, fg, *ranges, "masked fg")
    with pytest.raises(CheckError):
        checks.check_maps_in_range(t1, np.array([80.0, 110.0, 5000.0]), fg, *ranges, "bg")


def test_scores_check():
    gt = phantom.make_phantom(16, 16)
    rng = np.random.default_rng(1)
    t1 = gt.t1_map + rng.normal(0, 20, gt.shape)
    t2 = gt.t2_map + rng.normal(0, 5, gt.shape)
    fg = gt.foreground()
    own = (checks.nrmse(t1, gt.t1_map, fg), checks.nrmse(t2, gt.t2_map, fg))
    score = phantom.score_maps(t1, t2, gt)
    checks.check_scores_agree(score, own)
    with pytest.raises(CheckError):
        checks.check_scores_agree(score, own[::-1])


def test_training_rows_check(tiny_dictionary):
    basis = subspace.learn_subspace(tiny_dictionary, 3)
    cfg = inference.TrainConfig(noise_sigma=0.01, augment_factor=4, epochs=0)
    inputs, _ = inference.make_training_set(tiny_dictionary, basis, cfg)
    checks.check_training_rows(inputs)
    with pytest.raises(CheckError):
        checks.check_training_rows(inputs * 1.1)
    flipped = inputs.copy()
    flipped[3] *= -1
    with pytest.raises(CheckError):
        checks.check_training_rows(flipped)


def test_loss_history_check():
    checks.check_loss_history([1.0, 0.4])
    for bad in ([1.0], [1.0, 2.0], [1.0, float("nan"), 0.5]):
        with pytest.raises(CheckError):
            checks.check_loss_history(bad)


def test_match_labels_check(tiny_dictionary):
    basis = subspace.learn_subspace(tiny_dictionary, 3)
    rows = checks.own_clean_rows(tiny_dictionary.atoms, basis.v)
    maps, _ = inference.dictionary_match(rows, tiny_dictionary, basis)
    t1, t2 = tiny_dictionary.t1_ms, tiny_dictionary.t2_ms
    checks.check_match_labels(maps, t1, t2)
    shuffled = np.random.default_rng(2).permutation(len(t1))
    with pytest.raises(CheckError):
        checks.check_match_labels(maps, t1[shuffled], t2[shuffled])


def test_beats_constant_check():
    labels = np.stack([np.linspace(100, 4000, 50), np.linspace(20, 600, 50)], axis=1)
    ranges = ((100.0, 4000.0), (20.0, 600.0))
    checks.check_beats_constant(labels + 5.0, labels, ranges)
    with pytest.raises(CheckError):
        checks.check_beats_constant(np.tile([2050.0, 310.0], (50, 1)), labels, ranges)


def test_orthonormal_check():
    q, _ = np.linalg.qr(cplx(np.random.default_rng(3), (20, 4)))
    checks.check_orthonormal(q, 1e-10)
    q[:, 1] *= 1.001
    with pytest.raises(CheckError):
        checks.check_orthonormal(q, 1e-10)


def test_check_log_records_every_failure():
    log = checks.CheckLog()
    with log("passes"):
        checks.check_loss_history([2.0, 1.0])
    with log("fails"):
        checks.check_loss_history([1.0, 2.0])
    with log("malformed"):
        checks.check_dictionary_layout({}, [1.0], [1.0], 1)
    assert log.passed == 1
    assert log.failures[0].startswith("fails: loss rose")
    assert log.failures[1].startswith("malformed: KeyError")


def test_dictionary_bundle_checks(tiny_dictionary, tmp_path):
    path = tmp_path / "dict.mrfb"
    epg.save_dictionary(tiny_dictionary, path)
    arrays, meta = checks.read_mrfb(path)
    lib_arrays, lib_meta = bundle.read_bundle(path)
    assert meta == lib_meta
    assert all(np.array_equal(arrays[k], lib_arrays[k]) for k in lib_arrays)
    t1_values, t2_values = np.arange(300, 1801, 300), np.arange(30, 151, 30)
    checks.check_dictionary_layout(arrays, t1_values, t2_values, 24)
    with pytest.raises(CheckError):
        checks.check_dictionary_layout(arrays, t1_values, t2_values, 25)
    with pytest.raises(CheckError):
        checks.check_dictionary_layout(dict(arrays, t1=arrays["t2"]), t1_values, t2_values, 24)


def test_oracle_check(tiny_dictionary):
    oracle = workloads._load_oracle(ROOT)
    cols = [0, 17]
    refs = np.stack([oracle.bloch_fingerprint(float(tiny_dictionary.t1_ms[j]),
                                              float(tiny_dictionary.t2_ms[j]),
                                              tiny_dictionary.schedule) for j in cols], axis=1)
    checks.check_against_oracle(tiny_dictionary.atoms[:, cols], refs)
    with pytest.raises(CheckError):
        checks.check_against_oracle(tiny_dictionary.atoms[:, cols[::-1]], refs)


def test_energy_check(tiny_dictionary):
    basis = subspace.learn_subspace(tiny_dictionary, 3)
    energy = basis.captured_energy()
    checks.check_energy(tiny_dictionary.atoms, basis.v, basis.s_values, minimum=energy - 1e-6)
    q, _ = np.linalg.qr(cplx(np.random.default_rng(4), (24, 3)))
    with pytest.raises(CheckError):
        checks.check_energy(tiny_dictionary.atoms, q, basis.s_values, minimum=energy - 1e-6)


def test_noisy_matching_quality(tiny_dictionary):
    basis = subspace.learn_subspace(tiny_dictionary, 3)
    args = (tiny_dictionary.atoms, tiny_dictionary.t1_ms, tiny_dictionary.t2_ms, basis.v)
    assert checks.match_noisy_atoms(*args, 0.0, 30, np.random.default_rng(5)) == (0.0, 0.0)
    t1, t2 = checks.match_noisy_atoms(*args, 0.3, 20, np.random.default_rng(5))
    assert t1 > 0 and t2 > 0


def test_tracer_spans_and_restore(tiny_scan):
    basis, coils, pattern, data, _ = tiny_scan
    original = fm.forward
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fm.forward is not original
        solver.solve(data, basis, coils, pattern,
                     solver.SolverConfig(mode="lrtv", lam=1e-3, max_outer_iters=2))
    finally:
        tracer.uninstall()
    assert fm.forward is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "solver.solve" and tracer.spans[0][3] is None
    assert all(s[3] is not None for s in tracer.spans[1:])
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["solver.iterations"][0] == 2
    assert metrics["forward_model.forward_calls"][0] == names.count("forward_model.forward") > 0
    assert metrics["forward_model.fft2_count"][0] == 24 * 2 * (
        names.count("forward_model.forward") + names.count("forward_model.adjoint"))
    assert metrics["tvprox.tv_prox_calls"][0] == 6 * metrics["tvprox.tv_prox_stack_calls"][0]
    own = tracing.self_times(tracer.spans)
    assert 0 < own[0] < tracer.spans[0][2] - tracer.spans[0][1]
    s, e = tracer.spans[0][1], tracer.spans[0][2]
    assert tracing.coverage(tracer.spans, s, e) == pytest.approx(1.0)
