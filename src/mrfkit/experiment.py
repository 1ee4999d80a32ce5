"""Pipeline stages and the end-to-end experiment.

Each stage is one function that reads its inputs from `.mrfb` bundles and
writes its output bundle. A stage with settings takes them as its first
argument, a configuration resolved by `resolve_config`, the one place
defaults live; infer, match and score have none. The CLI commands and
`run_experiment` call the same stage functions, so running the CLI stages by
hand with an experiment's settings reproduces its files byte for byte.

The configuration is one JSON document checked against DEFAULT_EXPERIMENT
itself: every key must be one of the default's, with a value of the default's
type. A bad key or value raises ValueError("<dotted.key>: <reason>").
"""

import csv
import json
from pathlib import Path

import numpy as np

from . import bundle, epg
from . import forward_model as fm
from . import inference, phantom, solver, subspace
from .tvprox import VARIANTS, TvConfig

METHODS = solver.MODES
_PHANTOMS = {"default": phantom.default_head_spec, "offgrid": phantom.offgrid_head_spec}

DEFAULT_EXPERIMENT = {
    "seed": 1234,
    "size": [64, 64],
    "frames": 200,
    "rank": 5,
    "coils": 4,
    "coil_kind": "gaussian-ring",
    "accel": 8.0,
    "kspace_noise": 0.005,
    "k_max": None,
    "dict": {"t1": "100:50:4000", "t2": "20:10:600"},
    "schedule": {
        "alpha_max_deg": 70.0,
        "period": 250,
        "tr_ms": 10.0,
        "te_ms": 1.908,
        "tinv_ms": 18.0,
    },
    "phantom": "default",
    "recon": {
        "lambda": 1e-3,
        "iters": 50,
        "stop_rel_change": 1e-4,
        "tv_variant": "isotropic",
        "tv_iters": 50,
        "tv_tol": 1e-6,
    },
    "train": {
        "sigma": 0.002,
        "augment": 100,
        "epochs": 30,
        "batch_size": 512,
        "learning_rate": 0.05,
        "hidden": [300, 100],
        "output_relu": False,
    },
}

# What a default value cannot say: a number must be > 0 unless it has an
# inclusive minimum here, and a string with choices must be one of them.
_MINIMUM = {
    "seed": 0, "size": 8, "accel": 1, "kspace_noise": 0, "schedule.tinv_ms": 0,
    "recon.lambda": 0, "recon.stop_rel_change": 0, "train.sigma": 0, "train.epochs": 0,
}
_CHOICES = {
    "coil_kind": fm.COIL_KINDS,
    "recon.tv_variant": VARIANTS,
    "phantom": tuple(_PHANTOMS),
}


def _check(key: str, value, default) -> None:
    """Check one value of a partial configuration against the default at the
    same dotted key ("" for the whole configuration)."""

    def fail(reason):
        raise ValueError(f"{key or 'config'}: {reason}, got {value!r}")

    if key == "k_max":  # null means min(frames, epg.DEFAULT_K_MAX), else an integer
        if value is None:
            return
        default = 1
    if key == "phantom" and isinstance(value, list):  # a shape list
        for index, entry in enumerate(value, 1):
            if not isinstance(entry, dict):
                raise ValueError(f"phantom: entry {index} must be an object")
    elif isinstance(default, list):
        if not isinstance(value, list) or len(value) != len(default):
            fail(f"must be a list of {len(default)}")
        for item, item_default in zip(value, default):
            _check(key, item, item_default)
    elif not bundle._is_kind(value, type(default)):
        fail(f"must be {bundle._KINDS[type(default)]}")
    elif isinstance(default, dict):
        for name, item in value.items():
            path = f"{key}.{name}" if key else name
            if name not in default:
                raise ValueError(f"{path}: unknown key")
            _check(path, item, default[name])
    elif key in _CHOICES and value not in _CHOICES[key]:
        fail(f"must be one of {', '.join(_CHOICES[key])}")
    elif type(default) in (int, float):
        if key in _MINIMUM and value < _MINIMUM[key]:
            fail(f"must be >= {_MINIMUM[key]}")
        if key not in _MINIMUM and value <= 0:
            fail("must be > 0")


def _merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            merged[key] = _merge(base[key], value)
        else:
            merged[key] = value
    return merged


def resolve_config(config: dict | None) -> dict:
    """Validate a (partial) configuration and fill in the shipped defaults."""
    config = config or {}
    _check("", config, DEFAULT_EXPERIMENT)
    return _merge(DEFAULT_EXPERIMENT, config)


def _schedule(cfg: dict) -> epg.SequenceSchedule:
    return epg.default_schedule(cfg["frames"], **cfg["schedule"])


def _grid(cfg: dict) -> epg.GridSpec:
    """The configured (T1, T2) grid; a bad range raises ValueError naming its key."""
    axes = {}
    for axis in ("t1", "t2"):
        try:
            axes[axis] = epg.GridRange.parse(cfg["dict"][axis])
        except ValueError as exc:
            raise ValueError(f"dict.{axis}: {exc}") from None
    return epg.GridSpec(**axes)


def simulate_dict(cfg: dict, out_path) -> tuple[int, int]:
    """Simulate the fingerprint dictionary over the configured (T1, T2) grid,
    streaming its atoms into the bundle; returns their shape (L, d)."""
    return epg.write_dictionary(_grid(cfg), _schedule(cfg), out_path, k_max=cfg["k_max"])


def learn_subspace(cfg: dict, dict_path, out_path) -> subspace.SubspaceBasis:
    """Learn the rank-S temporal subspace from a dictionary bundle."""
    basis = subspace.learn_subspace(epg.load_dictionary(dict_path), cfg["rank"])
    subspace.save_basis(basis, out_path)
    return basis


def make_phantom(cfg: dict, out_path) -> phantom.GroundTruth:
    """Rasterize the configured phantom ("default", "offgrid" or a shape list)."""
    spec = cfg["phantom"]
    if isinstance(spec, str):
        spec = _PHANTOMS[spec]()
    h, w = cfg["size"]
    gt = phantom.make_phantom(h, w, spec)
    phantom.save_ground_truth(gt, out_path)
    return gt


def acquire(cfg: dict, gt_path, out_path) -> fm.KSpaceData:
    """Synthesize the phantom's time series and acquire masked multi-coil
    k-space, with complex white noise on the sampled entries."""
    gt = phantom.load_ground_truth(gt_path)
    h, w = gt.shape
    frames, seed = cfg["frames"], cfg["seed"]
    pattern = fm.make_vd_cartesian_masks(h, w, frames, cfg["accel"], seed)
    series = phantom.synthesize_timeseries(gt, _schedule(cfg), k_max=cfg["k_max"])
    coils = fm.make_coil_maps(h, w, cfg["coils"], kind=cfg["coil_kind"])
    # complex64 frames: the product with the complex128 coil maps casts them exactly
    data = fm.apply_frames(series.T.reshape(frames, h, w), coils, pattern)
    del series
    if cfg["kspace_noise"] > 0:
        # the stream holds every real part, then every imaginary part; each
        # frame draws its imaginary parts in that order, so only the real
        # parts are held whole
        sigma = cfg["kspace_noise"]
        rng = np.random.default_rng(seed + 1)
        real = rng.normal(0.0, sigma, data.y.shape)
        for t in range(frames):
            noise = real[t] + 1j * rng.normal(0.0, sigma, real[t].shape)
            noise *= pattern.masks[t]
            data.y[t] += noise
        del real
    fm.save_kspace(data, coils, out_path, seed=seed, accel=float(cfg["accel"]),
                   kspace_noise=cfg["kspace_noise"])
    return data


def reconstruct(cfg: dict, mode: str, kspace_path, basis_path, out_path,
                trace_path=None) -> solver.SolveTrace:
    """Reconstruct subspace images with one method; the TV weight applies to
    lrtv only. Writes the per-iteration trace CSV when trace_path is given."""
    data, coils = fm.load_kspace(kspace_path)
    basis = subspace.load_basis(basis_path)
    rc = cfg["recon"]
    solver_cfg = solver.SolverConfig(
        mode=mode,
        lam=rc["lambda"] if mode == "lrtv" else 0.0,
        max_outer_iters=rc["iters"],
        stop_rel_change=rc["stop_rel_change"],
        tv=TvConfig(variant=rc["tv_variant"], max_iters=rc["tv_iters"], dual_gap_tol=rc["tv_tol"]),
    )
    x, trace = solver.solve(data, basis, coils, data.pattern, solver_cfg)
    solver.save_reconstruction(x, basis, data.pattern.shape, out_path)
    if trace_path is not None:
        trace.write_csv(trace_path)
    return trace


HISTORY_FIELDS = ("epoch", "loss", "learning_rate", "t1_within_step", "t2_within_step")


def _within_one_step(dictionary: epg.Dictionary, basis: subspace.SubspaceBasis):
    """Criterion 10's measure as a function of a network: the fractions of
    the clean atoms whose network T1 and T2 lie within one grid step of
    dictionary matching's. The clean rows and their matching maps are
    computed once."""
    clean = inference.TrainConfig(noise_sigma=0.0, augment_factor=1, epochs=0, seed=0)
    rows, _ = inference.make_training_set(dictionary, basis, clean)
    matched, _ = inference.dictionary_match(rows, dictionary, basis)
    steps = np.array([dictionary.grid_spec.t1.step, dictionary.grid_spec.t2.step])

    def fractions(net: inference.MrfNet) -> list[float]:
        near = np.abs(net.predict_ms(rows) - matched) <= steps + 1e-9
        return [float(f) for f in near.mean(axis=0)]

    return fractions


def train_net(cfg: dict, dict_path, basis_path, out_path) -> tuple[inference.MrfNet, list[dict]]:
    """Train the parameter-regression network on noisy dictionary projections;
    returns the network and one HISTORY_FIELDS row per epoch."""
    dictionary = epg.load_dictionary(dict_path)
    # a training set too large to address is refused before anything is built
    fault = _array_size_fault(cfg, dictionary.n_atoms, keys=("train.augment",))
    if fault:
        raise MemoryError(fault)
    basis = subspace.load_basis(basis_path)
    tc = cfg["train"]
    train_cfg = inference.TrainConfig(
        noise_sigma=tc["sigma"],
        augment_factor=tc["augment"],
        epochs=tc["epochs"],
        batch_size=tc["batch_size"],
        learning_rate=tc["learning_rate"],
        seed=cfg["seed"],
    )
    net = inference.MrfNet.initialize(
        basis.rank_s,
        (float(dictionary.t1_ms.min()), float(dictionary.t1_ms.max())),
        (float(dictionary.t2_ms.min()), float(dictionary.t2_ms.max())),
        hidden=tuple(tc["hidden"]),
        seed=cfg["seed"],
        output_relu=tc["output_relu"],
    )
    data = inference.make_training_set(dictionary, basis, train_cfg)
    within_one_step = _within_one_step(dictionary, basis)
    history = []

    def record(epoch, trained, loss, rate):
        row = [epoch + 1, loss, rate, *within_one_step(trained)]
        history.append(dict(zip(HISTORY_FIELDS, row)))

    net, _ = inference.train(net, data, train_cfg, on_epoch=record)
    inference.save_net(net, train_cfg, out_path)
    return net, history


def _save_maps(path, maps: np.ndarray, hw: tuple[int, int], estimator: str, **extra) -> None:
    arrays = {"t1": maps[:, 0], "t2": maps[:, 1], **extra}
    bundle.write_bundle(
        path,
        {name: a.reshape(hw).astype(np.float32) for name, a in arrays.items()},
        meta={"kind": "maps", "estimator": estimator},
    )


def infer(net_path, recon_path, out_path) -> None:
    """Estimate (T1, T2) maps from a reconstruction with the trained network."""
    net = inference.load_net(net_path)
    x, _basis, hw = solver.load_reconstruction(recon_path)
    _save_maps(out_path, inference.infer(net, subspace.phase_align(x)), hw, "net")


def match(dict_path, recon_path, out_path) -> None:
    """Estimate (T1, T2) maps and a proton-density proxy by exhaustive
    dictionary matching."""
    dictionary = epg.load_dictionary(dict_path)
    x, basis, hw = solver.load_reconstruction(recon_path)
    maps, pd = inference.dictionary_match(subspace.phase_align(x), dictionary, basis)
    _save_maps(out_path, maps, hw, "match", pd=pd)


def score(maps_path, gt_path) -> tuple[dict, dict, str]:
    """Score a maps bundle against the ground truth. Returns the
    `phantom.score_maps` result, the float64 t1 and t2 maps, and the
    estimator that made them."""
    arrays, meta = bundle.read_bundle(maps_path, kind="maps")
    gt = phantom.load_ground_truth(gt_path)
    t1 = arrays.array("t1", (None, None), "float32").astype(np.float64)
    maps = {"t1": t1, "t2": arrays.array("t2", t1.shape, "float32").astype(np.float64)}
    return phantom.score_maps(maps["t1"], maps["t2"], gt), maps, meta.typed("estimator", str)


def metric_rows(method: str, result: dict) -> list[dict]:
    """The metrics-table rows of one `score` result."""
    return [{"method": method, "param": p.upper(), **result[p]} for p in ("t1", "t2")]


def write_pgm16(path, img: np.ndarray, vmax: float) -> None:
    """16-bit binary PGM preview, values clipped to [0, vmax]."""
    scaled = np.clip(np.asarray(img, dtype=np.float64) / vmax, 0.0, 1.0)
    data = np.round(scaled * 65535).astype(">u2")
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(data.tobytes())


def _write_csv(path, fields, rows: list[dict]) -> None:
    """One header line, then each row's fields, numbers at full precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([row[f] if isinstance(row[f], str) else repr(row[f]) for f in fields])


def write_metrics_csv(path, rows: list[dict]) -> None:
    _write_csv(path, ["method", "param", "rmse", "mae", "nrmse"], rows)


def _array_size_fault(cfg: dict, atoms: int, keys=None) -> str | None:
    """Why some stage would build an array of more bytes than numpy can
    address, naming the key that makes it too large, or None if none would.

    Each count is an array's elements at 16 bytes, the widest element any
    stage stores (complex128). The counts are Python ints, checked in stage
    order, so each key is blamed only when the keys before it passed; keys,
    if given, limits the check to those keys' rows."""
    h, w = cfg["size"]
    frames, tc = cfg["frames"], cfg["train"]
    layers = [cfg["rank"], *tc["hidden"], 2]
    counts = [
        ("size", "the phantom (H x W)", h * w),
        ("frames", "the time series (frames x H x W)", frames * h * w),
        ("coils", "the k-space (frames x coils x H x W)", frames * cfg["coils"] * h * w),
        ("dict", "the dictionary (frames x atoms)", frames * atoms),
        ("train.augment", "the training set (atoms x augment rows)", atoms * tc["augment"]),
        ("train.hidden", "a weight matrix (the product of two adjacent layer widths)",
         max(a * b for a, b in zip(layers, layers[1:]))),
    ]
    limit = int(np.iinfo(np.intp).max)
    for key, what, count in counts:
        nbytes = 16 * count
        if (keys is None or key in keys) and nbytes > limit:
            return (f"{key}: {what} would take {nbytes} bytes, "
                    f"more than the {limit} an array can address")
    return None


def run_experiment(config: dict | None, out_dir) -> dict:
    """Run the full three-method comparison; returns {method: score dict}.

    Runs the stage functions in sequence on bundles in out_dir, each stage
    reading what the ones before wrote: phantom, acquisition, dictionary,
    basis, network, then reconstruction, network maps and scoring per method.
    """
    cfg = resolve_config(config)
    # the network normalizes its targets by the grid ranges; check them
    # before any stage runs, not after the dictionary is built
    grid = _grid(cfg)
    sizes = {axis: getattr(grid, axis).count for axis in ("t1", "t2")}
    for axis, size in sizes.items():
        if size < 2:
            raise ValueError(f"dict.{axis}: the network needs at least two grid values, "
                             f"got {cfg['dict'][axis]!r}")
    # learn_subspace's bound on the rank, checked before the dictionary is built
    max_rank = min(cfg["frames"], sizes["t1"] * sizes["t2"])
    if cfg["rank"] > max_rank:
        raise ValueError(f"rank: must be at most min(frames, atoms) = {max_rank}, "
                         f"got {cfg['rank']!r}")
    fault = _array_size_fault(cfg, sizes["t1"] * sizes["t2"])
    if fault:
        raise ValueError(fault)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "exp_config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    gt_path, dict_path, basis_path, net_path, kspace_path = (
        out / f"{name}.mrfb" for name in ("gt", "dict", "basis", "net", "kspace")
    )

    make_phantom(cfg, gt_path)
    # acquire draws from its own seeds, so running it first, where a bad
    # accel fails before the expensive stages, changes no file
    acquire(cfg, gt_path, kspace_path)
    simulate_dict(cfg, dict_path)
    learn_subspace(cfg, dict_path, basis_path)
    net, history = train_net(cfg, dict_path, basis_path, net_path)
    _write_csv(out / "train_history.csv", HISTORY_FIELDS, history)

    rows = []
    scores = {}
    for mode in METHODS:
        recon_path = out / f"x_{mode}.mrfb"
        maps_path = out / f"maps_{mode}.mrfb"
        reconstruct(cfg, mode, kspace_path, basis_path, recon_path, out / f"trace_{mode}.csv")
        infer(net_path, recon_path, maps_path)
        scores[mode], maps, _ = score(maps_path, gt_path)
        rows += metric_rows(mode, scores[mode])
        write_pgm16(out / f"t1_{mode}.pgm", maps["t1"], vmax=net.t1_range[1])
        write_pgm16(out / f"t2_{mode}.pgm", maps["t2"], vmax=net.t2_range[1])

    write_metrics_csv(out / "metrics.csv", rows)
    return scores
