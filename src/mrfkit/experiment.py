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
import math
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
        "hidden": [300, 300],
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
    "coil_kind": ("uniform", "gaussian-ring"),
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
    elif isinstance(default, dict):
        if not isinstance(value, dict):
            fail("must be an object")
        for name, item in value.items():
            path = f"{key}.{name}" if key else name
            if name not in default:
                raise ValueError(f"{path}: unknown key")
            _check(path, item, default[name])
    elif isinstance(default, list):
        if not isinstance(value, list) or len(value) != len(default):
            fail(f"must be a list of {len(default)}")
        for item, item_default in zip(value, default):
            _check(key, item, item_default)
    elif isinstance(default, (bool, str)):
        if type(value) is not type(default):
            fail("must be true or false" if isinstance(default, bool) else "must be a string")
        if key in _CHOICES and value not in _CHOICES[key]:
            fail(f"must be one of {', '.join(_CHOICES[key])}")
    else:
        kinds = int if isinstance(default, int) else (int, float)
        if (isinstance(value, bool) or not isinstance(value, kinds)
                or isinstance(value, float) and not math.isfinite(value)):
            fail("must be an integer" if kinds is int else "must be a finite number")
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


def simulate_dict(cfg: dict, out_path) -> epg.Dictionary:
    """Simulate the fingerprint dictionary over the configured (T1, T2) grid."""
    dictionary = epg.build_dictionary(_grid(cfg), _schedule(cfg), k_max=cfg["k_max"])
    epg.save_dictionary(dictionary, out_path)
    return dictionary


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
    data = fm.apply_frames(series.T.reshape(frames, h, w).astype(np.complex128), coils, pattern)
    if cfg["kspace_noise"] > 0:
        rng = np.random.default_rng(seed + 1)
        noise = rng.normal(0.0, cfg["kspace_noise"], (2,) + data.y.shape)
        data.y += (noise[0] + 1j * noise[1]) * pattern.masks[:, None, :, :]
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


def train_net(cfg: dict, dict_path, basis_path, out_path) -> tuple[inference.MrfNet, list[float]]:
    """Train the parameter-regression network on noisy dictionary projections;
    returns the network and its per-epoch loss history."""
    dictionary = epg.load_dictionary(dict_path)
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
    net, history = inference.train(net, data, train_cfg)
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


def write_metrics_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "param", "rmse", "mae", "nrmse"])
        for row in rows:
            writer.writerow(
                [
                    row["method"],
                    row["param"],
                    repr(row["rmse"]),
                    repr(row["mae"]),
                    repr(row["nrmse"]),
                ]
            )


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
    net, _history = train_net(cfg, dict_path, basis_path, net_path)

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
