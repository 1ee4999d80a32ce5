"""The benchmark's three workloads.

Each workload has a set-up (run before the clock starts and timed on its
own), the operations that make up one round, the quality of its outputs, and
correctness checks on them. Workloads call mrfkit through module attributes,
so that a tracer installed on those attributes sees every call.

- recon: per-scan reconstruction at the shipped default geometry; loads
  forward_model, solver and tvprox.
- train: training-set synthesis and network training at the shipped default
  training settings; loads inference and subspace projection.
- dictionary: two fresh `mrfkit` CLI processes, simulate-dict on a long
  train over a grid wide enough for learn-subspace's Gram branch, then
  learn-subspace; loads epg, bundle I/O and the CLI.
"""

import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

from mrfkit import bundle, epg, experiment, forward_model as fm, inference, phantom, solver
from mrfkit import subspace
from mrfkit.tvprox import TvConfig

import checks

DEFAULT = experiment.resolve_config(None)

# recon: with the outer-iteration cap a scan takes about 8-11 s; by iteration
# 6 the LRTV < LR < BPI ordering holds with margin for both estimators. The
# set-up network gets a short budget (1365 batches) and the shipped seed, so
# that only the scans vary with the workload seed.
RECON_ITERS = 6
RECON_NET_AUGMENT = 10
RECON_NET_EPOCHS = 15
PHANTOMS = (phantom.default_head_spec, phantom.offgrid_head_spec)

TRAIN_EPOCHS = 2

# dictionary: criterion 9's 1000-frame train and T1 axis; 82 T2 values give
# 391 * 82 = 32,062 atoms >= 32 * 1000 frames, the Gram-branch threshold.
DICT_FRAMES = 1000
DICT_K_MAX = 100
DICT_RANK = 10
DICT_T1 = "100:10:4000"
DICT_T2_STEP = 7
DICT_T2_COUNT = 82
DICT_ORACLE_ATOMS = 8
DICT_PROBE_SIGMA = 0.02
DICT_PROBES = 8192

CHILD_TIMEOUT_S = 170


def _schedule(frames):
    s = DEFAULT["schedule"]
    return epg.default_schedule(frames, alpha_max_deg=s["alpha_max_deg"], period=s["period"],
                                tr_ms=s["tr_ms"], te_ms=s["te_ms"], tinv_ms=s["tinv_ms"])


def _default_dictionary_and_basis():
    grid = epg.GridSpec(t1=epg.GridRange.parse(DEFAULT["dict"]["t1"]),
                        t2=epg.GridRange.parse(DEFAULT["dict"]["t2"]))
    dictionary = epg.build_dictionary(grid, _schedule(DEFAULT["frames"]), k_max=DEFAULT["k_max"])
    return dictionary, subspace.learn_subspace(dictionary, DEFAULT["rank"])


def _ranges(dictionary):
    return ((float(dictionary.t1_ms.min()), float(dictionary.t1_ms.max())),
            (float(dictionary.t2_ms.min()), float(dictionary.t2_ms.max())))


def _train(dictionary, basis, augment, epochs, noise_seed):
    """make_training_set then train, at the shipped training settings. The
    training-set noise is drawn from noise_seed; initialisation and batch
    order use the shipped seed, so that runs differ in their data alone."""
    tc = DEFAULT["train"]

    def config(seed):
        return inference.TrainConfig(noise_sigma=tc["sigma"], augment_factor=augment,
                                     epochs=epochs, batch_size=tc["batch_size"],
                                     learning_rate=tc["learning_rate"], seed=seed)

    t1_range, t2_range = _ranges(dictionary)
    net = inference.MrfNet.initialize(DEFAULT["rank"], t1_range, t2_range,
                                      hidden=tuple(tc["hidden"]), seed=DEFAULT["seed"],
                                      output_relu=tc["output_relu"])
    data = inference.make_training_set(dictionary, basis, config(noise_seed))
    net, history = inference.train(net, data, config(DEFAULT["seed"]))
    return data, net, history


class Recon:
    """Set-up: the default dictionary and rank-5 basis, a briefly trained
    network, and the k-space of two scans (default and off-grid phantom, each
    with its own mask and noise seed). One operation is one scan: BPI, LR and
    LRTV, network and matched maps for each, scored and written to bundles."""

    ops_per_round = len(PHANTOMS)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        rng = np.random.default_rng([seed, 0])
        self.scan_seeds = rng.integers(0, 2**31 - 1, size=(len(PHANTOMS), 2)).tolist()
        self.results = {}

    def setup(self):
        h, w = DEFAULT["size"]
        frames = DEFAULT["frames"]
        self.dictionary, self.basis = _default_dictionary_and_basis()
        _, self.net, _ = _train(self.dictionary, self.basis, RECON_NET_AUGMENT,
                                RECON_NET_EPOCHS, DEFAULT["seed"])
        self.coils = fm.make_coil_maps(h, w, DEFAULT["coils"], kind=DEFAULT["coil_kind"])
        self.scans = []
        for spec, (mask_seed, noise_seed) in zip(PHANTOMS, self.scan_seeds):
            gt = phantom.make_phantom(h, w, spec())
            series = phantom.synthesize_timeseries(gt, _schedule(frames), k_max=DEFAULT["k_max"])
            pattern = fm.make_vd_cartesian_masks(h, w, frames, DEFAULT["accel"], mask_seed)
            data = fm.apply_frames(series.T.reshape(frames, h, w).astype(np.complex128),
                                   self.coils, pattern)
            noise = np.random.default_rng(noise_seed).normal(
                0.0, DEFAULT["kspace_noise"], (2,) + data.y.shape)
            data.y += (noise[0] + 1j * noise[1]) * pattern.masks[:, None, :, :]
            self.scans.append((gt, data))

    def run_op(self, i):
        gt, data = self.scans[i]
        h, w = DEFAULT["size"]
        rc = DEFAULT["recon"]
        tv = TvConfig(variant=rc["tv_variant"], max_iters=rc["tv_iters"],
                      dual_gap_tol=rc["tv_tol"])
        out = self.workdir / f"scan{i}"
        out.mkdir(parents=True, exist_ok=True)
        rows, result = [], {}
        for mode in experiment.METHODS:
            cfg = solver.SolverConfig(mode=mode, lam=rc["lambda"] if mode == "lrtv" else 0.0,
                                      max_outer_iters=RECON_ITERS,
                                      stop_rel_change=rc["stop_rel_change"], tv=tv)
            x, trace = solver.solve(data, self.basis, self.coils, data.pattern, cfg)
            solver.save_reconstruction(x, self.basis, (h, w), out / f"x_{mode}.mrfb")
            trace.write_csv(out / f"trace_{mode}.csv")
            aligned = subspace.phase_align(x)
            maps = {
                "net": inference.infer(self.net, aligned),
                "match": inference.dictionary_match(aligned, self.dictionary, self.basis)[0],
            }
            scores = {}
            for est, m in maps.items():
                t1, t2 = m[:, 0].reshape(h, w), m[:, 1].reshape(h, w)
                bundle.write_bundle(out / f"maps_{mode}_{est}.mrfb",
                                    {"t1": t1.astype(np.float32), "t2": t2.astype(np.float32)},
                                    meta={"kind": "maps", "method": mode, "estimator": est})
                scores[est] = phantom.score_maps(t1, t2, gt)
                rows += [{"method": f"{mode}-{est}", "param": p.upper(), **scores[est][p]}
                         for p in ("t1", "t2")]
            result[mode] = (x, maps, scores)
        experiment.write_metrics_csv(out / "metrics.csv", rows)
        self.results[i] = result

    def _errors(self, i, est):
        """{method: (t1_nrmse, t2_nrmse)} of scan i's maps from estimator est."""
        gt, _ = self.scans[i]
        fg = gt.foreground().ravel()
        return {mode: tuple(checks.nrmse(maps[est][:, j], ref.ravel(), fg)
                            for j, ref in enumerate((gt.t1_map, gt.t2_map)))
                for mode, (_, maps, _) in self.results[i].items()}

    def quality(self):
        """Median over scans of the LRTV network maps' T1 and T2 NRMSE."""
        errs = [self._errors(i, "net")["lrtv"] for i in sorted(self.results)]
        return tuple(float(np.median([e[j] for e in errs])) for j in (0, 1))

    def check(self, log):
        rng = np.random.default_rng([self.seed, 1])
        basis, coils = self.basis, self.coils
        t1_range, t2_range = _ranges(self.dictionary)
        for i in sorted(self.results):
            gt, data = self.scans[i]
            pattern = data.pattern
            fg = gt.foreground().ravel()
            x = rng.standard_normal((fg.size, basis.rank_s, 2)) @ np.array([1, 1j])  # (n, S)
            y = rng.standard_normal(data.y.shape + (2,)) @ np.array([1, 1j])
            with log(f"scan{i} adjoint identity"):
                checks.check_adjoint(
                    lambda a: fm.forward(a, basis, coils, pattern).y,
                    lambda b: fm.adjoint(fm.KSpaceData(y=b, pattern=pattern), basis, coils,
                                         pattern),
                    x, y)
            for mode in ("lr", "lrtv"):
                lam = DEFAULT["recon"]["lambda"] if mode == "lrtv" else 0.0
                with log(f"scan{i} {mode} objective"):
                    checks.check_objective_below_data(self.results[i][mode][0], data.y, basis.v,
                                                      coils.sens, pattern.masks, lam, mode)
            for est in ("net", "match"):
                errs = self._errors(i, est)
                with log(f"scan{i} {est} ordering"):
                    checks.check_method_ordering(errs, est)
                for mode, (_, maps, scores) in self.results[i].items():
                    label = f"scan{i} {mode}-{est}"
                    with log(f"{label} range"):
                        checks.check_maps_in_range(maps[est][:, 0], maps[est][:, 1], fg,
                                                   t1_range, t2_range, label)
                    with log(f"{label} score"):
                        checks.check_scores_agree(scores[est], errs[mode])


class Train:
    """Set-up: the default dictionary and rank-5 basis. One operation is
    make_training_set at the shipped sigma and augment factor (466,100 rows),
    then train for TRAIN_EPOCHS epochs at the shipped batch, rate and width."""

    ops_per_round = 1

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        self.dictionary, self.basis = _default_dictionary_and_basis()

    def run_op(self, i):
        tc = DEFAULT["train"]
        self.data, self.net, self.history = _train(self.dictionary, self.basis, tc["augment"],
                                                   TRAIN_EPOCHS, self.seed)

    def _clean(self):
        """Clean projections of every atom, their labels and the net's estimates."""
        rows = checks.own_clean_rows(self.dictionary.atoms, self.basis.v)
        labels = np.stack([self.dictionary.t1_ms, self.dictionary.t2_ms], axis=1)
        return rows, labels.astype(np.float64), self.net.predict_ms(rows.astype(np.float32))

    def quality(self):
        """T1 and T2 NRMSE of the network on the clean dictionary projections."""
        _, labels, pred = self._clean()
        everywhere = np.ones(len(labels), dtype=bool)
        return tuple(checks.nrmse(pred[:, j], labels[:, j], everywhere) for j in (0, 1))

    def check(self, log):
        rows, labels, pred = self._clean()
        with log("training rows"):
            checks.check_training_rows(self.data[0])
        with log("loss history"):
            checks.check_loss_history(self.history)
        with log("clean atoms match their own labels"):
            maps, _ = inference.dictionary_match(rows, self.dictionary, self.basis)
            checks.check_match_labels(maps, labels[:, 0], labels[:, 1])
        with log("network beats constant predictor"):
            checks.check_beats_constant(pred, labels, _ranges(self.dictionary))
        with log("basis orthonormal"):
            checks.check_orthonormal(self.basis.v, 1e-10)


def _load_oracle(root):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("mrfkit_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Dictionary:
    """Set-up: a fresh interpreter imports mrfkit.cli. One operation is two
    fresh CLI processes: simulate-dict at 1000 frames, k_max 100, over a
    32,062-atom (T1, T2) grid slice whose T2 offset comes from the seed, then
    learn-subspace at rank 10, which takes the Gram branch at this width."""

    ops_per_round = 1

    def __init__(self, seed, workdir, root):
        self.workdir = workdir
        self.root = root
        self.tracer = None  # set by a traced run
        self.seed = seed
        self.t2_start = 20 + seed % 14
        self.t2 = (f"{self.t2_start}:{DICT_T2_STEP}:"
                   f"{self.t2_start + DICT_T2_STEP * (DICT_T2_COUNT - 1)}")
        self.dict_path = workdir / "dict.mrfb"
        self.basis_path = workdir / "basis.mrfb"
        self._loaded = None
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))

    def _child(self, args):
        """Run one fresh interpreter: `mrfkit ARGS`, or the import alone when
        ARGS is empty. Traced runs go through cli_child.py and merge its spans."""
        if self.tracer is None:
            cmd = ([sys.executable, "-m", "mrfkit.cli", *args] if args
                   else [sys.executable, "-c", "import mrfkit.cli"])
        else:
            spans = self.workdir / "child_spans.json"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(spans),
                   *args]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(args) or 'import'} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        if self.tracer is not None:
            self.tracer.merge(json.loads(spans.read_text()))

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._child([])

    def run_op(self, i):
        self._loaded = None
        self._child(["simulate-dict", "--t1", DICT_T1, "--t2", self.t2,
                     "--frames", str(DICT_FRAMES), "--k-max", str(DICT_K_MAX),
                     "--out", str(self.dict_path)])
        self._child(["learn-subspace", "--dict", str(self.dict_path),
                     "--rank", str(DICT_RANK), "--out", str(self.basis_path)])

    def _load(self):
        if self._loaded is None:
            d, _ = checks.read_mrfb(self.dict_path)
            b, _ = checks.read_mrfb(self.basis_path)
            self._loaded = d, b["v"].astype(np.complex128), b["singular_values"]
        return self._loaded

    def quality(self):
        """T1 and T2 NRMSE of matching noisy copies of DICT_PROBES atoms
        (sigma DICT_PROBE_SIGMA) in the learned subspace against every atom."""
        d, v, _ = self._load()
        return checks.match_noisy_atoms(d["atoms"], d["t1"], d["t2"], v, DICT_PROBE_SIGMA,
                                        DICT_PROBES, np.random.default_rng([self.seed, 2]))

    def check(self, log):
        d, v, s_values = self._load()
        start, step, stop = (int(p) for p in DICT_T1.split(":"))
        t1_values = np.arange(start, stop + 1, step)
        t2_values = self.t2_start + DICT_T2_STEP * np.arange(DICT_T2_COUNT)
        with log("dictionary layout"):
            checks.check_dictionary_layout(d, t1_values, t2_values, DICT_FRAMES)
        with log("atoms agree with the Bloch oracle"):
            oracle = _load_oracle(self.root)
            s = DEFAULT["schedule"]
            t = np.arange(DICT_FRAMES)
            schedule = types.SimpleNamespace(
                flip_angles_deg=s["alpha_max_deg"] * np.abs(np.sin(np.pi * t / s["period"])),
                n_frames=DICT_FRAMES, tr_ms=s["tr_ms"], te_ms=s["te_ms"], tinv_ms=s["tinv_ms"],
                inversion=True)
            rng = np.random.default_rng([self.seed, 3])
            cols = np.sort(rng.choice(d["atoms"].shape[1], DICT_ORACLE_ATOMS, replace=False))
            refs = np.stack([oracle.bloch_fingerprint(float(d["t1"][j]), float(d["t2"][j]),
                                                      schedule) for j in cols], axis=1)
            checks.check_against_oracle(d["atoms"][:, cols], refs)
        with log("basis orthonormal"):
            # the bundle stores complex64, so orthonormality holds to float32 roundoff
            checks.check_orthonormal(v, 1e-5)
        with log("captured energy"):
            checks.check_energy(d["atoms"], v, s_values)
