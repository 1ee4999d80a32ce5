import csv
import errno
import filecmp
import inspect
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from mrfkit import bundle, cli, epg, experiment, forward_model, inference, phantom, solver
from mrfkit import subspace
from mrfkit.tvprox import TvConfig

from oracles import acquire_reference


def run_cli(*args):
    return cli.main(list(args))


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Run the staged pipeline end to end on a tiny problem."""
    root = tmp_path_factory.mktemp("pipeline")
    d = str(root / "dict.mrfb")
    b = str(root / "basis.mrfb")
    g = str(root / "gt.mrfb")
    k = str(root / "kspace.mrfb")
    assert run_cli("simulate-dict", "--t1", "300:300:2100", "--t2", "40:60:340",
                   "--frames", "80", "--out", d) == 0
    assert run_cli("learn-subspace", "--dict", d, "--rank", "4", "--out", b) == 0
    assert run_cli("make-phantom", "--size", "32", "32", "--out", g) == 0
    assert run_cli("acquire", "--gt", g, "--frames", "80", "--accel", "4",
                   "--coils", "2", "--seed", "5", "--out", k) == 0
    return root


class TestPipelineCommands:
    def test_artifacts_exist(self, pipeline_dir):
        for name in ("dict.mrfb", "basis.mrfb", "gt.mrfb", "kspace.mrfb"):
            assert (pipeline_dir / name).exists()

    def test_reconstruct_all_modes(self, pipeline_dir):
        for mode in ("bpi", "lr", "lrtv"):
            out = str(pipeline_dir / f"x_{mode}.mrfb")
            trace = str(pipeline_dir / f"trace_{mode}.csv")
            code = run_cli("reconstruct", "--mode", mode, "--iters", "8",
                           "--in", str(pipeline_dir / "kspace.mrfb"),
                           "--basis", str(pipeline_dir / "basis.mrfb"),
                           "--out", out, "--trace", trace)
            assert code == 0
            arrays, meta = bundle.read_bundle(out)
            assert arrays["x_subspace"].shape == (4, 32, 32)
            with open(trace, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert header == ["iteration", "objective", "fidelity", "tv_term", "mu", "halvings",
                              "rel_change", "momentum", "majorization_rhs", "tv_iters", "tv_gap"]
            # every accepted step satisfies the majorization, read from the file;
            # only lrtv rows past the zero iterate ran the TV prox
            for row in rows[1:]:
                fidelity, rhs = float(row[2]), float(row[8])
                assert fidelity <= rhs * (1 + 1e-12)
            assert [int(row[9]) > 0 for row in rows] == [mode == "lrtv" and i > 0
                                                        for i in range(len(rows))]
            assert all(float(row[10]) == 0.0 for row in rows if int(row[9]) == 0)
            assert len(rows) == (1 if mode == "bpi" else 9)

    def test_train_infer_match_score(self, pipeline_dir, capsys):
        net = str(pipeline_dir / "net.mrfb")
        code = run_cli("train-net", "--dict", str(pipeline_dir / "dict.mrfb"),
                       "--basis", str(pipeline_dir / "basis.mrfb"),
                       "--sigma", "0.002", "--augment", "10", "--epochs", "40",
                       "--batch", "64", "--lr", "0.05", "--hidden", "32", "32",
                       "--seed", "3", "--out", net)
        assert code == 0
        assert re.fullmatch(r"trained 40 epochs, final loss \S+, within one grid step of "
                            r"matching: T1 \d+\.\d%, T2 \d+\.\d% -> .*net\.mrfb\n",
                            capsys.readouterr().out)
        x = str(pipeline_dir / "x_lrtv.mrfb")
        maps_net = str(pipeline_dir / "maps_net.mrfb")
        maps_dm = str(pipeline_dir / "maps_dm.mrfb")
        assert run_cli("infer", "--net", net, "--in", x, "--out", maps_net) == 0
        assert run_cli("match", "--dict", str(pipeline_dir / "dict.mrfb"),
                       "--in", x, "--out", maps_dm) == 0
        arrays, meta = bundle.read_bundle(maps_dm)
        assert set(arrays) >= {"t1", "t2", "pd"}
        assert meta["estimator"] == "match"
        metrics = str(pipeline_dir / "metrics_net.csv")
        assert run_cli("score", "--est", maps_net,
                       "--gt", str(pipeline_dir / "gt.mrfb"), "--out", metrics) == 0
        lines = (pipeline_dir / "metrics_net.csv").read_text().splitlines()
        assert lines[0] == "method,param,rmse,mae,nrmse"
        assert len(lines) == 3


def nested(key, value):
    """The partial configuration that sets dotted key `key` to `value`."""
    *parents, leaf = key.split(".")
    config = {leaf: value}
    for parent in reversed(parents):
        config = {parent: config}
    return config


INTEGER_KEYS = {
    "seed": 1234.0, "size": [64.0, 64], "frames": 200.0, "rank": 5.0, "coils": 4.0,
    "k_max": 5.0, "schedule.period": 250.0, "recon.iters": 50.0, "recon.tv_iters": 50.0,
    "train.augment": 100.0, "train.epochs": 30.0, "train.batch_size": 512.0,
    "train.hidden": [300, 300.0],
}
FLOAT_KEYS = (
    "accel", "kspace_noise", "schedule.alpha_max_deg", "schedule.tr_ms", "schedule.te_ms",
    "schedule.tinv_ms", "recon.lambda", "recon.stop_rel_change", "recon.tv_tol",
    "train.sigma", "train.learning_rate",
)
# (key, smallest accepted value, a value just below it)
BOUNDS = [
    ("seed", 0, -1), ("kspace_noise", 0, -1e-9), ("schedule.tinv_ms", 0, -1e-9),
    ("recon.lambda", 0, -1e-9), ("recon.stop_rel_change", 0, -1e-9), ("train.sigma", 0, -1e-9),
    ("train.epochs", 0, -1), ("size", [8, 8], [64, 7]), ("accel", 1, 0.999),
    ("frames", 1, 0), ("rank", 1, 0), ("coils", 1, 0), ("k_max", 1, 0),
    ("schedule.period", 1, 0), ("recon.iters", 1, 0), ("recon.tv_iters", 1, 0),
    ("train.augment", 1, 0), ("train.batch_size", 1, 0), ("train.hidden", [1, 1], [0, 300]),
    ("schedule.alpha_max_deg", 1e-9, 0), ("schedule.tr_ms", 1e-9, 0),
    ("schedule.te_ms", 1e-9, 0), ("recon.tv_tol", 1e-12, 0), ("train.learning_rate", 1e-9, 0),
]
CHOICES = {
    "coil_kind": ("uniform", "gaussian-ring"),
    "recon.tv_variant": ("isotropic", "anisotropic"),
    "phantom": ("default", "offgrid"),
}
# one bad config per class of rejected input, and the key its error must name
BAD_CONFIGS = [
    ({"sixe": [32, 32]}, "sixe"),
    ({"recon": {"lamda": 0.1}}, "recon.lamda"),
    ({"coils": "4"}, "coils"),
    ({"dict": {"t1": 100}}, "dict.t1"),
    ({"train": {"output_relu": 1}}, "train.output_relu"),
    ({"recon": [1]}, "recon"),
    ({"size": [64, 7]}, "size"),
    ({"accel": 0.5}, "accel"),
    ({"schedule": {"tinv_ms": -1}}, "schedule.tinv_ms"),
    ({"schedule": {"tr_ms": 0}}, "schedule.tr_ms"),
    ({"coil_kind": "birdcage"}, "coil_kind"),
    ({"recon": {"tv_variant": "huber"}}, "recon.tv_variant"),
    ({"phantom": "shepp-logan"}, "phantom"),
    ({"size": [64]}, "size"),
    ({"train": {"hidden": [300, 300, 300]}}, "train.hidden"),
    ({"phantom": [{"shape": "ellipse"}, "ellipse"]}, "phantom: entry 2"),
    ({"train": {"epochs": 2.0}}, "train.epochs"),
    ({"recon": {"lambda": float("nan")}}, "recon.lambda"),
    ({"kspace_noise": float("inf")}, "kspace_noise"),
    ({"dict": {"t2": "600:10:20"}}, "dict.t2: grid range 600.0:10.0:20.0 must be positive"),
    ({"dict": {"t1": "100:4000"}}, "dict.t1: expected start:step:stop"),
    ({"rank": 250}, "rank: must be at most min(frames, atoms) = 200, got 250"),
    ({"accel": 60.0}, "center block (81 samples) alone exceeds the budget"),
    ({"schedule": {"period": 10**400}}, "schedule.period"),
]

_RECONSTRUCT = ("reconstruct", "--in", "{kspace}", "--basis", "{basis}", "--mode")
_MATCH = ("match", "--dict", "{dict}", "--in", "{recon}")
_TRAIN = ("train-net", "--dict", "{dict}", "--basis", "{basis}", "--augment", "2")
_SCORE = ("score", "--est", "{maps}", "--gt", "{gt}")
_LEARN = ("learn-subspace", "--dict", "{dict}")
_INFER = ("infer", "--net", "{net}", "--in", "{recon}")
# per kind of bundle: the file of that kind and a command that loads it
LOADERS = {
    "ground-truth": ("gt", ("acquire", "--gt", "{gt}")),
    "dictionary": ("dict", _LEARN),
    "basis": ("basis", (*_RECONSTRUCT, "lr")),
    "kspace": ("kspace", (*_RECONSTRUCT, "lr")),
    "reconstruction": ("recon", _MATCH),
    "mrf-net": ("net", _INFER),
    "maps": ("maps", _SCORE),
}
# every command that reads a bundle, by name, with the files it reads as
# fields; reconstruct in modes bpi and lr (lrtv reads its files as lr does)
READERS = {
    "acquire": ("acquire", "--gt", "{gt}"), "score": _SCORE, "learn-subspace": _LEARN,
    "match": _MATCH, "train-net": _TRAIN, "bpi": (*_RECONSTRUCT, "bpi"),
    "lr": (*_RECONSTRUCT, "lr", "--iters", "2"), "infer": _INFER,
}
# the arrays and header fields that no loader reads: a dictionary's labels,
# which its saver writes for readers outside mrfkit (its loader reads the
# grid), and the settings that made a k-space or a network
UNREAD = {"dictionary": ("t1", "t2"), "kspace": ("seed", "accel", "kspace_noise"),
          "mrf-net": ("train",)}
# the command to rerun, which a dtype-mismatch error names, per array
RERUN = {"v": "learn-subspace", "basis_v": "reconstruct"}
# the exit-1 errors that a changed bundle may give, all of which README
# lists: files that do not fit together, a ground truth without foreground
USAGE_FAULTS = ("does not match basis frames", "sampling pattern frames disagree",
                "coefficients", "shapes differ", "has no foreground")
_FLOAT32_MAX = np.finfo(np.float32).max


def structural_faults(value):
    """The changes of an array or a header value, by name, that make every
    loader of it fail: for an array, a NaN or inf middle entry (if floating),
    an extra leading axis, an axis of length 0 and complex64 storage (if it is
    real); for a header value, its deletion (None), a value of another JSON
    kind, and for a number or a list, one out of range or too short."""
    if isinstance(value, np.ndarray):
        faults = {"extra-axis": value[None]}
        faults.update((f"empty-axis{i}", value.take([], axis=i)) for i in range(value.ndim))
        if value.dtype.kind in "fc":
            for name, entry in (("nan", np.nan), ("inf", np.inf)):
                faults[name] = value.copy()
                faults[name].flat[value.size // 2] = entry
        if value.dtype.kind != "c":
            faults["complex64"] = value.astype(np.complex64)
        return faults
    faults = {"deleted": None,
              **({"number": 1} if isinstance(value, (str, list)) else {"string": "text"})}
    if type(value) is float:
        faults.update({"nan": math.nan, "10**400": 10**400})
    if isinstance(value, list):
        faults["short"] = value[:1]
    return faults


def value_changes(value):
    """The changes of an array, by name, whose outcome depends on the values:
    a first axis of length 1 or reversed, all entries zero or negated, and,
    if it is floating, all float32-max or subnormal (1e-40)."""
    if not isinstance(value, np.ndarray):
        return {}
    changes = {"first-axis-1": value[:1], "reversed": value[::-1], "zero": np.zeros_like(value),
               "negated": -value}
    if value.dtype.kind in "fc":
        changes.update(max=np.full_like(value, _FLOAT32_MAX),
                       subnormal=np.full_like(value, 1e-40))
    return changes


def _set(key, value):
    """An edit of a bundle's arrays and header that sets the array or the
    dotted header key `key` to value, or deletes it if value is None."""
    def edit(arrays, meta):
        *parents, leaf = key.split(".")
        node = arrays if key in arrays else meta
        for parent in parents:
            node = node[parent]
        del node[leaf]
        if value is not None:
            node[leaf] = value
    return edit


def _one_entry(shape, value):
    """A float32 array of zeros but for value at its first entry."""
    out = np.zeros(shape, np.float32)
    out.flat[0] = value
    return out


def _nan_at(key):
    """An edit that sets the middle entry of array key to NaN."""
    def edit(arrays, _):
        arrays[key].flat[arrays[key].size // 2] = np.nan
    return edit


# named cases of the fault table's structural faults, each of which a bug
# report once named: per kind of bundle, a header value or an array, by its
# dotted key, replaced by one of the wrong type, a non-finite entry or an
# empty axis, which the kind's loader must reject
BAD_FIELDS = [
    *(pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in [
        ("dictionary", "grid.t1", [100.0, 50.0]), ("dictionary", "tr_ms", "ten"),
        ("dictionary", "te_ms", float("nan")), ("dictionary", "tinv_ms", 10**400),
        ("mrf-net", "t1_range", 5), ("mrf-net", "output_relu", "no"), ("maps", "estimator", 1)]),
    pytest.param("basis", "v", np.zeros((80, 0), np.float32), id="basis-v-no-columns"),
    pytest.param("mrf-net", "w1", _one_entry((8, 8), np.nan), id="mrf-net-w1-nan"),
    pytest.param("mrf-net", "b2", _one_entry(2, -np.inf), id="mrf-net-b2-inf"),
    pytest.param("reconstruction", "x_subspace", _one_entry((4, 32, 32), np.nan) + 0j,
                 id="reconstruction-x_subspace-nan"),
    pytest.param("reconstruction", "basis_v", _one_entry((80, 4), np.inf),
                 id="reconstruction-basis_v-inf"),
    pytest.param("basis", "singular_values", _one_entry(80, -np.inf),
                 id="basis-singular_values-inf"),
]
# a header value or an array of the right type, but with a shape or an
# impossible value, or one that disagrees with another field of the bundle,
# that the kind's loader must reject
IMPOSSIBLE_FIELDS = [
    pytest.param("dictionary", "tr_ms", 1.0, id="dictionary-tr_ms-below-te_ms"),
    pytest.param("kspace", "masks", np.zeros((10, 32, 32), np.uint8), id="kspace-masks-frames"),
    pytest.param("ground-truth", "t2", np.zeros((8, 8), np.float32), id="ground-truth-t2-shape"),
    pytest.param("mrf-net", "w1", np.zeros((7, 4), np.float32), id="mrf-net-w1-shape"),
    pytest.param("mrf-net", "t1_range", [1800.0, 300.0], id="mrf-net-t1_range-reversed"),
    pytest.param("maps", "t2", np.zeros((8, 8), np.float32), id="maps-t2-shape"),
    pytest.param("kspace", "masks", np.zeros((80, 32, 32), np.uint8), id="kspace-masks-empty"),
    pytest.param("ground-truth", "t1", np.full((32, 32), -800.0, np.float32),
                 id="ground-truth-t1-negative"),
    pytest.param("ground-truth", "pd", np.full((32, 32), -1.0, np.float32),
                 id="ground-truth-pd-negative"),
    pytest.param("reconstruction", "x_subspace", np.zeros((4, 32 * 32), np.complex64),
                 id="reconstruction-x_subspace"),
    pytest.param("maps", "t1", np.zeros(32 * 32, np.float32), id="maps-t1"),
]
# impossible bundles that replacing one field by a fixed value cannot make,
# or read by a command other than LOADERS': (file, key the error names, edit,
# command)
# (file, kind, arrays): by name, each command that must refuse a NaN in one of them
NAN_READERS = {
    ("kspace", "kspace", ("y", "sens")): {mode: (*_RECONSTRUCT, mode) for mode in ("bpi", "lr")},
    ("dict", "dictionary", ("flip_angles_deg",)): {"match": _MATCH, "train-net": _TRAIN,
                                                   "learn-subspace": _LEARN},
    ("gt", "ground-truth", ("t1", "pd")): {"acquire": READERS["acquire"], "score": _SCORE},
    ("maps", "maps", ("t1",)): {"score": _SCORE},
}
IMPOSSIBLE_BUNDLES = [
    *(pytest.param("kspace", "y", lambda arrays, _: arrays.update(y=arrays["y"][:, :0],
                                                                  sens=arrays["sens"][:0]),
                   (*_RECONSTRUCT, mode), id=f"kspace-no-coils-{mode}") for mode in ("bpi", "lr")),
    *(pytest.param("basis", "v", _nan_at("v"), (*_RECONSTRUCT, mode), id=f"basis-v-nan-{mode}")
      for mode in ("bpi", "lr")),
    pytest.param("recon", "x_subspace", _nan_at("x_subspace"), _INFER,
                 id="reconstruction-x_subspace-nan-infer"),
    *(pytest.param("recon", "x_subspace",
                   lambda arrays, _: arrays.update(x_subspace=arrays["x_subspace"][:0],
                                                   basis_v=arrays["basis_v"][:, :0]),
                   args, id=f"reconstruction-rank-zero-{args[0]}") for args in (_MATCH, _INFER)),
    *(pytest.param(source, key, _nan_at(key), args, id=f"{kind}-{key}-nan-{name}")
      for (source, kind, keys), commands in NAN_READERS.items()
      for key in keys for name, args in commands.items()),
    pytest.param("gt", "pd", lambda arrays, _: arrays.update(pd=-arrays["pd"]), _SCORE,
                 id="ground-truth-pd-negated-score"),
    *(pytest.param("dict", "grid", lambda arrays, _: arrays.update(atoms=arrays["atoms"][:, :-1]),
                   args, id=f"dictionary-grid-pairs-{args[0]}") for args in (_MATCH, _TRAIN, _LEARN)),
]
# an array stored as complex64 where its saver writes another dtype: (file,
# key, command); the first two are the complex64 v and basis_v of bundles
# from before the basis was real
DTYPE_MISMATCHES = [
    pytest.param("basis", "v", (*_RECONSTRUCT, "lr"), id="basis-v"),
    pytest.param("recon", "basis_v", _MATCH, id="reconstruction-basis_v"),
    pytest.param("net", "w0", _INFER, id="mrf-net-w0-infer"),
    pytest.param("gt", "t1", _SCORE, id="ground-truth-t1-score"),
    pytest.param("dict", "flip_angles_deg", _MATCH, id="dictionary-flips-match"),
    pytest.param("dict", "flip_angles_deg", _TRAIN, id="dictionary-flips-train-net"),
    pytest.param("basis", "singular_values", (*_RECONSTRUCT, "bpi"),
                 id="basis-singular_values-reconstruct"),
]
# edits of a dictionary's label arrays (UNREAD), after which each command
# gives the clean file's output: (array, edit name, edit)
_LABEL_EDITS = [
    ("t1", "reversed", lambda a: a[::-1]),
    ("t1", "zero", np.zeros_like),
    ("t1", "nan", lambda a: np.full_like(a, np.nan)),
    ("t2", "nan", lambda a: np.full_like(a, np.nan)),
]
UNREAD_LABELS = [
    pytest.param(key, edit, READERS[name], id=f"{key}-{edit_name}-{name}")
    for key, edit_name, edit in _LABEL_EDITS
    for name in (("match", "train-net", "learn-subspace") if edit_name == "nan"
                 else ("match", "train-net"))
]
# finite bundles on which a stage overflows or makes a NaN: (file, the array
# every entry of which is set to value, command)
NUMERIC_FAULTS = [
    pytest.param("net", "w0", _FLOAT32_MAX, _INFER, id="infer-w0-max"),
    pytest.param("dict", "atoms", _FLOAT32_MAX, _LEARN, id="learn-subspace-atoms-max"),
    pytest.param("dict", "atoms", 1e-40, _MATCH, id="match-atoms-subnormal"),
]
# two files that each load but do not fit together: (file replaced, by the
# MISMATCHED file, command, its error); a usage error, as the user paired them
DISAGREEING_FILES = [
    pytest.param("basis", "basis30", (*_RECONSTRUCT, "bpi"),
                 "basis frames and sampling pattern frames disagree", id="reconstruct"),
    pytest.param("dict", "dict30", _MATCH, "series length 30 does not match basis frames 80",
                 id="match"),
    pytest.param("dict", "dict30", _TRAIN, "series length 30 does not match basis frames 80",
                 id="train-net"),
    pytest.param("net", "net3", _INFER, "expected (n, 3) coefficients", id="infer"),
    pytest.param("gt", "gt16", _SCORE, "estimate and ground-truth shapes differ", id="score"),
]


@pytest.fixture(scope="module")
def loader_files(pipeline_dir, tmp_path_factory):
    """One bundle of each kind LOADERS names, by its LOADERS file name."""
    root = tmp_path_factory.mktemp("loaders")
    files = {name: str(pipeline_dir / f"{name}.mrfb") for name in ("dict", "basis", "gt", "kspace")}
    basis = subspace.load_basis(files["basis"])
    x = np.random.default_rng(0).standard_normal((32 * 32, basis.rank_s)) + 0j
    files["recon"] = str(root / "x.mrfb")
    solver.save_reconstruction(x, basis, (32, 32), files["recon"])
    net = inference.MrfNet.initialize(basis.rank_s, (300.0, 2100.0), (40.0, 340.0),
                                      hidden=(8, 8), seed=0)
    files["net"] = str(root / "net.mrfb")
    inference.save_net(net, inference.TrainConfig(noise_sigma=0.002, augment_factor=100,
                                                   epochs=30), files["net"])
    files["maps"] = str(root / "maps.mrfb")
    assert run_cli("infer", "--net", files["net"], "--in", files["recon"],
                   "--out", files["maps"]) == 0
    return files


@pytest.fixture(scope="module")
def mismatched_files(tmp_path_factory):
    """A 30-frame dictionary and basis, a rank-3 net and a 16 x 16 ground
    truth, none of which fits the 80-frame, rank-4, 32 x 32 bundles of
    loader_files."""
    root = tmp_path_factory.mktemp("mismatched")
    files = {name: str(root / f"{name}.mrfb") for name in ("dict30", "basis30", "net3", "gt16")}
    assert run_cli("make-phantom", "--size", "16", "16", "--out", files["gt16"]) == 0
    assert run_cli("simulate-dict", "--t1", "300:300:2100", "--t2", "40:60:340",
                   "--frames", "30", "--out", files["dict30"]) == 0
    assert run_cli("learn-subspace", "--dict", files["dict30"], "--rank", "4",
                   "--out", files["basis30"]) == 0
    net = inference.MrfNet.initialize(3, (300.0, 2100.0), (40.0, 340.0), hidden=(8, 8), seed=0)
    inference.save_net(net, inference.TrainConfig(noise_sigma=0.002, augment_factor=100,
                                                   epochs=30), files["net3"])
    return files


def run_reader(capsys, tmp_path, args, files, source=None, edit=None):
    """Run args, whose fields name bundles of files, with --out; given edit,
    on a copy of bundle source whose arrays and header (as plain JSON) edit
    changes. Returns the exit code, the stderr lines, the path of the changed
    copy and the output's path."""
    path = tmp_path / "changed.mrfb"
    if edit is not None:
        arrays, meta = bundle.read_bundle(files[source])
        meta = json.loads(json.dumps(meta))
        edit(arrays, meta)
        bundle.write_bundle(path, arrays, meta)
        files = {**files, source: path}
    out = tmp_path / ("out.csv" if args[0] == "score" else "out.mrfb")
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = run_cli(*(arg.format(**files) for arg in args), "--out", str(out))
    return code, capsys.readouterr().err.splitlines(), path, out


def _fields(arrays, meta, unread):
    """Each array and header field of a bundle but its kind, as (dotted key,
    value), with the fields of each header object its loader reads."""
    for key, value in [*arrays.items(), *meta.items()]:
        if key != "kind":
            yield key, value
        if isinstance(value, dict) and key not in unread:
            yield from ((f"{key}.{name}", item) for name, item in value.items())


def refused(run, key, stored_dtype=None, deleted=False):
    """Whether run_reader's command exited 2 with one error line naming the
    changed copy and the dotted key's last part, and wrote no output. The line
    is a corrupt header, which for a deleted key says the copy "has no" it,
    or given the dtype of an array stored as complex64, the dtype mismatch
    that names the command to rerun, if any."""
    code, lines, path, out = run
    if code != 2 or len(lines) != 1 or out.exists():
        return False
    if stored_dtype is not None:
        rerun = f"; rerun {RERUN[key]} to write it again" if key in RERUN else ""
        message = f"{path} array {key!r} must be {stored_dtype}, got complex64{rerun}"
        return lines[0] == f"error kind=io code=dtype-mismatch msg={message!r}"
    where = f"{path} has no " if deleted else str(path)
    return (lines[0].startswith("error kind=io code=corrupt-header") and where in lines[0]
            and repr(key.split(".")[-1]) in lines[0])


def meets_contract(run):
    """Whether run_reader's command exited 0 with finite outputs and an empty
    stderr, or exited 1 with one of USAGE_FAULTS, or 2 or 3, with one error
    line and no output. A metrics table's nrmse may be NaN: a ground truth of
    one value over its foreground has no range to normalize by."""
    code, lines, _, out = run
    if code == 0 and out.suffix == ".csv":
        with open(out, newline="") as fh:
            _, *rows = csv.reader(fh)
        return lines == [] and all(math.isfinite(float(v)) for row in rows
                                   for v in (row[2:4] if row[4] == "nan" else row[2:]))
    if code == 0:
        return lines == [] and all(np.isfinite(a).all() for a in bundle.read_bundle(out)[0].values())
    return len(lines) == 1 and not out.exists() and (
        code in (2, 3) or code == 1 and any(fault in lines[0] for fault in USAGE_FAULTS))


class TestExitCodes:
    def test_usage_error(self):
        assert run_cli("reconstruct", "--mode", "warp") == 1

    def test_missing_file_is_io_error(self, tmp_path):
        assert run_cli("learn-subspace", "--dict", str(tmp_path / "none.mrfb"),
                       "--rank", "3", "--out", str(tmp_path / "b.mrfb")) == 2

    def test_corrupt_bundle_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.mrfb"
        bad.write_bytes(b"\x10\x00\x00\x00\x00\x00\x00\x00" + b"junkjunkjunkjunk")
        assert run_cli("learn-subspace", "--dict", str(bad),
                       "--rank", "3", "--out", str(tmp_path / "b.mrfb")) == 2

    def test_grid_too_large_to_allocate_is_memory_error(self, tmp_path, capsys):
        # 3.9e15 T1 values: more bytes than any address space, so it fails at once
        out = tmp_path / "d.mrfb"
        capsys.readouterr()
        assert run_cli("simulate-dict", "--t1", "100:0.000000000001:4000", "--out", str(out)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error kind=memory msg=")
        assert not out.exists()

    @pytest.mark.parametrize("args,message", [
        # the grid's value count floors inf
        (("simulate-dict", "--t1", "1:1e-300:1e308", "--out", "{out}"), ""),
        # training sets counted before anything is built: a row count that
        # does not fit a C long, and on the default 4661-atom dictionary one
        # that wraps past int64 in numpy and one that fits but is more bytes
        # than an array can address
        *((("train-net", "--dict", dictionary, "--basis", basis, "--augment", str(augment),
            "--out", "{out}"), "'train.augment: ")
          for dictionary, basis, augment in (("{dict}", "{basis}", 10**25),
                                             ("{desk_dict}", "{desk_basis}", 2**59),
                                             ("{desk_dict}", "{desk_basis}", 2**50))),
    ], ids=["simulate-dict-grid", "train-net-augment", "train-net-augment-2**59",
            "train-net-augment-2**50"])
    def test_request_too_large_to_index_is_memory_error(self, pipeline_dir, tmp_path, capsys,
                                                          desk_dictionary, desk_basis, args,
                                                          message):
        out = tmp_path / "out.mrfb"
        paths = {"dict": pipeline_dir / "dict.mrfb", "basis": pipeline_dir / "basis.mrfb",
                 "desk_dict": tmp_path / "desk_dict.mrfb",
                 "desk_basis": tmp_path / "desk_basis.mrfb", "out": out}
        if "{desk_dict}" in args:
            epg.save_dictionary(desk_dictionary, paths["desk_dict"])
            subspace.save_basis(desk_basis, paths["desk_basis"])
        capsys.readouterr()
        assert run_cli(*(arg.format(**paths) for arg in args)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error kind=memory msg={message}")
        assert not out.exists()

    def test_bad_grid_is_usage_error(self, tmp_path):
        assert run_cli("simulate-dict", "--t1", "nope", "--t2", "20:2:600",
                       "--frames", "10", "--out", str(tmp_path / "d.mrfb")) == 1

    @pytest.mark.parametrize("flag,text,reason", [
        ("--t1", "100:-10:4000", "grid range 100.0:-10.0:4000.0 must be positive"),
        ("--t2", "20:x:600", "could not convert string to float"),
    ])
    def test_bad_grid_flag_names_its_key(self, tmp_path, capsys, flag, text, reason):
        d = tmp_path / "d.mrfb"
        capsys.readouterr()
        assert run_cli("simulate-dict", flag, text, "--frames", "10", "--out", str(d)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert re.match(f"error kind=usage msg=.dict.{flag[2:]}: {reason}", lines[0])
        assert not d.exists()

    def test_failed_epg_worker_is_io_error(self, tmp_path, capsys, monkeypatch):
        parent, simulate_block = os.getpid(), epg._simulate_block

        def block(*args):
            if os.getpid() != parent:
                raise RuntimeError("worker block")
            simulate_block(*args)

        monkeypatch.setattr(epg, "CHUNK_SIZE", 4)
        monkeypatch.setattr(epg, "_worker_count", lambda: 2)
        monkeypatch.setattr(epg, "_simulate_block", block)
        d = tmp_path / "d.mrfb"
        capsys.readouterr()
        assert run_cli("simulate-dict", "--t1", "300:300:2100", "--t2", "40:60:340",
                       "--frames", "10", "--out", str(d)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error kind=io msg='EPG worker process")
        assert list(tmp_path.iterdir()) == []  # neither d.mrfb nor d.mrfb.tmp
        with pytest.raises(ChildProcessError):  # no worker is left
            os.waitpid(-1, os.WNOHANG)

    def test_failed_parent_share_is_io_error(self, tmp_path, capsys, monkeypatch):
        # the parent's own share of the streamed atoms fails to write: the
        # workers it started are stopped and no file is left
        parent, write_columns = os.getpid(), bundle.write_columns

        def write(*args):
            if os.getpid() == parent:
                raise OSError(errno.EIO, "parent block")
            write_columns(*args)

        monkeypatch.setattr(epg, "CHUNK_SIZE", 4)
        monkeypatch.setattr(epg, "_worker_count", lambda: 3)
        monkeypatch.setattr(bundle, "write_columns", write)
        d = tmp_path / "d.mrfb"
        capsys.readouterr()
        assert run_cli("simulate-dict", "--t1", "300:300:2100", "--t2", "40:60:340",
                       "--frames", "10", "--out", str(d)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error kind=io msg='[Errno 5] parent block'"]
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_full_disk_fails_before_simulation(self, tmp_path, capsys, monkeypatch):
        # the whole dictionary file is reserved before the first EPG block
        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def no_block(*args):
            raise AssertionError("simulated a block on a full disk")

        monkeypatch.setattr(os, "posix_fallocate", full)
        monkeypatch.setattr(epg, "_simulate_block", no_block)
        monkeypatch.setattr(epg, "_worker_count", lambda: 2)
        d = tmp_path / "d.mrfb"
        capsys.readouterr()
        assert run_cli("simulate-dict", "--t1", "300:30:2100", "--t2", "40:10:340",
                       "--frames", "10", "--out", str(d)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error kind=io msg='[Errno 28] No space left on device'"]
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_spec_with_offgrid_is_usage_error(self, tmp_path, capsys):
        spec, out = tmp_path / "spec.json", tmp_path / "gt.mrfb"
        spec.write_text(json.dumps(phantom.default_head_spec()))
        capsys.readouterr()
        assert run_cli("make-phantom", "--spec", str(spec), "--offgrid", "--out", str(out)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error kind=usage")
        assert "--offgrid" in lines[0] and "--spec" in lines[0]
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # nothing but the error line on stderr
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("frames,t1,at", [
        (80, "300:300:2100", "middle"), (8, "300:30:2100", "middle"),
        # 1086 atoms: learn-subspace reads blocks of 512, 512 and 62
        (8, "300:10:2100", "first"), (8, "300:10:2100", "last"),
    ], ids=["narrow", "wide", "first-block", "last-block"])
    def test_non_finite_atoms_are_io_error(self, tmp_path, capsys, frames, t1, at, bad):
        d, b, x = tmp_path / "d.mrfb", tmp_path / "b.mrfb", tmp_path / "x.mrfb"
        assert run_cli("simulate-dict", "--t1", t1, "--t2", "40:60:340",
                       "--frames", str(frames), "--out", str(d)) == 0
        assert run_cli("learn-subspace", "--dict", str(d), "--rank", "3", "--out", str(b)) == 0
        basis = subspace.load_basis(b)
        solver.save_reconstruction(np.ones((64, 3), np.complex64), basis, (8, 8), x)
        dictionary = epg.load_dictionary(d)
        atoms = bundle.read_bundle(d)[0]["atoms"]  # whole, in memory
        col = {"first": 0, "middle": dictionary.n_atoms // 2, "last": dictionary.n_atoms - 2}[at]
        atoms[frames // 2, col : col + 2] = bad, -bad  # inf + -inf is NaN
        epg.save_dictionary(epg.Dictionary(atoms, dictionary.schedule, dictionary.grid_spec), d)
        capsys.readouterr()
        for args in (("learn-subspace", "--dict", str(d), "--rank", "3"),
                     ("match", "--dict", str(d), "--in", str(x)),
                     ("train-net", "--dict", str(d), "--basis", str(b), "--augment", "2")):
            out = tmp_path / "out.mrfb"
            assert run_cli(*args, "--out", str(out)) == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error kind=io code=corrupt-header")
            assert "'atoms' has non-finite entries" in lines[0]
            assert not out.exists()

    @pytest.mark.parametrize("fault", ["truncated", "dtype"])
    def test_bad_atoms_payload_fails_before_gram(self, pipeline_dir, tmp_path, capsys,
                                                 monkeypatch, fault):
        path, out = tmp_path / "bad.mrfb", tmp_path / "out.mrfb"
        if fault == "truncated":  # the file ends halfway through the atoms
            arrays, _ = bundle.read_bundle(pipeline_dir / "dict.mrfb", defer="atoms")
            atoms = arrays["atoms"]
            end = atoms.offset + math.prod(atoms.shape) * atoms.dtype.itemsize // 2
            path.write_bytes((pipeline_dir / "dict.mrfb").read_bytes()[:end])
            code = "truncated-payload"
        else:
            arrays, meta = bundle.read_bundle(pipeline_dir / "dict.mrfb", kind="dictionary")
            arrays["atoms"] = arrays["atoms"].imag.copy()  # float32
            bundle.write_bundle(path, arrays, meta)
            code = "dtype-mismatch"

        def no_product(*args, **kwargs):
            raise AssertionError("Gram work before the atoms were checked")

        monkeypatch.setattr(np, "matmul", no_product)
        capsys.readouterr()
        assert run_cli("learn-subspace", "--dict", str(path), "--rank", "3",
                       "--out", str(out)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error kind=io code={code}")
        assert not out.exists()

    def test_machine_readable_stderr(self, tmp_path, capsys):
        run_cli("learn-subspace", "--dict", str(tmp_path / "none.mrfb"),
                "--rank", "3", "--out", str(tmp_path / "b.mrfb"))
        err = capsys.readouterr().err
        assert err.startswith("error kind=io")

    def test_wrong_bundle_kind_is_io_error(self, pipeline_dir, tmp_path, capsys):
        d, b, k = (str(pipeline_dir / n) for n in ("dict.mrfb", "basis.mrfb", "kspace.mrfb"))
        capsys.readouterr()
        for args in (("reconstruct", "--mode", "lr", "--in", d, "--basis", b),
                     ("infer", "--net", b, "--in", k)):
            assert run_cli(*args, "--out", str(tmp_path / "out.mrfb")) == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error kind=io code=corrupt-header")

    def test_single_value_grid_axis_is_usage_error(self, tmp_path, capsys):
        d, b = str(tmp_path / "d.mrfb"), str(tmp_path / "b.mrfb")
        assert run_cli("simulate-dict", "--t1", "800:50:800", "--t2", "40:60:340",
                       "--frames", "20", "--out", d) == 0
        assert run_cli("learn-subspace", "--dict", d, "--rank", "3", "--out", b) == 0
        capsys.readouterr()
        assert run_cli("train-net", "--dict", d, "--basis", b, "--augment", "2",
                       "--out", str(tmp_path / "net.mrfb")) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error kind=usage")
        assert "T1 range" in lines[0]
        assert not (tmp_path / "net.mrfb").exists()
        # matching needs no range, so it accepts the grid
        basis = subspace.load_basis(b)
        x = np.random.default_rng(0).standard_normal((64, 3)) + 0j
        solver.save_reconstruction(x, basis, (8, 8), tmp_path / "x.mrfb")
        assert run_cli("match", "--dict", d, "--in", str(tmp_path / "x.mrfb"),
                       "--out", str(tmp_path / "maps.mrfb")) == 0

    def test_malformed_phantom_entry_fails_before_dictionary(self, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"phantom": [{"shape": "ellipse", "cx": 0.5}]}))
        out_dir = tmp_path / "out"
        assert run_cli("run-experiment", "--config", str(config),
                       "--out-dir", str(out_dir)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error kind=usage")
        assert "cy" in lines[0]
        assert not (out_dir / "dict.mrfb").exists()

    @staticmethod
    def run_bad_experiment(tmp_path, capsys, config):
        """Run an experiment whose config must fail with exit 1 before the
        dictionary is written; returns its one stderr line."""
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        assert run_cli("run-experiment", "--config", str(path), "--out-dir", str(out_dir)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error kind=usage")
        assert not (out_dir / "dict.mrfb").exists()
        return lines[0]

    @pytest.mark.parametrize("key,value", [("t1", -5), ("cx", "a"), ("t1", None), ("a", 0),
                                           pytest.param("t1", 10**400, id="t1-10**400")])
    def test_bad_phantom_value_fails_before_dictionary(self, tmp_path, capsys, key, value):
        entry = {"shape": "ellipse", "cx": 0.5, "cy": 0.5, "a": 0.4, "b": 0.4,
                 "t1": 800.0, "t2": 80.0, "pd": 1.0, key: value}
        line = self.run_bad_experiment(tmp_path, capsys, {"phantom": [entry]})
        assert f"phantom entry 1 key {key!r}" in line

    def test_nonfinite_grid_range_is_usage_error(self, tmp_path, capsys):
        d = tmp_path / "d.mrfb"
        for t1 in ("100:1:inf", "nan:1:200"):
            assert run_cli("simulate-dict", "--t1", t1, "--t2", "20:10:600",
                           "--frames", "10", "--out", str(d)) == 1
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error kind=usage")
            assert "grid range" in lines[0] and "must be finite" in lines[0]
        assert not d.exists()
        line = self.run_bad_experiment(tmp_path, capsys, {"dict": {"t2": "20:10:inf"}})
        assert "grid range 20.0:10.0:inf must be finite" in line


    @pytest.mark.parametrize("axis,grid", [("t1", "800:50:800"), ("t2", "40:10:45")])
    def test_single_value_grid_axis_fails_before_phantom(self, tmp_path, capsys, axis, grid):
        line = self.run_bad_experiment(tmp_path, capsys, {"dict": {axis: grid}})
        assert f"dict.{axis}: the network needs at least two grid values" in line
        assert not (tmp_path / "out" / "gt.mrfb").exists()

    @pytest.mark.parametrize("config,key", BAD_CONFIGS)
    def test_bad_config_fails_before_dictionary(self, tmp_path, capsys, config, key):
        assert key in self.run_bad_experiment(tmp_path, capsys, config)

    @pytest.mark.parametrize("config,key", [
        ({"size": [10**25, 8]}, "size"),
        ({"size": [2**31, 2**30], "frames": 2, "rank": 1, "coils": 1}, "size"),
        ({"size": [2**31, 2**31]}, "size"),
        ({"frames": 10**25}, "frames"),
        ({"coils": 10**25}, "coils"),
        ({"dict": {"t1": "100:1e-9:4000", "t2": "20:1e-9:600"}}, "dict"),
        ({"train": {"augment": 10**25}}, "train.augment"),
        ({"train": {"hidden": [10**25, 24]}}, "train.hidden"),
    ], ids=["size", "size-bytes", "size-2**62", "frames", "coils", "dict", "train.augment",
            "train.hidden"])
    def test_oversized_config_fails_before_any_stage(self, tmp_path, capsys, config, key):
        line = self.run_bad_experiment(tmp_path, capsys, config)
        assert f"msg='{key}: " in line and "more than the" in line
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("kind", list(LOADERS))
    def test_missing_field_is_io_error(self, loader_files, tmp_path, capsys, kind):
        # deleting a header field is one of the fault table's changes
        source, args = LOADERS[kind]
        arrays, _ = bundle.read_bundle(loader_files[source])
        for name in arrays.keys() - set(UNREAD.get(kind, ())):
            run = run_reader(capsys, tmp_path, args, loader_files, source, _set(name, None))
            assert refused(run, name, deleted=True) and "has no array" in run[1][0], run[:2]

    @pytest.mark.parametrize("name", READERS)
    def test_fault_table(self, loader_files, tmp_path, capsys, name):
        """Each bundle the command reads, after each change of each of its
        arrays and header fields: a structural fault in a field the command
        reads fails as a corrupt header or a dtype mismatch naming the file
        and the key, a value change meets the runtime contract, and no change
        of a field that no loader reads changes the output."""
        args = READERS[name]
        code, lines, _, out = run_reader(capsys, tmp_path, args, loader_files)
        assert (code, lines) == (0, [])
        clean = out.rename(tmp_path / f"clean{out.suffix}")
        kinds = {source: kind for kind, (source, _) in LOADERS.items()}
        violations = []
        for source in re.findall(r"{(\w+)}", " ".join(args)):
            arrays, meta = bundle.read_bundle(loader_files[source])
            unread = UNREAD.get(kinds[source], ())
            for key, value in _fields(arrays, meta, unread):
                faults = structural_faults(value)
                for change, new in {**faults, **value_changes(value)}.items():
                    run = run_reader(capsys, tmp_path, args, loader_files, source, _set(key, new))
                    if key.split(".")[0] in unread:
                        ok = run[:2] == (0, []) and filecmp.cmp(run[3], clean, shallow=False)
                    elif change in faults:
                        ok = refused(run, key, value.dtype if change == "complex64" else None,
                                     deleted=new is None)
                    else:
                        ok = meets_contract(run)
                    if not ok:
                        violations.append((source, key, change, *run[:2]))
        assert violations == []

    @pytest.mark.parametrize("kind,key,value", [*BAD_FIELDS, *IMPOSSIBLE_FIELDS])
    def test_malformed_field_is_io_error(self, loader_files, tmp_path, capsys, kind, key, value):
        source, args = LOADERS[kind]
        run = run_reader(capsys, tmp_path, args, loader_files, source, _set(key, value))
        assert refused(run, key), run[:2]

    @pytest.mark.parametrize("source,key,edit,args", IMPOSSIBLE_BUNDLES)
    def test_impossible_bundle_is_io_error(self, loader_files, tmp_path, capsys, source, key,
                                           edit, args):
        run = run_reader(capsys, tmp_path, args, loader_files, source, edit)
        assert refused(run, key), run[:2]

    @pytest.mark.parametrize("source,key,args", DTYPE_MISMATCHES)
    def test_complex_array_is_dtype_mismatch(self, loader_files, tmp_path, capsys, source, key,
                                             args):
        stored = bundle.read_bundle(loader_files[source])[0][key].dtype
        run = run_reader(capsys, tmp_path, args, loader_files, source,
                         lambda arrays, _: arrays.update({key: arrays[key].astype(np.complex64)}))
        assert refused(run, key, stored), run[:2]

    @pytest.mark.parametrize("key,edit,args", UNREAD_LABELS)
    def test_labels_from_grid(self, loader_files, tmp_path, capsys, key, edit, args):
        *_, clean = run_reader(capsys, tmp_path, args, loader_files)
        clean = clean.rename(tmp_path / "clean.mrfb")
        code, lines, _, out = run_reader(capsys, tmp_path, args, loader_files, "dict",
                                         lambda arrays, _: arrays.update({key: edit(arrays[key])}))
        assert (code, lines) == (0, []) and filecmp.cmp(out, clean, shallow=False)

    @pytest.mark.parametrize("source,key,value,args", NUMERIC_FAULTS)
    def test_stage_overflow_is_numeric_error(self, loader_files, tmp_path, capsys, source, key,
                                             value, args):
        code, lines, _, out = run_reader(
            capsys, tmp_path, args, loader_files, source,
            lambda arrays, _: arrays.update({key: np.full_like(arrays[key], value)}))
        assert code == 3
        assert len(lines) == 1 and lines[0].startswith("error kind=numeric msg=")
        assert not out.exists()

    @pytest.mark.parametrize("source,other,args,message", DISAGREEING_FILES)
    def test_disagreeing_files_are_usage_error(self, loader_files, mismatched_files, tmp_path,
                                               capsys, source, other, args, message):
        code, lines, _, out = run_reader(capsys, tmp_path, args,
                                         {**loader_files, source: mismatched_files[other]})
        assert code == 1
        assert lines == [f"error kind=usage msg={message!r}"]
        assert not out.exists()

    def test_dropped_header_fields_are_ignored(self, loader_files, tmp_path, capsys):
        # a dictionary with the inversion flag, a k-space bundle with the
        # mask-drawing constants and a network with its layer count, as older
        # versions wrote them, read as the same bundles without those fields
        old = {"dict": ({"inversion": True}, _LEARN),
               "kspace": ({"center_radius": 4, "gamma": 2.0, "k0": 4.0}, (*_RECONSTRUCT, "bpi")),
               "net": ({"layers": 3}, _INFER)}
        for source, (fields, args) in old.items():
            *_, current = run_reader(capsys, tmp_path, args, loader_files)
            current = current.rename(tmp_path / "current.mrfb")
            code, *_, out = run_reader(capsys, tmp_path, args, loader_files, source,
                                       lambda arrays, meta: meta.update(fields))
            assert code == 0 and filecmp.cmp(out, current, shallow=False)

    @pytest.mark.parametrize("args,option", [
        *(pytest.param(args, "--out", id=name)
          for name, args in {"simulate-dict": ("simulate-dict",),
                             "make-phantom": ("make-phantom",), **READERS}.items()),
        pytest.param((*_RECONSTRUCT, "lr"), "--trace", id="reconstruct-trace")])
    def test_missing_output_directory_fails_before_stage(self, loader_files, tmp_path, capsys,
                                                         monkeypatch, args, option):
        def stage(*_args):
            raise AssertionError("the stage ran")

        monkeypatch.setattr(experiment, args[0].replace("-", "_"), stage)
        parent = tmp_path / "parent"
        paths = {"--out": tmp_path / "out", option: parent / "out"}
        for reason in ("No such file or directory", "Not a directory"):
            if reason == "Not a directory":
                parent.write_text("")
            capsys.readouterr()
            assert run_cli(*(arg.format(**loader_files) for arg in args),
                           *(str(item) for pair in paths.items() for item in pair)) == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error kind=io msg=")
            assert f"{reason}: {str(parent) + os.sep!r}" in lines[0]
            assert list(tmp_path.iterdir()) == ([parent] if parent.exists() else [])

    def test_nonfinite_lambda_flag_is_usage_error(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "x.mrfb"
        capsys.readouterr()
        assert run_cli("reconstruct", "--mode", "lrtv", "--lambda", "nan", "--iters", "2",
                       "--in", str(pipeline_dir / "kspace.mrfb"),
                       "--basis", str(pipeline_dir / "basis.mrfb"), "--out", str(out)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error kind=usage")
        assert "recon.lambda" in lines[0]
        assert not out.exists()


class TestExperimentConfig:
    def test_default_config_valid(self):
        cfg = experiment.resolve_config(None)
        assert cfg["size"] == [64, 64]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="sixe"):
            experiment.resolve_config({"sixe": [32, 32]})
        with pytest.raises(ValueError, match=r"recon\.lamda"):
            experiment.resolve_config({"recon": {"lamda": 0.1}})

    def test_partial_override_merges(self):
        cfg = experiment.resolve_config({"size": [32, 32], "train": {"epochs": 2}})
        assert cfg["size"] == [32, 32]
        assert cfg["train"]["epochs"] == 2
        assert cfg["train"]["augment"] == 100

    @pytest.mark.parametrize("key", INTEGER_KEYS)
    def test_integer_valued_float_rejected(self, key):
        with pytest.raises(ValueError, match=f"^{re.escape(key)}: must be an integer"):
            experiment.resolve_config(nested(key, INTEGER_KEYS[key]))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                       pytest.param(10**400, id="10**400"),
                                       pytest.param(-10**400, id="-10**400")])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_nonfinite_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{re.escape(key)}: must be a finite number"):
            experiment.resolve_config(nested(key, value))

    @pytest.mark.parametrize("key,lowest,below", BOUNDS)
    def test_bounds(self, key, lowest, below):
        experiment.resolve_config(nested(key, lowest))
        with pytest.raises(ValueError, match=f"^{re.escape(key)}: must be"):
            experiment.resolve_config(nested(key, below))

    @pytest.mark.parametrize("key", CHOICES)
    def test_choices(self, key):
        for value in CHOICES[key]:
            experiment.resolve_config(nested(key, value))
        with pytest.raises(ValueError, match=f"^{re.escape(key)}: must be one of"):
            experiment.resolve_config(nested(key, "other"))

    def test_k_max_null_and_phantom_list_accepted(self):
        shape = {"shape": "ellipse", "cx": 0.5, "cy": 0.5, "a": 0.4, "b": 0.4,
                 "t1": 800.0, "t2": 80.0, "pd": 1.0}
        cfg = experiment.resolve_config({"k_max": None, "phantom": [shape]})
        assert cfg["k_max"] is None and cfg["phantom"] == [shape]

    def test_library_defaults_match_config(self):
        """Each library default that the configuration also sets equals the
        configuration's value."""
        d = experiment.DEFAULT_EXPERIMENT

        def defaults(fn, *names):
            parameters = inspect.signature(fn).parameters
            return tuple(parameters[name].default for name in names)

        assert defaults(TvConfig, "variant", "max_iters", "dual_gap_tol") == (
            d["recon"]["tv_variant"], d["recon"]["tv_iters"], d["recon"]["tv_tol"])
        assert defaults(solver.SolverConfig, "stop_rel_change") == (d["recon"]["stop_rel_change"],)
        assert defaults(epg.default_schedule, *d["schedule"]) == tuple(d["schedule"].values())
        assert defaults(forward_model.make_coil_maps, "kind") == (d["coil_kind"],)
        assert defaults(inference.TrainConfig, "batch_size", "learning_rate", "seed") == (
            d["train"]["batch_size"], d["train"]["learning_rate"], d["seed"])
        assert defaults(inference.MrfNet.initialize, "output_relu") == (
            d["train"]["output_relu"],)


TINY_EXPERIMENT = {
    "seed": 77,
    "size": [32, 32],
    "frames": 40,
    "rank": 3,
    "coils": 2,
    "accel": 4.0,
    "dict": {"t1": "300:300:2100", "t2": "40:60:340"},
    "recon": {"iters": 6},
    "train": {"augment": 5, "epochs": 8, "batch_size": 64, "hidden": [24, 24]},
}


class TestRunExperiment:
    def test_tiny_experiment_outputs(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(TINY_EXPERIMENT))
        out_dir = tmp_path / "out"
        assert run_cli("run-experiment", "--config", str(config),
                       "--out-dir", str(out_dir)) == 0
        for name in ("dict.mrfb", "basis.mrfb", "gt.mrfb", "kspace.mrfb", "net.mrfb",
                     "metrics.csv", "exp_config.json"):
            assert (out_dir / name).exists(), name
        for mode in ("bpi", "lr", "lrtv"):
            assert (out_dir / f"x_{mode}.mrfb").exists()
            assert (out_dir / f"maps_{mode}.mrfb").exists()
            assert (out_dir / f"trace_{mode}.csv").exists()
            assert (out_dir / f"t1_{mode}.pgm").exists()
            assert (out_dir / f"t2_{mode}.pgm").exists()

        lines = (out_dir / "metrics.csv").read_text().splitlines()
        assert lines[0] == "method,param,rmse,mae,nrmse"
        assert len(lines) == 7  # 3 methods x 2 params
        methods = {line.split(",")[0] for line in lines[1:]}
        assert methods == {"bpi", "lr", "lrtv"}

        # one row per epoch; the last 8 // 5 epochs run at a tenth of the rate
        with open(out_dir / "train_history.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["epoch", "loss", "learning_rate", "t1_within_step", "t2_within_step"]
        assert [int(r[0]) for r in rows] == list(range(1, 9))
        assert [float(r[2]) for r in rows] == [0.05] * 7 + [0.005]
        fractions = np.array([r[3:] for r in rows], dtype=float)
        assert ((fractions >= 0) & (fractions <= 1)).all()

    def test_pgm_format(self, tmp_path):
        img = np.linspace(0, 4000, 64).reshape(8, 8)
        path = tmp_path / "t.pgm"
        experiment.write_pgm16(path, img, vmax=4000.0)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n8 8\n65535\n")
        data = np.frombuffer(raw[len(b"P5\n8 8\n65535\n"):], dtype=">u2")
        assert data[0] == 0
        assert data[-1] == 65535


class TestAcquire:
    """acquire adds the k-space noise a frame at a time; the bytes it writes
    are those of the whole-array draw in tests/oracles.py."""

    # forward_model._FRAME_BLOCK is 32 frames, the slab that apply_frames
    # forms the k-space in: 40 end in a partial slab, 64 fill two, 20 are
    # less than one
    @pytest.mark.parametrize("frames", [40, 64, 20])
    @pytest.mark.parametrize("noise", [0.005, 0.0])
    def test_kspace_equals_whole_array_noise(self, tmp_path, frames, noise):
        cfg = experiment.resolve_config({**TINY_EXPERIMENT, "frames": frames,
                                         "kspace_noise": noise})
        gt = tmp_path / "gt.mrfb"
        experiment.make_phantom(cfg, gt)
        experiment.acquire(cfg, gt, tmp_path / "kspace.mrfb")
        acquire_reference(cfg, gt, tmp_path / "reference.mrfb")
        assert filecmp.cmp(tmp_path / "kspace.mrfb", tmp_path / "reference.mrfb", shallow=False)

    def test_noise_holds_one_float64_array(self, tmp_path, traced_peak):
        # 400 frames of 4 coils at 32 x 32: beside the 26 MB k-space, the
        # noise's real parts (half of it), a few complex128 frames of 64 kB,
        # the masks and apply_frames' slabs
        cfg = experiment.resolve_config({**TINY_EXPERIMENT, "frames": 400, "coils": 4})
        gt = tmp_path / "gt.mrfb"
        experiment.make_phantom(cfg, gt)
        peak, data = traced_peak(experiment.acquire, cfg, gt, tmp_path / "kspace.mrfb")
        frame = data.y[0].nbytes
        assert peak <= data.y.nbytes * 3 // 2 + 4 * frame + 2 * 2**20, (peak, data.y.nbytes)


class TestReconstruct:
    def test_holds_one_complex128_kspace(self, tmp_path, traced_peak):
        # 400 frames of 4 coils at 32 x 32: beside the 13 MB complex64 k-space
        # as stored, one complex128 k-space at a time (the copy that ||y||^2
        # is summed over, then the final residual) and the solve's small
        # arrays; no complex128 copy of y kept for the whole solve
        cfg = experiment.resolve_config({**TINY_EXPERIMENT, "frames": 400, "coils": 4,
                                         "recon": {"iters": 2}})
        gt, kspace, dictionary, basis = (tmp_path / f"{name}.mrfb"
                                         for name in ("gt", "kspace", "dict", "basis"))
        experiment.make_phantom(cfg, gt)
        stored = experiment.acquire(cfg, gt, kspace).y.size * np.dtype(np.complex64).itemsize
        experiment.simulate_dict(cfg, dictionary)
        experiment.learn_subspace(cfg, dictionary, basis)
        for mode in experiment.METHODS:
            peak, _ = traced_peak(experiment.reconstruct, cfg, mode, kspace, basis,
                                  tmp_path / f"x_{mode}.mrfb")
            assert peak <= 3 * stored + 4 * 2**20, (mode, peak, stored)


def test_hand_pipeline_matches_run_experiment(tmp_path):
    """The README's hand pipeline, given flags only for the keys the tiny
    config overrides, reproduces run-experiment's files byte for byte."""
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(TINY_EXPERIMENT))
    exp_dir = tmp_path / "exp"
    assert run_cli("run-experiment", "--config", str(config), "--out-dir", str(exp_dir)) == 0

    hand = tmp_path / "hand"
    hand.mkdir()

    def p(name):
        return str(hand / name)

    assert run_cli("simulate-dict", "--t1", "300:300:2100", "--t2", "40:60:340",
                   "--frames", "40", "--out", p("dict.mrfb")) == 0
    assert run_cli("learn-subspace", "--dict", p("dict.mrfb"), "--rank", "3",
                   "--out", p("basis.mrfb")) == 0
    assert run_cli("make-phantom", "--size", "32", "32", "--out", p("gt.mrfb")) == 0
    assert run_cli("acquire", "--gt", p("gt.mrfb"), "--frames", "40", "--accel", "4",
                   "--coils", "2", "--seed", "77", "--out", p("kspace.mrfb")) == 0
    for mode in experiment.METHODS:
        assert run_cli("reconstruct", "--mode", mode, "--iters", "6",
                       "--in", p("kspace.mrfb"), "--basis", p("basis.mrfb"),
                       "--out", p(f"x_{mode}.mrfb"), "--trace", p(f"trace_{mode}.csv")) == 0
    assert run_cli("train-net", "--dict", p("dict.mrfb"), "--basis", p("basis.mrfb"),
                   "--augment", "5", "--epochs", "8", "--batch", "64", "--hidden", "24", "24",
                   "--seed", "77", "--out", p("net.mrfb")) == 0
    for mode in experiment.METHODS:
        assert run_cli("infer", "--net", p("net.mrfb"), "--in", p(f"x_{mode}.mrfb"),
                       "--out", p(f"maps_{mode}.mrfb")) == 0
    assert run_cli("match", "--dict", p("dict.mrfb"), "--in", p("x_lrtv.mrfb"),
                   "--out", p("maps_match.mrfb")) == 0

    names = ["dict.mrfb", "basis.mrfb", "gt.mrfb", "kspace.mrfb", "net.mrfb"]
    for mode in experiment.METHODS:
        names += [f"x_{mode}.mrfb", f"trace_{mode}.csv", f"maps_{mode}.mrfb"]
    differing = [n for n in names
                 if not filecmp.cmp(exp_dir / n, hand / n, shallow=False)]
    assert differing == []


# runs one mrfkit command, then prints the peak resident set in KB of the
# process and of the EPG workers it forked (ru_maxrss of each)
_PEAK_RSS = """
import resource, sys
from mrfkit import cli
code = cli.main(sys.argv[1:])
print(max(resource.getrusage(who).ru_maxrss
          for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))
sys.exit(code)
"""


def peak_rss_kb(*args):
    """The peak resident set of `mrfkit ARGS` run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


def test_stream_peaks_do_not_grow_with_atoms(tmp_path):
    # tracemalloc sees neither the forked workers nor memory outside numpy's
    # buffers, so the peaks are the processes' own: 4661 and 4 x 4661 atoms of
    # 200 frames (7.5 and 30 MB of atoms) move each command's peak by less
    # than 4 MB
    d, b, x, out = (str(tmp_path / name) for name in ("d.mrfb", "b.mrfb", "x.mrfb", "o.mrfb"))
    peaks = []
    for t2 in ("20:10:600", "20:2.5:607.5"):
        peaks.append([peak_rss_kb("simulate-dict", "--t2", t2, "--out", d),
                      peak_rss_kb("learn-subspace", "--dict", d, "--out", b)])
        basis = subspace.load_basis(b)
        solver.save_reconstruction(np.ones((64, basis.rank_s), np.complex64), basis, (8, 8), x)
        peaks[-1] += [peak_rss_kb("train-net", "--dict", d, "--basis", b, "--augment", "1",
                                  "--epochs", "1", "--out", out),
                      peak_rss_kb("match", "--dict", d, "--in", x, "--out", out)]
    assert epg.load_dictionary(d).n_atoms == 4 * 4661
    for small, large in zip(*peaks):
        assert large - small < 4 * 1024, peaks
