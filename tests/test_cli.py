import csv
import filecmp
import inspect
import json
import os
import re

import numpy as np
import pytest

from mrfkit import bundle, cli, epg, experiment, forward_model, inference, phantom, solver
from mrfkit import subspace
from mrfkit.tvprox import TvConfig


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
                              "rel_change", "momentum", "majorization_rhs"]
            # every accepted step satisfies the majorization, read from the file
            for row in rows[1:]:
                fidelity, rhs = float(row[2]), float(row[8])
                assert fidelity <= rhs * (1 + 1e-12)
            assert len(rows) == (1 if mode == "bpi" else 9)

    def test_train_infer_match_score(self, pipeline_dir):
        net = str(pipeline_dir / "net.mrfb")
        code = run_cli("train-net", "--dict", str(pipeline_dir / "dict.mrfb"),
                       "--basis", str(pipeline_dir / "basis.mrfb"),
                       "--sigma", "0.002", "--augment", "10", "--epochs", "40",
                       "--batch", "64", "--lr", "0.05", "--hidden", "32", "32",
                       "--seed", "3", "--out", net)
        assert code == 0
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
]

# per kind of bundle: the file of that kind, a command that loads it and
# the header fields its loader needs (kind itself aside); the loader needs
# every array of the file except those UNREAD_ARRAYS names
LOADERS = {
    "ground-truth": ("gt", ("acquire", "--gt", "{gt}"), ()),
    "dictionary": ("dict", ("learn-subspace", "--dict", "{dict}"),
                   ("tr_ms", "te_ms", "tinv_ms", "grid")),
    "basis": ("basis", ("reconstruct", "--mode", "lr", "--in", "{kspace}",
                        "--basis", "{basis}"), ()),
    "kspace": ("kspace", ("reconstruct", "--mode", "lr", "--in", "{kspace}",
                          "--basis", "{basis}"), ()),
    "reconstruction": ("recon", ("match", "--dict", "{dict}", "--in", "{recon}"), ()),
    "mrf-net": ("net", ("infer", "--net", "{net}", "--in", "{recon}"),
                ("t1_range", "t2_range", "output_relu")),
    "maps": ("maps", ("score", "--est", "{maps}", "--gt", "{gt}"), ("estimator",)),
}
# a dictionary's labels are its grid's pairs: its saver writes them as arrays
# for readers outside mrfkit, and its loader reads neither
UNREAD_ARRAYS = {"dictionary": ("t1", "t2")}
# per kind of bundle: a header value or an array, by its dotted key, replaced
# by one of the wrong type or shape, which the kind's loader must reject
BAD_FIELDS = [
    ("dictionary", "grid.t1", [100.0, 50.0]),
    ("dictionary", "tr_ms", "ten"),
    ("dictionary", "te_ms", float("nan")),
    ("dictionary", "tinv_ms", 10**400),
    ("reconstruction", "x_subspace", np.zeros((4, 32 * 32), np.complex64)),
    ("mrf-net", "t1_range", 5),
    ("mrf-net", "output_relu", "no"),
    ("maps", "estimator", 1),
    ("maps", "t1", np.zeros(32 * 32, np.float32)),
]


def _one_entry(shape, value):
    """A float32 array of zeros but for value at its first entry."""
    out = np.zeros(shape, np.float32)
    out.flat[0] = value
    return out


# a header value or an array of the right type and shape, but with an
# impossible value or one that disagrees with another field of the bundle
IMPOSSIBLE_FIELDS = [
    pytest.param("dictionary", "tr_ms", 1.0, id="dictionary-tr_ms-below-te_ms"),
    pytest.param("basis", "v", np.zeros((80, 0), np.float32), id="basis-v-no-columns"),
    pytest.param("kspace", "masks", np.zeros((10, 32, 32), np.uint8), id="kspace-masks-frames"),
    pytest.param("ground-truth", "t2", np.zeros((8, 8), np.float32), id="ground-truth-t2-shape"),
    pytest.param("mrf-net", "w1", np.zeros((7, 4), np.float32), id="mrf-net-w1-shape"),
    pytest.param("mrf-net", "t1_range", [1800.0, 300.0], id="mrf-net-t1_range-reversed"),
    pytest.param("maps", "t2", np.zeros((8, 8), np.float32), id="maps-t2-shape"),
    pytest.param("kspace", "masks", np.zeros((80, 32, 32), np.uint8), id="kspace-masks-empty"),
    pytest.param("mrf-net", "w1", _one_entry((8, 8), np.nan), id="mrf-net-w1-nan"),
    pytest.param("mrf-net", "b2", _one_entry(2, -np.inf), id="mrf-net-b2-inf"),
    pytest.param("reconstruction", "x_subspace", _one_entry((4, 32, 32), np.nan) + 0j,
                 id="reconstruction-x_subspace-nan"),
    pytest.param("reconstruction", "basis_v", _one_entry((80, 4), np.inf),
                 id="reconstruction-basis_v-inf"),
    pytest.param("basis", "singular_values", _one_entry(80, -np.inf),
                 id="basis-singular_values-inf"),
    pytest.param("ground-truth", "t1", np.full((32, 32), -800.0, np.float32),
                 id="ground-truth-t1-negative"),
    pytest.param("ground-truth", "pd", np.full((32, 32), -1.0, np.float32),
                 id="ground-truth-pd-negative"),
]


def _drop_coils(arrays):
    arrays["y"], arrays["sens"] = arrays["y"][:, :0], arrays["sens"][:0]


def _drop_rank(arrays):
    arrays["x_subspace"], arrays["basis_v"] = arrays["x_subspace"][:0], arrays["basis_v"][:, :0]


def _drop_last_atom(arrays):
    arrays["atoms"] = arrays["atoms"][:, :-1]


def _negate(key):
    """An edit that negates array key."""
    def edit(arrays):
        arrays[key] = -arrays[key]
    return edit


def _nan_at(key):
    """An edit that sets the middle entry of array key to NaN."""
    def edit(arrays):
        arrays[key].flat[arrays[key].size // 2] = np.nan
    return edit


_RECONSTRUCT = ("reconstruct", "--in", "{kspace}", "--basis", "{basis}", "--mode")
_MATCH = ("match", "--dict", "{dict}", "--in", "{recon}")
_TRAIN = ("train-net", "--dict", "{dict}", "--basis", "{basis}", "--augment", "2")
_SCORE = ("score", "--est", "{maps}", "--gt", "{gt}")
_LEARN = ("learn-subspace", "--dict", "{dict}")
_DICT_READERS = {"match": _MATCH, "train-net": _TRAIN, "learn-subspace": _LEARN}
# (file, kind, arrays): by name, each command that must refuse a NaN in one of them
NAN_READERS = {
    ("kspace", "kspace", ("y", "sens")): {mode: (*_RECONSTRUCT, mode) for mode in ("bpi", "lr")},
    ("dict", "dictionary", ("flip_angles_deg",)): _DICT_READERS,
    ("gt", "ground-truth", ("t1", "pd")): {"acquire": ("acquire", "--gt", "{gt}"), "score": _SCORE},
    ("maps", "maps", ("t1",)): {"score": _SCORE},
}
# impossible bundles that replacing one field cannot make, or read by a command
# other than LOADERS': (file, kind, key the error names, edit, command)
IMPOSSIBLE_BUNDLES = [
    *(pytest.param("kspace", "kspace", "y", _drop_coils, (*_RECONSTRUCT, mode),
                   id=f"kspace-no-coils-{mode}") for mode in ("bpi", "lr")),
    *(pytest.param("basis", "basis", "v", _nan_at("v"), (*_RECONSTRUCT, mode),
                   id=f"basis-v-nan-{mode}") for mode in ("bpi", "lr")),
    pytest.param("recon", "reconstruction", "x_subspace", _nan_at("x_subspace"),
                 ("infer", "--net", "{net}", "--in", "{recon}"),
                 id="reconstruction-x_subspace-nan-infer"),
    *(pytest.param("recon", "reconstruction", "x_subspace", _drop_rank, args,
                   id=f"reconstruction-rank-zero-{args[0]}")
      for args in (_MATCH, ("infer", "--net", "{net}", "--in", "{recon}"))),
    *(pytest.param(source, kind, key, _nan_at(key), args, id=f"{kind}-{key}-nan-{name}")
      for (source, kind, keys), commands in NAN_READERS.items()
      for key in keys for name, args in commands.items()),
    pytest.param("gt", "ground-truth", "pd", _negate("pd"), _SCORE,
                 id="ground-truth-pd-negated-score"),
    *(pytest.param("dict", "dictionary", "grid", _drop_last_atom, args,
                   id=f"dictionary-grid-pairs-{args[0]}") for args in (_MATCH, _TRAIN, _LEARN)),
]
# edits of the label arrays of a dictionary bundle (UNREAD_ARRAYS), after which
# each command gives the clean file's output: (array, edit name, edit)
_LABEL_EDITS = [
    ("t1", "reversed", lambda a: a[::-1]),
    ("t1", "zero", np.zeros_like),
    ("t1", "nan", lambda a: np.full_like(a, np.nan)),
    ("t2", "nan", lambda a: np.full_like(a, np.nan)),
]
UNREAD_LABELS = [
    pytest.param(key, edit, _DICT_READERS[name], id=f"{key}-{edit_name}-{name}")
    for key, edit_name, edit in _LABEL_EDITS
    for name in (_DICT_READERS if edit_name == "nan" else ("match", "train-net"))
]
# finite bundles on which a stage overflows or makes a NaN: (file, kind, the
# array every entry of which is set to value, command)
_FLOAT32_MAX = np.finfo(np.float32).max
NUMERIC_FAULTS = [
    pytest.param("net", "mrf-net", "w0", _FLOAT32_MAX,
                 ("infer", "--net", "{net}", "--in", "{recon}"), id="infer-w0-max"),
    pytest.param("dict", "dictionary", "atoms", _FLOAT32_MAX, _LEARN,
                 id="learn-subspace-atoms-max"),
    pytest.param("dict", "dictionary", "atoms", 1e-40, _MATCH, id="match-atoms-subnormal"),
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
    pytest.param("net", "net3", ("infer", "--net", "{net}", "--in", "{recon}"),
                 "expected (n, 3) coefficients", id="infer"),
]


# an array stored as complex64 where its saver writes another dtype: (file,
# kind, key, command, the command the error says to rerun); the first two
# are the complex64 v and basis_v of bundles from before the basis was real
DTYPE_MISMATCHES = [
    pytest.param("basis", "basis", "v", (*_RECONSTRUCT, "lr"), "learn-subspace", id="basis-v"),
    pytest.param("recon", "reconstruction", "basis_v", _MATCH, "reconstruct",
                 id="reconstruction-basis_v"),
    pytest.param("net", "mrf-net", "w0", ("infer", "--net", "{net}", "--in", "{recon}"), None,
                 id="mrf-net-w0-infer"),
    pytest.param("gt", "ground-truth", "t1", _SCORE, None, id="ground-truth-t1-score"),
    pytest.param("dict", "dictionary", "flip_angles_deg", _MATCH, None,
                 id="dictionary-flips-match"),
    pytest.param("dict", "dictionary", "flip_angles_deg", _TRAIN, None,
                 id="dictionary-flips-train-net"),
    pytest.param("basis", "basis", "singular_values", (*_RECONSTRUCT, "bpi"), None,
                 id="basis-singular_values-reconstruct"),
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
    """A 30-frame dictionary and basis, and a rank-3 net, none of which fits
    the 80-frame, rank-4 bundles of loader_files."""
    root = tmp_path_factory.mktemp("mismatched")
    files = {name: str(root / f"{name}.mrfb") for name in ("dict30", "basis30", "net3")}
    assert run_cli("simulate-dict", "--t1", "300:300:2100", "--t2", "40:60:340",
                   "--frames", "30", "--out", files["dict30"]) == 0
    assert run_cli("learn-subspace", "--dict", files["dict30"], "--rank", "4",
                   "--out", files["basis30"]) == 0
    net = inference.MrfNet.initialize(3, (300.0, 2100.0), (40.0, 340.0), hidden=(8, 8), seed=0)
    inference.save_net(net, inference.TrainConfig(noise_sigma=0.002, augment_factor=100,
                                                   epochs=30), files["net3"])
    return files


def assert_corrupt_header(capsys, code, where, key, out):
    """The command exited 2 with one corrupt-header line that contains where
    and names key, and wrote no output."""
    assert code == 2, key
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error kind=io code=corrupt-header")
    assert str(where) in lines[0] and repr(key) in lines[0]
    assert not out.exists()


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
        assert not d.exists()
        with pytest.raises(ChildProcessError):  # no worker is left
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
    @pytest.mark.parametrize("frames,t1", [(80, "300:300:2100"), (8, "300:30:2100")],
                             ids=["narrow", "wide"])
    def test_non_finite_atoms_are_usage_error(self, tmp_path, capsys, frames, t1, bad):
        d, b, x = tmp_path / "d.mrfb", tmp_path / "b.mrfb", tmp_path / "x.mrfb"
        assert run_cli("simulate-dict", "--t1", t1, "--t2", "40:60:340",
                       "--frames", str(frames), "--out", str(d)) == 0
        assert run_cli("learn-subspace", "--dict", str(d), "--rank", "3", "--out", str(b)) == 0
        basis = subspace.load_basis(b)
        solver.save_reconstruction(np.ones((64, 3), np.complex64), basis, (8, 8), x)
        dictionary = epg.load_dictionary(d)
        mid = dictionary.n_atoms // 2
        dictionary.atoms[frames // 2, mid : mid + 2] = bad, -bad  # inf + -inf is NaN
        epg.save_dictionary(dictionary, d)
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

    @pytest.mark.parametrize("key,value", [("t1", -5), ("cx", "a"), ("t1", None)])
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

    @pytest.mark.parametrize("kind", list(LOADERS))
    def test_missing_field_is_io_error(self, loader_files, tmp_path, capsys, kind):
        source, args, meta_keys = LOADERS[kind]
        arrays, meta = bundle.read_bundle(loader_files[source], kind=kind)
        path, out = tmp_path / "partial.mrfb", tmp_path / "out.mrfb"
        cases = [({k: a for k, a in arrays.items() if k != name}, meta, name) for name in arrays
                 if name not in UNREAD_ARRAYS.get(kind, ())]
        cases += [(arrays, {k: v for k, v in meta.items() if k != key}, key) for key in meta_keys]
        capsys.readouterr()
        for partial_arrays, partial_meta, missing in cases:
            bundle.write_bundle(path, partial_arrays, partial_meta)
            command = [arg.format(**{**loader_files, source: path}) for arg in args]
            code = run_cli(*command, "--out", str(out))
            assert_corrupt_header(capsys, code, f"{path} has no", missing, out)

    @pytest.mark.parametrize("kind,key,value", [
        *(pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in BAD_FIELDS), *IMPOSSIBLE_FIELDS])
    def test_malformed_field_is_io_error(self, loader_files, tmp_path, capsys, kind, key, value):
        source, args, _ = LOADERS[kind]
        arrays, meta = bundle.read_bundle(loader_files[source], kind=kind)
        *parents, leaf = key.split(".")
        node = arrays if key in arrays else meta
        for parent in parents:
            node = node[parent]
        node[leaf] = value
        path, out = tmp_path / "bad.mrfb", tmp_path / "out.mrfb"
        bundle.write_bundle(path, arrays, meta)
        command = [arg.format(**{**loader_files, source: path}) for arg in args]
        capsys.readouterr()
        code = run_cli(*command, "--out", str(out))
        assert_corrupt_header(capsys, code, path, leaf, out)

    @pytest.mark.parametrize("source,kind,key,edit,args", IMPOSSIBLE_BUNDLES)
    def test_impossible_bundle_is_io_error(self, loader_files, tmp_path, capsys, source, kind,
                                           key, edit, args):
        arrays, meta = bundle.read_bundle(loader_files[source], kind=kind)
        edit(arrays)
        path, out = tmp_path / "bad.mrfb", tmp_path / "out.mrfb"
        bundle.write_bundle(path, arrays, meta)
        command = [arg.format(**{**loader_files, source: path}) for arg in args]
        capsys.readouterr()
        code = run_cli(*command, "--out", str(out))
        assert_corrupt_header(capsys, code, path, key, out)

    @pytest.mark.parametrize("source,kind,key,args,rerun", DTYPE_MISMATCHES)
    def test_complex_array_is_dtype_mismatch(self, loader_files, tmp_path, capsys, source, kind,
                                             key, args, rerun):
        arrays, meta = bundle.read_bundle(loader_files[source], kind=kind)
        expected = arrays[key].dtype.name
        arrays[key] = arrays[key].astype(np.complex64)
        path, out = tmp_path / "bad.mrfb", tmp_path / "out.mrfb"
        bundle.write_bundle(path, arrays, meta)
        command = [arg.format(**{**loader_files, source: path}) for arg in args]
        capsys.readouterr()
        assert run_cli(*command, "--out", str(out)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error kind=io code=dtype-mismatch")
        assert str(path) in lines[0] and repr(key) in lines[0]
        assert f"must be {expected}, got complex64" in lines[0]
        assert (f"rerun {rerun}" in lines[0]) if rerun else ("rerun" not in lines[0])
        assert not out.exists()

    @pytest.mark.parametrize("source,kind,key,value,args", NUMERIC_FAULTS)
    def test_stage_overflow_is_numeric_error(self, loader_files, tmp_path, capsys, source, kind,
                                             key, value, args):
        arrays, meta = bundle.read_bundle(loader_files[source], kind=kind)
        arrays[key] = np.full_like(arrays[key], value)
        path, out = tmp_path / "extreme.mrfb", tmp_path / "out.mrfb"
        bundle.write_bundle(path, arrays, meta)
        command = [arg.format(**{**loader_files, source: path}) for arg in args]
        capsys.readouterr()
        assert run_cli(*command, "--out", str(out)) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error kind=numeric msg=")
        assert not out.exists()

    @pytest.mark.parametrize("source,other,args,message", DISAGREEING_FILES)
    def test_disagreeing_files_are_usage_error(self, loader_files, mismatched_files, tmp_path,
                                               capsys, source, other, args, message):
        out = tmp_path / "out.mrfb"
        files = {**loader_files, source: mismatched_files[other]}
        capsys.readouterr()
        assert run_cli(*(arg.format(**files) for arg in args), "--out", str(out)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error kind=usage msg={message!r}"]
        assert not out.exists()

    def test_dropped_header_fields_are_ignored(self, loader_files, tmp_path):
        # a dictionary with the inversion flag, a k-space bundle with the
        # mask-drawing constants and a network with its layer count, as older
        # versions wrote them, read as the same bundles without those fields
        old = {"dict": ("dictionary", {"inversion": True}, _LEARN),
               "kspace": ("kspace", {"center_radius": 4, "gamma": 2.0, "k0": 4.0},
                          (*_RECONSTRUCT, "bpi")),
               "net": ("mrf-net", {"layers": 3}, ("infer", "--net", "{net}", "--in", "{recon}"))}
        for source, (kind, fields, args) in old.items():
            arrays, meta = bundle.read_bundle(loader_files[source], kind=kind)
            path = tmp_path / f"old-{source}.mrfb"
            bundle.write_bundle(path, arrays, {**meta, **fields})
            outs = [tmp_path / f"{source}-{name}.mrfb" for name in ("old", "current")]
            for bundle_path, out in zip((path, loader_files[source]), outs):
                command = [arg.format(**{**loader_files, source: bundle_path}) for arg in args]
                assert run_cli(*command, "--out", str(out)) == 0
            assert filecmp.cmp(*outs, shallow=False)

    @pytest.mark.parametrize("key,edit,args", UNREAD_LABELS)
    def test_labels_from_grid(self, loader_files, tmp_path, key, edit, args):
        arrays, meta = bundle.read_bundle(loader_files["dict"], kind="dictionary")
        arrays[key] = edit(arrays[key])
        path = tmp_path / "labels.mrfb"
        bundle.write_bundle(path, arrays, meta)
        outs = [tmp_path / f"{name}.mrfb" for name in ("edited", "clean")]
        for dict_path, out in zip((path, loader_files["dict"]), outs):
            command = [arg.format(**{**loader_files, "dict": dict_path}) for arg in args]
            assert run_cli(*command, "--out", str(out)) == 0
        assert filecmp.cmp(*outs, shallow=False)

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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
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

    def test_pgm_format(self, tmp_path):
        img = np.linspace(0, 4000, 64).reshape(8, 8)
        path = tmp_path / "t.pgm"
        experiment.write_pgm16(path, img, vmax=4000.0)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n8 8\n65535\n")
        data = np.frombuffer(raw[len(b"P5\n8 8\n65535\n"):], dtype=">u2")
        assert data[0] == 0
        assert data[-1] == 65535


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
