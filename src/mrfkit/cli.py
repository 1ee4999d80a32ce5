"""Command-line pipeline: every stage reads and writes array bundles, so runs
are reproducible and stages can be rerun or swapped independently.

Each command is a thin wrapper over the stage function of the same name in
`mrfkit.experiment`. The flags a user gives override keys of the experiment
configuration and are checked like a config file's keys; every other setting
takes its default from `experiment.DEFAULT_EXPERIMENT`, so the commands run by
hand reproduce `run-experiment` byte for byte.

Exit codes: 0 success, 1 usage or configuration error, two input files that
do not fit together, or a request too large to allocate, 2 file I/O error,
3 numerical failure, an overflow, NaN or division by zero included. Errors
print one machine-readable line on stderr.
"""

import json
import sys

import click
import numpy as np

from . import bundle, epg, experiment, inference, solver

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


def _setting(flag, key, help="", **kwargs):
    """An option overriding config key `key` (dotted for nested keys). It has
    no default of its own: an option not given leaves the key to
    DEFAULT_EXPERIMENT, whose value the help text shows."""
    default = experiment.DEFAULT_EXPERIMENT
    for part in key.split("."):
        default = default[part]
    help = f"{help} [{key}, default: {json.dumps(default)}]".lstrip()
    return click.option(flag, key.replace(".", "__"), default=None, help=help, **kwargs)


def _resolve(settings: dict) -> dict:
    """Resolve the options a command was given into a full configuration."""
    config = {}
    for name, value in settings.items():
        if value is None:
            continue
        *parents, leaf = name.split("__")
        node = config
        for parent in parents:
            node = node.setdefault(parent, {})
        node[leaf] = list(value) if isinstance(value, tuple) else value
    return experiment.resolve_config(config)


def _schedule_settings(fn):
    for option in reversed((
        _setting("--alpha-max", "schedule.alpha_max_deg", type=float,
                 help="Peak flip angle in degrees."),
        _setting("--period", "schedule.period", type=int, help="Frames per flip-angle half-sine."),
        _setting("--tr", "schedule.tr_ms", type=float, help="TR in ms."),
        _setting("--te", "schedule.te_ms", type=float, help="TE in ms."),
        _setting("--tinv", "schedule.tinv_ms", type=float, help="Inversion delay in ms."),
    )):
        fn = option(fn)
    return fn


_k_max_setting = _setting(
    "--k-max", "k_max", type=int,
    help=f"Highest retained configuration order; null means min(frames, {epg.DEFAULT_K_MAX}).")


def _out_option(fn):
    return click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))(fn)


@click.group()
def cli():
    """Quantitative MR fingerprinting reconstruction pipeline."""


@cli.command("simulate-dict")
@_setting("--t1", "dict.t1", help="T1 grid as start:step:stop (ms).")
@_setting("--t2", "dict.t2", help="T2 grid as start:step:stop (ms).")
@_setting("--frames", "frames", type=int, help="Number of repetitions L.")
@_k_max_setting
@_schedule_settings
@_out_option
def simulate_dict(out_path, **settings):
    """Simulate the fingerprint dictionary over a (T1, T2) grid."""
    dictionary = experiment.simulate_dict(_resolve(settings), out_path)
    click.echo(f"wrote {dictionary.n_atoms} atoms x {dictionary.n_frames} frames to {out_path}")


@cli.command("learn-subspace")
@click.option("--dict", "dict_path", required=True, type=click.Path(exists=False))
@_setting("--rank", "rank", type=int, help="Subspace dimension S.")
@_out_option
def learn_subspace_cmd(dict_path, out_path, **settings):
    """Learn the temporal subspace from the dictionary Gram matrix."""
    basis = experiment.learn_subspace(_resolve(settings), dict_path, out_path)
    click.echo(
        f"rank {basis.rank_s} captures {100 * basis.captured_energy():.4f}% of dictionary energy"
    )


@cli.command("make-phantom")
@_setting("--size", "size", type=int, nargs=2, metavar="H W")
@click.option("--spec", "spec_path", type=click.Path(exists=False), default=None,
              help="JSON shape list; omit for the default head layout.")
@click.option("--offgrid", is_flag=True, help="Use the off-grid tissue variant.")
@_out_option
def make_phantom_cmd(spec_path, offgrid, out_path, **settings):
    """Rasterize a piecewise-constant ground-truth phantom."""
    if spec_path is not None and offgrid:
        raise click.UsageError("--offgrid selects a built-in layout; it cannot be given "
                               "with --spec")
    if spec_path is not None:
        with open(spec_path) as fh:
            settings["phantom"] = json.load(fh)
    elif offgrid:
        settings["phantom"] = "offgrid"
    h, w = experiment.make_phantom(_resolve(settings), out_path).shape
    click.echo(f"wrote {h}x{w} phantom to {out_path}")


@cli.command("acquire")
@click.option("--gt", "gt_path", required=True, type=click.Path(exists=False))
@_setting("--frames", "frames", type=int)
@_setting("--accel", "accel", type=float)
@_setting("--coils", "coils", type=int)
@_setting("--coil-kind", "coil_kind", help="uniform or gaussian-ring.")
@_setting("--seed", "seed", type=int, help="Mask seed; the noise uses seed + 1.")
@_setting("--kspace-noise", "kspace_noise", type=float,
          help="AWGN sigma per component on sampled k-space entries.")
@_k_max_setting
@_schedule_settings
@_out_option
def acquire(gt_path, out_path, **settings):
    """Synthesize the time series and acquire masked multi-coil k-space."""
    cfg = _resolve(settings)
    data = experiment.acquire(cfg, gt_path, out_path)
    counts = data.pattern.per_frame_counts
    click.echo(
        f"acquired {data.pattern.n_frames} frames x {data.n_coils} coils, "
        f"{counts.mean():.0f} samples/frame (accel {cfg['accel']}) to {out_path}"
    )


@cli.command("reconstruct")
@click.option("--mode", type=click.Choice(list(solver.MODES)), required=True)
@_setting("--lambda", "recon.lambda", type=float, help="TV weight of mode lrtv.")
@_setting("--iters", "recon.iters", type=int)
@_setting("--stop-rel-change", "recon.stop_rel_change", type=float)
@_setting("--tv-variant", "recon.tv_variant", help="isotropic or anisotropic.")
@_setting("--tv-iters", "recon.tv_iters", type=int)
@_setting("--tv-tol", "recon.tv_tol", type=float)
@click.option("--in", "in_path", required=True, type=click.Path(exists=False))
@click.option("--basis", "basis_path", required=True, type=click.Path(exists=False))
@_out_option
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False), default=None)
def reconstruct(mode, in_path, basis_path, out_path, trace_path, **settings):
    """Reconstruct subspace images from acquired k-space data."""
    if settings["recon__lambda"] and mode != "lrtv":
        raise click.UsageError(f"--lambda must be 0 in mode {mode!r}")
    trace = experiment.reconstruct(_resolve(settings), mode, in_path, basis_path, out_path,
                                   trace_path)
    final = trace.records[-1]
    click.echo(
        f"{mode}: {final.iteration} iterations, objective {final.objective:.6g} -> {out_path}"
    )


@cli.command("train-net")
@click.option("--dict", "dict_path", required=True, type=click.Path(exists=False))
@click.option("--basis", "basis_path", required=True, type=click.Path(exists=False))
@_setting("--sigma", "train.sigma", type=float)
@_setting("--augment", "train.augment", type=int)
@_setting("--epochs", "train.epochs", type=int)
@_setting("--batch", "train.batch_size", type=int)
@_setting("--lr", "train.learning_rate", type=float)
@_setting("--hidden", "train.hidden", type=int, nargs=2)
@_setting("--seed", "seed", type=int)
@_setting("--output-relu", "train.output_relu", is_flag=True,
          help="Rectify the output layer as well (literal three-ReLU reading).")
@_out_option
def train_net(dict_path, basis_path, out_path, **settings):
    """Train the parameter-regression network on noisy dictionary projections."""
    _net, history = experiment.train_net(_resolve(settings), dict_path, basis_path, out_path)
    final = history[-1] if history else float("nan")
    click.echo(f"trained {len(history)} epochs, final loss {final:.3e} -> {out_path}")


@cli.command("infer")
@click.option("--net", "net_path", required=True, type=click.Path(exists=False))
@click.option("--in", "in_path", required=True, type=click.Path(exists=False))
@_out_option
def infer_cmd(net_path, in_path, out_path):
    """Estimate (T1, T2) maps with the trained network."""
    experiment.infer(net_path, in_path, out_path)
    click.echo(f"inferred maps -> {out_path}")


@cli.command("match")
@click.option("--dict", "dict_path", required=True, type=click.Path(exists=False))
@click.option("--in", "in_path", required=True, type=click.Path(exists=False))
@_out_option
def match_cmd(dict_path, in_path, out_path):
    """Estimate maps by exhaustive dictionary matching."""
    experiment.match(dict_path, in_path, out_path)
    click.echo(f"matched maps -> {out_path}")


@cli.command("score")
@click.option("--est", "est_path", required=True, type=click.Path(exists=False))
@click.option("--gt", "gt_path", required=True, type=click.Path(exists=False))
@_out_option
def score_cmd(est_path, gt_path, out_path):
    """Score estimated maps against the ground truth."""
    result, _maps, estimator = experiment.score(est_path, gt_path)
    experiment.write_metrics_csv(out_path, experiment.metric_rows(estimator, result))
    click.echo(
        f"T1 rmse {result['t1']['rmse']:.2f} ms, T2 rmse {result['t2']['rmse']:.2f} ms "
        f"-> {out_path}"
    )


@cli.command("run-experiment")
@click.option("--config", "config_path", type=click.Path(exists=False), default=None,
              help="JSON experiment config; omit for the shipped default.")
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
def run_experiment_cmd(config_path, out_dir):
    """Run the full BPI / LR / LRTV comparison and write a metrics table."""
    config = None
    if config_path is not None:
        with open(config_path) as fh:
            config = json.load(fh)
    scores = experiment.run_experiment(config, out_dir)
    for mode in experiment.METHODS:
        s = scores[mode]
        click.echo(
            f"{mode:5s} T1 rmse {s['t1']['rmse']:8.2f} ms   T2 rmse {s['t2']['rmse']:7.2f} ms"
        )


def main(argv=None) -> int:
    try:
        # an overflow, NaN or division by zero fails the stage before it writes
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        print(f"error kind=usage msg={exc.format_message()!r}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error kind=usage msg={str(exc)!r}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # e.g. a grid with more points than memory holds
        print(f"error kind=memory msg={str(exc)!r}", file=sys.stderr)
        return EXIT_USAGE
    except bundle.BundleError as exc:
        print(f"error kind=io code={exc.code} msg={str(exc)!r}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error kind=io msg={str(exc)!r}", file=sys.stderr)
        return EXIT_IO
    except (solver.NumericalError, inference.DivergenceError, FloatingPointError) as exc:
        print(f"error kind=numeric msg={str(exc)!r}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
