"""Traced run of the shipped-default experiment, stage by stage.

    python3 perfbench/reference.py

Run from the checkout root, with BLAS threads pinned as run.py pins them by
default. Runs `mrfkit.experiment.run_experiment` at the shipped default
configuration (what `mrfkit run-experiment` runs) with every layer wrapped,
into perfbench/work/, and prints one line per stage with its wall time, the
computed 2-D FFTs per solve and network FLOPs per epoch. The spans are
written to perfbench/results/reference-spans.json. Takes several minutes:
the default solves run 50 iterations and training 30 epochs.
"""

import shutil
import sys
import time
from pathlib import Path

from run import BLAS_THREADS, HERE, environment, import_checkout, pin_blas_threads


def descendants_sum(spans, root, key):
    """Sum of counts[key] over every span below spans[root]."""
    total = 0
    for i, (_, _, _, parent, counts) in enumerate(spans):
        p = parent
        while p is not None and p != root:
            p = spans[p][3]
        if p == root and counts and key in counts:
            total += counts[key]
    return total


def main():
    pin_blas_threads(BLAS_THREADS)
    if import_checkout(Path.cwd()) is None:
        return 2
    from mrfkit import experiment
    from tracing import Tracer, self_times

    out = HERE / "work" / "reference"
    shutil.rmtree(out, ignore_errors=True)
    tracer = Tracer()
    tracer.install()
    start = time.monotonic()
    try:
        experiment.run_experiment(None, out)
    finally:
        end = time.monotonic()
        tracer.uninstall()
    spans = tracer.spans
    shutil.rmtree(HERE / "work", ignore_errors=True)
    (HERE / "results").mkdir(exist_ok=True)
    tracer.dump(HERE / "results" / "reference-spans.json")

    def total(name):
        return sum(e - s for n, s, e, _, _ in spans if n == name)

    def mean(name):
        times = [e - s for n, s, e, _, _ in spans if n == name]
        return sum(times) / len(times), len(times)

    print(f"environment: {environment()}")
    print(f"| stage | time |\n|---|---|")
    print(f"| build_dictionary | {total('epg.build_dictionary'):.2f} s |")
    print(f"| learn_subspace | {total('subspace.learn_subspace'):.2f} s |")
    for name in ("forward_model.forward", "forward_model.adjoint"):
        t, n = mean(name)
        print(f"| {name.split('.')[1]}, mean of {n} calls | {t:.3f} s |")
    for i, (name, s, e, _, counts) in enumerate(spans):
        if name == "solver.solve":
            fft = descendants_sum(spans, i, "fft2")
            print(f"| solve {counts['mode']}, {counts['iterations']} iterations, "
                  f"{counts['halvings']} halvings, {fft} 2-D FFTs | {e - s:.2f} s |")
    print(f"| make_training_set | {total('inference.make_training_set'):.2f} s |")
    epochs = sum(c["epochs"] for n, _, _, _, c in spans if n == "inference.train")
    flops = sum(c["flops"] for n, _, _, _, c in spans if n == "inference.loss_and_gradients")
    print(f"| train, {epochs} epochs, {flops / epochs / 1e9:.1f} GFLOP per epoch | "
          f"{total('inference.train'):.2f} s |")
    t, n = mean("inference.infer")
    print(f"| infer, mean of {n} calls | {t:.3f} s |")
    print(f"| bundle write / read | {total('bundle.write_bundle'):.2f} s / "
          f"{total('bundle.read_bundle'):.2f} s |")
    print(f"| **run_experiment, wall** | **{end - start:.1f} s** |")
    root = next(i for i, sp in enumerate(spans) if sp[0] == "experiment.run_experiment")
    share = 1 - self_times(spans)[root] / (spans[root][2] - spans[root][1])
    print(f"stage spans cover {100 * share:.1f}% of run_experiment")
    return 0


if __name__ == "__main__":
    sys.exit(main())
