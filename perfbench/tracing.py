"""Spans recorded from outside mrfkit by wrapping each module's public
functions at every name their callers look up.

A span has a name (``<module>.<function>``), a start, an end, the index of
the span that was open when it began, and optional counts taken from the
call's arguments or result. Spans stay in memory until the run ends; a child
process writes its own to a JSON file that the parent merges. Times come
from the system-wide monotonic clock, so spans from different processes
share one time axis.
"""

import inspect
import json
import os
import sys
import time

LAYERS = ("epg", "subspace", "forward_model", "tvprox", "solver", "inference",
          "phantom", "bundle", "experiment", "cli")

# methods are not reached through module attributes, so they are listed
METHODS = (("inference", "MrfNet", "loss_and_gradients"), ("solver", "SolveTrace", "write_csv"))

clock = time.monotonic


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _fft_count(args, kwargs, result):
    pattern = _arg(args, kwargs, 3, "pattern")
    coils = _arg(args, kwargs, 2, "coils")
    return {"fft2": pattern.n_frames * coils.n_coils}


def _solve_counts(args, kwargs, result):
    trace = result[1]
    return {
        "mode": _arg(args, kwargs, 4, "cfg").mode,
        "iterations": len(trace) - 1,
        "halvings": sum(r.halvings for r in trace.records),
    }


def _network_flops(args, kwargs, result):
    """Multiply-adds x 2 of one forward and backward pass: forward and
    weight-gradient GEMMs for every layer, delta GEMMs for all but the first."""
    net, batch = args[0], args[1].shape[0]
    sizes = [w.shape[0] * w.shape[1] for w in net.weights]
    return {"flops": 2 * batch * (2 * sum(sizes) + sum(sizes[1:]))}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


COUNTERS = {
    "epg.build_dictionary": lambda a, k, r: {"atom_frames": r.n_atoms * r.n_frames},
    "forward_model.forward": _fft_count,
    "forward_model.adjoint": _fft_count,
    "solver.solve": _solve_counts,
    "inference.train": lambda a, k, r: {"epochs": len(r[1])},
    "inference.loss_and_gradients": _network_flops,
    "bundle.write_bundle": _file_bytes,
    "bundle.read_bundle": _file_bytes,
}


class Tracer:
    """Records spans while installed; uninstall restores every original."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, counts]
        self._stack = []
        self._patched = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, clock(), None, parent, None])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = clock()
            if counter is not None:
                self.spans[index][4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public function of each loaded mrfkit layer module,
        under every module attribute that refers to it."""
        modules = [m for key, m in sys.modules.items()
                   if key.startswith("mrfkit.") and m is not None]
        for layer in LAYERS:
            module = sys.modules.get(f"mrfkit.{layer}")
            if module is None:
                continue
            for fname, fn in list(vars(module).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", fn)
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._patched.append((owner, attr, fn))
                            setattr(owner, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            module = sys.modules.get(f"mrfkit.{layer}")
            if module is None:
                continue
            cls = getattr(module, cls_name)
            fn = cls.__dict__[meth]
            self._patched.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(f"{layer}.{meth}", fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def add_span(self, name, start, end):
        self.spans.append([name, start, end, self._stack[-1] if self._stack else None, None])

    def merge(self, spans):
        """Append spans written by a child process, re-indexing parents."""
        offset = len(self.spans)
        top = self._stack[-1] if self._stack else None
        for name, start, end, parent, counts in spans:
            self.spans.append([name, start, end, top if parent is None else parent + offset,
                               counts])

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans):
    """Duration of each span minus the time covered by its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def coverage(spans, start, end):
    """Share of [start, end] covered by top-level spans (they never overlap)."""
    covered = sum(max(0.0, min(e, end) - max(s, start))
                  for _, s, e, parent, _ in spans if parent is None)
    return covered / (end - start)


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans):
    """Per-layer metrics {name: (value, unit)} summed over the given spans."""
    own = self_times(spans)
    total = {}
    calls = {}
    counts = {}
    self_s = {}
    by_mode = {}
    for i, (name, start, end, _, cnt) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        for key, value in (cnt or {}).items():
            if key != "mode":
                counts[(name, key)] = counts.get((name, key), 0) + value
        if name == "solver.solve" and cnt:  # a solve that raised has no counts
            mode = cnt["mode"]
            t, it = by_mode.get(mode, (0.0, 0))
            by_mode[mode] = (t + end - start, it + cnt["iterations"])

    def t(name):
        return total.get(name, 0.0)

    def n(name, key):
        return counts.get((name, key), 0)

    bytes_w, bytes_r = n("bundle.write_bundle", "bytes"), n("bundle.read_bundle", "bytes")
    imports = calls.get("cli.import", 0)
    m = {
        "epg.build_dictionary_s": (t("epg.build_dictionary"), "s"),
        "epg.atom_frames_per_s": (_ratio(n("epg.build_dictionary", "atom_frames"),
                                         t("epg.build_dictionary")), "1/s"),
        "subspace.learn_subspace_s": (t("subspace.learn_subspace"), "s"),
        "subspace.project_s": (t("subspace.project"), "s"),
        "subspace.phase_align_s": (t("subspace.phase_align"), "s"),
        "forward_model.forward_s": (t("forward_model.forward"), "s"),
        "forward_model.forward_calls": (calls.get("forward_model.forward", 0), "count"),
        "forward_model.adjoint_s": (t("forward_model.adjoint"), "s"),
        "forward_model.adjoint_calls": (calls.get("forward_model.adjoint", 0), "count"),
        "forward_model.fft2_count": (n("forward_model.forward", "fft2")
                                     + n("forward_model.adjoint", "fft2"), "count"),
        "forward_model.apply_frames_s": (t("forward_model.apply_frames"), "s"),
        "tvprox.tv_prox_stack_s": (t("tvprox.tv_prox_stack"), "s"),
        "tvprox.tv_prox_stack_calls": (calls.get("tvprox.tv_prox_stack", 0), "count"),
        "tvprox.tv_prox_calls": (calls.get("tvprox.tv_prox", 0), "count"),
    }
    for mode in ("bpi", "lr", "lrtv"):
        m[f"solver.solve_{mode}_s"] = (by_mode.get(mode, (0.0, 0))[0], "s")
    for mode in ("lr", "lrtv"):
        m[f"solver.iter_{mode}_s"] = (_ratio(*by_mode.get(mode, (0.0, 0))), "s")
    m.update({
        "solver.self_s": (self_s.get("solver.solve", 0.0), "s"),
        "solver.iterations": (n("solver.solve", "iterations"), "count"),
        "solver.halvings": (n("solver.solve", "halvings"), "count"),
        "inference.make_training_set_s": (t("inference.make_training_set"), "s"),
        "inference.train_s": (t("inference.train"), "s"),
        "inference.epoch_s": (_ratio(t("inference.train"), n("inference.train", "epochs")), "s"),
        "inference.loss_and_gradients_s": (t("inference.loss_and_gradients"), "s"),
        "inference.train_self_s": (self_s.get("inference.train", 0.0), "s"),
        "inference.train_gflops": (_ratio(n("inference.loss_and_gradients", "flops") / 1e9,
                                          t("inference.loss_and_gradients")), "GFLOP/s"),
        "inference.infer_s": (t("inference.infer"), "s"),
        "inference.dictionary_match_s": (t("inference.dictionary_match"), "s"),
        "phantom.synthesize_timeseries_s": (t("phantom.synthesize_timeseries"), "s"),
        "phantom.score_maps_s": (t("phantom.score_maps"), "s"),
        "bundle.write_bundle_s": (t("bundle.write_bundle"), "s"),
        "bundle.read_bundle_s": (t("bundle.read_bundle"), "s"),
        "bundle.bytes_written": (bytes_w, "B"),
        "bundle.bytes_read": (bytes_r, "B"),
        "bundle.write_mb_per_s": (_ratio(bytes_w / 1e6, t("bundle.write_bundle")), "MB/s"),
        "bundle.read_mb_per_s": (_ratio(bytes_r / 1e6, t("bundle.read_bundle")), "MB/s"),
        "cli.import_s": (_ratio(t("cli.import"), imports), "s"),
        "cli.self_s": (self_s.get("cli.main", 0.0), "s"),
    })
    return m
