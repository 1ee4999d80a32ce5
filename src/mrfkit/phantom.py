"""Synthetic piecewise-constant ground truth and map-quality metrics.

Shapes are placed in painter's order with fractional [0, 1] coordinates so the
same layout rasterizes at any resolution. Pixel centers decide membership.
"""

from dataclasses import dataclass

import numpy as np

from . import bundle
from .epg import SequenceSchedule, simulate_fingerprints

# default tissue triplets (t1_ms, t2_ms, pd); values sit inside the desk grid
TISSUE_A = (800.0, 80.0, 0.8)
TISSUE_B = (1300.0, 110.0, 0.9)
TISSUE_C = (3500.0, 500.0, 1.0)

_GEOMETRY_KEYS = {"ellipse": ("cx", "cy", "a", "b"), "rectangle": ("x0", "y0", "x1", "y1")}


@dataclass
class GroundTruth:
    """Tissue maps of a phantom; the background is where pd is zero."""

    t1_map: np.ndarray  # (H, W), ms
    t2_map: np.ndarray  # (H, W), ms
    pd_map: np.ndarray  # (H, W), arbitrary units

    @property
    def shape(self) -> tuple[int, int]:
        return self.t1_map.shape

    def foreground(self) -> np.ndarray:
        return self.pd_map > 0


def default_head_spec() -> list[dict]:
    """Nested-ellipse layout: three tissue classes inside a head-shaped rim."""
    return [
        {"shape": "ellipse", "cx": 0.5, "cy": 0.5, "a": 0.42, "b": 0.46,
         "t1": TISSUE_A[0], "t2": TISSUE_A[1], "pd": TISSUE_A[2]},
        {"shape": "ellipse", "cx": 0.5, "cy": 0.5, "a": 0.30, "b": 0.34,
         "t1": TISSUE_B[0], "t2": TISSUE_B[1], "pd": TISSUE_B[2]},
        {"shape": "ellipse", "cx": 0.38, "cy": 0.40, "a": 0.10, "b": 0.12,
         "t1": TISSUE_C[0], "t2": TISSUE_C[1], "pd": TISSUE_C[2]},
        {"shape": "ellipse", "cx": 0.64, "cy": 0.60, "a": 0.09, "b": 0.10,
         "t1": TISSUE_C[0], "t2": TISSUE_C[1], "pd": TISSUE_C[2]},
    ]


def offgrid_head_spec() -> list[dict]:
    """Same layout with tissue values off any dictionary grid, to expose the
    quantization error of matching against continuous regression."""
    spec = default_head_spec()
    offgrid = [(823.0, 77.0), (1287.0, 114.0), (3471.0, 493.0), (3471.0, 493.0)]
    for entry, (t1, t2) in zip(spec, offgrid):
        entry["t1"], entry["t2"] = t1, t2
    return spec


def _check_entry(entry: dict, index: int) -> None:
    """Reject an unknown shape, or a value that is not a finite number or is
    out of range (an ellipse's a, b > 0; t1, t2 > 0; pd >= 0), naming the entry and key."""
    kind = entry["shape"]
    if kind not in _GEOMETRY_KEYS:
        raise ValueError(f"phantom entry {index} has unknown shape kind {kind!r}")
    for key in (*_GEOMETRY_KEYS[kind], "t1", "t2", "pd"):
        if not bundle._is_kind(entry[key], float):
            raise ValueError(f"phantom entry {index} key {key!r} must be "
                             f"{bundle._KINDS[float]}, got {entry[key]!r}")
    for key in ("a", "b", "t1", "t2") if kind == "ellipse" else ("t1", "t2"):
        if entry[key] <= 0:
            raise ValueError(f"phantom entry {index} key {key!r} must be > 0, got {entry[key]!r}")
    if entry["pd"] < 0:
        raise ValueError(f"phantom entry {index} key 'pd' must be >= 0, got {entry['pd']!r}")


def _rasterize(shape_entry: dict, h: int, w: int) -> np.ndarray:
    ys = (np.arange(h) + 0.5) / h
    xs = (np.arange(w) + 0.5) / w
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    if shape_entry["shape"] == "ellipse":
        cx, cy = shape_entry["cx"], shape_entry["cy"]
        a, b = shape_entry["a"], shape_entry["b"]
        return ((xx - cx) / a) ** 2 + ((yy - cy) / b) ** 2 <= 1.0
    return (
        (xx >= shape_entry["x0"])
        & (xx <= shape_entry["x1"])
        & (yy >= shape_entry["y0"])
        & (yy <= shape_entry["y1"])
    )


def make_phantom(h: int, w: int, spec: list[dict] | None = None) -> GroundTruth:
    """Rasterize a painter's-order shape list into ground-truth maps.

    Every entry is checked before any is rasterized: a missing key, an
    unknown shape or a bad value raises ValueError naming the entry and the key.
    """
    if spec is None:
        spec = default_head_spec()
    if not spec:
        raise ValueError("phantom spec is empty")
    t1 = np.zeros((h, w))
    t2 = np.zeros((h, w))
    pd = np.zeros((h, w))
    for index, entry in enumerate(spec, start=1):
        try:
            _check_entry(entry, index)
        except KeyError as exc:
            raise ValueError(f"phantom entry {index} is missing key {exc}") from None
    for entry in spec:
        inside = _rasterize(entry, h, w)
        t1[inside] = entry["t1"]
        t2[inside] = entry["t2"]
        pd[inside] = entry["pd"]
    return GroundTruth(t1_map=t1, t2_map=t2, pd_map=pd)


def synthesize_timeseries(
    gt: GroundTruth, schedule: SequenceSchedule, k_max: int | None = None
) -> np.ndarray:
    """Per-voxel signal pd * fingerprint(t1, t2); zero where pd is zero.

    Returns (n, L) complex64 with n = H*W. Tissue values need not lie on any
    dictionary grid. Identical tissues share one simulation.
    """
    h, w = gt.shape
    n = h * w
    series = np.zeros((n, schedule.n_frames), dtype=np.complex64)
    fg = gt.foreground().ravel()
    if not fg.any():
        return series
    t1 = gt.t1_map.ravel()[fg]
    t2 = gt.t2_map.ravel()[fg]
    pairs = np.stack([t1, t2], axis=1)
    unique, inverse = np.unique(pairs, axis=0, return_inverse=True)
    atoms = simulate_fingerprints(unique[:, 0], unique[:, 1], schedule, k_max=k_max)
    pd = gt.pd_map.ravel()[fg].astype(np.float32)
    series[fg] = atoms[:, inverse].T * pd[:, None]
    return series


def score_maps(est_t1: np.ndarray, est_t2: np.ndarray, gt: GroundTruth) -> dict:
    """Error metrics over the ground truth's foreground.

    Returns per-parameter rmse / mae / nrmse (normalized by the ground-truth
    range over the foreground).
    """
    if est_t1.shape != gt.shape or est_t2.shape != gt.shape:
        raise ValueError("estimate and ground-truth shapes differ")
    mask = gt.foreground()
    if not mask.any():
        raise ValueError("the ground truth has no foreground (pd > 0) to score")

    out = {}
    for name, est, ref in (("t1", est_t1, gt.t1_map), ("t2", est_t2, gt.t2_map)):
        err = est[mask] - ref[mask]
        rmse = float(np.sqrt(np.mean(err**2)))
        mae = float(np.mean(np.abs(err)))
        span = float(ref[mask].max() - ref[mask].min())
        out[name] = {
            "rmse": rmse,
            "mae": mae,
            "nrmse": rmse / span if span > 0 else float("nan"),
        }
    return out


def save_ground_truth(gt: GroundTruth, path) -> None:
    bundle.write_bundle(
        path,
        {
            "t1": gt.t1_map.astype(np.float32),
            "t2": gt.t2_map.astype(np.float32),
            "pd": gt.pd_map.astype(np.float32),
        },
        meta={"kind": "ground-truth"},
    )


def load_ground_truth(path) -> GroundTruth:
    arrays, _ = bundle.read_bundle(path, kind="ground-truth")
    t1 = arrays.array("t1", (None, None), "float32")
    t2 = arrays.array("t2", t1.shape, "float32")
    pd = arrays.array("pd", t1.shape, "float32")
    if (pd < 0).any():
        raise arrays.fault("pd", "has negative entries")
    for name, values in (("t1", t1), ("t2", t2)):
        if (values[pd > 0] <= 0).any():
            raise arrays.fault(name, "must be > 0 wherever pd > 0")
    return GroundTruth(t1_map=t1.astype(np.float64), t2_map=t2.astype(np.float64),
                       pd_map=pd.astype(np.float64))
