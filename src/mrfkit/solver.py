"""Iterative shrinkage reconstruction of subspace images with momentum
acceleration and backtracking step-size halving.

Modes: ``bpi`` is the non-iterative adjoint reconstruction, ``lr`` iterates
with the subspace prior alone (identity prox), and ``lrtv`` adds channel-wise
total-variation shrinkage. The gradient is computed without the factor two,
matching the majorization test used for step-size control.

:func:`solve` iterates on the subspace normal operator
(:func:`forward_model.normal`) and forms no k-space inside its loop; the
k-space reference loop it is checked against is ``reference_solve`` in
``tests/test_solver.py``, built on the ``gradient`` and ``backtrack_ok`` of
``tests/oracles.py``.
"""

import csv
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import bundle
from . import forward_model as fm
from .forward_model import CoilMaps, KSpaceData, SamplingPattern
from .subspace import SubspaceBasis
from .tvprox import TvConfig, tv_prox_stack

MODES = ("bpi", "lr", "lrtv")
_MU_FLOOR = 1e-30
# The expanded fidelity cancels terms as large as ||y||^2, so where the
# majorization holds with equality (a step of 1 / the largest eigenvalue of
# A^H A) the sign of its test is roundoff, some ulps of ||y||^2 either way. A
# step that violates it by no more than this many ulps is accepted, rather
# than halving the step size for the rest of the solve.
_ROUNDOFF_ULPS = 64


@dataclass
class SolverConfig:
    mode: str
    max_outer_iters: int
    lam: float = 0.0  # TV weight, lrtv only
    stop_rel_change: float = 1e-4
    tv: TvConfig = field(default_factory=TvConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if self.mode != "lrtv" and self.lam != 0:
            raise ValueError(f"lambda must be 0 in mode {self.mode!r}")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")


@dataclass
class TraceRecord:
    """One row of a solve's trace. tv_iters and tv_gap describe the TV prox
    that produced the row's accepted point: its inner iterations summed over
    the 2S images and the largest of their final dual gaps; 0 without TV."""

    iteration: int
    objective: float
    fidelity: float
    tv_term: float
    mu: float
    halvings: int
    rel_change: float
    momentum: float = 0.0
    majorization_rhs: float = 0.0
    tv_iters: int = 0
    tv_gap: float = 0.0


@dataclass
class SolveTrace:
    records: list[TraceRecord] = field(default_factory=list)

    def __len__(self):
        return len(self.records)

    def write_csv(self, path):
        """One column per TraceRecord field, floats written by repr."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(f.name for f in fields(TraceRecord))
            for rec in self.records:
                writer.writerow(repr(v) if isinstance(v, float) else v for v in astuple(rec))


def _expanded_fidelity(norm_y_sq: float, ahyv: np.ndarray, x: np.ndarray, gx: np.ndarray) -> float:
    """||y - A(x v^H)||^2 = ||y||^2 - 2 Re<A^H(y) v, x> + Re<x, A^H A x>, given
    the normal operator applied to x; no k-space is formed."""
    return norm_y_sq - 2.0 * float(np.vdot(ahyv, x).real) + float(np.vdot(x, gx).real)


def _majorization_rhs(fidelity_x: float, grad: np.ndarray, diff: np.ndarray, mu: float) -> float:
    """The quadratic majorizer at x evaluated at z = x + diff:
    fidelity_x + 2 Re<grad, diff> + ||diff||^2 / mu."""
    return fidelity_x + 2.0 * float(np.vdot(grad, diff).real) + float(np.vdot(diff, diff).real) / mu


def auto_step_size(pattern: SamplingPattern, n_coils: int) -> float:
    """Compression-factor step size: image pixels over mean per-frame samples
    counted across coils."""
    per_frame = int(pattern.masks.sum()) * n_coils / pattern.n_frames
    h, w = pattern.shape
    return h * w / per_frame


def solve(
    y: KSpaceData,
    basis: SubspaceBasis,
    coils: CoilMaps,
    pattern: SamplingPattern,
    cfg: SolverConfig,
) -> tuple[np.ndarray, SolveTrace]:
    """Reconstruct the subspace coefficient stack from masked k-space data.

    Starts from zero; each iteration takes a gradient step, applies the TV
    prox (identity when lambda is 0), halves the step size until the
    majorization holds, then applies momentum with coefficient (k-1)/(k+2).
    Halved step sizes persist across iterations. Returns the final iterate
    and the per-iteration trace (initial record included).

    Each backtracking attempt applies the normal operator G = A^H A once, to
    z; the fidelity is ||y||^2 - 2 Re<A^H(y) v, z> + Re<z, Gz>, and by
    linearity G x_next = Gz + m (Gz - Gz_prev) gives the next gradient. The
    trace's TV term is lambda times the TV that the prox measured on z.
    """
    h, w = pattern.shape
    n = h * w
    lam = cfg.lam

    ahyv = fm.adjoint(y, basis, coils, pattern)
    mu = auto_step_size(pattern, coils.n_coils)

    x = np.zeros((n, basis.rank_s), dtype=np.complex128)
    z_prev = np.zeros_like(x)
    duals = None

    # np.vdot sums complex64 in single precision; a complex128 y is not copied
    y128 = np.asarray(y.y, np.complex128)
    norm_y_sq = float(np.vdot(y128, y128).real)
    del y128
    trace = SolveTrace([TraceRecord(iteration=0, objective=norm_y_sq, fidelity=norm_y_sq,
                                    tv_term=0.0, mu=mu, halvings=0, rel_change=float("inf"))])

    if cfg.mode == "bpi":
        return ahyv, trace

    kernel = fm.gram_kernel(basis, pattern)
    gx = np.zeros_like(x)  # A^H A x, carried by linearity
    gz_prev = np.zeros_like(x)
    for k in range(1, cfg.max_outer_iters + 1):
        fidelity_x = _expanded_fidelity(norm_y_sq, ahyv, x, gx)
        grad = gx - ahyv

        halvings = 0
        while True:
            step = x - mu * grad
            if lam > 0:
                z, new_duals, z_tv, tv_iters, tv_gap = tv_prox_stack(step, lam * mu, cfg.tv,
                                                                     (h, w), dual_init=duals)
            else:
                z, new_duals, z_tv, tv_iters, tv_gap = step, None, 0.0, 0, 0.0
            gz = fm.normal(z, kernel, coils)
            fidelity_z = _expanded_fidelity(norm_y_sq, ahyv, z, gz)
            rhs = _majorization_rhs(fidelity_x, grad, z - x, mu)
            if fidelity_z > rhs + _ROUNDOFF_ULPS * np.spacing(norm_y_sq):
                mu *= 0.5
                halvings += 1
                if mu < _MU_FLOOR:
                    raise FloatingPointError("step size collapsed during backtracking at "
                                             f"iteration {k}")
                continue
            break
        duals = new_duals

        momentum = (k - 1.0) / (k + 2.0)
        x_next = z + momentum * (z - z_prev)

        if not np.all(np.isfinite(x_next)):
            raise FloatingPointError(f"non-finite iterate at iteration {k}")

        norm_x = float(np.linalg.norm(x))
        rel_change = float(np.linalg.norm(x_next - x) / norm_x) if norm_x > 0 else float("inf")

        tv_term = lam * z_tv
        trace.records.append(
            TraceRecord(
                iteration=k,
                objective=fidelity_z + tv_term,
                fidelity=fidelity_z,
                tv_term=tv_term,
                mu=mu,
                halvings=halvings,
                rel_change=rel_change,
                momentum=momentum,
                majorization_rhs=rhs,
                tv_iters=tv_iters,
                tv_gap=tv_gap,
            )
        )

        x, z_prev = x_next, z
        gx, gz_prev = gz + momentum * (gz - gz_prev), gz
        if rel_change < cfg.stop_rel_change:
            break

    # the final fidelity from the k-space residual y - A(z v^H): the objective
    # a solve reports carries no cancellation error from the expanded form
    last = trace.records[-1]
    residual = fm.forward(z_prev, basis, coils, pattern).y
    np.subtract(y.y, residual, out=residual)
    last.fidelity = float(np.vdot(residual, residual).real)
    last.objective = last.fidelity + last.tv_term
    return x, trace


def save_reconstruction(x: np.ndarray, basis: SubspaceBasis, hw: tuple[int, int], path) -> None:
    h, w = hw
    bundle.write_bundle(
        path,
        {
            "x_subspace": x.T.reshape(basis.rank_s, h, w).astype(np.complex64),
            "basis_v": basis.v.astype(np.float32),
        },
        meta={"kind": "reconstruction"},
    )


def load_reconstruction(path) -> tuple[np.ndarray, SubspaceBasis, tuple[int, int]]:
    arrays, _ = bundle.read_bundle(path, kind="reconstruction")
    # a NaN coefficient would make every voxel count as background
    stack = arrays.array("x_subspace", (None, None, None), "complex64").astype(np.complex128)
    rank, h, w = stack.shape
    x = stack.reshape(rank, h * w).T
    v = arrays.array("basis_v", (None, rank), "float32", rerun="reconstruct").astype(np.float64)
    basis = SubspaceBasis(v=v, s_values=np.zeros(min(v.shape)))
    return x, basis, (h, w)
