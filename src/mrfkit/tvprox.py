"""Total-variation proximal operator via fast gradient projection on the dual.

Forward differences with reflexive boundary handling: the difference at the
last row/column is zero, so the dual field rows/columns there stay zero and
the prox preserves the image mean exactly.

tv_prox allocates its work arrays once per call and updates them in place
with `out=`: the dual pair (2, H, W) and its extrapolation, the image u, its
difference pair and a scratch pair. Each step turns the difference pair into
the next dual point in place, and the two then trade buffers. A ufunc over
column-shifted views such as u[:, 1:] costs about three times one over
row-shifted or flat views, so the x-parts work on the flattened image: the
x-difference is one subtract, after which the last column is set back to
+0.0, and the adjoint's x-part is one add, with the first column saved before
it and restored after it. Every operation computes the same values in the
same order as a loop that allocates fresh arrays at every step, so the
result, dual and TV equal that loop's bit for bit.
"""

from dataclasses import dataclass

import numpy as np

VARIANTS = ("isotropic", "anisotropic")


@dataclass
class TvConfig:
    variant: str = "isotropic"
    max_iters: int = 50
    dual_gap_tol: float = 1e-6

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.dual_gap_tol <= 0:
            raise ValueError("dual_gap_tol must be > 0")


def _diff(u, d):
    """Forward differences of the image u into the C-contiguous pair
    d = (dy, dx); the last row of dy and the last column of dx are +0.0.

    dx is one subtract over the flattened image, which also differences each
    row's last entry against the next row's first; that column is reset."""
    np.subtract(u[1:], u[:-1], out=d[0, :-1])
    d[0, -1] = 0.0
    flat_u, flat_dx = u.reshape(-1), d[1].reshape(-1)
    np.subtract(flat_u[1:], flat_u[:-1], out=flat_dx[:-1])
    d[1, :, -1] = 0.0


def _diff_adj(pq, out, col):
    """Adjoint of _diff into the image out: <diff(u), pq> == <u, out>.

    The x-part is one add over the flattened arrays, which would also add
    each row's last q to the next row's first entry; that column is saved
    in col before the add and restored after it. out must be C-contiguous,
    so that its flattened form is a view."""
    p, q = pq
    np.subtract(p[:-1], p[1:], out=out[1:])  # p[i-1] - p[i] == -p[i] + p[i-1]
    np.negative(p[0], out=out[0])
    np.subtract(out, q, out=out)
    col[:] = out[:, 0]
    flat_out = out.reshape(-1)
    np.add(flat_out[1:], q.reshape(-1)[:-1], out=flat_out[1:])
    out[:, 0] = col


def _magnitude(pq, work):
    """sqrt(p**2 + q**2) of a pair, in work[0]."""
    np.square(pq, out=work)
    np.add(work[0], work[1], out=work[0])
    return np.sqrt(work[0], out=work[0])


def _tv(d, variant, work):
    """Total variation from the forward differences d of an image; work is
    a scratch pair."""
    if variant == "isotropic":
        return np.add.reduce(_magnitude(d, work), axis=None)
    np.abs(d, out=work)
    return np.add.reduce(work[0], axis=None) + np.add.reduce(work[1], axis=None)


def tv_norm(img: np.ndarray, variant: str) -> float:
    """Total variation of a real image under the configured variant."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    u = np.asarray(img, dtype=np.float64)
    d = np.zeros((2,) + u.shape)
    _diff(u, d)
    return float(_tv(d, variant, np.empty_like(d)))


def _project(pq, variant, work):
    """Project the dual pair pq in place onto the feasible set."""
    if variant == "isotropic":
        scale = _magnitude(pq, work)
        np.maximum(1.0, scale, out=scale)
        np.divide(pq, scale, out=pq)
    else:
        np.clip(pq, -1.0, 1.0, out=pq)


def tv_prox(
    img: np.ndarray,
    tau: float,
    cfg: TvConfig,
    dual_init: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float, int, float]:
    """Approximate argmin_u 0.5*||u - img||^2 + tau*TV(u).

    Runs fast gradient projection on the dual with step 1/8, stopping when the
    primal-dual gap drops below dual_gap_tol * ||img||^2 or at max_iters. An
    optional dual field (2, H, W) warm-starts the iteration. Returns the
    result, the final dual field, for reuse as the next warm start, the
    result's TV, which the last gap check already measured, the number of
    iterations run and that last gap. tau = 0 runs none and has gap 0.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    # a column of tv_prox_stack's stack is strided; every iteration reads b twice
    b = np.ascontiguousarray(img, dtype=np.float64)
    if tau == 0:
        return b.copy(), np.zeros((2,) + b.shape), tv_norm(b, cfg.variant), 0, 0.0

    # the work arrays: the dual pair p and its extrapolation r, the image u,
    # its differences d and a scratch pair; in place, d becomes the next
    # dual point, which then trades buffers with p
    p = np.zeros((2,) + b.shape)
    r, d, work = (np.zeros_like(p) for _ in range(3))
    u = np.empty(b.shape)
    if dual_init is not None:
        p[0], p[1] = dual_init[0], dual_init[1]
        _project(p, cfg.variant, work)
    r[:] = p
    t = 1.0
    energy = float(np.sum(b**2))
    gap_bound = cfg.dual_gap_tol * energy
    step = 8.0 * tau

    def primal(pq):
        """u = b - tau * adj(pq), then d = diff(u)."""
        _diff_adj(pq, u, work[0, :, 0])
        np.multiply(u, tau, out=u)
        np.subtract(b, u, out=u)
        _diff(u, d)

    for iters in range(1, cfg.max_iters + 1):
        primal(r)
        np.divide(d, step, out=d)
        np.add(r, d, out=d)
        _project(d, cfg.variant, work)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        np.subtract(d, p, out=r)
        np.multiply(r, beta, out=r)
        np.add(d, r, out=r)
        p, d, t = d, p, t_next

        # gap at the feasible dual point: tau * (TV(u) - <diff(u), p>), where
        # u = b - tau * adj(p) is the result once the loop ends
        primal(p)
        tv = float(_tv(d, cfg.variant, work))
        np.multiply(d, p, out=d)
        gap = tau * (tv - np.add.reduce(d[0], axis=None) - np.add.reduce(d[1], axis=None))
        if gap <= gap_bound:
            break

    return u, p, tv, iters, float(gap)


def tv_prox_stack(
    x: np.ndarray,
    tau: float,
    cfg: TvConfig,
    hw: tuple[int, int],
    dual_init: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float, int, float]:
    """Channel-wise prox of a complex coefficient stack (n, S); returns the
    result, the final dual state, for warm-starting the next call, the
    result's TV and the iterations run, each summed over the 2S images, and
    the largest of their final gaps.

    The real and imaginary parts of each channel are the 2S columns of the
    stack's float64 view, independent real prox problems (2S calls), taken
    in column order, real part first; their TVs are summed in that order.
    The dual state has shape (2S, 2, H, W) indexed [column, p/q].
    """
    h, w = hw
    x = np.ascontiguousarray(x, dtype=np.complex128)
    n, rank = x.shape
    if n != h * w:
        raise ValueError(f"stack rows {n} do not match image size {h}x{w}")

    out = np.empty_like(x)
    parts, out_parts = x.view(np.float64), out.view(np.float64)
    duals = np.zeros((2 * rank, 2, h, w))
    tv_total, iters_total, gaps = 0.0, 0, []
    for j in range(2 * rank):
        init = dual_init[j] if dual_init is not None else None
        res, duals[j], tv, iters, gap = tv_prox(parts[:, j].reshape(h, w), tau, cfg,
                                                dual_init=init)
        out_parts[:, j] = res.ravel()
        tv_total += tv
        iters_total += iters
        gaps.append(gap)
    return out, duals, tv_total, iters_total, max(gaps, default=0.0)
