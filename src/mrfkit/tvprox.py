"""Total-variation proximal operator via fast gradient projection on the dual.

Forward differences with reflexive boundary handling: the difference at the
last row/column is zero, so the dual field rows/columns there stay zero and
the prox preserves the image mean exactly.
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


def _grad(u):
    """Forward differences (dy, dx); last row / column are zero."""
    dy = np.zeros_like(u)
    dx = np.zeros_like(u)
    dy[:-1, :] = u[1:, :] - u[:-1, :]
    dx[:, :-1] = u[:, 1:] - u[:, :-1]
    return dy, dx


def _grad_adj(p, q):
    """Adjoint of _grad: <grad(u), (p,q)> == <u, _grad_adj(p,q)>."""
    out = -p.copy()
    out[1:, :] += p[:-1, :]
    out -= q
    out[:, 1:] += q[:, :-1]
    return out


def _tv(dy, dx, variant):
    """Total variation from the forward differences of an image."""
    if variant == "isotropic":
        return np.sum(np.sqrt(dy**2 + dx**2))
    return np.sum(np.abs(dy)) + np.sum(np.abs(dx))


def tv_norm(img: np.ndarray, variant: str) -> float:
    """Total variation of a real image under the configured variant."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    return float(_tv(*_grad(np.asarray(img, dtype=np.float64)), variant))


def _project_dual(p, q, variant):
    if variant == "isotropic":
        mag = np.sqrt(p**2 + q**2)
        scale = np.maximum(1.0, mag)
        return p / scale, q / scale
    return np.clip(p, -1.0, 1.0), np.clip(q, -1.0, 1.0)


def tv_prox(
    img: np.ndarray,
    tau: float,
    cfg: TvConfig,
    dual_init: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Approximate argmin_u 0.5*||u - img||^2 + tau*TV(u).

    Runs fast gradient projection on the dual with step 1/8, stopping when the
    primal-dual gap drops below dual_gap_tol * ||img||^2 or at max_iters. An
    optional dual field (2, H, W) warm-starts the iteration. Returns the
    result, the final dual field, for reuse as the next warm start, and the
    result's TV, which the last gap check already measured.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    b = np.asarray(img, dtype=np.float64)
    if tau == 0:
        return b.copy(), np.zeros((2,) + b.shape), tv_norm(b, cfg.variant)

    if dual_init is not None:
        p = dual_init[0].astype(np.float64, copy=True)
        q = dual_init[1].astype(np.float64, copy=True)
        p, q = _project_dual(p, q, cfg.variant)
    else:
        p = np.zeros_like(b)
        q = np.zeros_like(b)
    rp, rq = p.copy(), q.copy()
    t = 1.0
    energy = float(np.sum(b**2))
    gap_bound = cfg.dual_gap_tol * energy

    for _ in range(cfg.max_iters):
        u = b - tau * _grad_adj(rp, rq)
        dy, dx = _grad(u)
        pn, qn = _project_dual(rp + dy / (8.0 * tau), rq + dx / (8.0 * tau), cfg.variant)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        rp = pn + beta * (pn - p)
        rq = qn + beta * (qn - q)
        p, q, t = pn, qn, t_next

        # gap at the feasible dual point: tau * (TV(u_p) - <grad(u_p), P>);
        # u_p is the result once the loop ends
        u_p = b - tau * _grad_adj(p, q)
        gy, gx = _grad(u_p)
        tv = float(_tv(gy, gx, cfg.variant))
        gap = tau * (tv - np.sum(gy * p) - np.sum(gx * q))
        if gap <= gap_bound:
            break

    return u_p, np.stack([p, q]), tv


def tv_prox_stack(
    x: np.ndarray,
    tau: float,
    cfg: TvConfig,
    hw: tuple[int, int],
    dual_init: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Channel-wise prox of a complex coefficient stack (n, S); returns the
    result, the final dual state, for warm-starting the next call, and the
    result's TV summed over the 2S images.

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
    tv_total = 0.0
    for j in range(2 * rank):
        init = dual_init[j] if dual_init is not None else None
        res, duals[j], tv = tv_prox(parts[:, j].reshape(h, w), tau, cfg, dual_init=init)
        out_parts[:, j] = res.ravel()
        tv_total += tv
    return out, duals, tv_total
