"""Forward operator: masked multi-coil unitary 2-D Fourier transforms of the
frames x v^T of a subspace coefficient stack, plus the mask and coil-map
generators.

With Cartesian masks the temporal basis commutes with the coil weighting and
the FFT, so :func:`forward`, :func:`adjoint` and :func:`normal` transform the
S coefficient images per coil instead of the L frame images; only
:func:`apply_frames`, for explicit frames, transforms frame by frame.

Masks live on the dense k-space grid in natural FFT layout (DC at index 0).
The DFT is unitary both ways, so with full sampling and a single uniform coil
the operator is an isometry.
"""

from dataclasses import dataclass

import numpy as np

from . import bundle
from .subspace import SubspaceBasis

DEFAULT_CENTER_RADIUS = 4
DEFAULT_DENSITY_GAMMA = 2.0

_FRAME_BLOCK = 32  # frames per block, bounds the materialized image stack
# provenance fields of a SamplingPattern, recorded in the k-space bundle's meta
_PATTERN_META = ("seed", "accel", "center_radius", "gamma", "k0")


@dataclass
class SamplingPattern:
    """Per-frame boolean k-space masks on the dense grid."""

    masks: np.ndarray  # bool, (L, H, W), natural FFT layout
    seed: int | None = None
    accel: float | None = None
    center_radius: int | None = None
    gamma: float | None = None
    k0: float | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.masks.shape[1], self.masks.shape[2]

    @property
    def n_frames(self) -> int:
        return self.masks.shape[0]

    @property
    def per_frame_counts(self) -> np.ndarray:
        return self.masks.sum(axis=(1, 2)).astype(np.int64)

    def total_samples(self, n_coils: int) -> int:
        return int(self.per_frame_counts.sum()) * n_coils


@dataclass
class CoilMaps:
    """Complex receive sensitivities, RSS-normalized to a max of 1."""

    sens: np.ndarray  # complex, (C, H, W)

    @property
    def n_coils(self) -> int:
        return self.sens.shape[0]

    def rss(self) -> np.ndarray:
        return np.sqrt(np.sum(np.abs(self.sens) ** 2, axis=0))


@dataclass
class KSpaceData:
    """Masked dense-grid k-space samples, zero where unsampled."""

    y: np.ndarray  # complex, (L, C, H, W)
    pattern: SamplingPattern

    @property
    def n_coils(self) -> int:
        return self.y.shape[1]


def _radial_weights(h: int, w: int, gamma: float, k0: float) -> np.ndarray:
    ky = np.fft.fftfreq(h) * h
    kx = np.fft.fftfreq(w) * w
    radius = np.sqrt(ky[:, None] ** 2 + kx[None, :] ** 2)
    return (1.0 + radius / k0) ** (-gamma)


def _center_block(h: int, w: int, radius: int) -> np.ndarray:
    ky = np.fft.fftfreq(h) * h
    kx = np.fft.fftfreq(w) * w
    return (np.abs(ky)[:, None] <= radius) & (np.abs(kx)[None, :] <= radius)


def make_vd_cartesian_masks(
    h: int,
    w: int,
    n_frames: int,
    accel: float,
    seed: int,
    center_radius: int = DEFAULT_CENTER_RADIUS,
) -> SamplingPattern:
    """Per-frame variable-density random Cartesian masks.

    Sampling probability decays radially as (1 + |k|/k0)^-gamma, with
    gamma = DEFAULT_DENSITY_GAMMA and k0 = H/8, scaled so the
    expected samples per frame are H*W/accel; a (2*center_radius+1)^2 block
    around DC is always fully sampled. Frames are independent draws from one
    seeded generator.
    """
    if accel < 1:
        raise ValueError("accel must be >= 1")
    k0 = h / 8.0
    target = h * w / accel
    center = _center_block(h, w, center_radius)
    n_center = int(center.sum())
    if target < n_center:
        raise ValueError(
            f"center block ({n_center} samples) alone exceeds the budget "
            f"of {target:.0f} samples per frame"
        )

    weights = _radial_weights(h, w, DEFAULT_DENSITY_GAMMA, k0)
    outside = ~center
    budget = target - n_center
    if budget >= outside.sum():
        prob = np.ones((h, w))
    else:
        w_out = weights[outside]

        def expected(scale):
            return np.minimum(1.0, scale * w_out).sum()

        lo, hi = 0.0, 1.0 / w_out.min()
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if expected(mid) < budget:
                lo = mid
            else:
                hi = mid
        prob = np.minimum(1.0, 0.5 * (lo + hi) * weights)
    prob[center] = 1.0

    rng = np.random.default_rng(seed)
    masks = rng.random((n_frames, h, w)) < prob[None, :, :]
    masks[:, center] = True
    return SamplingPattern(masks, seed, float(accel), center_radius, DEFAULT_DENSITY_GAMMA, k0)


def make_coil_maps(h: int, w: int, n_coils: int, kind: str = "gaussian-ring") -> CoilMaps:
    """Simulated receive sensitivities.

    ``uniform`` gives flat maps (scaled 1/sqrt(C) so the RSS is one), acting
    as a single effective coil. ``gaussian-ring`` places C smooth complex
    Gaussian lobes on a ring around the field of view with a linear phase
    ramp per coil, then RSS-normalizes to a max of 1.
    """
    if n_coils < 1:
        raise ValueError("n_coils must be >= 1")
    if kind == "uniform":
        sens = np.full((n_coils, h, w), 1.0 / np.sqrt(n_coils), dtype=np.complex128)
        return CoilMaps(sens=sens)
    if kind != "gaussian-ring":
        raise ValueError(f"unknown coil map kind {kind!r}")

    # pixel coordinates centered on the array so antipodal coil placement is
    # an exact grid symmetry for even C
    y = np.arange(h) - (h - 1) / 2.0
    x = np.arange(w) - (w - 1) / 2.0
    yy, xx = np.meshgrid(y, x, indexing="ij")
    ring_radius = 0.5 * min(h, w)
    width = 0.35 * min(h, w)

    sens = np.empty((n_coils, h, w), dtype=np.complex128)
    for c in range(n_coils):
        theta = 2.0 * np.pi * c / n_coils
        cy = ring_radius * np.sin(theta)
        cx = ring_radius * np.cos(theta)
        mag = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * width**2))
        ramp = 0.2 * (np.cos(theta) * yy - np.sin(theta) * xx) / max(h, w)
        sens[c] = mag * np.exp(2j * np.pi * ramp)

    coils = CoilMaps(sens=sens)
    coils.sens /= coils.rss().max()
    return coils


def _check_geometry(basis, coils: CoilMaps, pattern: SamplingPattern):
    h, w = pattern.shape
    if coils.sens.shape[1:] != (h, w):
        raise ValueError("coil maps and sampling pattern disagree on image size")
    if basis is not None and basis.n_frames != pattern.n_frames:
        raise ValueError("basis frames and sampling pattern frames disagree")
    return h, w


def apply_frames(frames: np.ndarray, coils: CoilMaps, pattern: SamplingPattern) -> KSpaceData:
    """Masked multi-coil unitary FFT of explicit frame images (L, H, W),
    one block of frames at a time."""
    h, w = _check_geometry(None, coils, pattern)
    n_frames = pattern.n_frames
    if frames.shape != (n_frames, h, w):
        raise ValueError(f"frames must have shape {(n_frames, h, w)}")
    y = np.empty((n_frames, coils.n_coils, h, w), dtype=np.complex128)
    for lo in range(0, n_frames, _FRAME_BLOCK):
        hi = min(lo + _FRAME_BLOCK, n_frames)
        weighted = coils.sens[None, :, :, :] * frames[lo:hi, None, :, :]
        np.fft.fft2(weighted, norm="ortho", axes=(-2, -1), out=y[lo:hi])
        y[lo:hi] *= pattern.masks[lo:hi, None, :, :]
    return KSpaceData(y=y, pattern=pattern)


def _coil_fft(x: np.ndarray, sens: np.ndarray, h: int, w: int) -> np.ndarray:
    """Unitary 2-D FFTs of the coil-weighted coefficient images of x (n, S),
    shape (C, S, H, W): S*C transforms."""
    images = x.T.reshape(1, x.shape[1], h, w)
    return np.fft.fft2(sens[:, None, :, :] * images, norm="ortho", axes=(-2, -1))


def _coil_combine(coeffs: np.ndarray, sens: np.ndarray) -> np.ndarray:
    """Inverse unitary 2-D FFTs of (C, S, H, W) k-space coefficients and the
    conjugate coil combine, shape (n, S): S*C transforms."""
    _, rank, h, w = coeffs.shape
    back = np.fft.ifft2(coeffs, norm="ortho", axes=(-2, -1))
    combined = np.sum(sens.conj()[:, None, :, :] * back, axis=0)
    return np.ascontiguousarray(combined.reshape(rank, h * w).T)


def forward(
    x: np.ndarray, basis: SubspaceBasis, coils: CoilMaps, pattern: SamplingPattern
) -> KSpaceData:
    """A(x v^T): coil weighting and S*C unitary 2-D FFTs of the coefficient
    images, then frame t of coil c is sum_s v[t, s] FFT(sens_c x_s), masked.
    x has shape (n, S) with n = H*W."""
    h, w = _check_geometry(basis, coils, pattern)
    rank = basis.rank_s
    if x.shape != (h * w, rank):
        raise ValueError(f"x must have shape {(h * w, rank)}")
    coeffs = _coil_fft(x, coils.sens, h, w).transpose(1, 0, 2, 3).reshape(rank, -1)
    y = (basis.v @ coeffs).reshape(pattern.n_frames, coils.n_coils, h, w)
    y *= pattern.masks[:, None, :, :]
    return KSpaceData(y=y, pattern=pattern)


def adjoint(
    data: KSpaceData, basis: SubspaceBasis, coils: CoilMaps, pattern: SamplingPattern
) -> np.ndarray:
    """A^H(y) v: the masked k-space projected onto the basis, sum_t v[t, s]
    M_t y_t, then S*C inverse unitary FFTs and the conjugate coil combine.
    Exact adjoint of :func:`forward`."""
    h, w = _check_geometry(basis, coils, pattern)
    n_frames, n_coils, rank = pattern.n_frames, coils.n_coils, basis.rank_s
    y = data.y
    if y.shape != (n_frames, n_coils, h, w):
        raise ValueError(f"k-space must have shape {(n_frames, n_coils, h, w)}")
    coeffs = np.zeros((rank, n_coils * h * w), dtype=np.complex128)
    slab = np.empty((min(_FRAME_BLOCK, n_frames), n_coils, h, w), dtype=np.complex128)
    for lo in range(0, n_frames, _FRAME_BLOCK):
        hi = min(lo + _FRAME_BLOCK, n_frames)
        masked = np.multiply(y[lo:hi], pattern.masks[lo:hi, None, :, :], out=slab[: hi - lo])
        coeffs += basis.v[lo:hi].T @ masked.reshape(hi - lo, -1)
    return _coil_combine(coeffs.reshape(rank, n_coils, h, w).transpose(1, 0, 2, 3), coils.sens)


def gram_kernel(basis: SubspaceBasis, pattern: SamplingPattern) -> np.ndarray:
    """Per-k-space-point kernel of the subspace normal operator,
    K[k] = sum_t M_t[k] v_t v_t^T with v_t row t of the basis, real, shape (H, W, S, S).

    With Cartesian masks, A^H A restricted to the subspace is the coil
    weighting and FFT of each coefficient image, this S x S product at each
    k-space point, then the inverse FFT and coil combine (the temporal
    subspace Toeplitz kernel of T2 shuffling, Tamir et al., MRM 2017).
    """
    h, w = pattern.shape
    n_frames, rank = pattern.n_frames, basis.rank_s
    if basis.n_frames != n_frames:
        raise ValueError("basis frames and sampling pattern frames disagree")
    outer = (basis.v[:, :, None] * basis.v[:, None, :]).reshape(n_frames, rank * rank)
    masks = pattern.masks.reshape(n_frames, h * w)
    kernel = np.zeros((h * w, rank * rank))
    for lo in range(0, n_frames, _FRAME_BLOCK):
        hi = min(lo + _FRAME_BLOCK, n_frames)
        kernel += masks[lo:hi].T.astype(np.float64) @ outer[lo:hi]
    return kernel.reshape(h, w, rank, rank)


def normal(x: np.ndarray, kernel: np.ndarray, coils: CoilMaps) -> np.ndarray:
    """A^H(A(x v^T)) v through the kernel from :func:`gram_kernel`: coil
    weighting, S*C forward FFTs, the S x S product at each k-space point,
    S*C inverse FFTs and the conjugate coil combine. No frame is formed."""
    h, w, rank, _ = kernel.shape
    if x.shape != (h * w, rank):
        raise ValueError(f"x must have shape {(h * w, rank)}")
    if coils.sens.shape[1:] != (h, w):
        raise ValueError("coil maps and kernel disagree on image size")
    mixed = np.einsum("hwab,cbhw->cahw", kernel, _coil_fft(x, coils.sens, h, w))
    return _coil_combine(mixed, coils.sens)


def save_kspace(data: KSpaceData, coils: CoilMaps, path, kspace_noise: float) -> None:
    p = data.pattern
    meta = {"kind": "kspace", "kspace_noise": kspace_noise,
            **{key: getattr(p, key) for key in _PATTERN_META}}
    bundle.write_bundle(
        path,
        {
            "y": data.y.astype(np.complex64),
            "masks": p.masks.astype(np.uint8),
            "sens": coils.sens.astype(np.complex64),
        },
        meta=meta,
    )


def load_kspace(path) -> tuple[KSpaceData, CoilMaps]:
    arrays, meta = bundle.read_bundle(path, kind="kspace")
    n_frames, n_coils, h, w = arrays.array("y", (None,) * 4, "complex64").shape
    masks = arrays.array("masks", (n_frames, h, w), "uint8").astype(bool)
    # the solver's step size divides by the sample count, coils times sampled points
    if n_coils == 0:
        raise arrays.fault("y", "has no coils")
    if not masks.any():
        raise arrays.fault("masks", "samples no k-space point")
    pattern = SamplingPattern(masks, *(meta.get(key) for key in _PATTERN_META))
    data = KSpaceData(y=arrays["y"].astype(np.complex128), pattern=pattern)
    coils = CoilMaps(sens=arrays.array("sens", (n_coils, h, w), "complex64").astype(np.complex128))
    return data, coils
