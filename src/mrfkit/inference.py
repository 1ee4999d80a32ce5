"""Parameter estimation: a small fully-connected network trained on noisy
dictionary projections, and exhaustive dictionary matching as the baseline.

The network maps phase-aligned, unit-norm subspace coefficient vectors to
(T1, T2) in milliseconds. Targets are normalized to [0, 1] by the dictionary
grid ranges during training and de-normalized (and clamped to those ranges)
at inference. Voxels with negligible coefficient energy are masked to zero.
"""

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import bundle
from .epg import Dictionary, atom_blocks
from .subspace import SubspaceBasis, phase_align, project

BACKGROUND_REL_NORM = 1e-3
MOMENTUM = 0.9
# scores per block in dictionary_match, which scores MATCH_SCORES // d voxels
# (at least one) at a time against d atoms. Blocks bound memory and do not
# affect values beyond BLAS rounding: 64 rows against the default 4661 atoms
# (2.4 MB) stay near one core's L2 cache; 2048 took twice as long and 76 MB.
MATCH_SCORES = 300_000
# rows per block in make_training_set and MrfNet.predict_ms: a few MB
# whatever the row count (6.5 MB through the default hidden layers). Values do
# not change, as every step is row by row; BLAS may round a last block of a
# few rows differently.
_TRAINING_BLOCK = 4096


@dataclass
class TrainConfig:
    noise_sigma: float
    augment_factor: int
    epochs: int
    batch_size: int = 512
    learning_rate: float = 0.05
    seed: int = 1234

    def __post_init__(self):
        if not (math.isfinite(self.noise_sigma) and math.isfinite(self.learning_rate)):
            raise ValueError("noise_sigma and learning_rate must be finite")
        if self.augment_factor < 1:
            raise ValueError("augment_factor must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.epochs < 0 or self.batch_size < 1 or self.learning_rate <= 0:
            raise ValueError("bad optimizer settings")


@dataclass
class MrfNet:
    """Three affine layers, rectified-linear on the first two; the output
    layer is linear unless output_relu is set."""

    weights: list[np.ndarray]  # (in, out) per layer
    biases: list[np.ndarray]
    t1_range: tuple[float, float]
    t2_range: tuple[float, float]
    output_relu: bool

    def __post_init__(self):
        if not self.weights:
            raise ValueError("a network needs at least one layer")
        width = None  # the output width of the layer before
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or (i and w.shape[0] != width) or b.shape != w.shape[1:]:
                raise ValueError(f"layer shapes must chain from rank to 2, got 'w{i}' {w.shape} "
                                 f"after width {width} and 'b{i}' {b.shape}")
            width = w.shape[1]
        if width != 2:
            raise ValueError(f"layer shapes must chain from rank to 2, got 'w{i}' {w.shape}")
        # targets are normalized by these ranges, so a single-value axis
        # would divide by zero during training
        for name, key in (("T1", "t1_range"), ("T2", "t2_range")):
            lo, hi = getattr(self, key)
            if not hi > lo:
                raise ValueError(
                    f"{name} range {key!r} [{lo}, {hi}] is not increasing; the network "
                    "needs a grid with at least two values on each axis"
                )

    @classmethod
    def initialize(
        cls,
        rank: int,
        t1_range: tuple[float, float],
        t2_range: tuple[float, float],
        hidden: tuple[int, int],
        seed: int,
        output_relu: bool = False,
        dtype=np.float32,
    ) -> "MrfNet":
        rng = np.random.default_rng(seed)
        sizes = [rank, hidden[0], hidden[1], 2]
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            scale = math.sqrt(2.0 / fan_in)
            weights.append(rng.normal(0.0, scale, (fan_in, fan_out)).astype(dtype))
            biases.append(np.zeros(fan_out, dtype=dtype))
        return cls(weights, biases, tuple(t1_range), tuple(t2_range), output_relu)

    @property
    def rank(self) -> int:
        return self.weights[0].shape[0]

    def copy(self) -> "MrfNet":
        return replace(self, weights=[w.copy() for w in self.weights],
                       biases=[b.copy() for b in self.biases])

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Normalized (T1, T2) predictions for a batch of coefficient rows."""
        return self._forward_cached(x)[-1]

    def _forward_cached(self, x):
        """x and every layer's output, rectified where the layer has a ReLU:
        a rectified output is positive exactly where its pre-activation is."""
        post = [x]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = post[-1] @ w
            h += b
            if i < last or self.output_relu:
                np.maximum(h, 0.0, out=h)
            post.append(h)
        return post

    def loss_and_gradients(self, x: np.ndarray, targets_norm: np.ndarray):
        """Mean-squared-error loss and its gradients for every parameter.

        A ReLU unit that no row of the batch activates has a zero delta
        column. So a layer between two hidden layers forms its weight
        gradient and the delta it sends back over the live units of its
        output only: the dead units' gradient columns are exact zeros, and
        the products equal the dense backward pass's to float roundoff. The
        output layer and the first layer keep all of their columns; each
        bias gradient sums the full-width delta."""
        post = self._forward_cached(x)
        diff = post[-1] - targets_norm
        loss = float(np.mean(diff**2))

        grad_ws = [None] * len(self.weights)
        grad_bs = [None] * len(self.biases)
        delta = (2.0 / diff.size) * diff
        last = len(self.weights) - 1
        if self.output_relu:
            delta = delta * (post[-1] > 0)
        live = slice(None)  # the output layer keeps all of its columns
        for i in range(last, -1, -1):
            live_delta = delta[:, live]
            grad_ws[i] = np.zeros_like(self.weights[i])
            grad_ws[i][:, live] = post[i].T @ live_delta
            grad_bs[i] = delta.sum(axis=0)
            if i > 0:
                mask = post[i] > 0
                delta = live_delta @ self.weights[i][:, live].T
                np.multiply(delta, mask, out=delta)
                # the first layer's gradient has only input-width rows and it
                # sends nothing back: a column copy of delta costs more than
                # it saves, and its varying size fragments the heap
                live = np.flatnonzero(mask.any(axis=0)) if i > 1 else slice(None)
        return loss, grad_ws, grad_bs

    def _bounds(self) -> np.ndarray:
        """The (T1, T2) lower bounds and upper bounds: lo, hi = self._bounds()."""
        return np.array([self.t1_range, self.t2_range], np.float64).T

    def predict_ms(self, x: np.ndarray) -> np.ndarray:
        """De-normalized predictions clamped to the training grid ranges,
        _TRAINING_BLOCK rows at a time."""
        lo, hi = self._bounds()
        out = np.empty((x.shape[0], 2))
        for r0 in range(0, x.shape[0], _TRAINING_BLOCK):
            normalized = self.forward(x[r0 : r0 + _TRAINING_BLOCK]).astype(np.float64)
            out[r0 : r0 + _TRAINING_BLOCK] = np.clip(lo + normalized * (hi - lo), lo, hi)
        return out


def make_training_set(
    dictionary: Dictionary,
    basis: SubspaceBasis,
    cfg: TrainConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Noise-augmented training rows from the dictionary, and one label per atom.

    Per atom: unit-normalize, project onto the basis, repeat augment_factor
    times, add complex white noise to each copy's coefficients (noise_sigma
    per real/imaginary component), phase-align and unit-normalize the row.
    On an orthonormal basis, noise white in the L frames is white in the S
    coefficients with the same sigma, so the rows are distributed as if each
    atom had been corrupted frame by frame. Row r's noise is the r-th (S, 2)
    block of the random stream. Returns the float32 (d * augment_factor, S)
    inputs, row r a noisy copy of atom r // augment_factor, and the float32
    (d, 2) (T1, T2) labels of the atoms in milliseconds, which train
    shares among each atom's copies.

    The rows are built _TRAINING_BLOCK at a time, drawing each block's noise
    in stream order, so the working memory does not grow with N; the atoms
    are projected a block at a time, so beyond the (d, S) projections it
    does not grow with d either.
    """
    aug = int(cfg.augment_factor)
    n_rows = dictionary.n_atoms * aug  # a Python int: it cannot wrap
    if n_rows * basis.rank_s * np.dtype(np.float32).itemsize > np.iinfo(np.intp).max:
        raise ValueError(f"{dictionary.n_atoms} atoms x augment {aug} = {n_rows} training "
                         "rows are more than an array can address")
    labels = np.stack([dictionary.t1_ms, dictionary.t2_ms], axis=1).astype(np.float32)
    inputs = np.empty((n_rows, basis.rank_s), dtype=np.float32)
    clean = _atom_projections(dictionary, basis, normalized=True)
    rng = np.random.default_rng(cfg.seed)
    for r0 in range(0, n_rows, _TRAINING_BLOCK):
        r1 = min(r0 + _TRAINING_BLOCK, n_rows)
        coeffs = clean[np.arange(r0, r1) // aug]
        if cfg.noise_sigma > 0:
            noise = rng.standard_normal((r1 - r0, basis.rank_s, 2))
            noise *= cfg.noise_sigma
            coeffs += noise.view(np.complex128)[..., 0]
        inputs[r0:r1] = _unit_aligned(coeffs)[0]
    return inputs, labels


def learning_rate(cfg: TrainConfig, epoch: int) -> float:
    """The step-decay rate rule: cfg's rate for the first
    epochs - epochs // 5 epochs, then a tenth of it for the last epochs // 5.
    A run of fewer than 5 epochs keeps the configured rate throughout."""
    if epoch < cfg.epochs - cfg.epochs // 5:
        return cfg.learning_rate
    return cfg.learning_rate / 10


def train(
    net: MrfNet,
    data: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    on_epoch: Callable[[int, MrfNet, float, float], None] | None = None,
) -> tuple[MrfNet, list[float]]:
    """Minibatch SGD with momentum on the MSE of normalized targets, at the
    rate `learning_rate(cfg, epoch)`. Returns the trained network and the
    per-epoch loss history (empty for zero epochs). After each epoch,
    on_epoch, if given, is called with the epoch, the network being trained
    (to be read, not changed), the epoch's mean loss and its rate.

    data is (inputs, labels_ms), make_training_set's pair: N input rows and
    d (T1, T2) labels in milliseconds, N a positive multiple of d. Row r's
    target is label r // (N // d), so one label per row is the plain case.
    Each batch gathers its targets' labels, maps them to [0, 1] by the grid
    ranges in float64 and casts them once to the input dtype, so no per-row
    copy of the labels is held; each epoch's order is _row_order's.
    """
    inputs, labels_ms = data
    if len(labels_ms) == 0 or len(inputs) == 0 or len(inputs) % len(labels_ms):
        raise ValueError(f"{len(inputs)} training rows for {len(labels_ms)} labels: the rows "
                         "must be a positive multiple of the labels")
    # an intp, so that idx // repeat cannot overflow the order's compact dtype
    # (uint8 idx // 256 raises)
    repeat = np.intp(len(inputs) // len(labels_ms))
    net = net.copy()
    lo_ms, hi_ms = net._bounds()
    span_ms = hi_ms - lo_ms

    rng = np.random.default_rng(cfg.seed + 1)
    params = net.weights + net.biases
    vels = [np.zeros_like(p) for p in params]
    # The momentum product is formed in float64 and rounded once to the
    # parameter dtype. A float32 x float32 product is exact in float64, so this
    # equals the float32 product bit for bit, without the slow path float32
    # multiplication takes on the subnormal velocities of dead ReLU units.
    momenta = [np.float64(p.dtype.type(MOMENTUM)) for p in params]
    scratch = [np.empty(p.shape) for p in params]
    history: list[float] = []

    for epoch in range(cfg.epochs):
        rate = learning_rate(cfg, epoch)
        order = _row_order(rng, inputs.shape[0])
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, inputs.shape[0], cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            # take gathers a batch's rows in a third of the time of inputs[idx]
            targets = _normalized(labels_ms.take(idx // repeat, axis=0), lo_ms, span_ms)
            loss, grad_ws, grad_bs = net.loss_and_gradients(inputs.take(idx, axis=0),
                                                            targets.astype(inputs.dtype))
            if not math.isfinite(loss):
                raise FloatingPointError(f"training loss became non-finite at epoch {epoch}")
            for param, vel, grad, m, prod in zip(params, vels, grad_ws + grad_bs, momenta,
                                                 scratch):
                np.multiply(vel, m, out=prod)
                np.copyto(vel, prod, casting="same_kind")
                grad *= rate
                vel -= grad
                param += vel
            epoch_loss += loss
            n_batches += 1
        history.append(epoch_loss / n_batches)
        if on_epoch is not None:
            on_epoch(epoch, net, history[-1], rate)
        del order, idx  # the next epoch's order is drawn once this one is freed

    return net, history


def _normalized(targets_ms: np.ndarray, lo: np.ndarray, span: np.ndarray) -> np.ndarray:
    """(targets_ms - lo) / span in float64, as one new array."""
    targets = targets_ms - lo
    targets /= span
    return targets


def _row_order(rng, n: int) -> np.ndarray:
    """rng.permutation(n) of the Generator rng, in the smallest unsigned
    dtype that holds n - 1 (uint32, half of int64's bytes, at N = 466,100):
    the same values, leaving rng in the same state, as the shuffle's draws
    depend on n alone."""
    order = np.arange(n, dtype=np.min_scalar_type(n - 1))
    rng.shuffle(order)
    return order


def _atom_projections(dictionary: Dictionary, basis: SubspaceBasis,
                      normalized: bool) -> np.ndarray:
    """Complex128 subspace coefficients (d, S) of every atom, unit-normalized
    first when normalized is set; bit for bit those of the whole atom matrix.

    The atoms are projected a block of atom_blocks at a time, so the
    complex128 copies the product needs hold one block, not the dictionary."""
    coeffs = np.empty((dictionary.n_atoms, basis.rank_s), dtype=np.complex128)
    for (lo, hi), block in atom_blocks(dictionary.atoms):
        if normalized:
            norms = np.linalg.norm(block, axis=0, keepdims=True)
            norms[norms == 0] = 1.0
            block = block / norms
        coeffs[lo:hi] = project(block.T, basis)
    return coeffs


def _unit_aligned(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase-aligned rows scaled to unit norm, and the norms they were divided
    by; a zero row keeps norm 1 and stays zero."""
    rows = phase_align(coeffs)
    norms = np.linalg.norm(rows, axis=1)
    norms[norms == 0] = 1.0
    return rows / norms[:, None], norms


def _foreground(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The background rule of both estimators: rows whose norm is at most
    BACKGROUND_REL_NORM of the largest are background. Returns the foreground
    mask, the foreground rows' norms and those rows unit-normalized."""
    norms = np.linalg.norm(coeffs, axis=1)
    fg = norms > BACKGROUND_REL_NORM * (norms.max() if norms.size else 0.0)
    norms = norms[fg]
    return fg, norms, coeffs[fg] / norms[:, None]


def infer(net: MrfNet, coeffs: np.ndarray) -> np.ndarray:
    """Per-voxel (T1, T2) maps from aligned real coefficient rows (n, S).

    Rows are unit-normalized before the network sees them. Rows whose norm is
    at most BACKGROUND_REL_NORM of the stack maximum are treated as background
    and reported as zero.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 2 or coeffs.shape[1] != net.rank:
        raise ValueError(f"expected (n, {net.rank}) coefficients")
    fg, _, rows = _foreground(coeffs)
    maps = np.zeros((coeffs.shape[0], 2))
    maps[fg] = net.predict_ms(rows.astype(net.weights[0].dtype))
    return maps


def dictionary_match(
    coeffs: np.ndarray,
    dictionary: Dictionary,
    basis: SubspaceBasis,
) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive maximum-inner-product match in the subspace.

    Voxel rows (phase-aligned, any positive scale) are scored against the
    normalized, phase-aligned projections of every atom; each voxel gets the
    argmax atom's label and the matched amplitude as a proton-density proxy.
    Returns (maps (n, 2), pd (n,)).
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    table, raw_norms = _unit_aligned(_atom_projections(dictionary, basis, normalized=False))

    fg, norms, rows = _foreground(coeffs)
    maps = np.zeros((coeffs.shape[0], 2))
    pd = np.zeros(coeffs.shape[0])
    best_idx = np.empty(rows.shape[0], dtype=np.int64)
    best_score = np.empty(rows.shape[0])
    chunk = max(1, MATCH_SCORES // dictionary.n_atoms)
    for lo in range(0, rows.shape[0], chunk):
        hi = min(lo + chunk, rows.shape[0])
        scores = rows[lo:hi] @ table.T
        best_idx[lo:hi] = np.argmax(scores, axis=1)
        best_score[lo:hi] = scores[np.arange(lo, hi) - lo, best_idx[lo:hi]]
        del scores  # before the next block is scored

    maps[fg, 0] = dictionary.t1_ms[best_idx]
    maps[fg, 1] = dictionary.t2_ms[best_idx]
    pd[fg] = best_score * norms / raw_norms[best_idx]
    return maps, pd


def save_net(net: MrfNet, cfg: TrainConfig, path) -> None:
    arrays = {}
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        arrays[f"w{i}"] = w.astype(np.float32)
        arrays[f"b{i}"] = b.astype(np.float32)
    meta = {
        "kind": "mrf-net",
        "t1_range": list(net.t1_range),
        "t2_range": list(net.t2_range),
        "output_relu": net.output_relu,
        "train": asdict(cfg),
    }
    bundle.write_bundle(path, arrays, meta=meta)


@bundle.loader
def load_net(path) -> MrfNet:
    arrays, meta = bundle.read_bundle(path, kind="mrf-net")
    return MrfNet(  # the three layers MrfNet.initialize builds
        weights=[arrays.array(f"w{i}", (None, None), "float32") for i in range(3)],
        biases=[arrays.array(f"b{i}", (None,), "float32") for i in range(3)],
        t1_range=tuple(meta.numbers("t1_range", 2)),
        t2_range=tuple(meta.numbers("t2_range", 2)),
        output_relu=meta.typed("output_relu", bool),
    )
