"""Reference implementations used to check the library.

Independent oracles avoid the library's code paths:

- ``bloch_fingerprint`` tracks explicit magnetization vectors with real
  rotation matrices instead of configuration states;
- ``tv_objective`` and ``tv_prox_subgradient`` minimize the prox objective by
  subgradient descent;
- ``tv_prox_reference`` is the fast gradient projection loop with a fresh
  array per step, where ``tvprox.tv_prox`` updates fixed work arrays in
  place; the two must agree bit for bit;
- ``match_full_space`` searches the full-length fingerprint space;
- ``dictionary_match_reference`` scores 2048-voxel blocks, where
  ``inference.dictionary_match`` scores cache-sized ones;
- ``epg_reference`` is the straightforward per-frame configuration-state loop
  that the library's blocked kernel must reproduce bit for bit;
- ``atom_projections_reference`` projects the whole atom matrix at once,
  where ``inference._atom_projections`` projects blocks of atoms; the two
  must agree bit for bit;
- ``training_set_reference`` and ``train_reference`` build the noisy training
  rows and run the momentum SGD loop out of place, one fresh array per step,
  at the configured rate and a tenth of it for the last fifth of the epochs
  (rounded down); ``inference.make_training_set`` and
  ``inference.train`` must reproduce them bit for bit;
- ``acquire_reference`` draws the k-space noise as whole arrays, where
  ``experiment.acquire`` adds it a slab of frames at a time; the two must
  write the same bytes;
- ``loss_and_gradients_reference`` keeps the pre-activations apart from the
  layer outputs, masks each ReLU by its pre-activation and lists the units a
  batch activates column by column; ``MrfNet.loss_and_gradients`` must
  reproduce it bit for bit;
- ``training_set_lspace`` draws the training noise on all L frames and
  projects it, where ``inference.make_training_set`` draws it in the
  subspace; the two must agree in distribution.

Reference paths are built on the per-frame k-space operator:

- ``expand`` maps subspace coefficients back to time series, ``c @ v^H``;
- ``forward_frames`` and ``adjoint_frames`` form every frame image and run
  L*C FFTs each way, where ``forward_model.forward``, ``adjoint`` and
  ``normal`` transform the S coefficient images per coil instead;
- ``gradient`` and ``backtrack_ok`` form the solver's gradient and
  majorization test in k-space on that pair, where ``solver.solve`` uses the
  subspace normal operator instead;
- ``simulate_fingerprint`` is one atom of ``epg.simulate_fingerprints``.

``learn_subspace_complex`` is the complex-arithmetic subspace: the leading
eigenvectors of the complex Gram D D^H, each column rotated so its
largest-magnitude entry is real positive. ``subspace.learn_subspace`` takes
them from the real Gram Re(D D^H); on a dictionary of atoms that are i times a
real signal, the two agree to roundoff. ``learn_subspace_stacked`` forms that
real Gram from 2048-atom blocks with each atom's real and imaginary parts side
by side in one float64 array, where ``subspace.atom_gram`` converts one plane
of a CHUNK_SIZE block at a time and skips a plane that is all zero; the two
agree to roundoff.
"""

import math

import numpy as np

from mrfkit import epg, experiment, inference, phantom
from mrfkit import forward_model as fm
from mrfkit.subspace import phase_align, project


def rotation_x(angle_rad: float) -> np.ndarray:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=np.float64)


def rotation_z(angle_rad: float) -> np.ndarray:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=np.float64)


def bloch_fingerprint(t1_ms, t2_ms, schedule, n_spins=2048):
    """Isochromat-ensemble FISP simulation after an ideal inversion.

    Spins are evenly dephased over 2*pi per repetition (the ideal-crusher
    assumption); excitation is a right-handed rotation about +x applied as a
    real 3x3 matrix; relaxation uses the full-TR constants and the echo is
    the ensemble mean transverse magnetization decayed to TE.
    """
    tr, te, tinv = schedule.tr_ms, schedule.te_ms, schedule.tinv_ms
    e1 = np.exp(-tr / t1_ms)
    e2 = np.exp(-tr / t2_ms)
    echo = np.exp(-te / t2_ms)

    m = np.zeros((n_spins, 3))
    m[:, 2] = 1.0 - 2.0 * np.exp(-tinv / t1_ms)

    crush = 2.0 * np.pi * np.arange(n_spins) / n_spins
    cos_c, sin_c = np.cos(crush), np.sin(crush)

    out = np.zeros(schedule.n_frames, dtype=np.complex128)
    for t in range(schedule.n_frames):
        rot = rotation_x(np.deg2rad(schedule.flip_angles_deg[t]))
        m = m @ rot.T
        out[t] = (m[:, 0].mean() + 1j * m[:, 1].mean()) * echo
        m[:, 0] *= e2
        m[:, 1] *= e2
        m[:, 2] = m[:, 2] * e1 + (1.0 - e1)
        mx = m[:, 0] * cos_c - m[:, 1] * sin_c
        m[:, 1] = m[:, 0] * sin_c + m[:, 1] * cos_c
        m[:, 0] = mx
    return out


def epg_reference(t1_ms, t2_ms, schedule, k_max=None):
    """Per-frame EPG loop over all retained orders, one fresh array per step.

    Same float32 arithmetic, in the same association, as
    ``epg.simulate_fingerprints``; returns complex64 (L, n).
    """
    t1 = np.asarray(t1_ms, dtype=np.float64)
    t2 = np.asarray(t2_ms, dtype=np.float64)
    n_frames = schedule.n_frames
    if k_max is None:
        k_max = min(n_frames, 100)
    n_orders = min(int(k_max), n_frames) + 1

    tr, te, tinv = schedule.tr_ms, schedule.te_ms, schedule.tinv_ms
    e1 = np.exp(-tr / t1).astype(np.float32)
    e2 = np.exp(-tr / t2).astype(np.float32)
    recovery = (1.0 - e1).astype(np.float32)
    echo = np.exp(-te / t2).astype(np.float32)
    z0 = (1.0 - 2.0 * np.exp(-tinv / t1)).astype(np.float32)

    p = np.zeros((n_orders, t1.size), dtype=np.float32)
    m = np.zeros((n_orders, t1.size), dtype=np.float32)
    z = np.zeros((n_orders, t1.size), dtype=np.float32)
    z[0] = z0
    signal = np.empty((n_frames, t1.size), dtype=np.float32)
    flips = np.deg2rad(schedule.flip_angles_deg)
    for t in range(n_frames):
        a = flips[t]
        ca2 = np.float32(math.cos(a / 2) ** 2)
        sa2 = np.float32(math.sin(a / 2) ** 2)
        sa = np.float32(math.sin(a))
        hsa = np.float32(0.5 * math.sin(a))
        ca = np.float32(math.cos(a))

        pn = ca2 * p + sa2 * m - sa * z
        mn = sa2 * p + ca2 * m + sa * z
        zn = hsa * p - hsa * m + ca * z
        p, m, z = pn, mn, zn
        signal[t] = p[0]

        p *= e2
        m *= e2
        z *= e1
        z[0] += recovery

        p[1:] = p[:-1]
        m[:-1] = m[1:]
        m[-1] = 0.0
        p[0] = -m[0]

    return (1j * signal * echo[None, :]).astype(np.complex64)


def atom_projections_reference(dictionary, basis, normalized):
    """``inference._atom_projections`` on the whole atom matrix: complex128
    coefficients (d, S) of the atoms, each unit-normalized first when
    normalized is set."""
    if not normalized:
        return project(dictionary.atoms.T.astype(np.complex128), basis)
    norms = np.linalg.norm(dictionary.atoms, axis=0, keepdims=True)
    norms[norms == 0] = 1.0
    return project((dictionary.atoms / norms).T, basis)


def training_set_reference(dictionary, basis, cfg):
    """``inference.make_training_set`` out of place: the clean projections
    repeated, the scaled noise added as a fresh complex array built from the
    real and imaginary halves of each (S, 2) block, and the aligned rows
    divided by norms computed here, not by the library's helper."""
    rng = np.random.default_rng(cfg.seed)
    aug = cfg.augment_factor
    coeffs = np.repeat(atom_projections_reference(dictionary, basis, normalized=True), aug, axis=0)
    if cfg.noise_sigma > 0:
        noise = cfg.noise_sigma * rng.standard_normal((coeffs.shape[0], basis.rank_s, 2))
        coeffs = coeffs + (noise[..., 0] + 1j * noise[..., 1])
    rows = phase_align(coeffs)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    targets = np.empty((coeffs.shape[0], 2), dtype=np.float32)
    targets[:, 0] = np.repeat(dictionary.t1_ms, aug)
    targets[:, 1] = np.repeat(dictionary.t2_ms, aug)
    return (rows / norms).astype(np.float32), targets


def training_set_lspace(dictionary, basis, cfg):
    """Training rows with the noise drawn in frame space: each unit-norm atom
    repeated augment_factor times, complex white noise on each of its L frames,
    then projected, phase-aligned and unit-normalized. The rows have the
    distribution of ``inference.make_training_set``'s, from another random
    stream; returns float64 (N, S)."""
    rng = np.random.default_rng(cfg.seed)
    norms = np.linalg.norm(dictionary.atoms, axis=0, keepdims=True)
    norms[norms == 0] = 1.0
    block = np.repeat((dictionary.atoms / norms).T.astype(np.complex128),
                      cfg.augment_factor, axis=0)
    noise = rng.normal(0.0, cfg.noise_sigma, (2,) + block.shape)
    block.real += noise[0]
    block.imag += noise[1]
    coeffs = phase_align(project(block, basis))
    return coeffs / np.linalg.norm(coeffs, axis=1, keepdims=True)


def loss_and_gradients_reference(net, x, targets_norm):
    """``MrfNet.loss_and_gradients`` on separate pre- and post-activation
    lists, out of place, with each ReLU's mask taken from its pre-activation
    where the library takes it from the rectified output. A layer between
    two hidden layers forms its weight gradient and the delta it sends back
    over the units of its output that some row of the batch activates,
    listed column by column from the pre-activations; its other gradient
    columns are zero. The output and first layers use every column."""
    pre, post = [], [x]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = post[-1] @ w + b
        pre.append(z)
        post.append(np.maximum(z, 0.0) if (i < last or net.output_relu) else z)
    diff = post[-1] - targets_norm
    loss = float(np.mean(diff**2))
    grad_ws = [None] * len(net.weights)
    grad_bs = [None] * len(net.biases)
    delta = (2.0 / diff.size) * diff
    if net.output_relu:
        delta = delta * (pre[last] > 0)
    every = slice(None)
    live = every  # the output layer uses every column
    for i in range(last, -1, -1):
        grad_ws[i] = np.zeros(net.weights[i].shape, net.weights[i].dtype)
        grad_ws[i][:, live] = post[i].T @ delta[:, live]
        grad_bs[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta[:, live] @ net.weights[i][:, live].T) * (pre[i - 1] > 0)
            if i == 1:
                live = every  # and so does the first layer
            else:
                live = [j for j in range(pre[i - 1].shape[1]) if np.any(pre[i - 1][:, j] > 0)]
    return loss, grad_ws, grad_bs


def train_reference(net, data, cfg, rates=None):
    """``inference.train`` with the momentum update out of place in the
    parameter dtype and the gradients from ``loss_and_gradients_reference``.
    rates lists each epoch's learning rate; by default the configured rate,
    then a tenth of it for the last ``cfg.epochs // 5`` epochs. Returns the
    trained net, the loss history and the final velocities (weights then
    biases)."""
    if rates is None:
        n_decayed = cfg.epochs // 5
        rates = ([cfg.learning_rate] * (cfg.epochs - n_decayed)
                 + [cfg.learning_rate / 10] * n_decayed)
    inputs, targets_ms = data
    net = net.copy()
    lo, hi = net._bounds()
    targets = ((targets_ms.astype(np.float64) - lo) / (hi - lo)).astype(inputs.dtype)
    rng = np.random.default_rng(cfg.seed + 1)
    vel_w = [np.zeros_like(w) for w in net.weights]
    vel_b = [np.zeros_like(b) for b in net.biases]
    history = []
    for epoch, lr in enumerate(rates):
        order = rng.permutation(inputs.shape[0])
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, inputs.shape[0], cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            loss, grad_ws, grad_bs = loss_and_gradients_reference(net, inputs[idx],
                                                                  targets[idx])
            if not math.isfinite(loss):
                raise FloatingPointError(f"training loss became non-finite at epoch {epoch}")
            for i in range(len(net.weights)):
                vel_w[i] = inference.MOMENTUM * vel_w[i] - lr * grad_ws[i]
                vel_b[i] = inference.MOMENTUM * vel_b[i] - lr * grad_bs[i]
                net.weights[i] += vel_w[i]
                net.biases[i] += vel_b[i]
            epoch_loss += loss
            n_batches += 1
        epoch_loss /= n_batches
        history.append(epoch_loss)
    return net, history, vel_w + vel_b


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


def _project_dual(p, q, variant):
    if variant == "isotropic":
        mag = np.sqrt(p**2 + q**2)
        scale = np.maximum(1.0, mag)
        return p / scale, q / scale
    return np.clip(p, -1.0, 1.0), np.clip(q, -1.0, 1.0)


def tv_prox_reference(img, tau, cfg, dual_init=None):
    """Fast gradient projection on the dual, one fresh array per step;
    ``tvprox.tv_prox`` must reproduce its result, dual, TV, iteration count
    and final gap bit for bit."""
    b = np.asarray(img, dtype=np.float64)
    if tau == 0:
        return b.copy(), np.zeros((2,) + b.shape), float(_tv(*_grad(b), cfg.variant)), 0, 0.0

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

    for iters in range(1, cfg.max_iters + 1):
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

    return u_p, np.stack([p, q]), tv, iters, float(gap)


def tv_objective(u, b, tau, variant):
    dy = np.zeros_like(u)
    dx = np.zeros_like(u)
    dy[:-1] = u[1:] - u[:-1]
    dx[:, :-1] = u[:, 1:] - u[:, :-1]
    if variant == "isotropic":
        tv = np.sqrt(dy**2 + dx**2).sum()
    else:
        tv = np.abs(dy).sum() + np.abs(dx).sum()
    return 0.5 * np.sum((u - b) ** 2) + tau * tv


def tv_prox_subgradient(b, tau, variant, iters=100_000):
    """Long-run subgradient descent on the prox objective.

    Polyak-type steps against a shrinking optimistic target; returns the best
    iterate and its objective value.
    """
    u = b.copy()
    best_f = np.inf
    best_u = u.copy()
    for k in range(1, iters + 1):
        dy = np.zeros_like(u)
        dx = np.zeros_like(u)
        dy[:-1] = u[1:] - u[:-1]
        dx[:, :-1] = u[:, 1:] - u[:, :-1]
        if variant == "isotropic":
            mag = np.sqrt(dy**2 + dx**2)
            f = 0.5 * np.sum((u - b) ** 2) + tau * mag.sum()
            mag[mag == 0] = 1.0
            gy, gx = dy / mag, dx / mag
        else:
            f = 0.5 * np.sum((u - b) ** 2) + tau * (np.abs(dy).sum() + np.abs(dx).sum())
            gy, gx = np.sign(dy), np.sign(dx)
        if f < best_f:
            best_f = f
            best_u = u.copy()
        g = -gy.copy()
        g[1:] += gy[:-1]
        g -= gx
        g[:, 1:] += gx[:, :-1]
        g = (u - b) + tau * g
        gnorm2 = np.sum(g * g)
        if gnorm2 == 0:
            break
        target = best_f - 50.0 / k**1.5
        u = u - max(f - target, 0.0) / gnorm2 * g
    return best_u, best_f


def match_full_space(series, atoms):
    """Maximum normalized inner-product match in the full fingerprint space.

    series: (n, L) complex rows; atoms: (L, d). Returns argmax indices.
    """
    norms = np.linalg.norm(atoms, axis=0)
    norms[norms == 0] = 1.0
    scores = np.abs(series.conj() @ atoms) / norms[None, :]
    return np.argmax(scores, axis=1)


def dictionary_match_reference(coeffs, dictionary, basis):
    """``inference.dictionary_match`` scoring 2048 voxels per block, 76 MB of
    scores against the default dictionary; returns (maps (n, 2), pd (n,))."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    proj = phase_align(project(dictionary.atoms.T.astype(np.complex128), basis))
    raw_norms = np.linalg.norm(proj, axis=1)
    raw_norms[raw_norms == 0] = 1.0
    table = (proj / raw_norms[:, None]).astype(np.float64)  # (d, S)

    fg, norms, rows = inference._foreground(coeffs)
    maps = np.zeros((coeffs.shape[0], 2))
    pd = np.zeros(coeffs.shape[0])
    best_idx = np.empty(rows.shape[0], dtype=np.int64)
    best_score = np.empty(rows.shape[0])
    for lo in range(0, rows.shape[0], 2048):
        hi = min(lo + 2048, rows.shape[0])
        scores = rows[lo:hi] @ table.T
        best_idx[lo:hi] = np.argmax(scores, axis=1)
        best_score[lo:hi] = scores[np.arange(lo, hi) - lo, best_idx[lo:hi]]

    maps[fg, 0] = dictionary.t1_ms[best_idx]
    maps[fg, 1] = dictionary.t2_ms[best_idx]
    pd[fg] = best_score * norms / raw_norms[best_idx]
    return maps, pd


def acquire_reference(cfg, gt_path, out_path):
    """``experiment.acquire`` with the k-space noise drawn as one (2, L, C, H,
    W) array, real parts then imaginary parts, and added in one expression."""
    gt = phantom.load_ground_truth(gt_path)
    h, w = gt.shape
    frames, seed = cfg["frames"], cfg["seed"]
    pattern = fm.make_vd_cartesian_masks(h, w, frames, cfg["accel"], seed)
    series = phantom.synthesize_timeseries(gt, experiment._schedule(cfg), k_max=cfg["k_max"])
    coils = fm.make_coil_maps(h, w, cfg["coils"], kind=cfg["coil_kind"])
    data = fm.apply_frames(series.T.reshape(frames, h, w).astype(np.complex128), coils, pattern)
    if cfg["kspace_noise"] > 0:
        rng = np.random.default_rng(seed + 1)
        noise = rng.normal(0.0, cfg["kspace_noise"], (2,) + data.y.shape)
        data.y += (noise[0] + 1j * noise[1]) * pattern.masks[:, None, :, :]
    fm.save_kspace(data, coils, out_path, seed=seed, accel=float(cfg["accel"]),
                   kspace_noise=cfg["kspace_noise"])


def simulate_fingerprint(t1_ms, t2_ms, schedule, k_max=None):
    """One fingerprint, shape (L,), from ``epg.simulate_fingerprints``."""
    return epg.simulate_fingerprints(
        np.array([t1_ms]), np.array([t2_ms]), schedule, k_max=k_max
    )[:, 0]


def learn_subspace_complex(atoms, rank):
    """v (L, rank) from a blocked complex Gram D D^H and a complex eigh."""
    n_frames, n_atoms = atoms.shape
    gram = np.zeros((n_frames, n_frames), dtype=np.complex128)
    for lo in range(0, n_atoms, 2048):
        block = atoms[:, lo : lo + 2048].astype(np.complex128)
        gram += block @ block.conj().T
    v = np.linalg.eigh(gram)[1][:, ::-1][:, :rank]
    ref = v[np.argmax(np.abs(v), axis=0), np.arange(rank)]
    return v * (np.abs(ref) / ref)[None, :]


def learn_subspace_stacked(atoms, rank):
    """(v, s_values) of ``subspace.learn_subspace`` from G = W W^T summed over
    2048-atom blocks, W the block's real and imaginary parts side by side."""
    n_frames, n_atoms = atoms.shape
    gram = np.zeros((n_frames, n_frames))
    for block in np.split(atoms, range(2048, n_atoms, 2048), axis=1):
        w = np.stack([block.real, block.imag], axis=2, dtype=np.float64).reshape(n_frames, -1)
        gram += w @ w.T
    eigvals, eigvecs = np.linalg.eigh(gram)
    s_values = np.sqrt(np.clip(eigvals[::-1][: min(n_frames, 2 * n_atoms)], 0.0, None))
    v = eigvecs[:, ::-1][:, :rank]
    ref = v[np.argmax(np.abs(v), axis=0), np.arange(rank)]
    return v * np.sign(ref), s_values


def expand(coeffs, basis):
    """Time series rows from subspace coefficients: x = c @ v^H."""
    c = np.asarray(coeffs)
    if c.shape[-1] != basis.rank_s:
        raise ValueError(f"coefficient width {c.shape[-1]} does not match rank {basis.rank_s}")
    return c @ basis.v.conj().T


def forward_frames(x, basis, coils, pattern):
    """A(x v^H) frame by frame: the L frame images x v^H, then the masked
    multi-coil FFT of ``forward_model.apply_frames``."""
    h, w = pattern.shape
    return fm.apply_frames(expand(x, basis).T.reshape(pattern.n_frames, h, w), coils, pattern)


def adjoint_frames(data, basis, coils, pattern):
    """A^H(y) v frame by frame: zero-filled inverse FFT of every frame and
    coil, conjugate coil combine, then each frame image times its row of v."""
    h, w = pattern.shape
    x = np.zeros((h * w, basis.rank_s), dtype=np.complex128)
    conj_sens = coils.sens.conj()
    for t in range(pattern.n_frames):
        imgs = np.fft.ifft2(data.y[t] * pattern.masks[t], norm="ortho", axes=(-2, -1))
        x += np.sum(conj_sens * imgs, axis=0).reshape(h * w, 1) @ basis.v[t : t + 1]
    return x


def _fidelity(x, y, basis, coils, pattern):
    resid = y.y - forward_frames(x, basis, coils, pattern).y
    return float(np.vdot(resid, resid).real)


def gradient(x, y, basis, coils, pattern, ahyv=None):
    """Subspace gradient A^H(A(x v^H)) v - A^H(y) v (no factor two)."""
    if ahyv is None:
        ahyv = adjoint_frames(y, basis, coils, pattern)
    ks = forward_frames(x, basis, coils, pattern)
    return adjoint_frames(ks, basis, coils, pattern) - ahyv


def backtrack_ok(z, x, grad, mu, y, basis, coils, pattern):
    """True when the step satisfies the quadratic majorization at step size mu.

    False exactly when ||y - A(z v^H)||^2 exceeds
    ||y - A(x v^H)||^2 + 2 Re<grad, z - x> + ||z - x||^2 / mu,
    i.e. when the step size must be halved.
    """
    diff = z - x
    rhs = (_fidelity(x, y, basis, coils, pattern) + 2.0 * float(np.vdot(grad, diff).real)
           + float(np.vdot(diff, diff).real) / mu)
    return not _fidelity(z, y, basis, coils, pattern) > rhs
