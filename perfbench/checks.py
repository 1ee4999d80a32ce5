"""Correctness checks for the benchmark's outputs.

Every check recomputes what it needs with numpy alone, or tests a property
the method must have; none compares against a stored copy of an earlier
run's output. A check raises CheckError with a one-line reason when it fails.
"""

import json
from contextlib import contextmanager

import numpy as np


class CheckError(AssertionError):
    """A workload output failed a correctness check."""


class CheckLog:
    """Runs checks under labels and keeps the failures. Any other exception
    raised under a label (a malformed output, say) is a failure too."""

    def __init__(self):
        self.passed = 0
        self.failures = []

    @contextmanager
    def __call__(self, label):
        try:
            yield
        except CheckError as exc:
            self.failures.append(f"{label}: {exc}")
        except Exception as exc:  # the output could not even be checked
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
        else:
            self.passed += 1


def _require(ok, message):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------- recon


def own_forward(x, v, sens, masks):
    """A(x v^H) without the library: frame images from the coefficient stack
    x (n, S) and basis v (L, S), coil weighting, unitary 2-D FFT, masking."""
    n_frames = v.shape[0]
    _, h, w = sens.shape
    frames = (x @ v.conj().T).T.reshape(n_frames, h, w)
    kspace = np.fft.fft2(sens[None] * frames[:, None], norm="ortho")
    return kspace * masks[:, None]


def own_tv(img):
    """Isotropic total variation with forward differences, zero at the last
    row and column."""
    dy = np.zeros_like(img)
    dx = np.zeros_like(img)
    dy[:-1] = img[1:] - img[:-1]
    dx[:, :-1] = img[:, 1:] - img[:, :-1]
    return float(np.sum(np.sqrt(dy**2 + dx**2)))


def own_objective(x, y, v, sens, masks, lam):
    """||y - A(x v^H)||^2 + lam * sum over channels of TV(real) + TV(imag)."""
    resid = y - own_forward(x, v, sens, masks)
    value = float(np.vdot(resid, resid).real)
    if lam > 0:
        h, w = sens.shape[1:]
        for s in range(x.shape[1]):
            channel = x[:, s].reshape(h, w)
            value += lam * (own_tv(channel.real) + own_tv(channel.imag))
    return value


def check_adjoint(forward, adjoint, x, y, tol=1e-10):
    """<A x, y> == <x, A^H y> to a relative tol for random x and y."""
    lhs = np.vdot(forward(x), y)
    rhs = np.vdot(x, adjoint(y))
    err = abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(y))
    _require(err < tol, f"adjoint identity off by {err:.2e} (tol {tol:.0e})")


def check_objective_below_data(x, y, v, sens, masks, lam, label):
    """A solve started from zero must end below the objective at zero, ||y||^2."""
    value = own_objective(x, y, v, sens, masks, lam)
    norm_y_sq = float(np.vdot(y, y).real)
    _require(
        np.isfinite(value) and value < norm_y_sq,
        f"{label}: objective {value:.6g} not below ||y||^2 = {norm_y_sq:.6g}",
    )


def nrmse(est, ref, mask):
    """RMSE over the mask, divided by the reference range over the mask."""
    err = est[mask] - ref[mask]
    span = float(ref[mask].max() - ref[mask].min())
    return float(np.sqrt(np.mean(err**2))) / span


def check_method_ordering(errors, label):
    """errors: {method: (t1_nrmse, t2_nrmse)}; LRTV < LR < BPI for both."""
    for i, param in enumerate(("T1", "T2")):
        bpi, lr, lrtv = errors["bpi"][i], errors["lr"][i], errors["lrtv"][i]
        _require(
            lrtv < lr < bpi,
            f"{label} {param} nrmse not ordered lrtv < lr < bpi: "
            f"{lrtv:.4f} / {lr:.4f} / {bpi:.4f}",
        )


def check_scores_agree(score, own_errors, tol=1e-9):
    """The program's scored NRMSE equals the benchmark's own computation."""
    for i, param in enumerate(("t1", "t2")):
        got = score[param]["nrmse"]
        _require(abs(got - own_errors[i]) <= tol * own_errors[i],
                 f"scored {param} nrmse {got!r} differs from recomputed {own_errors[i]!r}")


def check_maps_in_range(t1, t2, foreground, t1_range, t2_range, label):
    """All values finite; foreground inside the grid range; background either
    masked to zero or inside the range."""
    for name, values, (lo, hi) in (("T1", t1, t1_range), ("T2", t2, t2_range)):
        _require(np.all(np.isfinite(values)), f"{label} {name} map has non-finite values")
        inside = (values >= lo) & (values <= hi)
        _require(np.all(inside[foreground]), f"{label} {name} foreground outside [{lo}, {hi}]")
        _require(np.all(inside | (values == 0)), f"{label} {name} background outside [{lo}, {hi}]")


# ---------------------------------------------------------------- train


def own_clean_rows(atoms, v):
    """Unit-norm, phase-aligned subspace coefficients of every atom (columns
    of atoms), computed without the library."""
    a = atoms.T.astype(np.complex128)
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    coeffs = a @ v
    ref = coeffs[np.arange(coeffs.shape[0]), np.argmax(np.abs(coeffs), axis=1)]
    rows = (coeffs * (np.conj(ref) / np.abs(ref))[:, None]).real
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def check_training_rows(inputs, tol=1e-5):
    """Each row has unit norm and its largest-magnitude entry is positive."""
    rows = np.asarray(inputs, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1)
    worst = float(np.max(np.abs(norms - 1.0)))
    _require(worst <= tol, f"training rows not unit norm (worst |norm-1| {worst:.2e})")
    lead = rows[np.arange(rows.shape[0]), np.argmax(np.abs(rows), axis=1)]
    bad = int(np.sum(lead <= 0))
    _require(bad == 0, f"{bad} training rows have a non-positive largest entry")


def check_loss_history(history):
    """Finite per-epoch losses that end below where they started."""
    _require(len(history) >= 2, f"need at least two epochs, got {len(history)}")
    _require(all(np.isfinite(history)), "loss history has non-finite values")
    _require(history[-1] < history[0], f"loss rose from {history[0]:.4g} to {history[-1]:.4g}")


def check_match_labels(maps, t1_labels, t2_labels):
    """Matching every clean atom must return that atom's own label."""
    wrong = int(np.sum((maps[:, 0] != t1_labels) | (maps[:, 1] != t2_labels)))
    _require(wrong == 0, f"{wrong} of {len(t1_labels)} clean atoms matched another label")


def mae(pred, labels):
    return float(np.mean(np.abs(pred - labels)))


def check_beats_constant(pred, labels, ranges, factor=0.25):
    """The network's MAE is at most factor times that of predicting each
    parameter's mid-range value."""
    for i, name in enumerate(("T1", "T2")):
        lo, hi = ranges[i]
        net = mae(pred[:, i], labels[:, i])
        const = mae(np.full(len(labels), 0.5 * (lo + hi)), labels[:, i])
        _require(
            net <= factor * const,
            f"{name} MAE {net:.2f} ms not below {factor} x constant-predictor MAE {const:.2f} ms",
        )


def check_orthonormal(v, tol):
    err = float(np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))))
    _require(err < tol, f"basis columns not orthonormal: max |V^H V - I| = {err:.2e}")


# ---------------------------------------------------------------- dictionary


def read_mrfb(path):
    """Minimal .mrfb reader, independent of mrfkit.bundle: length-prefixed
    JSON header, then little-endian arrays at absolute offsets."""
    dtypes = {"float32": "<f4", "float64": "<f8", "complex64": "<c8", "complex128": "<c16",
              "uint8": "<u1", "int32": "<i4"}
    with open(path, "rb") as fh:
        raw = fh.read()
    header_len = int.from_bytes(raw[:8], "little")
    header = json.loads(raw[8 : 8 + header_len])
    arrays = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        arr = np.frombuffer(raw, dtype=dtypes[entry["dtype"]],
                            count=int(np.prod(shape)), offset=entry["offset"])
        arrays[entry["name"]] = arr.reshape(shape)
    return arrays, header["meta"]


def check_dictionary_layout(arrays, t1_values, t2_values, n_frames):
    """Atoms are (frames, n_t1 * n_t2) and labels list the grid T1-major."""
    n = len(t1_values) * len(t2_values)
    _require(arrays["atoms"].shape == (n_frames, n),
             f"atoms shape {arrays['atoms'].shape}, expected {(n_frames, n)}")
    t1, t2 = np.meshgrid(t1_values, t2_values, indexing="ij")
    for name, want in (("t1", t1.ravel()), ("t2", t2.ravel())):
        got = arrays[name]
        _require(got.shape == (n,), f"{name} labels shape {got.shape}, expected {(n,)}")
        _require(np.allclose(got, want, rtol=1e-6), f"{name} labels do not list the grid T1-major")


def check_against_oracle(atoms, references, tol=1e-2):
    """Columns of atoms agree with the reference signals (same layout) to a
    relative tol of each reference's peak."""
    for j in range(references.shape[1]):
        ref = references[:, j]
        dev = float(np.max(np.abs(atoms[:, j] - ref)) / np.max(np.abs(ref)))
        _require(dev < tol, f"atom {j} deviates {dev:.2e} from the Bloch oracle (tol {tol:.0e})")


def captured_energy(atoms, v, chunk=4096):
    """||V^H D||_F^2 / ||D||_F^2, accumulated over column chunks."""
    inside = total = 0.0
    for lo in range(0, atoms.shape[1], chunk):
        block = atoms[:, lo : lo + chunk].astype(np.complex128)
        inside += float(np.sum(np.abs(v.conj().T @ block) ** 2))
        total += float(np.sum(np.abs(block) ** 2))
    return inside / total


def check_energy(atoms, v, singular_values, minimum=0.99):
    """The basis captures at least `minimum` of the dictionary energy, and the
    stored singular values say the same to 1e-3."""
    direct = captured_energy(atoms, v)
    s2 = np.asarray(singular_values, dtype=np.float64) ** 2
    stored = float(s2[: v.shape[1]].sum() / s2.sum())
    _require(direct >= minimum, f"basis captures {direct:.6f} of the energy, need {minimum}")
    _require(abs(direct - stored) < 1e-3,
             f"captured energy {direct:.6f} disagrees with singular values {stored:.6f}")


def match_noisy_atoms(atoms, t1_labels, t2_labels, v, sigma, n_probe, rng, chunk=1024):
    """T1 and T2 NRMSE of matching noisy copies of n_probe atoms in the subspace.

    The probes are drawn without replacement; each, unit-normalized, gets
    complex white noise (sigma per component), is projected onto v and
    phase-aligned, then matched by maximum inner product against the clean
    table of every atom. Errors are normalized by the probes' label ranges.
    """
    n = atoms.shape[1]
    table = np.concatenate([own_clean_rows(atoms[:, lo : lo + chunk], v)
                            for lo in range(0, n, chunk)])
    probes = np.sort(rng.choice(n, min(n_probe, n), replace=False))
    best = np.empty(probes.size, dtype=np.int64)
    for lo in range(0, probes.size, chunk):
        block = atoms[:, probes[lo : lo + chunk]].astype(np.complex128)
        block /= np.linalg.norm(block, axis=0, keepdims=True)
        noise = rng.normal(0.0, sigma, (2,) + block.shape)
        rows = own_clean_rows(block + noise[0] + 1j * noise[1], v)
        best[lo : lo + chunk] = np.argmax(rows @ table.T, axis=1)
    t1 = np.asarray(t1_labels, dtype=np.float64)
    t2 = np.asarray(t2_labels, dtype=np.float64)
    everywhere = np.ones(probes.size, dtype=bool)
    return (nrmse(t1[best], t1[probes], everywhere),
            nrmse(t2[best], t2[probes], everywhere))
