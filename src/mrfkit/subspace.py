"""Temporal subspace learning from the dictionary SVD, plus projection helpers.

The basis holds the leading left singular vectors of the atom matrix. Time
series are treated as rows: coefficients are ``x @ v`` and the reconstruction
is ``coeffs @ v.conj().T``, so ``project(x) @ v.conj().T`` is the orthogonal
projection onto the model subspace.
"""

from dataclasses import dataclass

import numpy as np

from . import bundle
from .epg import Dictionary

# wide dictionaries go through the Gram matrix; below this ratio a direct SVD
# is just as fast and keeps full accuracy in the singular-value tail
_GRAM_WIDTH_RATIO = 32


@dataclass
class SubspaceBasis:
    """Orthonormal temporal basis: v (L, S) with the full singular spectrum."""

    v: np.ndarray  # complex, (L, S), orthonormal columns
    s_values: np.ndarray  # float, (min(L, d),), non-increasing
    rank_s: int

    @property
    def n_frames(self) -> int:
        return self.v.shape[0]

    def captured_energy(self) -> float:
        """Fraction of the dictionary's Frobenius energy inside the subspace."""
        total = float(np.sum(self.s_values**2))
        if total == 0:
            return 1.0
        return float(np.sum(self.s_values[: self.rank_s] ** 2)) / total


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    idx = np.argmax(np.abs(v), axis=0)
    ref = v[idx, np.arange(v.shape[1])]
    mag = np.abs(ref)
    phase = np.where(mag > 0, ref / np.where(mag > 0, mag, 1.0), 1.0)
    return v * phase.conj()[None, :]


def learn_subspace(dictionary, rank: int) -> SubspaceBasis:
    """Learn the rank-S temporal subspace from the dictionary SVD.

    Parameters
    ----------
    dictionary : Dictionary or ndarray
        Atom matrix of shape (L, d); a Dictionary's atoms are used directly.
    rank : int
        Number of leading left singular vectors to retain.
    """
    atoms = dictionary.atoms if isinstance(dictionary, Dictionary) else np.asarray(dictionary)
    if atoms.ndim != 2:
        raise ValueError("atom matrix must be 2-D")
    n_frames, n_atoms = atoms.shape
    if not 1 <= rank <= min(n_frames, n_atoms):
        raise ValueError(f"rank must be in [1, {min(n_frames, n_atoms)}]")

    if n_atoms >= _GRAM_WIDTH_RATIO * n_frames:
        # accumulate G = D D^H in chunks; eigenvectors of G are the left
        # singular vectors and its eigenvalues the squared singular values;
        # a 2048-atom complex128 block is 33 MB at 1000 frames
        gram = np.zeros((n_frames, n_frames), dtype=np.complex128)
        chunk = 2048
        for lo in range(0, n_atoms, chunk):
            block = atoms[:, lo : lo + chunk].astype(np.complex128)
            gram += block @ block.conj().T
        eigvals, eigvecs = np.linalg.eigh(gram)
        order = np.argsort(eigvals)[::-1]
        s_values = np.sqrt(np.clip(eigvals[order], 0.0, None))
        u = eigvecs[:, order]
    else:
        u, s_values, _ = np.linalg.svd(atoms.astype(np.complex128), full_matrices=False)

    v = _fix_column_phases(u[:, :rank])
    return SubspaceBasis(v=v, s_values=s_values.astype(np.float64), rank_s=int(rank))


def project(series: np.ndarray, basis: SubspaceBasis) -> np.ndarray:
    """Subspace coefficients of time series rows: c = x @ v."""
    x = np.asarray(series)
    if x.shape[-1] != basis.n_frames:
        raise ValueError(
            f"series length {x.shape[-1]} does not match basis frames {basis.n_frames}"
        )
    return x @ basis.v


def phase_align(coeffs: np.ndarray) -> np.ndarray:
    """Remove the global phase of coefficient vectors and keep the real part.

    Each row is rotated by the conjugate phase of its largest-magnitude entry
    (ties broken by lowest index), making that entry real positive. Zero rows
    map to zero.
    """
    c = np.asarray(coeffs)
    single = c.ndim == 1
    c2 = c[None, :] if single else c
    idx = np.argmax(np.abs(c2), axis=1)
    ref = c2[np.arange(c2.shape[0]), idx]
    mag = np.abs(ref)
    rot = np.where(mag > 0, np.conj(ref) / np.where(mag > 0, mag, 1.0), 1.0)
    out = (c2 * rot[:, None]).real
    return out[0] if single else out


def save_basis(basis: SubspaceBasis, path) -> None:
    bundle.write_bundle(
        path,
        {
            "v": basis.v.astype(np.complex64),
            "singular_values": basis.s_values.astype(np.float32),
        },
        meta={"kind": "basis", "rank": basis.rank_s},
    )


def load_basis(path) -> SubspaceBasis:
    arrays, meta = bundle.read_bundle(path, kind="basis")
    v = arrays.array("v", (None, None)).astype(np.complex128)
    rank = meta.typed("rank", int)
    if not 1 <= rank == v.shape[1]:
        raise meta.fault("rank", f"must equal the {v.shape[1]} columns of 'v' and be "
                                 f"at least 1, got {rank}")
    return SubspaceBasis(
        v=v,
        s_values=arrays.array("singular_values", (None,)).astype(np.float64),
        rank_s=rank,
    )
