"""Temporal subspace learning by Gram eigendecomposition, plus projection helpers.

The basis holds the leading left singular vectors of the real L x 2d matrix
[Re D | Im D], the leading eigenvectors of the real Gram Re(D D^H). Every
simulated dictionary has RF phase 0, so its atoms are i times a real signal,
D D^H is real, and these are the leading left singular vectors of D itself.
Time series are treated as rows: coefficients are ``x @ v`` and the
reconstruction is ``coeffs @ v.T``, so ``project(x) @ v.T`` is the orthogonal
projection onto the model subspace.
"""

from dataclasses import dataclass

import numpy as np

from . import bundle, epg


@dataclass
class SubspaceBasis:
    """Orthonormal temporal basis: v (L, S) with the full singular spectrum.

    v is real, float64 in memory and float32 on disk; its width is the rank
    S. s_values are the singular values of [Re D | Im D], min(L, 2d) of them.
    """

    v: np.ndarray  # float64, (L, S), orthonormal columns
    s_values: np.ndarray  # float, non-increasing

    def __post_init__(self):
        if np.iscomplexobj(self.v):
            raise ValueError("basis v must be real")

    @property
    def n_frames(self) -> int:
        return self.v.shape[0]

    @property
    def rank_s(self) -> int:
        return self.v.shape[1]

    def captured_energy(self) -> float:
        """Fraction of the dictionary's Frobenius energy inside the subspace."""
        total = float(np.sum(self.s_values**2))
        if total == 0:
            return 1.0
        return float(np.sum(self.s_values[: self.rank_s] ** 2)) / total


def _fix_column_signs(v: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    ref = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return v * np.where(ref < 0, -1.0, 1.0)


def learn_subspace(dictionary, rank: int) -> SubspaceBasis:
    """Learn the rank-S temporal subspace from the eigenvectors of G = Re(D D^H).

    G = W W^T for the real L x 2d matrix W = [Re D | Im D]: its eigenvectors
    are the left singular vectors of W, and its eigenvalues their squares.
    Squared values under about 1e-8 of the largest are not resolved, but the
    leading vectors and the captured energy are.

    Parameters
    ----------
    dictionary : Dictionary, ndarray or bundle.Stored
        Atom matrix of shape (L, d); a Dictionary's atoms are used directly.
    rank : int
        Number of leading left singular vectors to retain.
    """
    gram, n_atoms = atom_gram(dictionary, rank)
    if not np.isfinite(gram).all():  # every non-finite atom entry reaches G
        raise ValueError("dictionary has non-finite atoms (NaN or inf)")
    n_frames = gram.shape[0]
    eigvals, eigvecs = np.linalg.eigh(gram)  # ascending
    s_values = np.sqrt(np.clip(eigvals[::-1][: min(n_frames, 2 * n_atoms)], 0.0, None))
    # eigh's vectors are Fortran-ordered; v is row-major, as a loaded basis is
    v = np.ascontiguousarray(_fix_column_signs(eigvecs[:, ::-1][:, :rank]))
    return SubspaceBasis(v=v, s_values=s_values)


def atom_gram(dictionary, rank: int) -> tuple[np.ndarray, int]:
    """G = Re(D D^H) = Re D Re D^T + Im D Im D^T, float64 (L, L), and the atom
    count d, from learn_subspace's arguments; the rank is checked first.

    G sums the blocks of epg.atom_blocks, one plane of one block in float64
    at a time, so beyond G this holds one (L, L) product and one block plane.
    A plane that is all zero, such as a simulated dictionary's real plane or
    a real array's imaginary plane, adds nothing and is skipped. Atoms left
    in their file (a bundle.Stored) are never held whole.
    """
    atoms = dictionary.atoms if isinstance(dictionary, epg.Dictionary) else dictionary
    if not isinstance(atoms, bundle.Stored):
        atoms = np.asarray(atoms)
    if len(atoms.shape) != 2:
        raise ValueError("atom matrix must be 2-D")
    n_frames, n_atoms = atoms.shape
    if not 1 <= rank <= min(n_frames, n_atoms):
        raise ValueError(f"rank must be in [1, {min(n_frames, n_atoms)}]")

    gram = np.zeros((n_frames, n_frames))
    product = np.empty_like(gram)
    with np.errstate(invalid="ignore"):  # an inf atom entry makes NaNs, rejected below
        for _, block in epg.atom_blocks(atoms):
            for plane in (block.real, block.imag):
                if plane.any():  # a NaN is nonzero, so it reaches G
                    w = plane.astype(np.float64)
                    np.matmul(w, w.T, out=product)  # one symmetric rank-k update
                    gram += product
                    del w  # before the next plane is converted
    return gram, n_atoms


def project(series: np.ndarray, basis: SubspaceBasis) -> np.ndarray:
    """Subspace coefficients of time series rows: c = x @ v."""
    x = np.asarray(series)
    if x.shape[-1] != basis.n_frames:
        raise ValueError(
            f"series length {x.shape[-1]} does not match basis frames {basis.n_frames}"
        )
    return x @ basis.v


def phase_align(coeffs: np.ndarray) -> np.ndarray:
    """Remove the global phase of coefficient rows (n, S) and keep the real part.

    Each row is rotated by the conjugate phase of its largest-magnitude entry
    (ties broken by lowest index), making that entry real positive. Zero rows
    map to zero.
    """
    c = np.asarray(coeffs)
    idx = np.argmax(np.abs(c), axis=1)
    ref = c[np.arange(c.shape[0]), idx]
    mag = np.abs(ref)
    rot = np.where(mag > 0, np.conj(ref) / np.where(mag > 0, mag, 1.0), 1.0)
    return (c * rot[:, None]).real


def save_basis(basis: SubspaceBasis, path) -> None:
    bundle.write_bundle(
        path,
        {
            "v": basis.v.astype(np.float32),
            "singular_values": basis.s_values.astype(np.float32),
        },
        meta={"kind": "basis"},
    )


def load_basis(path) -> SubspaceBasis:
    arrays, _ = bundle.read_bundle(path, kind="basis")
    v = arrays.array("v", (None, None), "float32", rerun="learn-subspace")
    return SubspaceBasis(
        v=v.astype(np.float64),
        s_values=arrays.array("singular_values", (None,), "float32").astype(np.float64),
    )
