"""Extended Phase Graph simulation of FISP fingerprints and dictionary compilation.

The signal model is an inversion-prepared, gradient-spoiled FISP train: an
ideal 180° inversion, a recovery delay, then L instantaneous excitations with
a shared repetition time. Ideal crusher gradients advance the configuration
order by one per repetition; the acquired signal is the F0 state after each
pulse, decayed to the echo time.

All pulses share a fixed RF phase of zero, so the transverse configuration
states stay purely imaginary and the longitudinal states purely real for the
whole train. The simulator exploits this and propagates real-valued state
arrays; the physical factor i is reattached at readout.
"""

import math
import mmap
import os
from dataclasses import dataclass, field
from signal import SIGKILL

import numpy as np

from . import bundle

DEFAULT_K_MAX = 100
# atoms per simulation block: the state of one block stays in the L2 cache
CHUNK_SIZE = 512


@dataclass(frozen=True)
class SequenceSchedule:
    """Flip-angle train and fixed timings of an inversion-prepared FISP acquisition."""

    flip_angles_deg: np.ndarray
    tr_ms: float
    te_ms: float
    tinv_ms: float

    def __post_init__(self):
        flips = np.asarray(self.flip_angles_deg, dtype=np.float64)
        if flips.ndim != 1 or flips.size < 1:
            raise ValueError("'flip_angles_deg' must be a non-empty 1-D array")
        if not np.all((flips >= 0) & (flips <= 180)):  # NaN fails both
            raise ValueError("'flip_angles_deg' must lie in [0, 180] degrees")
        if not (self.tr_ms > self.te_ms > 0):
            raise ValueError(f"need 'tr_ms' > 'te_ms' > 0, got {self.tr_ms} and {self.te_ms}")
        if self.tinv_ms < 0:
            raise ValueError(f"'tinv_ms' must be >= 0, got {self.tinv_ms}")
        object.__setattr__(self, "flip_angles_deg", flips)

    @property
    def n_frames(self) -> int:
        return self.flip_angles_deg.size


@dataclass(frozen=True)
class GridRange:
    """Inclusive arithmetic range start, start+step, ..., stop."""

    start: float
    step: float
    stop: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.start, self.step, self.stop)):
            raise ValueError(
                f"grid range {self.start}:{self.step}:{self.stop} must be finite"
            )
        if self.step <= 0 or self.start <= 0 or self.stop < self.start:
            raise ValueError(f"grid range {self.start}:{self.step}:{self.stop} must be "
                             "positive with stop >= start")

    @property
    def count(self) -> int:
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count, dtype=np.float64)

    @classmethod
    def parse(cls, text: str) -> "GridRange":
        """Parse the CLI form ``start:step:stop``."""
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected start:step:stop, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        return cls(start, step, stop)


@dataclass(frozen=True)
class GridSpec:
    """Cartesian (T1, T2) grid generating a dictionary."""

    t1: GridRange
    t2: GridRange

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All grid pairs in T1-major, T2-minor order."""
        t1v, t2v = np.meshgrid(self.t1.values(), self.t2.values(), indexing="ij")
        return t1v.ravel(), t2v.ravel()


@dataclass
class Dictionary:
    """Simulated fingerprints, one column per pair of the grid in its
    T1-major order; the labels are those pairs. A loaded dictionary's atoms
    are a bundle.Stored, and write_dictionary saves one whose atoms are a
    bundle.Deferred: both have the atoms' shape."""

    atoms: np.ndarray  # complex64, (L, d), or a bundle.Stored
    schedule: SequenceSchedule
    grid_spec: GridSpec
    t1_ms: np.ndarray = field(init=False)  # float32, (d,)
    t2_ms: np.ndarray = field(init=False)  # float32, (d,)

    def __post_init__(self):
        n1, n2 = self.grid_spec.t1.count, self.grid_spec.t2.count
        if n1 * n2 != self.atoms.shape[1]:  # checked before pairs() allocates them
            raise ValueError(f"'grid' has {n1} x {n2} (T1, T2) pairs, but 'atoms' has "
                             f"{self.atoms.shape[1]} columns")
        self.t1_ms, self.t2_ms = (v.astype(np.float32) for v in self.grid_spec.pairs())

    @property
    def n_frames(self) -> int:
        return self.atoms.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[1]


def _block_bounds(n: int) -> list[tuple[int, int]]:
    """[lo, hi) of each block of n atoms, in order: CHUNK_SIZE atoms each,
    but a block of one atom would take numpy's matrix-vector product, which
    sums in another order, so a last single atom joins the block before it."""
    starts = list(range(0, n, CHUNK_SIZE))
    if len(starts) > 1 and starts[-1] == n - 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def atom_blocks(atoms):
    """Iterate over ((lo, hi), block) for the atoms' columns lo .. hi - 1 of
    each block of _block_bounds in turn. atoms is an (L, d) ndarray, whose
    blocks are views, or a bundle.Stored, whose blocks are read and checked
    finite one at a time into one buffer, each valid until the next is read."""
    bounds = _block_bounds(atoms.shape[1])
    if isinstance(atoms, bundle.Stored):
        return zip(bounds, atoms.column_blocks(bounds))
    return zip(bounds, (atoms[:, lo:hi] for lo, hi in bounds))


def default_schedule(
    n_frames: int,
    alpha_max_deg: float = 70.0,
    period: int = 250,
    tr_ms: float = 10.0,
    te_ms: float = 1.908,
    tinv_ms: float = 18.0,
) -> SequenceSchedule:
    """Inversion-prepared FISP schedule with rectified-sinusoid flip angles.

    Flip angle of repetition t (0-based) is ``alpha_max_deg * |sin(pi*t/period)|``.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    t = np.arange(n_frames, dtype=np.float64)
    flips = alpha_max_deg * np.abs(np.sin(np.pi * t / period))
    return SequenceSchedule(flips, tr_ms=tr_ms, te_ms=te_ms, tinv_ms=tinv_ms)


def _flip_coefficients(flip_angles_deg: np.ndarray) -> list[tuple]:
    """Per-frame RF mixing coefficients (cos²(a/2), sin²(a/2), sin a, ½ sin a, cos a)."""
    coefficients = []
    for a in np.deg2rad(flip_angles_deg):
        coefficients.append((
            np.float32(math.cos(a / 2) ** 2),
            np.float32(math.sin(a / 2) ** 2),
            np.float32(math.sin(a)),
            np.float32(0.5 * math.sin(a)),
            np.float32(math.cos(a)),
        ))
    return coefficients


def _simulate_block(coefficients, n_orders, z0, e1, e2, recovery, signal) -> None:
    """Run the pulse train for one block of atoms, writing F0 after each pulse
    into ``signal`` (L, n) float32. State is allocated per block, not per frame.

    Order k at frame t lives in row ``k + L - t`` of ``p`` and row ``k + t`` of
    ``m``, so the crusher shift moves no data: it only writes the new p[0].
    At frame t only orders ``k <= min(t, k_top, L - 1 - t)`` are updated:
    higher orders are still zero, or can no longer shift down to F0 before
    the train ends. Rows outside that window keep zeros or are never read.
    """
    n_frames, n = signal.shape
    k_top = n_orders - 1
    p = np.zeros((n_frames + 1, n), dtype=np.float32)
    m = np.zeros((n_frames, n), dtype=np.float32)
    z = np.zeros((n_orders, n), dtype=np.float32)
    z[0] = z0
    work = np.empty((3, n_orders, n), dtype=np.float32)

    for t, (ca2, sa2, sa, hsa, ca) in enumerate(coefficients):
        top = min(t, k_top, n_frames - 1 - t) + 1
        pt = p[n_frames - t : n_frames - t + top]
        mt = m[t : t + top]
        zt = z[:top]
        w1, w2, w3 = work[:, :top]

        # RF mixing at phase 0; states (p, m, z) stand for (F+/i, F-/i, Z).
        # Each new state is rounded as (a·p ± b·m) ± c·z, the order of the
        # plain per-frame loop (tests/oracles.py), so results match it bitwise.
        np.multiply(pt, hsa, out=w1)
        np.multiply(mt, hsa, out=w2)
        w1 -= w2
        np.multiply(zt, sa, out=w2)
        zt *= ca
        zt += w1
        np.multiply(mt, sa2, out=w1)
        np.multiply(pt, sa2, out=w3)
        pt *= ca2
        pt += w1
        pt -= w2
        mt *= ca2
        mt += w3
        mt += w2

        signal[t] = pt[0]

        # relaxation over the full repetition, recovery feeds order 0 only
        pt *= e2
        mt *= e2
        zt *= e1
        z[0] += recovery

        # ideal crusher: configuration order k -> k+1, new F+ order 0 is -F- order 1
        if t + 1 < n_frames:
            np.negative(m[t + 1], out=p[n_frames - t - 1])


def simulate_fingerprints(
    t1_ms: np.ndarray,
    t2_ms: np.ndarray,
    schedule: SequenceSchedule,
    k_max: int | None = None,
) -> np.ndarray:
    """Simulate fingerprints for arrays of tissues at once.

    The blocks of _block_bounds are shared among up to one process per CPU
    this process may run on; the output is the same for any number.

    Parameters
    ----------
    t1_ms, t2_ms : array_like, shape (n,)
        Relaxation times in milliseconds.
    schedule : SequenceSchedule
    k_max : int, optional
        Highest retained configuration order. Defaults to min(L, 100);
        orders above min(k_max, L) are truncated.

    Returns
    -------
    ndarray, complex64, shape (L, n)
        F0 signal at the echo time after each excitation.
    """
    t1, t2, n_orders = _tissues(t1_ms, t2_ms, schedule, k_max)
    workers = _share_count(t1.size)
    if workers > 1:
        # one anonymous shared mapping, zero-filled: the forked workers write
        # straight into it
        nbytes = schedule.n_frames * t1.size * np.dtype(np.complex64).itemsize
        out = np.frombuffer(mmap.mmap(-1, nbytes), np.complex64).reshape(schedule.n_frames,
                                                                         t1.size)
    else:
        out = np.zeros((schedule.n_frames, t1.size), dtype=np.complex64)

    def store(lo, atoms):
        out[:, lo : lo + atoms.shape[1]] = atoms

    _simulate(t1, t2, schedule, n_orders, workers, store)
    return out


def _tissues(t1_ms, t2_ms, schedule: SequenceSchedule, k_max) -> tuple:
    """simulate_fingerprints' arguments checked: float64 T1 and T2 arrays and
    the number of configuration orders kept."""
    t1 = np.asarray(t1_ms, dtype=np.float64)
    t2 = np.asarray(t2_ms, dtype=np.float64)
    if t1.shape != t2.shape or t1.ndim != 1:
        raise ValueError("t1_ms and t2_ms must be 1-D arrays of equal length")
    if not (np.all(np.isfinite(t1)) and np.all(np.isfinite(t2))):
        raise ValueError("tissue parameters must be finite")
    if np.any(t1 <= 0) or np.any(t2 <= 0):
        raise ValueError("tissue parameters must be positive")
    if k_max is None:
        k_max = min(schedule.n_frames, DEFAULT_K_MAX)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return t1, t2, min(int(k_max), schedule.n_frames) + 1


def _share_count(n_tissues: int) -> int:
    """Processes that simulate n tissues: one per block, at most _worker_count."""
    return max(1, min(len(_block_bounds(n_tissues)), _worker_count()))


def _simulate(t1, t2, schedule: SequenceSchedule, n_orders: int, workers: int, store) -> None:
    """Simulate the tissues of _tissues' checked arrays in the blocks of
    _block_bounds, shared among workers processes; each process calls
    store(lo, atoms) for each block it simulates, where lo is the block's
    first tissue and atoms its (L, n) complex64 atoms i * signal * echo, for
    the F0 magnitudes signal and the decays echo to the echo time. atoms is a
    view of one zero-filled buffer, so its real part is +0.0 and it is valid
    until the next call."""
    tr, te, tinv = schedule.tr_ms, schedule.te_ms, schedule.tinv_ms
    e1 = np.exp(-tr / t1).astype(np.float32)
    e2 = np.exp(-tr / t2).astype(np.float32)
    recovery = (1.0 - e1).astype(np.float32)
    echo = np.exp(-te / t2).astype(np.float32)
    z0 = (1.0 - 2.0 * np.exp(-tinv / t1)).astype(np.float32)
    coefficients = _flip_coefficients(schedule.flip_angles_deg)

    def run_share(k):
        """Simulate and store blocks k, k + workers, ..."""
        bounds = _block_bounds(t1.size)
        widest = max((hi - lo for lo, hi in bounds), default=0)
        buffer = np.zeros((schedule.n_frames, widest), dtype=np.complex64)
        for lo, hi in bounds[k::workers]:
            block = slice(lo, hi)
            signal = np.empty((schedule.n_frames, hi - lo), dtype=np.float32)
            _simulate_block(coefficients, n_orders, z0[block], e1[block], e2[block],
                            recovery[block], signal)
            atoms = buffer[:, : hi - lo]
            np.multiply(signal, echo[block], out=atoms.imag)
            store(lo, atoms)

    _run_forked(run_share, workers)


def _worker_count() -> int:
    """Processes the EPG may run at once: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _run_forked(run_share, workers: int) -> None:
    """Call run_share(k) for k = 0 .. workers-1, share 0 in this process and
    each other share in a forked child. Raises ChildProcessError when a child
    fails; no child outlives the call.

    A forked child has only the forking thread, so it must not need a lock
    that another thread (a BLAS worker, say) held at the fork: the children
    run numpy element-wise operations and os.pwrite calls on a descriptor
    they inherit, and nothing else: no BLAS and no buffered I/O, whose
    buffers the fork copied.
    """
    pids = []
    try:
        for k in range(1, workers):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    run_share(k)
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
        run_share(0)
        while pids:
            pid = pids[0]
            _, status = os.waitpid(pid, 0)
            pids.pop(0)
            if status != 0:
                raise ChildProcessError(f"EPG worker process {pid} failed with exit "
                                        f"status {os.waitstatus_to_exitcode(status)}")
    finally:
        for pid in pids:
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def build_dictionary(
    grid: GridSpec, schedule: SequenceSchedule, k_max: int | None = None
) -> Dictionary:
    """Simulate one atom per (T1, T2) grid pair, in the grid's T1-major order."""
    return Dictionary(simulate_fingerprints(*grid.pairs(), schedule, k_max=k_max), schedule, grid)


def write_dictionary(
    grid: GridSpec, schedule: SequenceSchedule, path, k_max: int | None = None
) -> tuple[int, int]:
    """save_dictionary(build_dictionary(grid, schedule, k_max), path), byte for
    byte, without holding the atoms: each process that simulates a block
    writes its rows into the reserved file. Returns the atoms' shape (L, d)."""
    t1, t2, n_orders = _tissues(*grid.pairs(), schedule, k_max)
    n_atoms = t1.size

    def fill(fd, offset):
        def store(lo, atoms):
            bundle.write_columns(fd, offset, n_atoms, lo, atoms)

        _simulate(t1, t2, schedule, n_orders, _share_count(n_atoms), store)

    atoms = bundle.Deferred((schedule.n_frames, n_atoms), np.dtype(np.complex64), fill)
    save_dictionary(Dictionary(atoms, schedule, grid), path)
    return atoms.shape


def save_dictionary(dictionary: Dictionary, path) -> None:
    s, g = dictionary.schedule, dictionary.grid_spec
    meta = {
        "kind": "dictionary",
        "tr_ms": s.tr_ms,
        "te_ms": s.te_ms,
        "tinv_ms": s.tinv_ms,
        "grid": {
            "t1": [g.t1.start, g.t1.step, g.t1.stop],
            "t2": [g.t2.start, g.t2.step, g.t2.stop],
        },
    }
    bundle.write_bundle(
        path,
        {
            "atoms": dictionary.atoms,
            # the labels follow from the grid, and load_dictionary reads them
            # from there; these two arrays are kept for readers of the file
            "t1": dictionary.t1_ms,
            "t2": dictionary.t2_ms,
            "flip_angles_deg": dictionary.schedule.flip_angles_deg.astype(np.float32),
        },
        meta=meta,
    )


@bundle.loader
def load_dictionary(path) -> Dictionary:
    """Read a dictionary bundle, all but its atoms, which stay in the file as
    a bundle.Stored: atom_blocks reads them and checks each block finite."""
    arrays, meta = bundle.read_bundle(path, kind="dictionary", defer="atoms")
    atoms = arrays.array("atoms", (None, None), "complex64")
    schedule = SequenceSchedule(
        arrays.array("flip_angles_deg", (atoms.shape[0],), "float32").astype(np.float64),
        tr_ms=float(meta.typed("tr_ms", float)),
        te_ms=float(meta.typed("te_ms", float)),
        tinv_ms=float(meta.typed("tinv_ms", float)),
    )
    grid = meta.typed("grid", dict)
    return Dictionary(atoms, schedule, GridSpec(t1=GridRange(*grid.numbers("t1", 3)),
                                                t2=GridRange(*grid.numbers("t2", 3))))
