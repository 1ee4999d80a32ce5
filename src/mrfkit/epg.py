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
    T1-major order; the labels are those pairs."""

    atoms: np.ndarray  # complex64, (L, d)
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

    def normalized_atoms(self) -> np.ndarray:
        """L2-normalized copy of the atoms; raw atoms are kept as stored."""
        norms = np.linalg.norm(self.atoms, axis=0, keepdims=True)
        norms[norms == 0] = 1.0
        return self.atoms / norms


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

    Blocks of CHUNK_SIZE tissues are shared among up to one process per CPU
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
    t1 = np.asarray(t1_ms, dtype=np.float64)
    t2 = np.asarray(t2_ms, dtype=np.float64)
    if t1.shape != t2.shape or t1.ndim != 1:
        raise ValueError("t1_ms and t2_ms must be 1-D arrays of equal length")
    if not (np.all(np.isfinite(t1)) and np.all(np.isfinite(t2))):
        raise ValueError("tissue parameters must be finite")
    if np.any(t1 <= 0) or np.any(t2 <= 0):
        raise ValueError("tissue parameters must be positive")

    n_frames = schedule.n_frames
    if k_max is None:
        k_max = min(n_frames, DEFAULT_K_MAX)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n_orders = min(int(k_max), n_frames) + 1

    tr, te, tinv = schedule.tr_ms, schedule.te_ms, schedule.tinv_ms
    e1 = np.exp(-tr / t1).astype(np.float32)
    e2 = np.exp(-tr / t2).astype(np.float32)
    recovery = (1.0 - e1).astype(np.float32)
    echo = np.exp(-te / t2).astype(np.float32)
    z0 = (1.0 - 2.0 * np.exp(-tinv / t1)).astype(np.float32)

    coefficients = _flip_coefficients(schedule.flip_angles_deg)
    n_blocks = -(-t1.size // CHUNK_SIZE)
    workers = max(1, min(n_blocks, _worker_count()))
    if workers > 1:
        # one anonymous shared mapping: the forked workers write straight into it
        nbytes = n_frames * t1.size * np.dtype(np.complex64).itemsize
        out = np.frombuffer(mmap.mmap(-1, nbytes), np.complex64).reshape(n_frames, t1.size)
    else:
        out = np.empty((n_frames, t1.size), dtype=np.complex64)

    def run_share(k):
        """Simulate blocks k, k + workers, ... into out."""
        for lo in range(k * CHUNK_SIZE, t1.size, workers * CHUNK_SIZE):
            block = slice(lo, lo + CHUNK_SIZE)
            signal = np.empty((n_frames, e1[block].size), dtype=np.float32)
            _simulate_block(coefficients, n_orders, z0[block], e1[block], e2[block],
                            recovery[block], signal)
            np.multiply(1j * signal, echo[block], out=out[:, block])

    _run_forked(run_share, workers)
    return out


def _worker_count() -> int:
    """Processes the EPG may run at once: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _run_forked(run_share, workers: int) -> None:
    """Call run_share(k) for k = 0 .. workers-1, share 0 in this process and
    each other share in a forked child. Raises ChildProcessError when a child
    fails; no child outlives the call.

    A forked child has only the forking thread, so it must not need a lock
    that another thread (a BLAS worker, say) held at the fork: the children
    run numpy element-wise operations alone, no BLAS and no I/O.
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
    arrays, meta = bundle.read_bundle(path, kind="dictionary")
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
