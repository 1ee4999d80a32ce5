"""Self-describing binary container for named arrays.

Layout: a uint64 little-endian length prefix, a UTF-8 JSON header, then raw
little-endian row-major array payloads at 64-byte-aligned absolute offsets.
The header carries the magic string "MRFB1", one entry per array (name,
dtype, shape, offset) and an optional free-form metadata object. Each array
is stored in the dtype its saver gives it; loaders read each through
`_Fields.array`, which checks its dtype, its shape and that it is finite.

One payload of a bundle may go between memory and the file in pieces: the
writer takes a `Deferred` array, whose payload a callback writes into the
reserved file, and the reader can leave one array in the file as a `Stored`,
which reads it a block of columns at a time.
"""

import errno
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

MAGIC = "MRFB1"
ALIGNMENT = 64

# canonical on-disk dtypes, all little-endian
_DTYPES = {
    "float32": np.dtype("<f4"),
    "complex64": np.dtype("<c8"),
    "uint8": np.dtype("<u1"),
    "int32": np.dtype("<i4"),
}


class BundleError(Exception):
    """Base class for bundle I/O failures."""

    code = "bundle"


class HeaderError(BundleError):
    """Missing magic, unparseable JSON, or inconsistent header entries."""

    code = "corrupt-header"


class TruncatedError(BundleError):
    """Payload shorter than the header promises."""

    code = "truncated-payload"


class DtypeError(BundleError):
    """Array dtype not representable in the container."""

    code = "dtype-mismatch"


class _Fields(dict):
    """A bundle's arrays, or an object of its header, whose lookup of a
    missing key, and typed lookup of a value of the wrong type or shape or
    not finite, raise HeaderError naming the file and the key: a loader given
    a bundle without a field it needs, or with a malformed one, fails as a
    corrupt header. An array of another dtype than its saver writes raises
    DtypeError."""

    def __init__(self, path: str, what: str, items=()):
        super().__init__(items)
        self.path, self.what = path, what

    def __missing__(self, key):
        raise HeaderError(f"{self.path} has no {self.what} {key!r}")

    def fault(self, key, problem):
        """The HeaderError for a value of key that has the given problem."""
        return HeaderError(f"{self.path} {self.what} {key!r} {problem}")

    def typed(self, key, kind):
        """self[key], which must be a JSON value of kind bool, int, float (a
        finite number, integers included), str or dict (an object)."""
        value = self[key]
        if not _is_kind(value, kind):
            raise self.fault(key, f"must be {_KINDS[kind]}, got {value!r}")
        return value

    def numbers(self, key, count):
        """self[key], which must be a list of count finite numbers."""
        value = self[key]
        if not (isinstance(value, list) and len(value) == count
                and all(_is_kind(v, float) for v in value)):
            raise self.fault(key, f"must be a list of {count} finite numbers, got {value!r}")
        return value

    def array(self, name, shape, dtype, rerun=None):
        """self[name], which must be an array of the given on-disk dtype, such
        as "float32", and of the given shape, in which a length of None
        matches any nonzero length, and which, if floating, must hold no NaN
        or inf. A wrong dtype raises DtypeError, which names the command to
        rerun, if given, to write the file again."""
        value = self[name]
        if value.dtype != _DTYPES[dtype]:
            remedy = f"; rerun {rerun} to write it again" if rerun else ""
            raise DtypeError(f"{self.path} {self.what} {name!r} must be {dtype}, "
                             f"got {value.dtype.name}{remedy}")
        if len(value.shape) != len(shape) or any(n not in (None, m)
                                                 for n, m in zip(shape, value.shape)):
            dims = ", ".join("*" if n is None else str(n) for n in shape)
            comma = "," if len(shape) == 1 else ""
            raise self.fault(name, f"must have shape ({dims}{comma}), got {value.shape}")
        if 0 in value.shape:  # a stage has nothing to work on along an empty axis
            raise self.fault(name, f"has an axis of length 0, shape {value.shape}")
        # a Stored array checks each block as it is read
        return value if isinstance(value, Stored) else self.finite(name, value)

    def finite(self, name, value):
        """value, all or part of array name, which, if floating, must hold no
        NaN or inf."""
        if value.dtype.kind in "fc":
            # no stored entry can overflow this sum, so it is finite exactly
            # when every entry is, and it takes no array-sized temporary
            with np.errstate(invalid="ignore"):  # inf + -inf is NaN, rejected below
                total = value.sum(dtype=np.complex128 if value.dtype.kind == "c" else np.float64)
            if not np.isfinite(total):
                raise self.fault(name, "has non-finite entries (NaN or inf)")
        return value


@dataclass(frozen=True)
class Deferred:
    """An array that write_bundle lays out but does not hold: once the whole
    file is reserved and every other array written, fill(fd, offset) writes
    its payload, row-major, at offset in the open file."""

    shape: tuple
    dtype: np.dtype
    fill: Callable[[int, int], None]

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * self.dtype.itemsize


@dataclass(frozen=True)
class Stored:
    """An array that read_bundle left in the file, after checking that its
    payload is there; column_blocks reads a 2-D one. The dtype and shape are
    the array's, so _Fields.array checks them as it checks an ndarray."""

    fields: _Fields
    name: str
    offset: int
    shape: tuple
    dtype: np.dtype

    def column_blocks(self, bounds):
        """Yield columns lo .. hi - 1 of a 2-D array for each (lo, hi) of
        bounds in turn, each block read with one pread per row into one
        reused buffer, so a block is valid only until the next is read. Each
        block is checked finite as _Fields.array checks a whole array."""
        rows, cols = self.shape
        itemsize = self.dtype.itemsize
        buffer = np.empty((rows, max((hi - lo for lo, hi in bounds), default=0)), self.dtype)
        fd = os.open(self.fields.path, os.O_RDONLY)
        try:
            for lo, hi in bounds:
                block = buffer[:, : hi - lo]
                for t, row in enumerate(block):
                    if os.preadv(fd, [row], self.offset + (t * cols + lo) * itemsize) != row.nbytes:
                        raise TruncatedError(f"array {self.name!r}: file ended inside its payload")
                yield self.fields.finite(self.name, block)
        finally:
            os.close(fd)


_KINDS = {bool: "true or false", int: "an integer", float: "a finite number",
          str: "a string", dict: "an object"}


def _is_kind(value, kind) -> bool:
    """Whether a JSON value is of the kind _KINDS describes. JSON numbers are
    doubles, so an int or float must lie within double range."""
    if kind is bool or isinstance(value, bool):  # a bool is no number, a number no bool
        return type(value) is kind
    if kind in (int, float):
        return (isinstance(value, int if kind is int else (int, float))
                and abs(value) <= sys.float_info.max)
    return isinstance(value, kind)


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _byte_view(a: np.ndarray) -> memoryview:
    """Flat byte view of a C-contiguous array's own buffer (no copy)."""
    return memoryview(a.reshape(-1).view(np.uint8))


def write_columns(fd: int, offset: int, width: int, lo: int, block: np.ndarray) -> None:
    """Write block, (rows, n) with contiguous rows, as columns lo .. lo + n - 1
    of the row-major (rows, width) payload at offset of the open file fd, one
    pwrite per row. A short write, which on a regular file means the disk is
    full, raises OSError."""
    for t, row in enumerate(block):
        data = _byte_view(row)
        start = offset + (t * width + lo) * block.dtype.itemsize
        written = os.pwrite(fd, data, start)
        if written != len(data):
            raise OSError(errno.ENOSPC, f"short write: {written} of {len(data)} bytes at "
                                        f"offset {start}")


def loader(load):
    """Decorate a function that loads objects from the bundle at path and
    whose objects check their own values: a ValueError they raise on an
    impossible value, such as a schedule with tr_ms below te_ms, becomes a
    HeaderError naming the file, since the file is at fault."""

    @functools.wraps(load)
    def checked(path, *args, **kwargs):
        try:
            return load(path, *args, **kwargs)
        except ValueError as exc:
            raise HeaderError(f"{os.fspath(path)}: {exc}") from exc

    return checked


def write_bundle(path, arrays: dict, meta: dict | None = None) -> None:
    """Write named arrays plus metadata; round-trips bitwise through read_bundle.

    Each array is stored in the dtype it has, which must be float32,
    complex64, uint8 or int32 (little-endian); any other raises DtypeError.
    An array may be a Deferred, whose fill writes its payload after every
    other array is written. The whole file is reserved first, so a disk too
    small for it fails before any payload is written or made.
    """
    converted = {}
    for name, arr in arrays.items():
        if not isinstance(name, str) or not name:
            raise ValueError("array names must be non-empty strings")
        a = arr if isinstance(arr, Deferred) else np.ascontiguousarray(arr)
        if a.dtype not in _DTYPES.values():
            raise DtypeError(f"cannot store array {name!r} of dtype {a.dtype}")
        converted[name] = a

    # offsets depend on the header length, which depends on the offset digits;
    # iterate to a fixed point (grows monotonically, converges in a few passes)
    header_len = 0
    for _ in range(8):
        entries = []
        offset = _align(8 + header_len)
        for name, a in converted.items():
            offset = _align(offset)
            entries.append(
                {
                    "name": name,
                    "dtype": a.dtype.name,
                    "shape": list(a.shape),
                    "offset": offset,
                }
            )
            offset += a.nbytes
        header = {"magic": MAGIC, "arrays": entries, "meta": meta or {}}
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        if len(blob) == header_len:
            break
        header_len = len(blob)
    else:
        raise RuntimeError("header layout did not converge")

    # write beside the target and rename, so an interrupted write never
    # leaves a truncated bundle at path for the next stage to read; the
    # reserved file reads as zeros, which pad between the payloads
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            os.posix_fallocate(fh.fileno(), 0, offset)  # the end of the last payload
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            payloads = list(zip(entries, converted.values()))
            for entry, a in payloads:
                if not isinstance(a, Deferred):
                    fh.seek(entry["offset"])
                    fh.write(_byte_view(a))
            fh.flush()  # before a fill writes to the descriptor itself
            for entry, a in payloads:
                if isinstance(a, Deferred):
                    a.fill(fh.fileno(), entry["offset"])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_bundle(path, kind: str | None = None, defer: str | None = None) -> tuple[dict, dict]:
    """Read a bundle; returns (arrays, meta). Validates magic, offsets, shapes,
    and, when kind is given, that meta["kind"] names it.

    Every check runs on the header and the file size before any payload is
    read; each payload is then read straight into its own array, but that of
    the array named defer, if the bundle has it, which stays in the file as a
    Stored."""
    where = os.fspath(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 8:
            raise HeaderError("file too short for a length prefix")
        header_len = int.from_bytes(fh.read(8), "little")
        if 8 + header_len > size:
            raise HeaderError("header length exceeds file size")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"),
                                object_hook=lambda obj: _Fields(where, "header field", obj))
        except (UnicodeDecodeError, ValueError, RecursionError) as exc:
            raise HeaderError(f"unparseable header: {exc}") from exc
        if not isinstance(header, dict) or header.get("magic") != MAGIC:
            raise HeaderError("bad magic")

        entries = header.get("arrays")
        if not isinstance(entries, list):
            raise HeaderError("missing array table")
        spans = []
        for entry in entries:
            try:
                name = entry["name"]
                dtype_name = entry["dtype"]
                shape = tuple(entry["shape"])
                offset = entry["offset"]
            except TypeError as exc:
                raise HeaderError(f"malformed array entry: {exc}") from exc
            if not isinstance(name, str):
                raise HeaderError(f"array name {name!r} is not a string")
            if not all(_is_count(s) for s in shape + (offset,)):
                raise HeaderError(f"array {name!r}: shape and offset must be non-negative integers")
            if not isinstance(dtype_name, str) or dtype_name not in _DTYPES:
                raise DtypeError(f"unknown dtype {dtype_name!r}")
            dtype = _DTYPES[dtype_name]
            nbytes = math.prod(shape) * dtype.itemsize
            if offset < 8 + header_len or offset % ALIGNMENT:
                raise HeaderError(f"bad offset {offset} for array {name!r}")
            if offset + nbytes > size:
                raise TruncatedError(
                    f"array {name!r} needs bytes [{offset}, {offset + nbytes}) "
                    f"but the file has {size}"
                )
            spans.append((offset, offset + nbytes, name, shape, dtype))

        ordered = sorted(spans, key=lambda span: span[:2])
        for (_, end_a, name_a, *_), (start_b, _, name_b, *_) in zip(ordered, ordered[1:]):
            if start_b < end_a:
                raise HeaderError(f"overlapping payloads: {name_a!r} and {name_b!r}")

        meta = header.get("meta", _Fields(where, "header field"))
        if not isinstance(meta, dict):
            raise HeaderError("meta must be an object")
        if kind is not None and meta.get("kind") != kind:
            raise HeaderError(f"{where} holds a {meta.get('kind')!r} bundle, not {kind!r}")

        # the payloads do not overlap, so the arrays together fit in the file
        arrays = _Fields(where, "array")
        for offset, end, name, shape, dtype in spans:
            if name == defer:
                arrays[name] = Stored(arrays, name, offset, shape, dtype)
                continue
            try:
                arrays[name] = np.empty(shape, dtype=dtype)
            except ValueError as exc:  # an empty array with an unrepresentable shape
                raise HeaderError(f"array {name!r}: {exc}") from exc
            fh.seek(offset)
            if fh.readinto(_byte_view(arrays[name])) != end - offset:
                raise TruncatedError(f"array {name!r}: file ended inside its payload")
    return arrays, meta
