import errno
import json
import os

import numpy as np
import pytest

from mrfkit import bundle, phantom, solver, subspace


def write_read(tmp_path, arrays, meta=None):
    path = tmp_path / "t.mrfb"
    bundle.write_bundle(path, arrays, meta=meta)
    return path, *bundle.read_bundle(path)


class TestRoundTrip:
    def test_complex_array_bitwise(self, tmp_path, rng):
        a = (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))).astype(np.complex64)
        _, arrays, _ = write_read(tmp_path, {"a": a})
        np.testing.assert_array_equal(arrays["a"], a)
        assert arrays["a"].dtype == np.complex64

    @pytest.mark.parametrize("dtype", ["float32", "complex64", "uint8", "int32"])
    @pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4), (2, 2, 3, 2)])
    def test_all_dtypes_and_ranks(self, tmp_path, rng, dtype, shape):
        if dtype == "complex64":
            a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
        elif dtype == "float32":
            a = rng.standard_normal(shape).astype(dtype)
        else:
            a = rng.integers(0, 100, shape).astype(dtype)
        _, arrays, _ = write_read(tmp_path, {"x": a})
        np.testing.assert_array_equal(arrays["x"], a)
        assert arrays["x"].dtype == np.dtype(dtype)

    def test_multiple_arrays_and_meta(self, tmp_path, rng):
        payload = {
            "first": rng.standard_normal((4, 4)).astype(np.float32),
            "second": rng.integers(0, 2, (3, 3)).astype(np.uint8),
        }
        meta = {"seed": 7, "note": "hello", "nested": {"x": [1, 2]}}
        _, arrays, got_meta = write_read(tmp_path, payload, meta)
        assert set(arrays) == {"first", "second"}
        assert got_meta == meta

    def test_empty_bundle(self, tmp_path):
        _, arrays, meta = write_read(tmp_path, {})
        assert arrays == {}
        assert meta == {}

    def test_arrays_are_independent(self, tmp_path, rng):
        _, arrays, _ = write_read(tmp_path, {
            "a": rng.standard_normal((6, 5)).astype(np.float32),
            "b": np.arange(7, dtype=np.int32),
            "empty": np.zeros((0, 3), dtype=np.complex64),
        })
        for a in arrays.values():
            assert a.flags.writeable and a.flags.c_contiguous and a.flags.owndata

    def test_write_is_deterministic(self, tmp_path, rng):
        a = rng.standard_normal((5, 5)).astype(np.float32)
        p1 = tmp_path / "a.mrfb"
        p2 = tmp_path / "b.mrfb"
        bundle.write_bundle(p1, {"a": a}, meta={"k": 1})
        bundle.write_bundle(p2, {"a": a}, meta={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("a", [np.zeros(3), np.array([True, False]), np.arange(3),
                                   np.zeros(3, ">f4")], ids=["float64", "bool", "int64", "big"])
    def test_no_implicit_cast(self, tmp_path, a):
        # the saver decides each array's dtype; the container casts nothing
        with pytest.raises(bundle.DtypeError, match=f"'a' of dtype {a.dtype}"):
            bundle.write_bundle(tmp_path / "c.mrfb", {"ok": np.zeros(2, np.float32), "a": a})
        assert list(tmp_path.iterdir()) == []

    def test_alignment(self, tmp_path, rng):
        path = tmp_path / "a.mrfb"
        bundle.write_bundle(path, {
            "a": rng.standard_normal(3).astype(np.float32),
            "b": rng.standard_normal(5).astype(np.float32),
        })
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[:8], "little")
        header = json.loads(raw[8 : 8 + header_len])
        for entry in header["arrays"]:
            assert entry["offset"] % 64 == 0


class TestFiniteArrays:
    """_Fields.array rejects a floating array with a NaN or inf entry."""

    @pytest.mark.parametrize("dtype,bad", [
        *(("float32", bad) for bad in ([np.nan], [np.inf], [-np.inf], [np.inf, -np.inf])),
        *(("complex64", bad) for bad in ([np.nan], [np.inf, -np.inf], [complex(0, np.nan)],
                                         [complex(0, np.inf), complex(0, -np.inf)])),
    ])
    def test_nonfinite_rejected(self, tmp_path, dtype, bad):
        a = np.zeros(6, dtype)
        a[: len(bad)] = bad
        path, arrays, _ = write_read(tmp_path, {"a": a})
        with pytest.raises(bundle.HeaderError,
                           match=f"{path} array 'a' has non-finite entries"):
            arrays.array("a", (6,), dtype)

    def test_extremes_accepted(self, tmp_path):
        # entries of the largest magnitude do not overflow the check's sum
        big = np.finfo(np.float32).max
        a = np.full((4, 1000), big, np.float32)
        _, arrays, _ = write_read(tmp_path, {"a": a, "c": (a - 1j * a).astype(np.complex64),
                                             "i": np.full(3, -1, np.int32)})
        assert arrays.array("a", (4, None), "float32") is arrays["a"]
        arrays.array("c", (4, 1000), "complex64")
        arrays.array("i", (3,), "int32")


def test_parent_layout_still_loads(tmp_path):
    """Bundles with a basis or reconstruction 'rank' field, or a ground-truth
    'labels' array, load with the extra field ignored."""
    rng = np.random.default_rng(3)
    v = np.linalg.qr(rng.standard_normal((12, 3)))[0].astype(np.float32)
    s = np.array([3.0, 2.0, 1.0], np.float32)
    bundle.write_bundle(tmp_path / "basis.mrfb", {"v": v, "singular_values": s},
                        meta={"kind": "basis", "rank": 3})
    basis = subspace.load_basis(tmp_path / "basis.mrfb")
    assert basis.rank_s == 3 and np.array_equal(basis.v, v) and np.array_equal(basis.s_values, s)

    x = (rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))).astype(np.complex64)
    bundle.write_bundle(tmp_path / "x.mrfb", {"x_subspace": x, "basis_v": v},
                        meta={"kind": "reconstruction", "rank": 3})
    loaded_x, loaded_basis, hw = solver.load_reconstruction(tmp_path / "x.mrfb")
    assert hw == (4, 5) and loaded_basis.rank_s == 3
    assert np.array_equal(loaded_x, x.reshape(3, 20).T)

    maps = {name: rng.uniform(1, 2, (4, 5)).astype(np.float32) for name in ("t1", "t2", "pd")}
    bundle.write_bundle(tmp_path / "gt.mrfb", {**maps, "labels": np.ones((4, 5), np.int32)},
                        meta={"kind": "ground-truth"})
    gt = phantom.load_ground_truth(tmp_path / "gt.mrfb")
    for name, a in maps.items():
        assert np.array_equal(getattr(gt, f"{name}_map"), a)


class TestErrors:
    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "t.mrfb"
        bundle.write_bundle(path, {"a": rng.standard_normal((64, 64)).astype(np.float32)})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(bundle.TruncatedError):
            bundle.read_bundle(path)
        # cut inside the second of two payloads
        bundle.write_bundle(path, {"a": np.arange(32, dtype=np.float32),
                                   "b": rng.standard_normal((16, 16)).astype(np.float32)})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 512])
        with pytest.raises(bundle.TruncatedError):
            bundle.read_bundle(path)

    def test_short_read_is_truncation(self, tmp_path, rng, monkeypatch):
        # a file that shrinks after its size was taken: the payload read comes up short
        path = tmp_path / "t.mrfb"
        bundle.write_bundle(path, {"a": rng.standard_normal(64).astype(np.float32)})
        size = path.stat().st_size
        fstat = bundle.os.fstat
        monkeypatch.setattr(bundle.os, "fstat", lambda fd: type("S", (), {
            "st_size": fstat(fd).st_size + 256}))
        path.write_bytes(path.read_bytes()[: size - 8])
        with pytest.raises(bundle.TruncatedError):
            bundle.read_bundle(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.mrfb"
        blob = json.dumps({"magic": "NOPE", "arrays": []}).encode()
        path.write_bytes(len(blob).to_bytes(8, "little") + blob)
        with pytest.raises(bundle.HeaderError):
            bundle.read_bundle(path)

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "t.mrfb"
        path.write_bytes((100).to_bytes(8, "little") + b"\xff" * 100)
        with pytest.raises(bundle.HeaderError):
            bundle.read_bundle(path)

    def test_short_file(self, tmp_path):
        path = tmp_path / "t.mrfb"
        path.write_bytes(b"abc")
        with pytest.raises(bundle.HeaderError):
            bundle.read_bundle(path)

    def test_header_longer_than_file(self, tmp_path):
        path = tmp_path / "t.mrfb"
        path.write_bytes((10**6).to_bytes(8, "little") + b"{}")
        with pytest.raises(bundle.HeaderError):
            bundle.read_bundle(path)

    def test_unknown_dtype_in_header(self, tmp_path):
        path = tmp_path / "t.mrfb"
        blob = json.dumps({
            "magic": "MRFB1",
            "arrays": [{"name": "a", "dtype": "float64", "shape": [1], "offset": 64}],
        }).encode()
        padded = len(blob).to_bytes(8, "little") + blob
        padded += b"\0" * (64 - len(padded)) + b"\0" * 8
        path.write_bytes(padded)
        with pytest.raises(bundle.DtypeError):
            bundle.read_bundle(path)

    def test_overlapping_offsets(self, tmp_path):
        path = tmp_path / "t.mrfb"
        blob = json.dumps({
            "magic": "MRFB1",
            "arrays": [
                {"name": "a", "dtype": "float32", "shape": [8], "offset": 64},
                {"name": "b", "dtype": "float32", "shape": [8], "offset": 64},
            ],
        }).encode()
        padded = len(blob).to_bytes(8, "little") + blob
        padded += b"\0" * (64 - len(padded)) + b"\0" * 64
        path.write_bytes(padded)
        with pytest.raises(bundle.HeaderError):
            bundle.read_bundle(path)

    def test_unstorable_dtype_rejected_on_write(self, tmp_path):
        with pytest.raises(bundle.DtypeError):
            bundle.write_bundle(tmp_path / "x.mrfb", {"s": np.array(["a", "b"])})

    def test_wrong_kind_is_header_error(self, tmp_path):
        path = tmp_path / "t.mrfb"
        bundle.write_bundle(path, {"a": np.zeros(2, dtype=np.float32)}, meta={"kind": "basis"})
        assert bundle.read_bundle(path, kind="basis")[1]["kind"] == "basis"
        with pytest.raises(bundle.HeaderError, match="'basis' bundle, not 'dictionary'"):
            bundle.read_bundle(path, kind="dictionary")

    def test_missing_field_is_header_error(self, tmp_path):
        meta = {"kind": "basis", "grid": {"t1": [1, 2]}}
        path, arrays, read_meta = write_read(tmp_path, {"a": np.zeros(2, dtype=np.float32)}, meta)
        assert read_meta == meta and read_meta.get("rank") is None and "rank" not in read_meta
        for mapping, key, what in ((arrays, "b", "array"), (read_meta, "rank", "header field"),
                                   (read_meta["grid"], "t2", "header field")):
            with pytest.raises(bundle.HeaderError, match=f"{path} has no {what} '{key}'"):
                mapping[key]

    def test_interrupted_write_keeps_previous_file(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "t.mrfb"
        bundle.write_bundle(path, {"a": np.arange(4, dtype=np.float32)})
        before = path.read_bytes()
        arrays = {name: rng.standard_normal(64).astype(np.float32) for name in ("a", "b")}
        second_payload = arrays["b"].tobytes()

        def failing_open(file, mode="r"):
            fh = open(file, mode)
            write = fh.write

            def fail_on_second_payload(data):
                if data == second_payload:
                    raise OSError("disk full")
                return write(data)

            fh.write = fail_on_second_payload
            return fh

        monkeypatch.setattr(bundle, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            bundle.write_bundle(path, arrays)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.mrfb"]

    def test_error_codes_distinct(self):
        assert bundle.HeaderError.code != bundle.TruncatedError.code != bundle.DtypeError.code


def write_raw_header(path, arrays_json: str):
    """A bundle whose header array table is the given JSON text, padded to
    the first aligned offset, with 64 zero payload bytes."""
    blob = ('{"magic":"MRFB1","arrays":' + arrays_json + "}").encode()
    raw = len(blob).to_bytes(8, "little") + blob
    raw += b"\0" * (bundle._align(len(raw)) - len(raw)) + b"\0" * 64
    path.write_bytes(raw)


def deferred(a, width):
    """a as a bundle.Deferred whose fill writes it width columns at a time."""
    def fill(fd, offset):
        for lo in range(0, a.shape[1], width):
            bundle.write_columns(fd, offset, a.shape[1], lo, a[:, lo : lo + width].copy())

    return bundle.Deferred(a.shape, a.dtype, fill)


class TestStreamedPayloads:
    """One payload may be written by a callback into the reserved file and
    read back a block of columns at a time."""

    @pytest.fixture
    def atoms(self, rng):
        return (rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))).astype(np.complex64)

    def test_deferred_matches_array(self, tmp_path, rng, atoms):
        labels = rng.standard_normal(7).astype(np.float32)
        whole, streamed = tmp_path / "whole.mrfb", tmp_path / "streamed.mrfb"
        bundle.write_bundle(whole, {"atoms": atoms, "t1": labels}, meta={"kind": "x"})
        bundle.write_bundle(streamed, {"atoms": deferred(atoms, 3), "t1": labels},
                            meta={"kind": "x"})
        assert streamed.read_bytes() == whole.read_bytes()

    def test_stored_reads_column_blocks(self, tmp_path, atoms):
        path = tmp_path / "t.mrfb"
        bundle.write_bundle(path, {"atoms": atoms, "b": np.arange(3, dtype=np.int32)})
        arrays, _ = bundle.read_bundle(path, defer="atoms")
        np.testing.assert_array_equal(arrays["b"], [0, 1, 2])
        stored = arrays.array("atoms", (5, None), "complex64")
        assert isinstance(stored, bundle.Stored) and stored.shape == (5, 7)
        blocks = [block.copy() for block in stored.column_blocks([(0, 3), (3, 6), (6, 7)])]
        assert [block.shape[1] for block in blocks] == [3, 3, 1]
        np.testing.assert_array_equal(np.concatenate(blocks, axis=1), atoms)
        with pytest.raises(bundle.DtypeError, match="'atoms' must be float32, got complex64"):
            arrays.array("atoms", (None, None), "float32")
        with pytest.raises(bundle.HeaderError, match=r"'atoms' must have shape \(4, \*\)"):
            arrays.array("atoms", (4, None), "complex64")

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_block_raises_when_read(self, tmp_path, atoms, bad):
        atoms[2, 6] = bad
        path = tmp_path / "t.mrfb"
        bundle.write_bundle(path, {"atoms": atoms})
        arrays, _ = bundle.read_bundle(path, defer="atoms")
        blocks = arrays.array("atoms", (None, None), "complex64").column_blocks(
            [(0, 3), (3, 6), (6, 7)])
        next(blocks), next(blocks)  # the first two blocks are finite
        with pytest.raises(bundle.HeaderError,
                           match=f"{path} array 'atoms' has non-finite entries"):
            next(blocks)

    def test_file_shortened_after_read_is_truncation(self, tmp_path, atoms):
        path = tmp_path / "t.mrfb"
        bundle.write_bundle(path, {"atoms": atoms})
        arrays, _ = bundle.read_bundle(path, defer="atoms")
        os.truncate(path, os.path.getsize(path) - 8)
        with pytest.raises(bundle.TruncatedError, match="'atoms': file ended inside"):
            list(arrays["atoms"].column_blocks([(0, 3), (3, 7)]))

    def test_short_write_raises(self, tmp_path, atoms, monkeypatch):
        path = tmp_path / "t.mrfb"
        bundle.write_bundle(path, {"a": np.arange(4, dtype=np.float32)})
        before = path.read_bytes()
        pwrite = os.pwrite
        monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: pwrite(fd, data[:-1], offset))
        with pytest.raises(OSError, match="short write: 23 of 24 bytes"):
            bundle.write_bundle(path, {"atoms": deferred(atoms, 3)})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.mrfb"]

    def test_full_disk_fails_before_any_payload(self, tmp_path, atoms, monkeypatch):
        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def fill(fd, offset):
            raise AssertionError("payload written on a full disk")

        monkeypatch.setattr(os, "posix_fallocate", full)
        with pytest.raises(OSError, match="No space left on device"):
            bundle.write_bundle(tmp_path / "t.mrfb",
                                {"atoms": bundle.Deferred(atoms.shape, atoms.dtype, fill)})
        assert list(tmp_path.iterdir()) == []


class TestCorruption:
    """Whatever the bytes, read_bundle raises only BundleError subclasses."""

    @pytest.mark.parametrize("arrays_json,error", [
        ('[{"name":"a","dtype":["float32"],"shape":[1],"offset":128}]', bundle.DtypeError),
        ('[{"name":["a"],"dtype":"float32","shape":[1],"offset":128}]', bundle.HeaderError),
        ('[{"name":"a","dtype":"float32","shape":[1e400],"offset":128}]', bundle.HeaderError),
        ('[{"name":"a","dtype":"float32","shape":[1.5],"offset":128}]', bundle.HeaderError),
        ('[{"name":"a","dtype":"float32","shape":[-1],"offset":128}]', bundle.HeaderError),
        ('[{"name":"a","dtype":"float32","shape":[1],"offset":"128"}]', bundle.HeaderError),
        ('[{"name":"a","dtype":"float32","shape":[0,1e30],"offset":128}]', bundle.HeaderError),
        ('[{"name":"a","dtype":"float32","shape":[0,' + "9" * 30 + '],"offset":128}]',
         bundle.HeaderError),
        ('[{"name":"a","dtype":"float32","shape":' + "1" * 5000 + ',"offset":128}]',
         bundle.HeaderError),
        ('[{"name":"a","dtype":"float32","shape":7,"offset":128}]', bundle.HeaderError),
        ('[{"name":"a","dtype":"float32","shape":[1]}]', bundle.HeaderError),
        ("[7]", bundle.HeaderError),
        ("[" * 100000 + "]" * 100000, bundle.HeaderError),
    ], ids=["dtype-list", "name-list", "shape-overflow", "shape-float", "shape-negative",
            "offset-string", "empty-huge-float", "empty-huge-int", "digits-limit",
            "shape-scalar", "entry-missing-key", "entry-not-object", "deep-nesting"])
    def test_crafted_headers(self, tmp_path, arrays_json, error):
        path = tmp_path / "t.mrfb"
        write_raw_header(path, arrays_json)
        with pytest.raises(error):
            bundle.read_bundle(path)

    def test_random_flips_and_truncations(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "t.mrfb"
        bundle.write_bundle(path, {
            "y": (rng.standard_normal((3, 2, 8, 8)) + 1j).astype(np.complex64),
            "masks": rng.integers(0, 2, (3, 8, 8)).astype(np.uint8),
            "count": np.arange(5, dtype=np.int32),
        }, meta={"kind": "kspace", "seed": 3, "accel": 2.0})
        original = path.read_bytes()
        header_end = 8 + int.from_bytes(original[:8], "little")
        outcomes = {"read": 0, "raised": 0}
        for trial in range(600):
            raw = bytearray(original)
            if trial % 3 == 0:
                raw = raw[: rng.integers(0, len(raw))]
            else:
                # most flips land in the prefix and header, where they matter
                end = header_end if trial % 3 == 1 else len(raw)
                for pos in rng.integers(0, end, rng.integers(1, 5)):
                    raw[pos] ^= 1 << int(rng.integers(0, 8))
            path.write_bytes(bytes(raw))
            try:
                bundle.read_bundle(path, kind="kspace")
                outcomes["read"] += 1
            except bundle.BundleError:
                outcomes["raised"] += 1
        assert outcomes["read"] > 0 and outcomes["raised"] > 0
