import json

import numpy as np
import pytest

from mrfkit import bundle


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

    def test_dtype_coercion(self, tmp_path):
        path = tmp_path / "c.mrfb"
        bundle.write_bundle(path, {
            "f": np.zeros(3, dtype=np.float64),
            "b": np.array([True, False]),
            "i": np.arange(3, dtype=np.int64),
        })
        arrays, _ = bundle.read_bundle(path)
        assert arrays["f"].dtype == np.float32
        assert arrays["b"].dtype == np.uint8
        assert arrays["i"].dtype == np.int32

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
