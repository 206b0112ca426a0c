"""Binary snapshot format and atomic file writes."""

import os
import struct

import numpy as np
import pytest

from obflow.snapshots import (
    MAGIC,
    SnapshotFormatError,
    atomic_write_bytes,
    csv_text,
    json_text,
    read_snapshot,
    write_snapshot,
)


def sample_components(d, n, ncomp, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((ncomp,) + (n,) * d)


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        """Payloads survive a write/read cycle without any rounding."""
        for d, n, ncomp in ((2, 16, 5), (3, 8, 9), (2, 8, 1)):
            comps = sample_components(d, n, ncomp, seed=d * n)
            path = tmp_path / f"case_{d}_{n}.obsf"
            write_snapshot(path, d, n, comps)
            rd, rn, back = read_snapshot(path)
            assert (rd, rn) == (d, n)
            assert back.dtype == np.float64
            np.testing.assert_array_equal(back, comps)

    def test_idempotent_bytes(self, tmp_path):
        comps = sample_components(2, 16, 5, seed=3)
        a, b = tmp_path / "a.obsf", tmp_path / "b.obsf"
        write_snapshot(a, 2, 16, comps)
        write_snapshot(b, 2, 16, comps)
        assert a.read_bytes() == b.read_bytes()

    def test_header_layout(self, tmp_path):
        """Fixed little-endian header: magic, version, d, n, ncomp, flags."""
        comps = sample_components(2, 8, 3, seed=1)
        path = tmp_path / "h.obsf"
        write_snapshot(path, 2, 8, comps)
        raw = path.read_bytes()
        magic, version, d, n, ncomp, flags = struct.unpack_from("<4sIIIII", raw)
        assert magic == MAGIC
        assert (version, d, n, ncomp, flags) == (1, 2, 8, 3, 0)
        assert len(raw) == struct.calcsize("<4sIIIII") + 3 * 8 * 8 * 8


class TestValidation:
    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_snapshot(tmp_path / "x.obsf", 2, 16,
                           np.zeros((3, 16, 8)))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.obsf"
        write_snapshot(path, 2, 8, sample_components(2, 8, 1))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "x.obsf"
        write_snapshot(path, 2, 8, sample_components(2, 8, 1))
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 4, 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.obsf"
        write_snapshot(path, 2, 8, sample_components(2, 8, 2))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)


class TestAtomicWrites:
    def test_no_temp_files_left(self, tmp_path):
        write_snapshot(tmp_path / "x.obsf", 2, 8, sample_components(2, 8, 1))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.obsf"]

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "x.obsf"
        atomic_write_bytes(path, b"long old content that should vanish")
        atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"new"

    def test_failure_leaves_target_untouched(self, tmp_path):
        """An error mid-write must not clobber the existing file."""
        path = tmp_path / "x.obsf"
        atomic_write_bytes(path, b"original")

        class Exploding:
            def __bytes__(self):
                raise RuntimeError("boom")

        with pytest.raises(Exception):
            atomic_write_bytes(path, Exploding())
        assert path.read_bytes() == b"original"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.obsf"]

    def test_missing_directories_are_made(self, tmp_path):
        path = tmp_path / "a" / "b" / "x.obsf"
        atomic_write_bytes(path, b"payload")
        atomic_write_bytes(path, b"again")
        assert path.read_bytes() == b"again"
        assert sorted(p.name for p in path.parent.iterdir()) == ["x.obsf"]


class TestArtifactText:
    def test_csv_text_writes_strings_as_they_are_and_numbers_by_repr(self):
        """numpy 2 reprs a scalar as np.float64(...); the CSV text does not."""
        rows = [[np.float64(0.1), 2, "oscillatory"], [float("nan"), -1e-300, ""]]
        assert csv_text(["x", "n", "regime"], rows) == \
            "x,n,regime\n0.1,2.0,oscillatory\nnan,-1e-300,\n"

    def test_json_text_sorts_keys_and_ends_with_a_newline(self):
        assert json_text({"b": 1.5, "a": [1]}) == \
            '{\n  "a": [\n    1\n  ],\n  "b": 1.5\n}\n'
