"""On-disk formats: CSV columns, JSON determinism, snapshot round trip."""

import json
import struct

import numpy as np
import pytest

from sllbar.grid import Grid, random_field, zero_field
from sllbar.integrator import SolverConfig, run_trajectory
from sllbar.io import (
    SnapshotFormatError,
    read_snapshot,
    write_report_json,
    write_snapshot,
    write_trajectory_csv,
)
from sllbar.model import ModelParams
from sllbar.noise import NoiseModel

G8 = Grid(1, (np.pi,), (8,))
RNG = np.random.default_rng(55)


def short_record():
    p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0)
    cfg = SolverConfig(dt=0.01, t_end=0.03, record_every=1)
    u0 = 0.2 * random_field(G8, np.random.default_rng(3))
    return run_trajectory(u0, p, NoiseModel.empty(G8), cfg)


class TestTrajectoryCsv:
    def test_header_and_row_count(self, tmp_path):
        rec = short_record()
        out = tmp_path / "traj.csv"
        write_trajectory_csv(rec, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,l2,l4,h1,h2,h3,grad_l2,theta_arg"
        assert len(lines) == 1 + 4  # header + samples at steps 0..3

    def test_bitwise_stable(self, tmp_path):
        rec = short_record()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(rec, a)
        write_trajectory_csv(short_record(), b)
        assert a.read_bytes() == b.read_bytes()


class TestReportJson:
    def test_sorted_and_stable(self, tmp_path):
        report = {"b": 1, "a": {"z": [1, 2], "y": 0.5}}
        f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report_json(report, f1)
        write_report_json({"a": {"y": 0.5, "z": [1, 2]}, "b": 1}, f2)
        assert f1.read_bytes() == f2.read_bytes()
        assert json.loads(f1.read_text()) == report


class TestSnapshot:
    @pytest.mark.parametrize("grid", [
        G8,
        Grid(2, (np.pi, 2.0), (5, 6)),
        Grid(3, (1.0, 1.5, 2.0), (3, 4, 2)),
    ])
    def test_round_trip_bitwise(self, grid, tmp_path):
        u = random_field(grid, RNG)
        path = tmp_path / "state.snap"
        write_snapshot(u, path)
        v = read_snapshot(path)
        assert np.array_equal(v.coeffs, u.coeffs)
        assert v.grid.modes == grid.modes
        assert v.grid.lengths == grid.lengths

    def test_zero_field_round_trip(self, tmp_path):
        path = tmp_path / "zero.snap"
        write_snapshot(zero_field(G8), path)
        v = read_snapshot(path)
        assert np.array_equal(v.coeffs, np.zeros((3, 8)))

    def test_header_layout(self, tmp_path):
        path = tmp_path / "state.snap"
        write_snapshot(zero_field(G8), path)
        raw = path.read_bytes()
        assert raw[:4] == b"SLLB"
        version, dim = struct.unpack("<II", raw[4:12])
        assert version == 1 and dim == 1
        (n,) = struct.unpack("<I", raw[12:16])
        (length,) = struct.unpack("<d", raw[16:24])
        assert n == 8 and length == pytest.approx(np.pi)
        assert len(raw) == 24 + 3 * 8 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.snap"
        write_snapshot(zero_field(G8), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(SnapshotFormatError, match="trailing"):
            read_snapshot(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "trunc.snap"
        write_snapshot(zero_field(G8), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)
