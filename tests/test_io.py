"""On-disk formats: CSV columns, JSON determinism, snapshot round trip."""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sllbar.ensemble import EnsembleStats, Observable, run_ensemble
from sllbar.grid import Grid, constant_field, random_field
from sllbar.integrator import NORM_KEYS, SolverConfig, run_trajectory
from sllbar.io import (
    SnapshotFormatError,
    read_snapshot,
    write_ensemble_csv,
    write_observables_csv,
    write_report_json,
    write_snapshot,
    write_trajectory_csv,
)
from sllbar.model import ModelParams
from sllbar.noise import NoiseModel, build_noise_modes

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


def read_columns(path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), np.array([[float(x) for x in line.split(",")]
                                          for line in lines[1:]])


class TestEnsembleCsvs:
    OBS = (Observable("exp_neg_l2"), Observable("clip_norm", space="H1", cap=0.5))

    @pytest.fixture(scope="class")
    def stats(self):
        noise = build_noise_modes({"family": "eigenmode", "modes": [
            {"sigma": 0.2, "index": (1,), "direction": (1.0, 0.0, 0.0)}]}, G8)
        cfg = SolverConfig(dt=0.01, t_end=0.07, record_every=2, seed=4)
        return run_ensemble(constant_field(G8, (0.2, 0.0, 0.1)),
                            ModelParams(1.0, 1.0, 1.0, 1.0, 1.0), noise, cfg, 3,
                            observables=self.OBS)

    def test_ensemble_columns_are_the_stats(self, stats, tmp_path):
        write_ensemble_csv(stats, tmp_path / "e.csv")
        header, values = read_columns(tmp_path / "e.csv")
        assert header == ["t"] + [f"{s}_{k}" for k in NORM_KEYS for s in ("mean", "var")]
        assert len(values) == len(stats.times) == 5  # steps 0, 2, 4, 6, 7
        assert np.array_equal(values[:, 0], stats.times)
        for i, key in enumerate(NORM_KEYS):
            assert np.array_equal(values[:, 1 + 2 * i], stats.mean_norms[key])
            assert np.array_equal(values[:, 2 + 2 * i], stats.var_norms[key])

    def test_observable_columns_are_the_stats(self, stats, tmp_path):
        write_observables_csv(stats, tmp_path / "o.csv")
        header, values = read_columns(tmp_path / "o.csv")
        names = [psi.name for psi in self.OBS]
        assert header == ["t"] + [f"{s}_{n}" for n in names for s in ("mean", "se")]
        assert len(values) == len(stats.times)
        assert np.array_equal(values[:, 0], stats.times)
        for i, name in enumerate(names):
            assert np.array_equal(values[:, 1 + 2 * i], stats.mean_obs[name])
            assert np.array_equal(values[:, 2 + 2 * i], stats.se_obs[name])
        assert np.all(values[1:, 2] > 0.0)  # the noise spreads the paths

    def test_se_exactly_zero_where_paths_agree(self, tmp_path):
        # three copies of 0.1 average to 0.10000000000000002, so a plain
        # two-pass standard deviation would leave about 1e-17
        stats = EnsembleStats(np.array([0.0, 0.1]), np.array([0, 1]), {},
                              {"psi": np.array([[0.1, 0.2], [0.1, 0.5], [0.1, 0.7]])},
                              ["completed"] * 3, [0.1] * 3)
        write_observables_csv(stats, tmp_path / "o.csv")
        _, values = read_columns(tmp_path / "o.csv")
        assert values[0, 2] == 0.0
        assert values[1, 2] > 0.0


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
        write_snapshot(u, path, grid)
        v_grid, v = read_snapshot(path)
        assert np.array_equal(v, u)
        assert v_grid.modes == grid.modes
        assert v_grid.lengths == grid.lengths

    def test_zero_coefficients_round_trip(self, tmp_path):
        path = tmp_path / "zero.snap"
        write_snapshot(np.zeros((3, 8)), path, G8)
        _, v = read_snapshot(path)
        assert np.array_equal(v, np.zeros((3, 8)))

    def test_shape_off_the_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="expected"):
            write_snapshot(np.zeros((3, 9)), tmp_path / "bad.snap", G8)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_coefficient_rejected(self, value, tmp_path):
        path = tmp_path / "nan.snap"
        u = np.zeros((3, 8))
        u[1, 3] = value
        write_snapshot(u, path, G8)
        with pytest.raises(SnapshotFormatError, match="nonfinite"):
            read_snapshot(path)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "state.snap"
        write_snapshot(np.zeros((3, 8)), path, G8)
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
        write_snapshot(np.zeros((3, 8)), path, G8)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(SnapshotFormatError, match="trailing"):
            read_snapshot(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "trunc.snap"
        write_snapshot(np.zeros((3, 8)), path, G8)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "short.snap"
        path.write_bytes(b"SLLB\x01\x00\x00\x00\x01\x00")
        with pytest.raises(SnapshotFormatError, match="truncated header"):
            read_snapshot(path)

    def test_zero_mode_count_rejected(self, tmp_path):
        path = tmp_path / "empty.snap"
        path.write_bytes(b"SLLB" + struct.pack("<III", 1, 1, 0) + struct.pack("<d", 1.0))
        with pytest.raises(SnapshotFormatError, match="invalid grid"):
            read_snapshot(path)


@st.composite
def spectral_fields(draw):
    dim = draw(st.integers(1, 3))
    modes = tuple(draw(st.lists(st.integers(1, 5), min_size=dim, max_size=dim)))
    lengths = tuple(draw(st.lists(
        st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=dim, max_size=dim)))
    count = 3 * int(np.prod(modes))
    coeffs = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                           min_size=count, max_size=count))
    grid = Grid(dim, lengths, modes)
    return grid, np.array(coeffs).reshape((3, *modes))


@settings(max_examples=30, deadline=None)
@given(spectral_fields())
def test_snapshot_round_trip_and_prefixes(field):
    """Writing then reading is bitwise exact, and every strict prefix of the
    file is rejected as a format error."""
    grid, u = field
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.snap"
        write_snapshot(u, path, grid)
        v_grid, v = read_snapshot(path)
        assert v_grid == grid
        assert v.tobytes() == u.tobytes()
        raw = path.read_bytes()
        cut = Path(tmp) / "cut.snap"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(SnapshotFormatError):
                read_snapshot(cut)
