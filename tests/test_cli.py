"""Tests for the command-line interface and report serialization."""

import contextlib
import errno
import io
import json
import math
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import canonical_json_reference as reference
from forward_reference import ideal_check_deviations
from spinqpt import cli
from spinqpt.blockade import format_sequences
from spinqpt.cli import canonical_json, main
from spinqpt.closed_form import chi_closed_form, fidelity_closed_form
from spinqpt.tomography import design_sequences


def run_cli(*argv):
    return main(list(argv))


_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1.0, -3.0, 1e16, 1e17, -1e17, 5e-324, -5e-324, 0.1, 2.0 ** 53, 1e300]),
    st.integers(-10 ** 18, 10 ** 18).map(float),
)
_float_rows = st.one_of(st.lists(_floats, min_size=1, max_size=5),
                        st.lists(_floats, min_size=1, max_size=5).map(tuple))
_mixed_rows = st.lists(st.one_of(_floats, _floats.map(np.float64), st.integers(-99, 99), st.booleans()),
                       max_size=5)
_json_values = st.recursive(
    st.one_of(_floats, _floats.map(np.float64), st.integers(), st.booleans(), st.none(),
              st.text(max_size=3), _float_rows, _mixed_rows, st.lists(_float_rows, max_size=4)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
    ),
    max_leaves=24,
)
_float_tables = st.tuples(st.integers(1, 20), st.integers(1, 16)).flatmap(
    lambda shape: st.lists(_floats, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    .map(lambda values: np.array(values).reshape(shape)))


class TestCanonicalJson:
    def test_floats_round_trip(self):
        values = [0.1, 1 / 3, 1e-17, 123456.789, -0.0625, 2.0]
        text = canonical_json({"v": values})
        parsed = json.loads(text)
        assert parsed["v"] == values

    def test_keys_sorted(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("shape", ["row", "tuple-row", "rows", "tuple-rows", "array"])
    def test_rejects_non_finite_anywhere_in_a_row(self, bad, position, shape):
        row = [0.5, 2.0, 1e17]
        row[position] = bad
        value = {"row": row, "tuple-row": tuple(row), "rows": [[0.25, 1.0, 3.5], row],
                 "tuple-rows": ((0.25, 1.0, 3.5), tuple(row)),
                 "array": np.array([[0.25, 1.0, 3.5], row])}[shape]
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json({"v": value})

    @given(_json_values)
    def test_same_text_as_the_recursive_reference(self, value):
        assert canonical_json(value) == reference.canonical_json(value)

    @given(_float_tables)
    def test_float64_table_same_text_as_its_list(self, table):
        expected = reference.canonical_json(table.tolist())
        assert canonical_json(table) == expected
        assert canonical_json(np.asfortranarray(table)) == expected
        assert canonical_json({"t": table}) == reference.canonical_json({"t": table.tolist()})

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_float64_table_same_text_as_its_list(self, shape):
        table = np.zeros(shape)
        assert canonical_json({"t": table}) == reference.canonical_json({"t": table.tolist()})

    @pytest.mark.parametrize("array", [
        np.ones((2, 2), dtype=int), np.ones((2, 2), dtype=bool), np.ones((2, 2), dtype=complex),
        np.ones((2, 2), dtype=np.float32), np.ones(3), np.ones((2, 2, 2)), np.array(1.0),
    ], ids=["int", "bool", "complex", "float32", "1-D", "3-D", "0-D"])
    def test_rejects_other_arrays(self, array):
        with pytest.raises(TypeError):
            canonical_json({"v": array})


_grid_r = st.lists(st.one_of(_floats, st.sampled_from([0.0, 1.0, 5e-324, 1e-310, 1e-05, 0.6, 0.8])),
                  min_size=2, max_size=40)
_grid_gdtau = st.lists(st.one_of(st.sampled_from([0.0, 0.1, 1.0, 1e300]), st.floats(0.0, 1e300)),
                       min_size=1, max_size=8)
_sweep_grids = st.tuples(_grid_r, _grid_gdtau).flatmap(
    lambda rg: st.lists(_floats, min_size=len(rg[0]) * len(rg[1]), max_size=len(rg[0]) * len(rg[1]))
    .map(lambda f: cli.SweepGrid(np.array(rg[0]), np.array(rg[1]), np.array(f).reshape(len(rg[1]), -1))))


def _materialized_rows(grid):
    """The (len(gdtau) * len(r), 3) table the grid stands for, one column_stack per gdtau block."""
    return np.concatenate([np.column_stack((grid.r, np.full_like(grid.r, g), f))
                           for g, f in zip(grid.gdtau, grid.f)])


def _reference_csv(rows):
    """The CSV payload as one "%.12g" format over the whole materialized table."""
    table_format = "\n".join([",".join(["%.12g"] * rows.shape[1])] * len(rows))
    return f"r,gdtau,F\n{table_format % tuple(rows.ravel().tolist())}\n"


def _csv_payload(grid):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.write_report({"columns": ["r", "gdtau", "F"], "rows": grid}, None, "csv")
    return out.getvalue()


#: The grid writer's size constant for each of its two paths: "%" below the default, the array
#: kernel at any size.
_GRID_PATHS = (cli._ARRAY_GRID_MIN, 0)


class TestSweepGrid:
    """The sweep's rows are written from their grid with the bytes of the materialized table,
    through either path."""

    @given(_sweep_grids)
    def test_json_same_text_as_the_materialized_rows(self, grid):
        rows = _materialized_rows(grid).tolist()
        for array_min in _GRID_PATHS:
            with mock.patch.object(cli, "_ARRAY_GRID_MIN", array_min):
                assert canonical_json(grid) == reference.canonical_json(rows)
                assert canonical_json({"rows": grid}) == reference.canonical_json({"rows": rows})

    @given(_sweep_grids)
    def test_csv_same_text_as_one_format_over_the_table(self, grid):
        for array_min in _GRID_PATHS:
            with mock.patch.object(cli, "_ARRAY_GRID_MIN", array_min):
                assert _csv_payload(grid) == _reference_csv(_materialized_rows(grid))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [(0, 0), (1, 2), (1, 4)])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_rejects_non_finite_f(self, tmp_path, bad, position, fmt):
        # Every piece is built before the file is opened: a refused report creates no file, leaves
        # an existing one as it was and writes nothing to stdout.
        f = np.full((2, 5), 0.5)
        f[position] = bad
        grid = cli.SweepGrid(np.linspace(0.0, 1.0, 5), np.array([0.0, 0.1]), f)
        new, existing = tmp_path / "new", tmp_path / "existing"
        existing.write_bytes(b"an earlier report\n")
        for array_min in _GRID_PATHS:
            for path in (None, new, existing):
                stdout = io.StringIO()
                with mock.patch.object(cli, "_ARRAY_GRID_MIN", array_min), contextlib.redirect_stdout(stdout), \
                        pytest.raises(ValueError, match="non-finite"):
                    cli.write_report({"columns": ["r", "gdtau", "F"], "rows": grid},
                                     None if path is None else str(path), fmt)
                assert stdout.getvalue() == ""
            assert not new.exists() and existing.read_bytes() == b"an earlier report\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("cells", [cli._ARRAY_GRID_MIN - 2, cli._ARRAY_GRID_MIN])
    def test_the_size_constant_picks_the_path(self, monkeypatch, fmt, cells):
        from spinqpt import _decimal

        calls = []
        grid_rows = _decimal.grid_rows
        monkeypatch.setattr(_decimal, "grid_rows", lambda *args: calls.append(args) or grid_rows(*args))
        r = np.linspace(0.0, 1.0, cells // 2)
        grid = cli.SweepGrid(r, np.array([0.0, 0.1]), np.array([fidelity_closed_form(r, g) for g in (0.0, 0.1)]))
        text = _csv_payload(grid) if fmt == "csv" else canonical_json(grid)
        assert bool(calls) == (cells >= cli._ARRAY_GRID_MIN)
        rows = _materialized_rows(grid)
        assert text == (_reference_csv(rows) if fmt == "csv" else reference.canonical_json(rows.tolist()))


class TestIdealCheck:
    def test_passes_and_reports(self, tmp_path):
        out = tmp_path / "check.json"
        assert run_cli("ideal-check", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["max_deviation"] < 1e-12
        names = [c["name"] for c in report["checks"]]
        assert names == ["cnot_synthesis_vs_target", "term_isolation_identity"]

    def test_injected_error_fails(self, tmp_path):
        out = tmp_path / "bad.json"
        assert run_cli("ideal-check", "--inject-angle-error", "--out", str(out)) == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False

    @pytest.mark.parametrize("samples", [1, 20])
    def test_only_the_reference_side_solves_eigenproblems(self, tmp_path, monkeypatch, samples):
        # The gate constructors are written in closed form; the eigh-based
        # evolve_unitary reference runs once per block of samples.
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kw: calls.append(1) or eigh(*args, **kw))
        assert run_cli("ideal-check", "--samples", str(samples), "--out", str(tmp_path / "check.json")) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("samples", [1, 20, cli.IDEAL_CHECK_BLOCK, cli.IDEAL_CHECK_BLOCK + 1])
    @pytest.mark.parametrize("seed", [0, 5, 123])
    def test_batched_check_equals_the_per_sample_loop(self, tmp_path, seed, samples):
        for inject in (False, True):
            out = tmp_path / "check.json"
            argv = ["ideal-check", "--seed", str(seed), "--samples", str(samples), "--out", str(out)]
            run_cli(*argv, *(["--inject-angle-error"] if inject else []))
            report = json.loads(out.read_text())
            assert (report["checks"], report["max_deviation"]) == ideal_check_deviations(seed, samples, inject)

    def test_memory_stays_bounded_at_many_samples(self, tmp_path):
        # Stacking 200k samples would take about 51 MB per (n, 4, 4) complex array.
        tracemalloc.start()
        try:
            assert run_cli("ideal-check", "--samples", "200000", "--out", str(tmp_path / "check.json")) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestQptCommand:
    def test_closed_form_matches_module(self, tmp_path):
        out = tmp_path / "chi.json"
        assert run_cli("qpt", "--r", "0.8", "--gdtau", "0", "--method", "closed-form",
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert set(report) == {
            "params", "ordering", "chi_real", "chi_imag", "fidelity",
            "hermiticity_defect", "deviations", "seed", "method",
        }
        chi = np.array(report["chi_real"]) + 1j * np.array(report["chi_imag"])
        np.testing.assert_allclose(chi, chi_closed_form(0.8, 0.0).chi, atol=1e-15)
        assert report["fidelity"] == pytest.approx(0.7225, abs=1e-12)
        assert len(report["ordering"]) == 16

    def test_pipeline_ideal_point(self, tmp_path):
        out = tmp_path / "chi.json"
        assert run_cli("qpt", "--r", "1", "--gdtau", "0", "--method", "pipeline",
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_all_methods_report_deviations(self, tmp_path):
        out = tmp_path / "all.json"
        assert run_cli("qpt", "--r", "0.6", "--gdtau", "0", "--method", "all",
                       "--samples", "2000", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        dev = report["deviations"]
        assert dev["expected_discrepancy_caveat"] is False   # readout noise alone opens no gap
        assert dev["pipeline_vs_closed_form"] < 1e-10  # exact agreement at gdtau = 0
        # Nothing is sampled at gdtau = 0: Monte Carlo is the pipeline up to rounding.
        assert dev["montecarlo_vs_pipeline"] < 1e-12
        assert dev["montecarlo_max_abs_z"] == 0.0
        assert report["params"]["mc_samples"] == 2000
        assert run_cli("qpt", "--r", "0.6", "--gdtau", "0.1", "--method", "all",
                       "--samples", "200", "--out", str(out)) == 0
        assert json.loads(out.read_text())["deviations"]["expected_discrepancy_caveat"] is True

    @pytest.mark.parametrize("method", ["pipeline", "closed-form"])
    def test_sample_count_only_in_monte_carlo_reports(self, tmp_path, method):
        out = tmp_path / "chi.json"
        assert run_cli("qpt", "--method", method, "--samples", "300", "--out", str(out)) == 0
        assert json.loads(out.read_text())["params"] == {"r": 1.0, "gdtau": 0.0}
        assert run_cli("qpt", "--method", "montecarlo", "--samples", "300", "--out", str(out)) == 0
        assert json.loads(out.read_text())["params"]["mc_samples"] == 300

    def test_all_methods_report_monte_carlo_z(self, tmp_path):
        # The largest |chi_mc - chi_pipeline| / stderr over the sampled entries.
        from spinqpt.dynamics import NoiseParams
        from spinqpt.tomography import run_qpt

        out = tmp_path / "all.json"
        assert run_cli("qpt", "--r", "0.7", "--gdtau", "0.2", "--method", "all",
                       "--samples", "400", "--seed", "4", "--out", str(out)) == 0
        z = json.loads(out.read_text())["deviations"]["montecarlo_max_abs_z"]
        noise = NoiseParams(r=0.7, gdtau=0.2)
        mc = run_qpt(noise, method="monte_carlo", mc_samples=400, seed=4)
        pipe = run_qpt(noise, method="pipeline")
        sampled = mc.stderr > 1e-12
        assert sampled.any()
        assert z == np.max(np.abs(mc.chi - pipe.chi)[sampled] / mc.stderr[sampled])
        assert z < 5.0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["qpt", "--r", "0.7", "--gdtau", "0.1", "--method", "all",
                "--samples", "1500", "--seed", "9"]
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_custom_design_file(self, tmp_path):
        from spinqpt.blockade import format_sequences
        from spinqpt.tomography import design_sequences

        design_path = tmp_path / "design.txt"
        design_path.write_text(format_sequences(design_sequences(1.0).sequences))
        out = tmp_path / "chi.json"
        assert run_cli("qpt", "--r", "1", "--gdtau", "0", "--method", "pipeline",
                       "--design-file", str(design_path), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_rank_deficient_design_file_rejected(self, tmp_path, capsys):
        # fifteen copies of the same sequence cannot span the operator space
        design_path = tmp_path / "bad.txt"
        design_path.write_text("\n".join(["P+\n"] * 15))
        with pytest.raises(SystemExit) as exc:
            run_cli("qpt", "--method", "pipeline", "--design-file", str(design_path),
                    "--out", str(tmp_path / "x.json"))
        assert exc.value.code == 2
        assert "reached rank 2, need 16" in capsys.readouterr().err

    def test_gmev_reporting_flag_is_cosmetic(self, tmp_path):
        plain, withg = tmp_path / "p.json", tmp_path / "g.json"
        run_cli("qpt", "--r", "0.8", "--method", "closed-form", "--out", str(plain))
        run_cli("qpt", "--r", "0.8", "--method", "closed-form", "--g-mev", "1.0",
                "--out", str(withg))
        a = json.loads(plain.read_text())
        b = json.loads(withg.read_text())
        assert b["params"]["times_ps"]["tau0_tomo_ps"] == pytest.approx(0.51691, rel=1e-4)
        assert a["chi_real"] == b["chi_real"]
        assert a["fidelity"] == b["fidelity"]


class TestFidelitySweep:
    def test_csv_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("fidelity-sweep", "--r-steps", "21", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r,gdtau,F"
        rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
        assert len(rows) == 42  # two gdtau curves of 21 points
        by_key = {(round(r, 6), round(gd, 6)): f for r, gd, f in rows}
        assert by_key[(0.6, 0.0)] == pytest.approx(0.49, abs=1e-9)
        assert by_key[(1.0, 0.1)] == pytest.approx(fidelity_closed_form(1.0, 0.1), abs=1e-9)
        assert by_key[(0.0, 0.0)] == pytest.approx(0.0625, abs=1e-9)
        assert by_key[(0.0, 0.1)] == pytest.approx(0.0625, abs=1e-9)

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run_cli("fidelity-sweep", "--r-steps", "5", "--format", "json",
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["columns"] == ["r", "gdtau", "F"]
        assert len(report["rows"]) == 10
        assert report["params"]["jobs"] == 1    # a constant, not the host's core count

    def test_parallel_jobs_keep_grid_order(self, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        run_cli("fidelity-sweep", "--r-steps", "9", "--jobs", "1", "--out", str(serial))
        run_cli("fidelity-sweep", "--r-steps", "9", "--jobs", "2", "--out", str(parallel))
        assert serial.read_bytes() == parallel.read_bytes()

    def test_rejects_bad_grid(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("fidelity-sweep", "--r-min", "0.9", "--r-max", "0.1",
                    "--out", str(tmp_path / "x.csv"))

    def test_overflowing_gdtau_gives_finite_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("fidelity-sweep", "--gdtau-values", "1e300", "--r-steps", "3",
                       "--out", str(out)) == 0
        rows = [[float(x) for x in line.split(",")] for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 3
        assert all(math.isfinite(f) for _, _, f in rows)

    def test_json_f_column_equals_scalar_calls(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run_cli("fidelity-sweep", "--r-steps", "101", "--gdtau-values", "0,0.1,0.37,1e300",
                       "--format", "json", "--out", str(out)) == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 404
        assert all(f == fidelity_closed_form(r, gdtau) for r, gdtau, f in rows)

    # The bounds are traced peaks of this call on CPython 3.11, rounded up: JSON, 3,431,526 bytes
    # when the report was joined into one string before it was written; CSV, 2,781,297 before the
    # rows were written through the array kernel.
    @pytest.mark.parametrize("fmt,parent_peak", [("json", 3_440_000), ("csv", 2_790_000)])
    def test_benchmark_sized_sweep_peak(self, tmp_path, fmt, parent_peak):
        argv = ["fidelity-sweep", "--r-steps", "10001", "--gdtau-values", "0,0.123456", "--format", fmt]
        assert run_cli(*argv, "--out", str(tmp_path / "warm")) == 0
        tracemalloc.start()
        try:
            assert run_cli(*argv, "--out", str(tmp_path / "sweep")) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= parent_peak

    def test_benchmark_sized_json_sweep_is_written_a_chunk_at_a_time(self, tmp_path, monkeypatch):
        from spinqpt import _decimal

        spies = _spy_on_report_files(monkeypatch)
        out = tmp_path / "sweep.json"
        assert run_cli("fidelity-sweep", "--r-steps", "10001", "--gdtau-values", "0,0.123456",
                       "--format", "json", "--out", str(out)) == 0
        (spy,) = spies
        assert b"".join(spy.writes) == out.read_bytes()
        # No piece holds more than one kernel chunk of rows, so no whole-report string was built.
        assert len(spy.writes) > 20002 / _decimal._CHUNK
        assert max(piece.count(b"\n") for piece in spy.writes) <= _decimal._CHUNK


class _SpyFile:
    """A binary file that keeps a copy of each write; write number fail_at raises ENOSPC instead."""

    def __init__(self, path, mode, fail_at=None):
        assert mode == "wb"
        self.file = open(path, mode)
        self.writes = []
        self.fail_at = fail_at

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def write(self, data):
        self.writes.append(bytes(data))
        if len(self.writes) == self.fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.file.write(data)


def _spy_on_report_files(monkeypatch, fail_at=None) -> list:
    """Make write_report open its files as _SpyFile; the spies, one per file opened, fill the list."""
    spies = []

    def spy_open(path, mode):
        spies.append(_SpyFile(path, mode, fail_at))
        return spies[-1]

    monkeypatch.setattr(cli, "open", spy_open, raising=False)
    return spies


class TestFailedWrite:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_partial_report_is_removed(self, tmp_path, monkeypatch, capsys, fmt):
        _spy_on_report_files(monkeypatch, fail_at=2)
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit) as exc:
            run_cli("fidelity-sweep", "--format", fmt, "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "error:" in err[0] and os.strerror(errno.ENOSPC) in err[0]
        assert not out.exists()

    def test_a_link_stays(self, tmp_path, monkeypatch):
        # Only a regular file is removed: a link, such as /dev/stdout, or a device is not.
        _spy_on_report_files(monkeypatch, fail_at=2)
        out = tmp_path / "link"
        out.symlink_to(tmp_path / "target")
        with pytest.raises(SystemExit):
            run_cli("fidelity-sweep", "--out", str(out))
        assert out.is_symlink()


class TestEntanglementThreshold:
    def test_threshold_report(self, tmp_path):
        out = tmp_path / "threshold.json"
        assert run_cli("entanglement-threshold", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert 0.557 <= report["r_star"] <= 0.597
        assert abs(report["r_star"] - 1 / math.sqrt(3)) < 2e-3
        assert report["endpoints"]["r1"] == pytest.approx(0.5, abs=1e-9)
        assert report["endpoints"]["r0"] == pytest.approx(0.0, abs=1e-9)
        assert report["message"] == "threshold located"
        assert len(report["curve"]) == 65
        rs = [pt[0] for pt in report["curve"]]
        assert rs == sorted(rs)

    def test_negativity_positive_above_threshold(self, tmp_path):
        out = tmp_path / "threshold.json"
        run_cli("entanglement-threshold", "--out", str(out))
        report = json.loads(out.read_text())
        r_star = report["r_star"]
        above = [v for r, v in report["curve"] if r >= r_star + 0.05]
        assert all(v > 0 for v in above)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("entanglement-threshold", "--out", str(a))
        run_cli("entanglement-threshold", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestDesignFileEncoding:
    @pytest.mark.parametrize("argv", [
        ("qpt", "--method", "pipeline", "--r", "0.8", "--gdtau", "0.1"),
        ("entanglement-threshold", "--gdtau", "0.1"),
    ], ids=["qpt", "entanglement-threshold"])
    def test_byte_order_mark_is_read_as_the_plain_file(self, tmp_path, argv):
        # A UTF-8 byte-order mark, as some editors save one, is not part of the first line.
        text = format_sequences(design_sequences(1.0).sequences)
        reports = []
        for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
            design, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.json"
            design.write_text(text, encoding=encoding)
            assert run_cli(*argv, "--design-file", str(design), "--out", str(out)) == 0
            reports.append(out.read_bytes())
        assert (tmp_path / "bom.txt").read_bytes() == b"\xef\xbb\xbf" + (tmp_path / "plain.txt").read_bytes()
        assert reports[0] == reports[1]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("fidelity-sweep", "--gdtau-values", "nan"),
        ("fidelity-sweep", "--gdtau-values", "0,-0.1"),
        ("fidelity-sweep", "--r-min", "0.9", "--r-max", "0.1"),
        ("fidelity-sweep", "--r-steps", "1"),
        ("entanglement-threshold", "--gdtau", "nan"),
        ("entanglement-threshold", "--tol", "0"),
        ("entanglement-threshold", "--design-file", "{missing}"),
        ("ideal-check", "--samples", "0"),
        ("ideal-check", "--tol", "nan"),
        ("qpt", "--method", "montecarlo", "--samples", "0"),
        ("qpt", "--r", "1.5"),
        ("qpt", "--r", "nan"),
        ("qpt", "--gdtau", "inf"),
        ("qpt", "--method", "pipeline", "--design-file", "{missing}"),
        ("ideal-check", "--g-mev", "0"),
        ("qpt", "--g-mev", "-1"),
        ("fidelity-sweep", "--g-mev", "nan"),
        ("qpt", "--g-mev", "inf"),
        ("ideal-check", "--seed", "-1"),
        ("qpt", "--method", "montecarlo", "--seed", "-1"),
        (),
        ("bogus-command",),
        ("qpt", "--g-mev", "1e-310"),           # pulse times overflow to inf
        ("ideal-check", "--g-mev", "1e-320"),
        ("qpt", "--g-mev", "5e-324"),            # subnormal: its pulse times overflow too
        ("qpt", "--method", "exact"),
        ("qpt", "--samples", "1e3"),
        ("qpt", "--seed", "1.5"),
        ("qpt", "--r", ""),
        ("qpt", "--design-file", "{tmp}"),        # a directory
        ("qpt", "--method", "pipeline", "--design-file", "{binary}"),
        ("entanglement-threshold", "--gdtau", "1e309"),
        ("entanglement-threshold", "--tol", "-1"),
        ("entanglement-threshold", "--design-file", "{binary}"),
        ("fidelity-sweep", "--r-steps", "100000000000000000000"),
        ("fidelity-sweep", "--r-steps", "10000001"),
        ("fidelity-sweep", "--r-steps", "2.5"),
        ("fidelity-sweep", "--gdtau-values", ""),
        ("fidelity-sweep", "--gdtau-values", "0,,0.1"),
        ("fidelity-sweep", "--r-min", "nan"),
        ("fidelity-sweep", "--r-max", "inf"),
        ("fidelity-sweep", "--jobs", "two"),
        ("fidelity-sweep", "--jobs", "0"),
        ("fidelity-sweep", "--jobs", "-4"),
        ("fidelity-sweep", "--format", "xml"),
    ])
    def test_exit_2_with_error_line_and_no_report(self, tmp_path, capsys, argv):
        # Every value reachable through argv is checked here: none ends in a traceback.
        binary = tmp_path / "design.bin"
        binary.write_bytes(b"\xff\xfe\x00R X z 1\n")
        out = tmp_path / "report"
        argv = [a.format(missing=tmp_path / "missing.txt", tmp=tmp_path, binary=binary) for a in argv]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error:" in err.splitlines()[-1]
        assert re.search(r"(^|\W)_\w", err.splitlines()[-1]) is None         # no private name
        assert not out.exists()

    @pytest.mark.parametrize("values,item", [("", "''"), ("0,,0.1", "''"), ("0,x", "'x'")])
    def test_bad_gdtau_item_is_named(self, tmp_path, capsys, values, item):
        out = tmp_path / "report"
        with pytest.raises(SystemExit) as exc:
            run_cli("fidelity-sweep", "--gdtau-values", values, "--out", str(out))
        assert exc.value.code == 2
        line = capsys.readouterr().err.splitlines()[-1]
        assert line.endswith(f"error: argument --gdtau-values: {item} is not a finite gdtau >= 0")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["qpt", "entanglement-threshold"])
    @pytest.mark.parametrize("contents,named", [
        ("Z 1\n", "'Z 1'"),                          # unrecognized line
        ("P+\n", "got 1"),                           # a single sequence
        ("\n".join(["P+\n"] * 15), "rank 2"),        # 15 sequences, rank 2
        # the shipped design with one transfer pulse of infinite duration
        (format_sequences(design_sequences(1.0).sequences).replace(
            f"E {math.pi / 4!r}", "E inf", 1), "Evolve mean time"),
        # finite, but its exchange phase 4 * 1e308 is not
        (format_sequences(design_sequences(1.0).sequences).replace(
            f"E {math.pi / 4!r}", "E 1e308", 1), "Evolve mean time"),
    ], ids=["bad-line", "one-sequence", "rank-deficient", "non-finite-evolve",
            "overflowing-evolve-phase"])
    def test_bad_design_file_is_a_usage_error(self, tmp_path, capsys, command, contents, named):
        design = tmp_path / "design.txt"
        design.write_text(contents)
        out = tmp_path / "report"
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--design-file", str(design), "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert len(err.splitlines()) == 1 and named in err
        assert not out.exists()


class TestCachedParser:
    """The parser is built once per process; no option carries over between calls."""

    def test_consecutive_calls_leak_no_state(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("fidelity-sweep", "--gdtau-values", "0.3", "--r-steps", "3", "--format", "json",
                       "--out", str(first)) == 0
        assert run_cli("fidelity-sweep", "--format", "json", "--out", str(second)) == 0
        report = json.loads(second.read_text())
        assert report["params"]["gdtau_values"] == [0.0, 0.1] and report["params"]["r_steps"] == 21
        assert sorted({gdtau for _, gdtau, _ in report["rows"]}) == [0.0, 0.1]
        assert len(report["rows"]) == 42

    def test_qpt_defaults_restored(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("qpt", "--method", "pipeline", "--r", "0.5", "--gdtau", "0.2", "--out", str(first))
        run_cli("qpt", "--out", str(second))
        report = json.loads(second.read_text())
        assert report["method"] == "closed-form"
        assert (report["params"]["r"], report["params"]["gdtau"]) == (1.0, 0.0)

    def test_dispatch_reads_the_module_attribute(self, tmp_path, monkeypatch):
        assert run_cli("fidelity-sweep", "--out", str(tmp_path / "sweep.csv")) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_fidelity_sweep", lambda args: calls.append(args.r_steps) or 0)
        assert run_cli("fidelity-sweep", "--r-steps", "7") == 0
        assert calls == [7]


class TestHugeGdtau:
    """At huge gdtau every damping factor underflows to 0; the analytic routes
    reach that fully dephased limit without an overflow warning, and Monte
    Carlo draws its durations at the full-dephasing cut."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gdtau", ["1e300", "1.7e308"])
    @pytest.mark.parametrize("argv,progress", [
        (("qpt", "--method", "pipeline"), "qpt[pipeline]"),
        (("entanglement-threshold",), "entanglement-threshold:"),
        (("qpt", "--method", "montecarlo", "--samples", "200"), "qpt[montecarlo]"),
    ], ids=["pipeline", "threshold", "montecarlo"])
    def test_finite_report_and_only_progress_on_stderr(self, tmp_path, capsys, argv, progress,
                                                       gdtau):
        out = tmp_path / "report.json"
        assert run_cli(*argv, "--gdtau", gdtau, "--out", str(out)) == 0
        canonical_json(json.loads(out.read_text()))     # raises on a non-finite number
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and lines[0].startswith(progress) and lines[1].startswith("(")


class TestNegativeZero:
    """A -0 option value reads as 0: its report is the 0 argv's, byte for byte."""

    @pytest.mark.parametrize("template", [
        ("qpt", "--method", "closed-form", "--r", "{}", "--gdtau", "0.1"),
        ("qpt", "--method", "closed-form", "--r", "0.8", "--gdtau", "{}"),
        ("qpt", "--method", "pipeline", "--r", "{}", "--gdtau", "0.1"),
        ("qpt", "--method", "montecarlo", "--samples", "300", "--r", "{}", "--gdtau", "0.1"),
        ("qpt", "--method", "all", "--samples", "300", "--r", "{}", "--gdtau", "{}"),
        ("entanglement-threshold", "--gdtau", "{}"),
        ("fidelity-sweep", "--gdtau-values={},0.1", "--r-min", "{}", "--r-steps", "5"),
        ("fidelity-sweep", "--format", "json", "--gdtau-values={},0.1", "--r-min", "{}", "--r-steps", "5"),
    ], ids=" ".join)
    def test_same_report_as_zero(self, tmp_path, template):
        reports = []
        for zero in ("0", "-0"):
            out = tmp_path / f"report{zero}"
            assert run_cli(*(arg.format(zero) for arg in template), "--out", str(out)) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
