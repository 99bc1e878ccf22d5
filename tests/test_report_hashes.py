"""Every report of report_hashes.ARGVS is byte-identical to the golden file, and writes its
tables, 2-D float64 arrays and the sweep's grid, through the serializer's table paths."""

import hashlib
import json

import pytest

import report_hashes
from forward_reference import long_sequence_sequences
from spinqpt import cli
from spinqpt.blockade import parse_sequences

GOLDEN = json.loads(report_hashes.GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_the_argv_list():
    assert sorted(GOLDEN) == sorted(map(report_hashes.key, report_hashes.ARGVS))


@pytest.mark.parametrize("argv", report_hashes.ARGVS, ids=report_hashes.key)
def test_report_bytes_unchanged(tmp_path, argv):
    assert report_hashes.report_sha256(argv, tmp_path) == GOLDEN[report_hashes.key(argv)]


@pytest.mark.parametrize("argv", report_hashes.ARGVS, ids=report_hashes.key)
def test_stdout_gets_the_file_bytes(tmp_path, monkeypatch, argv):
    # The writer puts a report's pieces in a binary file one by one and on stdout as text; a JSON
    # report's pieces are canonical_json's text.
    reports = []
    write_report = cli.write_report
    monkeypatch.setattr(cli, "write_report",
                        lambda report, path, fmt: reports.append((report, fmt)) or write_report(report, path, fmt))
    digest = report_hashes.report_sha256(argv, tmp_path)
    assert report_hashes.report_sha256(argv, tmp_path, "stdout") == digest
    (report, fmt), _ = reports
    if fmt == "json":
        assert hashlib.sha256((cli.canonical_json(report) + "\n").encode("utf-8")).hexdigest() == digest


#: Most floats a report may format one at a time through cli._fmt_float: its scalars.  A table of
#: floats handed to the serializer as anything but a 2-D float64 array or a cli.SweepGrid would go
#: through it value by value, the threshold's 65-row curve alone through 130 calls.
MAX_SCALAR_FLOATS = 16


@pytest.mark.parametrize("argv", report_hashes.ARGVS, ids=report_hashes.key)
def test_tables_take_the_array_path(tmp_path, monkeypatch, argv):
    calls = []
    fmt_float = cli._fmt_float
    monkeypatch.setattr(cli, "_fmt_float", lambda x: calls.append(x) or fmt_float(x))
    report_hashes.report_sha256(argv, tmp_path)
    csv = argv[0] == "fidelity-sweep" and "json" not in argv        # CSV rows never reach it
    assert len(calls) == 0 if csv else 0 < len(calls) <= MAX_SCALAR_FLOATS


def test_long_design_file_is_the_long_sequences():
    text = (report_hashes.TESTS / report_hashes.LONG_DESIGN).read_text(encoding="utf-8")
    assert parse_sequences(text) == tuple(long_sequence_sequences())
