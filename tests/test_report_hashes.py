"""Every report of report_hashes.ARGVS is byte-identical to the golden file."""

import json

import pytest

import report_hashes

GOLDEN = json.loads(report_hashes.GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_the_argv_list():
    assert sorted(GOLDEN) == sorted(map(report_hashes.key, report_hashes.ARGVS))


@pytest.mark.parametrize("argv", report_hashes.ARGVS, ids=report_hashes.key)
def test_report_bytes_unchanged(tmp_path, argv):
    assert report_hashes.report_sha256(argv, tmp_path) == GOLDEN[report_hashes.key(argv)]
