"""Smoke test of the cold-command script: one ideal-check run per mode, checked for its table's shape."""

import re

import cold_commands


def test_one_ideal_check_run_per_mode_gives_one_row_each():
    root = cold_commands.ROOT
    times = cold_commands.measure([root], {"ideal-check": ("ideal-check",)}, runs=1)
    lines = cold_commands.table(times, {root: "this"}).splitlines()
    assert lines[0].split() == ["mode", "op", "checkout", "median", "ms", "IQR", "ms", "runs"]
    assert [line.split()[0] for line in lines[1:]] == list(cold_commands.MODES)
    for line in lines[1:]:
        assert re.fullmatch(r"\w+ +ideal-check +this +\d+\.\d +0\.0  1", line), line
