"""SHA-256 of the CLI reports for a fixed list of argv, the golden file's source.

Each argv runs in-process through ``spinqpt.cli.main`` with ``--out`` set, and
the report's bytes are hashed.  ``test_report_hashes.py`` recomputes every
hash and compares it with ``data/report_sha256.json``.  When a change moves a
report on purpose, regenerate the file from the root of a checkout with

    PYTHONPATH=src python tests/report_hashes.py

and say in CHANGES.md which reports moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "report_sha256.json"

_SWEEP_GDTAUS = "0,0.05,0.1,0.37,1,2,1e300"

#: Every report family: the three qpt routes and all of them together, Monte
#: Carlo below the full-dephasing cut, JSON and CSV sweeps, the threshold and
#: both ideal-check outcomes.
ARGVS = (
    ("qpt",),
    ("qpt", "--method", "pipeline"),
    ("qpt", "--method", "pipeline", "--r", "0.8", "--gdtau", "0.1"),
    ("qpt", "--method", "pipeline", "--gdtau", "1.7e308"),
    ("qpt", "--method", "closed-form", "--r", "0.8", "--gdtau", "0.1"),
    ("qpt", "--method", "closed-form", "--r", "0.3", "--gdtau", "1e300"),
    ("qpt", "--method", "all", "--samples", "300", "--seed", "7", "--r", "0.7", "--gdtau", "0.1"),
    ("qpt", "--method", "all", "--samples", "200", "--seed", "9", "--r", "0.6", "--gdtau", "0",
     "--g-mev", "1.0"),
    ("qpt", "--method", "montecarlo", "--samples", "200", "--seed", "3", "--r", "0.9",
     "--gdtau", "99"),
    ("fidelity-sweep",),
    ("fidelity-sweep", "--r-steps", "1001", "--gdtau-values", _SWEEP_GDTAUS),
    ("fidelity-sweep", "--format", "json", "--r-steps", "1001", "--gdtau-values", _SWEEP_GDTAUS),
    ("fidelity-sweep", "--format", "json", "--r-steps", "10001", "--gdtau-values", "0,0.1",
     "--r-min", "0.2", "--r-max", "0.9"),
    ("entanglement-threshold",),
    ("entanglement-threshold", "--gdtau", "0.1"),
    ("entanglement-threshold", "--gdtau", "1.7e308", "--tol", "1e-3"),
    ("ideal-check",),
    ("ideal-check", "--inject-angle-error", "--seed", "5"),
)


def key(argv) -> str:
    return " ".join(argv)


def report_sha256(argv, directory) -> str:
    """Hash of the report one CLI call writes; its console lines are discarded."""
    from spinqpt.cli import main

    out = pathlib.Path(directory) / "report"
    with contextlib.redirect_stderr(io.StringIO()):
        main([*argv, "--out", str(out)])
    return hashlib.sha256(out.read_bytes()).hexdigest()


def compute() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        return {key(argv): report_sha256(argv, directory) for argv in ARGVS}


if __name__ == "__main__":
    hashes = compute()
    GOLDEN.write_text(json.dumps(hashes, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}", file=sys.stderr)
