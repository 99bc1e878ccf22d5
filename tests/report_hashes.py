"""SHA-256 of the CLI reports for a fixed list of argv, the golden file's source.

Each argv runs in-process through ``spinqpt.cli.main`` with ``--out`` set, and
the report's bytes are hashed; ``report_sha256`` can hash what the call writes to
stdout instead.  ``test_report_hashes.py`` recomputes every
hash and compares it with ``data/report_sha256.json``, one test per argv, so

    PYTHONPATH=src python -m pytest tests/test_report_hashes.py

checks a change that must keep every report byte-identical without writing
anything.  When a change moves a report on purpose, regenerate the file with

    PYTHONPATH=src python tests/report_hashes.py

which first prints one line for each argv whose hash changed or is new, and
for each golden key whose argv left ARGVS, and say in CHANGES.md which
reports moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

TESTS = pathlib.Path(__file__).resolve().parent
GOLDEN = TESTS / "data" / "report_sha256.json"
#: A design file of ``forward_reference.long_sequence_sequences``, one sequence a step group.  Named
#: relative to this directory in ARGVS and the golden keys; reports do not echo the path.
LONG_DESIGN = "data/long_design.txt"

_SWEEP_GDTAUS = "0,0.05,0.1,0.37,1,2,1e300"

#: Every report family: the three qpt routes and all of them together, Monte
#: Carlo below and above the full-dephasing cut, JSON and CSV sweeps (the default
#: one on the "%" path, the others on the array path, one of them the benchmark's CSV argv), the
#: threshold (once bisected down to adjacent doubles, where the last bits of its
#: characteristic coefficients decide the steps) and both ideal-check outcomes,
#: one of them over several sample blocks, and a qpt and a threshold on a design file.
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
    ("qpt", "--method", "montecarlo", "--samples", "200", "--seed", "3", "--r", "0.9",
     "--gdtau", "1e300"),
    ("fidelity-sweep",),
    ("fidelity-sweep", "--r-steps", "1001", "--gdtau-values", _SWEEP_GDTAUS),
    ("fidelity-sweep", "--format", "json", "--r-steps", "1001", "--gdtau-values", _SWEEP_GDTAUS),
    ("fidelity-sweep", "--format", "json", "--r-steps", "10001", "--gdtau-values", "0,0.1",
     "--r-min", "0.2", "--r-max", "0.9"),
    ("fidelity-sweep", "--r-steps", "10001", "--gdtau-values", "0,0.123456"),
    ("entanglement-threshold",),
    ("entanglement-threshold", "--gdtau", "0.1"),
    ("entanglement-threshold", "--gdtau", "1.7e308", "--tol", "1e-3"),
    ("entanglement-threshold", "--tol", "1e-300"),
    ("ideal-check",),
    ("ideal-check", "--inject-angle-error", "--seed", "5"),
    ("ideal-check", "--samples", "5000", "--seed", "3"),
    ("qpt", "--method", "all", "--samples", "300", "--seed", "4", "--r", "0.8", "--gdtau", "0.3",
     "--design-file", LONG_DESIGN),
    ("entanglement-threshold", "--gdtau", "0.1", "--design-file", LONG_DESIGN),
)


def key(argv) -> str:
    return " ".join(argv)


def report_sha256(argv, directory, sink: str = "file") -> str:
    """Hash of the report one CLI call writes to sink: "file", through ``--out``, or "stdout", whose
    text is hashed as UTF-8.  Its console lines are discarded."""
    from spinqpt.cli import main

    argv = [str(TESTS / arg) if arg == LONG_DESIGN else arg for arg in argv]
    out = pathlib.Path(directory) / "report"
    stdout = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(stdout):
        main(argv + (["--out", str(out)] if sink == "file" else []))
    data = out.read_bytes() if sink == "file" else stdout.getvalue().encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def compute() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        return {key(argv): report_sha256(argv, directory) for argv in ARGVS}


if __name__ == "__main__":
    hashes = compute()
    previous = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    for argv, digest in hashes.items():
        if argv not in previous:
            print(f"new: {argv}")
        elif previous[argv] != digest:
            print(f"changed: {argv}")
    for argv in previous:
        if argv not in hashes:
            print(f"removed: {argv}")
    GOLDEN.write_text(json.dumps(hashes, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}", file=sys.stderr)
