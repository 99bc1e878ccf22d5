"""Cold commands: perfbench's argv, each in fresh ``python -m spinqpt`` processes.

perfbench warms every op before it times it, so it never shows what a
one-shot command pays: interpreter start, numpy's import, spinqpt's import and
the first call's set-up.  This script times the first argv of each op below,
as perfbench's workloads draw them at seed 1, in fresh processes, and prints
the median wall time and the interquartile range (IQR) of each argv:

    PYTHONPATH=src python tests/cold_commands.py [--runs 9] [--against CHECKOUT]

Each argv runs ``--runs`` times (at least 9 for a measurement) in two modes.
Both read bytecode only from a temporary ``PYTHONPYCACHEPREFIX``, which one
untimed run of each argv per checkout fills:

* ``bytecode``: the timed runs read the filled prefix;
* ``source``: a copy of it without spinqpt's part, and
  ``PYTHONDONTWRITEBYTECODE=1``, so spinqpt is compiled from source on every
  run while numpy and the standard library read their bytecode.

``--against`` names a second checkout (made by ``git clone`` or ``git
archive``), run alternately with this one; the side that goes first flips from
one round to the next.  Nothing is written into either checkout: reports and
bytecode go to temporary directories, and every process runs in one.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODES = ("source", "bytecode")


def perfbench_argvs(seed: int = 1) -> dict:
    """The first argv of each op timed here, as perfbench's workloads draw them at seed."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    from workloads import Analytic, MonteCarlo, Sweep

    analytic, sweep = Analytic(seed), Sweep(seed)
    ops = {
        "qpt closed-form": analytic.closed_form_op(),
        "qpt pipeline": analytic.pipeline_op(),
        "qpt montecarlo 20k": MonteCarlo(seed).mc_op("heavy"),
        "entanglement-threshold": analytic.threshold_op(),
        "fidelity-sweep default": sweep.default_op(),
        "fidelity-sweep json 20k": sweep.grid_op("medium"),
        "ideal-check": analytic.ideal_op(),
    }
    return {name: op.argvs[0] for name, op in ops.items()}


def _env(checkout: pathlib.Path, prefix: str, write: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update(PYTHONPATH=str(checkout / "src"), PYTHONPYCACHEPREFIX=prefix)
    if not write:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _run(argv, env: dict, directory: str) -> float:
    """Seconds one fresh process takes to run argv, its report written into directory."""
    out = pathlib.Path(directory) / "report"
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "spinqpt", *argv, "--out", str(out)], env=env, cwd=directory,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr.strip()}")
    out.unlink()
    return seconds


def measure(checkouts: list, argvs: dict, runs: int) -> dict:
    """{(mode, op, checkout): [ms per run]} over runs alternating rounds."""
    times = {(mode, op, checkout): [] for mode in MODES for op in argvs for checkout in checkouts}
    with tempfile.TemporaryDirectory() as directory:
        prefixes = {mode: os.path.join(directory, mode) for mode in MODES}
        for checkout in checkouts:
            for argv in argvs.values():
                _run(argv, _env(checkout, prefixes["bytecode"], write=True), directory)
        shutil.copytree(prefixes["bytecode"], prefixes["source"])
        for checkout in checkouts:
            shutil.rmtree(pathlib.Path(prefixes["source"], *(checkout / "src").parts[1:]))
        for round_ in range(runs):
            order = checkouts if round_ % 2 == 0 else checkouts[::-1]
            for mode in MODES:
                for op, argv in argvs.items():
                    for checkout in order:
                        env = _env(checkout, prefixes[mode], write=mode == "bytecode")
                        times[mode, op, checkout].append(1e3 * _run(argv, env, directory))
    return times


def table(times: dict, labels: dict) -> str:
    """One line per mode, op and checkout: the median and the IQR in ms, and the run count."""
    lines = [f"{'mode':<9} {'op':<24} {'checkout':<8} {'median ms':>9} {'IQR ms':>7}  runs"]
    for (mode, op, checkout), ms in times.items():
        q1, _, q3 = statistics.quantiles(ms, n=4, method="inclusive") if len(ms) > 1 else ms * 3
        lines.append(f"{mode:<9} {op:<24} {labels[checkout]:<8} {statistics.median(ms):9.1f} {q3 - q1:7.1f}  "
                     f"{len(ms)}")
    return "\n".join(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=9, help="timed runs per argv, checkout and mode")
    parser.add_argument("--against", type=pathlib.Path, default=None,
                        help="a second checkout to alternate with")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    labels = {ROOT: "this"}
    if args.against is not None:
        labels[args.against.resolve()] = "against"
    argvs = perfbench_argvs()
    for op, op_argv in argvs.items():
        print(f"{op}: {' '.join(op_argv)}")
    for checkout, label in labels.items():
        print(f"{label}: {checkout}")
    print(table(measure(list(labels), argvs, args.runs), labels))


if __name__ == "__main__":
    main()
