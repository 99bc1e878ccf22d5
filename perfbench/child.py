"""One benchmark process: set up a workload, then run its ops in a closed loop.

Started by ``run.py``, which passes its ``time.monotonic()`` at launch.  Set-up
runs from there until the first op is ready: interpreter start, ``import
spinqpt``, oracle references and one warm-up call of each op.  With
``--setup-only`` the process prints its set-up time and exits.  Otherwise it
repeats the workload's cycle of ops until ``--seconds``
have passed, one client, each CLI call starting after the previous one
returned, and prints one JSON line with the set-up time and the raw samples.

Every op runs in-process through ``spinqpt.cli.main(argv)`` with ``--out``
pointing at a file in the work directory.  Before every op it times a fixed
calibration loop that does not touch spinqpt, so the parent can tell the
program's speed apart from the host's.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import platform
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_spinqpt():
    """Import spinqpt from the checkout's own src/ tree, never from elsewhere."""
    if not (SRC / "spinqpt" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'spinqpt'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import spinqpt

    if Path(spinqpt.__file__).resolve().parent != (SRC / "spinqpt").resolve():
        raise SystemExit(f"error: imported spinqpt from {spinqpt.__file__}, not from {SRC}")
    return spinqpt


_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_CAL_A, _CAL_B = np.kron(_SZ, _SX), np.kron(_SX, _SZ)


def calibration_loop() -> float:
    """A fixed mix of small numpy operations and Python work, about 10 ms."""
    acc = 0.0
    for i in range(400):
        m = _CAL_A + _CAL_B * (i * 1e-3)
        p = m @ m.conj().T
        w = np.exp(-1j * np.arange(4) * 0.1 * i)
        acc += float(np.trace(p).real) + float((p @ w).real.sum())
        acc += sum(sorted(math.sin(k * i) for k in range(8)))
    return acc


class Runner:
    """Runs ops through the CLI, times them, checks outputs and reruns."""

    def __init__(self, cli, workdir: Path, roles, tracer=None):
        self.cli = cli
        self.workdir = workdir
        self.tracer = tracer
        self.ops = []                    # (role, seconds per CLI call, traced)
        self.calibration = []            # calibration[i] timed just before ops[i]
        self.calls = {role: 0 for role in roles}
        self.first_digest = {}
        self.attempted = 0
        self.failures = []

    def _call(self, argv) -> object:
        """cli.main's exit status, or the exception it raised."""
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                return self.cli.main(list(argv))
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # an op that raises counts as failed, the loop goes on
            return exc

    def run(self, op, record: bool = True, traced: bool = False) -> None:
        if record:
            gc.collect()  # every op starts with the same collector state
            self.calibrate()
        paths = [self.workdir / f"out{i}" for i in range(len(op.argvs))]
        for path in paths:
            path.unlink(missing_ok=True)
        statuses = []
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.cur_role = tracer.roles.index(op.role)
            tracer.active = True
        t0 = perf_counter()
        for argv, path in zip(op.argvs, paths):
            full = list(argv) + ["--out", str(path)]
            if tracer is None:
                statuses.append(self._call(full))
            else:
                span = tracer.open(0)
                statuses.append(self._call(full))
                tracer.close(span)
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if not record:
            return
        self.ops.append((op.role, elapsed / len(op.argvs), int(traced)))
        if traced:
            self.calls[op.role] += len(op.argvs)
        for argv, path, status, check in zip(op.argvs, paths, statuses, op.checks):
            self.attempted += 1
            problems = self.check(argv, path, status, check)
            if problems:
                self.failures.append(f"{' '.join(argv)}: {'; '.join(problems)}")

    def calibrate(self) -> None:
        t0 = perf_counter()
        calibration_loop()
        self.calibration.append(perf_counter() - t0)

    def check(self, argv, path: Path, status, check) -> list:
        if status != 0:
            return [f"exit status {status!r}"]
        if not path.is_file():
            return ["no report written"]
        data = path.read_bytes()
        problems = []
        digest = hashlib.sha256(data).hexdigest()
        first = self.first_digest.setdefault(tuple(argv), digest)
        if first != digest:
            problems.append("report differs from the first run of the same argv")
        return problems + check(data)


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="the parent's time.monotonic() when it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    spinqpt = import_spinqpt()
    from spinqpt import cli
    from workloads import ROLE_NAMES, ROLES, WORKLOADS

    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(ROLES)
    runner = Runner(cli, workdir, ROLES, tracer)
    workload.setup()
    for op in workload.warmup():
        runner.run(op, record=False)
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        # The host speed right after set-up, for run.py's projection.
        runner.calibrate()
        print(json.dumps({"setup_s": setup_s, "calibration": runner.calibration}), flush=True)
        return 0

    # Traced runs alternate untraced and traced cycles, so both sample the
    # same host speed phases and their difference is the tracing overhead.
    deadline = perf_counter() + args.seconds
    cycle = 0
    while perf_counter() < deadline:
        traced = tracer is not None and cycle % 2 == 1
        if traced:
            tracer.install(cycle)
        try:
            for op in workload.cycle():
                runner.run(op, traced=traced)
        finally:
            if traced:
                tracer.uninstall()
        cycle += 1
    runner.calibrate()

    result = {
        "setup_s": setup_s,
        "ops": runner.ops,
        "calibration": runner.calibration,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "cycles": cycle,
        "role_names": ROLE_NAMES[args.workload],
        "speed_exponent": workload.SPEED_EXPONENT,
        "peak_rss_mb": peak_rss_mb(),
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "spinqpt": spinqpt.__version__},
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["calls_per_op"] = tracer.calls_per_op(runner.calls)
        spans = workdir.parent / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.dump(str(spans))
        result["spans_file"] = str(spans)
        result["spans"] = len(tracer.span_name)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
