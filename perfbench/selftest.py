"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload end to end at a tiny size, with and without tracing,
   and checks that the result line names exactly the metrics of
   BENCHMARK.json, with their units, and that no op failed.
2. Shows that the oracle is not vacuous: a perturbed process matrix, sweep
   row, threshold, ideal-check report or rerun each count as a failure.
3. Runs the benchmark in a directory holding only BENCHMARK.json and
   perfbench/, where it must exit nonzero without printing a result.

Scratch files go to .perfbench/ under the checkout.  Exits nonzero on the
first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_end_to_end() -> None:
    spec = bench_spec()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, f"{workload} trace={trace}: metrics {sorted(got)} != {sorted(expected)}"
            print(f"ok  {workload} trace={trace}: {result['attempted']} calls, all correct")


def check_oracle() -> None:
    """Each oracle accepts the real report and rejects a perturbed copy of it."""
    from child import Runner, import_spinqpt

    import_spinqpt()
    import numpy as np
    from spinqpt import cli
    from workloads import ROLES, Analytic, MonteCarlo, Sweep

    workdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    runner = Runner(cli, workdir, ROLES)

    def output_of(op) -> bytes:
        runner.run(op)
        assert not runner.failures, runner.failures
        return (workdir / "out0").read_bytes()

    def expect_rejected(what: str, check, data: bytes) -> None:
        problems = check(data)
        assert problems, f"oracle accepted a {what}"
        print(f"ok  oracle rejects a {what}: {problems[0]}")

    def shift_population(data: bytes, delta: float) -> bytes:
        """Move weight from E22 to E11 in the E11 column of chi.

        chi stays trace preserving and Hermitian, so only a comparison with
        another route can catch the change.
        """
        report = json.loads(data)
        report["chi_real"][0][0] += delta
        report["chi_real"][1][0] -= delta
        return json.dumps(report).encode()

    try:
        analytic = Analytic(5, tiny=True)
        analytic.setup()
        op = analytic.pipeline_op()
        data = output_of(op)
        expect_rejected("pipeline chi perturbed by 1e-9", op.checks[0], shift_population(data, 1e-9))

        op = analytic.closed_form_op()
        data = output_of(op)
        expect_rejected("closed-form chi perturbed by 1e-9", op.checks[0], shift_population(data, 1e-9))

        analytic.threshold_gdtaus = [0.0]
        op = analytic.threshold_op()
        report = json.loads(output_of(op))
        report["r_star"] += 0.05
        expect_rejected("threshold moved off 1/sqrt(3)", op.checks[0], json.dumps(report).encode())

        op = analytic.ideal_op()
        report = json.loads(output_of(op))
        report["passed"] = False
        expect_rejected("failed ideal-check", op.checks[0], json.dumps(report).encode())

        mc = MonteCarlo(5, tiny=True)
        mc.setup()
        op = mc.mc_op("medium")
        data = output_of(op)
        r, g, _ = mc.points[0]
        stderr = mc.refs[(r, g)][1][0, 0] / np.sqrt(mc.samples["medium"])
        expect_rejected("Monte Carlo chi moved by 10 standard errors", op.checks[0],
                        shift_population(data, 10 * stderr))

        sweep = Sweep(5, tiny=True)
        op = sweep.grid_op("heavy")
        lines = output_of(op).decode().splitlines()
        r, gdtau, f = lines[7].split(",")
        assert float(gdtau) == 0.0
        lines[7] = ",".join([r, gdtau, format(float(f) + 1e-9, ".12g")])
        expect_rejected("sweep row at gdtau=0 perturbed by 1e-9", op.checks[0],
                        ("\n".join(lines) + "\n").encode())

        path = workdir / "rerun"
        path.write_bytes(data + b" ")
        runner.check(("qpt", "rerun-probe"), path, 0, lambda d: [])
        path.write_bytes(data)
        problems = runner.check(("qpt", "rerun-probe"), path, 0, lambda d: [])
        assert problems, "a rerun with different bytes was accepted"
        print(f"ok  a rerun with different report bytes fails: {problems[0]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory() -> None:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "analytic", 0)
        assert proc.returncode != 0, "benchmark succeeded without the program"
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        assert not last.startswith("{"), f"benchmark printed a result without the program: {last}"
        print(f"ok  without the program: exit {proc.returncode}, {proc.stderr.strip()}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    SCRATCH.mkdir(exist_ok=True)
    check_oracle()
    check_bare_directory()
    check_end_to_end()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
