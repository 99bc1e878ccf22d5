"""spinqpt benchmark: one workload, timed through the CLI in-process.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It starts the workload process
``SETUP_REPEATS`` times to time set-up alone, then once more to measure.  That
process runs the workload's ops in a closed loop for ``--seconds`` and checks
every report.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit and the op behind it.

``--trace 0`` reports the end-to-end metrics and installs no wrappers.
``--trace 1`` reports the per-layer metrics of the traced run in
``tracer.py``; its spans go to ``.perfbench/spans-<workload>-seed<seed>.npz``.

Command times are medians over the run of samples scaled to a reference
host speed (see ``projected_ms``): the host runs the same code at two speeds
about 1.6x apart, for seconds to minutes at a time, and a calibration loop
timed before every op tracks that speed.  The raw medians are printed beside
the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("analytic", "montecarlo", "sweep")
SETUP_REPEATS = 5
#: Host speed model, see README.md: the calibration loop took about 6.5 ms in
#: the host's fast phases and 10.5 ms in its slow ones, the more common.
CALIBRATION_REF_MS = 10.5
FAST_CALIBRATION_S = 0.0085
#: Set-up is interpreter start and imports, bound like the calibration loop.
SETUP_SPEED_EXPONENT = 1.0
#: The whole run, set-ups included, must end within 180 s.
RUN_TIMEOUT_S = 170

#: End-to-end metric of each role, as the JSON result names it.
ROLE_METRICS = {"heavy": "heavy_cmd_ms", "medium": "medium_cmd_ms",
                "light": "light_cmd_ms", "ideal_check": "ideal_check_ms"}


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class ChildError(RuntimeError):
    pass


def run_child(args, workdir: Path, setup_only: bool, deadline: float) -> dict:
    """Start the workload process and return its result line; raise ChildError on failure."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--launched", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    err_path = workdir / "child.err"
    with open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True, cwd=ROOT)
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ChildError("workload process ran out of time")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise ChildError(f"workload process failed (exit {proc.returncode}):\n"
                         + err_path.read_text()[-4000:])
    return json.loads(lines[-1])


def tail_percentile(values: list) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (1 - 10 / n))
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def projected_ms(seconds: list, speeds: list, exponent: float) -> float:
    """Median op time in ms at the reference host speed.

    ``speeds`` holds, per sample, the calibration time around it.  Each
    sample is scaled by (CALIBRATION_REF_MS / speed)**exponent.
    """
    return statistics.median(t * 1e3 * (CALIBRATION_REF_MS / (c * 1e3)) ** exponent
                             for t, c in zip(seconds, speeds))


def role_samples(child: dict, role: str, traced: int = 0) -> tuple[list, list]:
    """Seconds per CLI call of the role's ops, and the calibration time around each."""
    cal = child["calibration"]
    seconds, speeds = [], []
    for i, (op_role, t, op_traced) in enumerate(child["ops"]):
        if op_role == role and op_traced == traced:
            seconds.append(t)
            speeds.append(math.sqrt(cal[i] * cal[i + 1]))
    return seconds, speeds


def tracing_overhead(child: dict) -> dict:
    """Traced minus untraced median of each role, both scaled like the end-to-end metrics."""
    out = {}
    for role in ROLE_METRICS:
        exponent = child["speed_exponent"][role]
        plain, traced = role_samples(child, role), role_samples(child, role, traced=1)
        out[f"trace.overhead.{role}_ms"] = (projected_ms(*traced, exponent) - projected_ms(*plain, exponent)
                                            if plain[0] and traced[0] else 0.0)
    return out


def end_to_end(child: dict, setups: list) -> tuple[dict, list]:
    """Metrics for the JSON line, and human-readable lines describing them."""
    cal = child["calibration"]
    metrics, lines = {}, []
    for role, name in ROLE_METRICS.items():
        seconds, speeds = role_samples(child, role)
        value = projected_ms(seconds, speeds, child["speed_exponent"][role])
        metrics[name] = {"value": value, "unit": "ms"}
        raw = [t * 1e3 for t in seconds]
        line = (f"{name:16s} {value:12.4f} ms  ({child['role_names'][role]}; "
                f"raw median {statistics.median(raw):.4f} ms, n={len(raw)}")
        tail = tail_percentile(raw)
        if tail is not None:
            line += f", raw p{tail[0]} {tail[1]:.4f} ms"
        lines.append(line + ")")
    value = projected_ms([s for s, _ in setups], [c for _, c in setups], SETUP_SPEED_EXPONENT) / 1e3
    metrics["setup_s"] = {"value": value, "unit": "s"}
    lines.append(f"{'setup_s':16s} {value:12.4f} s   (median of {len(setups)} set-ups scaled like "
                 f"the commands; raw: {', '.join(f'{s:.3f}' for s, _ in setups)})")
    metrics["peak_rss_mb"] = {"value": child["peak_rss_mb"], "unit": "MB"}
    lines.append(f"{'peak_rss_mb':16s} {child['peak_rss_mb']:12.4f} MB  (workload process and its children)")
    fast = sum(c < FAST_CALIBRATION_S for c in cal) / len(cal)
    lines.append(f"calibration loop median {statistics.median(cal) * 1e3:.4f} ms over {len(cal)} samples, "
                 f"{fast:.0%} of them below {FAST_CALIBRATION_S * 1e3:g} ms (reference {CALIBRATION_REF_MS} ms)")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every op (self-test only; figures are not comparable)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spinqpt" / "__init__.py").is_file():
        print(f"error: no spinqpt sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        deadline = time.monotonic() + RUN_TIMEOUT_S
        setups = [run_child(args, workdir, True, deadline) for _ in range(SETUP_REPEATS)]
        child = run_child(args, workdir, False, deadline)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Each set-up is paired with the first calibration its process timed.
    setups = [(result["setup_s"], result["calibration"][0]) for result in setups + [child]]

    machine = dict(child["machine"], nproc=os.cpu_count(), platform=platform.platform(),
                   git_sha=git_sha())
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f" cycles={child['cycles']}")
    print(f"# machine: {json.dumps(machine, sort_keys=True)}")
    failed = len(child["failures"])
    attempted = child["attempted"]
    if args.trace:
        layers = dict(child["layers"], **tracing_overhead(child))
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}
        for name, value in layers.items():
            print(f"{name:52s} {value:14.4f} {unit_of(name)}")
        print(f"# calls per CLI call, by role: {json.dumps(child['calls_per_op'], sort_keys=True)}")
        print(f"# {child['spans']} spans written to {child['spans_file']}; "
              f"work inside the sweep's pool workers is not traced")
    else:
        metrics, lines = end_to_end(child, setups)
        for line in lines:
            print(line)
    print(f"ops_failed_frac  {failed / max(attempted, 1):12.4f}     ({failed} of {attempted} CLI calls failed their check)")
    for failure in child["failures"][:10]:
        print(f"# FAILED {failure}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = ROOT / ".perfbench" / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"args": vars(args), "machine": machine, "result": result,
                                  "setups": setups, "child": child}) + "\n")
    print(f"# full record: {record}")
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
