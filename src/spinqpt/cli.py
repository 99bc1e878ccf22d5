"""Command-line front end: verification checks, sweeps, and structured reports.

Subcommands:

    ideal-check             verify the gate-synthesis identities
    qpt                     emit a process matrix (pipeline / closed-form / montecarlo / all)
    fidelity-sweep          F(r, gdtau) rows for plotting
    entanglement-threshold  polarization threshold for entanglement creation

Reports are deterministic: a given configuration always produces byte
identical output files (JSON floats carry 17 significant digits, CSV 12).
Wall-clock timing goes to the console only, never into the report, so that
reruns compare clean.  Exit status: 0 on success, 1 when ``ideal-check`` finds
a tolerance violated, 2 on a usage error (bad option value, sweep grid, path
or ``--design-file`` contents: one ``error:`` line, no report).
``fidelity-sweep --jobs`` is echoed, not used.

The argument parser is built once per process; ``main`` dispatches on the
subcommand to the ``cmd_*`` function of this module.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import closed_form
from . import tomography
from .blockade import parse_sequences
from .dynamics import (
    CNOT_TARGET,
    NoiseParams,
    cnot_unitary,
    evolve_unitary,
    local_rotation,
    term_isolation_unitary,
    times_in_picoseconds,
    zz_hamiltonian,
)
from .process_matrix import CHI_LABELS, hermiticity_defect, ideal_cnot_chi, process_fidelity


# ----------------------------------------------------------------------------
# Canonical serialization
# ----------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("reports must not contain non-finite numbers")
    out = format(float(x), ".17g")
    # Keep a float marker so the value round-trips as a float.
    if not any(ch in out for ch in ".eE"):
        out += ".0"
    return out


_FMT17 = "{:.17g}".format


def _float_row(row) -> str | None:
    """canonical_json of a non-empty list or tuple of floats in one pass; None for anything else.

    Only integral and non-finite values give a token with neither "." nor "e":
    those go through _fmt_float, which adds the float marker or raises.
    """
    if not isinstance(row, (list, tuple)) or not row or not all(type(x) is float for x in row):
        return None
    tokens = list(map(_FMT17, row))
    for token in tokens:
        if "." not in token and "e" not in token:
            tokens = [t if "." in t or "e" in t else _fmt_float(x) for x, t in zip(row, tokens)]
            break
    return "[" + ", ".join(tokens) + "]"


def canonical_json(value, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats and sorted keys.

    A row of floats, and a list of such rows, is formatted a row at a time;
    everything else recurses value by value.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            items.append(f"{inner}{json.dumps(str(key), ensure_ascii=False)}: {canonical_json(value[key], indent + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            return "[]"
        row = _float_row(value)
        if row is not None:
            return row
        rows = []
        for item in value:
            row = _float_row(item)
            if row is None:
                break
            rows.append(inner + row)
        else:
            return "[\n" + ",\n".join(rows) + f"\n{pad}]"
        scalars = all(isinstance(v, (int, float, np.integer, np.floating, str)) for v in value)
        if scalars:
            return "[" + ", ".join(canonical_json(v) for v in value) + "]"
        items = [f"{inner}{canonical_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def write_report(report: dict, path: str | None, fmt: str, csv_rows=None, csv_header=None) -> None:
    if fmt == "json":
        payload = canonical_json(report) + "\n"
    elif fmt == "csv":
        if csv_rows is None:
            raise ValueError("this subcommand has no CSV form")
        row_format = ",".join(["%.12g"] * len(csv_header.split(",")))
        lines = [csv_header]
        lines += [row_format % tuple(row) for row in csv_rows]
        payload = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is None:
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _chi_payload(chi: np.ndarray) -> dict:
    return {"chi_real": chi.real.tolist(), "chi_imag": chi.imag.tolist()}


def _base_params(args, extra: dict | None = None) -> dict:
    params = dict(extra or {})
    if getattr(args, "g_mev", None) is not None:
        params["g_mev"] = float(args.g_mev)
        params["times_ps"] = times_in_picoseconds(args.g_mev)
    return params


# ----------------------------------------------------------------------------
# ideal-check
# ----------------------------------------------------------------------------

def cmd_ideal_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    g = 1.0
    built = cnot_unitary(g)
    if args.inject_angle_error:
        # Rz_X commutes with H_A, so this perturbs the frame's Rz_X(pi/2) angle.
        built = local_rotation("X", "z", 1e-3) @ built
    cnot_dev = abs(1.0 - abs(np.trace(built.conj().T @ CNOT_TARGET)) / 4.0)
    iso_devs = []
    for _ in range(args.samples):
        t = rng.uniform(0.05, 2.0 * math.pi) / g
        v = term_isolation_unitary(g, t)
        w = evolve_unitary(zz_hamiltonian(g), t)
        iso_devs.append(abs(1.0 - abs(np.trace(v.conj().T @ w)) / 4.0))
    checks = [
        {"name": "cnot_synthesis_vs_target", "deviation": float(cnot_dev)},
        {
            "name": "term_isolation_identity",
            "max_deviation": float(max(iso_devs)),
            "samples": args.samples,
        },
    ]
    max_dev = max(cnot_dev, max(iso_devs))
    report = {
        "params": _base_params(args, {"tolerance": args.tol, "samples": args.samples,
                                      "inject_angle_error": bool(args.inject_angle_error)}),
        "checks": checks,
        "max_deviation": float(max_dev),
        "passed": bool(max_dev <= args.tol),
        "seed": args.seed,
        "method": "ideal-check",
    }
    write_report(report, args.out, "json")
    print(f"ideal-check: max deviation {max_dev:.3e} "
          f"({'PASS' if report['passed'] else 'FAIL'} at tol {args.tol:g})", file=sys.stderr)
    return 0 if report["passed"] else 1


# ----------------------------------------------------------------------------
# qpt
# ----------------------------------------------------------------------------

def _load_design(args) -> "tomography.TomographyDesign | None":
    """The design read from --design-file, or None for the shipped one.

    A file that does not parse, or does not hold 15 sequences of rank 16, is
    a usage error.
    """
    if args.design_file is None:
        return None
    try:
        with open(args.design_file, encoding="utf-8") as fh:
            return tomography.design_from_sequences(parse_sequences(fh.read()), g=1.0)
    except ValueError as exc:       # also a file that is not UTF-8 text
        _usage_error(f"{args.design_file}: {exc}")


_QPT_METHODS = {"pipeline": "pipeline", "closed-form": "closed_form", "montecarlo": "monte_carlo"}


def cmd_qpt(args) -> int:
    noise = NoiseParams.from_dimensionless(r=args.r, gdtau=args.gdtau)
    design = _load_design(args)
    if design is None and args.method == "all":
        design = tomography.design_sequences(g=noise.g)
    methods = list(_QPT_METHODS) if args.method == "all" else [args.method]
    results = {m: tomography.run_qpt(noise, method=_QPT_METHODS[m], mc_samples=args.samples,
                                     seed=args.seed, design=design) for m in methods}
    primary = results["closed-form"] if args.method == "all" else results[args.method]
    deviations = {}
    if args.method == "all":
        def maxdev(a, b):
            return float(np.max(np.abs(results[a].chi - results[b].chi)))
        deviations = {
            "pipeline_vs_closed_form": maxdev("pipeline", "closed-form"),
            "montecarlo_vs_pipeline": maxdev("montecarlo", "pipeline"),
            "montecarlo_vs_closed_form": maxdev("montecarlo", "closed-form"),
            # Off-diagonal sectors of the reconstruction depend on the sequence
            # design once readout or timing noise is on, so a pipeline versus
            # closed-form gap there is expected rather than a defect.
            "expected_discrepancy_caveat": bool(args.r < 1.0 or args.gdtau > 0.0),
        }
    report = {
        "params": _base_params(args, {"r": args.r, "gdtau": args.gdtau,
                                      "mc_samples": args.samples}),
        "ordering": list(CHI_LABELS),
        **_chi_payload(primary.chi),
        "fidelity": process_fidelity(primary, ideal_cnot_chi()),
        "hermiticity_defect": float(hermiticity_defect(primary)),
        "deviations": deviations,
        "seed": args.seed,
        "method": args.method,
    }
    write_report(report, args.out, "json")
    print(f"qpt[{args.method}] r={args.r} gdtau={args.gdtau}: F={report['fidelity']:.6f}",
          file=sys.stderr)
    return 0


# ----------------------------------------------------------------------------
# fidelity-sweep
# ----------------------------------------------------------------------------

def cmd_fidelity_sweep(args) -> int:
    if not 0.0 <= args.r_min < args.r_max <= 1.0:
        _usage_error("invalid sweep grid: need 0 <= --r-min < --r-max <= 1")
    gdtaus = args.gdtau_values
    rs = np.linspace(args.r_min, args.r_max, args.r_steps)
    rows = np.concatenate([
        np.column_stack((rs, np.full_like(rs, gdtau), closed_form.fidelity_closed_form(rs, gdtau)))
        for gdtau in gdtaus
    ]).tolist()
    report = {
        "params": _base_params(args, {
            "r_min": args.r_min, "r_max": args.r_max, "r_steps": args.r_steps,
            "gdtau_values": gdtaus, "jobs": args.jobs,
        }),
        "columns": ["r", "gdtau", "F"],
        "rows": rows,
        "seed": args.seed,
        "method": "closed-form",
    }
    write_report(report, args.out, args.format, csv_rows=rows, csv_header="r,gdtau,F")
    print(f"fidelity-sweep: {len(rows)} rows over gdtau in {gdtaus}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------------
# entanglement-threshold
# ----------------------------------------------------------------------------

def cmd_entanglement_threshold(args) -> int:
    design = _load_design(args) or tomography.design_sequences(g=1.0)
    result = tomography.entanglement_threshold(design, gdtau=args.gdtau, tol=args.tol)
    report = {
        "params": _base_params(args, {"gdtau": args.gdtau, "tolerance": args.tol}),
        "r_star": result.r_star,
        "bracket_history": result.bracket_history,
        "curve": result.curve,
        "endpoints": {"r0": result.endpoint_low, "r1": result.endpoint_high},
        "message": result.message,
        "seed": args.seed,
        "method": "pipeline",
    }
    write_report(report, args.out, "json")
    if result.r_star is None:
        print(f"entanglement-threshold: {result.message}", file=sys.stderr)
    else:
        print(f"entanglement-threshold: r* = {result.r_star:.4f} (gdtau={args.gdtau})",
              file=sys.stderr)
    return 0


# ----------------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------------

def _usage_error(message: str):
    """Report a usage error on one line and exit 2, as argparse does."""
    print(f"spinqpt: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _number(kind, check, requirement: str):
    """argparse type: a kind() value passing check; NaN fails every check."""
    def convert(text: str):
        value = kind(text)
        if not check(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}")
        return value
    convert.__name__ = kind.__name__     # argparse names it in "invalid float value"
    return convert


_polarization = _number(float, lambda x: 0.0 <= x <= 1.0, "a polarization in [0, 1]")
_gdtau = _number(float, lambda x: 0.0 <= x < math.inf, "a finite gdtau >= 0")
_tolerance = _number(float, lambda x: 0.0 < x < math.inf, "a finite tolerance > 0")
_sample_count = _number(int, lambda n: n >= 1, "a sample count >= 1")
_coupling_mev = _number(
    float, lambda x: 0.0 < x < math.inf and all(map(math.isfinite, times_in_picoseconds(x).values())),
    "a coupling > 0 in meV with finite pulse times")
#: Largest --r-steps: 10**7 points per gdtau already make a report of several hundred MB.
_MAX_R_STEPS = 10_000_000
_r_steps = _number(int, lambda n: 2 <= n <= _MAX_R_STEPS, f"a step count in [2, {_MAX_R_STEPS}]")
_seed = _number(int, lambda n: n >= 0, "a seed >= 0")


def _gdtau_list(text: str) -> list:
    return [_gdtau(item) for item in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinqpt",
        description="Exchange-built CNOT simulation and blockade-readout process tomography",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output file (default: stdout)")
    common.add_argument("--seed", type=_seed, default=0, help="master seed, 64-bit")
    common.add_argument("--g-mev", type=_coupling_mev, default=None, dest="g_mev",
                        help="report pulse times in picoseconds for this coupling (meV); cosmetic")

    p = sub.add_parser("ideal-check", parents=[common],
                       help="verify the noiseless gate-synthesis identities")
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    p.add_argument("--samples", type=_sample_count, default=20)
    p.add_argument("--inject-angle-error", action="store_true",
                   help="test hook: perturb one rotation angle to force a failure")

    p = sub.add_parser("qpt", parents=[common], help="emit a process matrix")
    p.add_argument("--r", type=_polarization, default=1.0)
    p.add_argument("--gdtau", type=_gdtau, default=0.0)
    p.add_argument("--method", default="closed-form",
                   choices=["pipeline", "closed-form", "montecarlo", "all"])
    p.add_argument("--samples", type=_sample_count, default=100_000,
                   help="trajectories per probability in montecarlo mode")
    p.add_argument("--design-file", default=None,
                   help="custom 15-sequence design, blank-line separated line format")

    p = sub.add_parser("fidelity-sweep", parents=[common],
                       help="closed-form process fidelity over a polarization grid")
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=1.0)
    p.add_argument("--r-steps", type=_r_steps, default=21)
    p.add_argument("--gdtau-values", type=_gdtau_list, default="0,0.1",
                   help="comma-separated gdtau values, one sweep per value")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and echoed in the report; "
                        "the sweep always runs in-process, so it changes nothing")

    p = sub.add_parser("entanglement-threshold", parents=[common],
                       help="smallest polarization with entangled reconstructed output")
    p.add_argument("--gdtau", type=_gdtau, default=0.0)
    p.add_argument("--tol", type=_tolerance, default=1e-4)
    p.add_argument("--design-file", default=None,
                   help="custom 15-sequence design, blank-line separated line format")
    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up at call time, so a wrapper installed on the module attribute runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    start = time.perf_counter()
    try:
        status = command(args)
    except OSError as exc:
        _usage_error(str(exc))
    print(f"({time.perf_counter() - start:.2f}s)", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
