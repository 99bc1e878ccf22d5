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

``fidelity-sweep`` hands its rows to the writer as their grid
(``SweepGrid``: the r values, the gdtau values and the F table), not as a
materialized table: each r and each gdtau is formatted once, and one writer
gives the JSON and the CSV rows.  A grid of fewer than ``_ARRAY_GRID_MIN`` F
cells is written by "%" through row templates; a larger one through the
array kernel of ``spinqpt._decimal`` (exact "%.17g" and "%.12g" digits from
Dekker's two-product; zeros and values out of its range go through "%"),
which only such a sweep imports: the commands that write none do not compile
it.  Both give the same bytes.

A 2-D float64 table (``chi_real``, ``chi_imag``, the threshold's ``curve`` and
``bracket_history``) costs only its nonzero digits.  Its text is a template
built from its cells' kinds: the layout and every zero are literal text
(``0.0``, and ``-0.0`` for a negative zero), a nonzero cell is "%.17g" and a
bare integer "%.1f", so one "%" formats only the cells that carry digits.
Keys and other strings go straight to json's string encoder.

A report is written as pieces, never as one whole-report string.  The JSON
emitter folds every value into the str next to it, so a report without a
sweep grid is one piece, and a sweep report is a prefix, the grid's row pieces
(ASCII bytes from the kernel, at most ``_decimal._CHUNK`` rows each) and a
suffix.  ``write_report`` builds every piece, and so formats and checks every
value, before it opens the file; it writes the pieces in order in binary and
removes a regular file whose write fails.

The argument parser is built once per process; ``main`` dispatches on the
subcommand to the ``cmd_*`` function of this module.  ``ideal-check`` runs
its random times in blocks of ``IDEAL_CHECK_BLOCK``: one draw, one
eigendecomposition and one batch of gate products per block.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import operator
import os
import stat
import sys
import time
from json.encoder import encode_basestring

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


def _check_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError("reports must not contain non-finite numbers")


@dataclasses.dataclass(frozen=True, eq=False)
class SweepGrid:
    """The rows (r, gdtau, F) of a fidelity sweep, kept as their grid.

    ``f`` has shape ``(len(gdtau), len(r))``; row ``k * len(r) + i`` of the
    table is ``(r[i], gdtau[k], f[k, i])``, one block of rows per gdtau.
    """

    r: np.ndarray
    gdtau: np.ndarray
    f: np.ndarray


#: A JSON cell's text by its kind: the "%" format of a value that carries digits, "%.17g" or, for
#: a bare integer, "%.1f" (_fmt_float's ".0" marker); then the literal of +0.0 and of -0.0.
_CELL_TEXT = np.array(["%.17g", "%.1f", "0.0", "-0.0"], dtype=object)
#: A sweep row's opening, cell separator and closing, by report format.
_ROW_LAYOUTS = {"json": ("[", ", ", "]"), "csv": ("", ",", "")}


def _bare_integers(values: np.ndarray) -> np.ndarray:
    """Which values .17g prints as bare integers: the finite integral ones below 1e17 in size,
    which "%.1f" writes with the same digits and _fmt_float's ".0" marker."""
    return (values == np.trunc(values)) & (np.abs(values) < 1e17)


def _cell_formats(values: np.ndarray, fmt: str) -> list:
    """The "%" format of each value of a 1-D float64 array in report format fmt: _fmt_float's
    bytes for JSON, "%.12g" for CSV.  A non-finite value is refused in both."""
    _check_finite(values)
    if fmt == "csv":
        return ["%.12g"] * values.size
    return _CELL_TEXT[_bare_integers(values).view(np.uint8)].tolist()


def _cell_kinds(values: np.ndarray) -> np.ndarray:
    """The JSON kind of each value of a 1-D float64 array, as uint8 indices into _CELL_TEXT; a
    non-finite value is refused."""
    _check_finite(values)
    zero = values == 0.0
    negative_zero = zero & np.signbit(values)
    return _bare_integers(values).view(np.uint8) + zero.view(np.uint8) + negative_zero.view(np.uint8)


def _float_table(table: np.ndarray, inner: str) -> str:
    """The rows of a non-empty 2-D float64 array as JSON lists, joined by ",\n" + inner.

    The rows' template holds every zero as literal text and a "%" format for
    each other cell, so one "%" fills in only the cells that carry digits,
    with _fmt_float's bytes.
    """
    values = table.ravel()
    kinds = _cell_kinds(values)
    rows = zip(*[iter(_CELL_TEXT[kinds].tolist())] * table.shape[1])     # the cells, row by row
    template = "[" + ("],\n" + inner + "[").join(map(", ".join, rows)) + "]"
    return template % tuple(values[kinds < 2].tolist())


#: Fewest F cells for which a sweep's rows are written through the array kernel.  Its fixed cost,
#: about 0.4 ms, makes it lose to "%" below about 1000 cells in JSON and 2000 in CSV.
_ARRAY_GRID_MIN = 2048


def _grid_rows(grid: SweepGrid, fmt: str, sep: str) -> list:
    """The sweep's rows in report format fmt, parted by sep, as pieces whose concatenation is the
    bytes of formatting its materialized ``(len(gdtau) * len(r), 3)`` table value by value.

    Each r and each gdtau is formatted once.  A grid of fewer than
    _ARRAY_GRID_MIN F cells (the crossover of the two paths' costs) bakes them
    into one row template per gdtau block, which one "%" over the block's F
    values fills: one str piece per block.  A larger one goes through
    ``_decimal.grid_rows``, whose array kernel gives correctly rounded digits,
    so the bytes of "%", leaves zeros and values outside its range to "%"
    itself, and gives ASCII bytes pieces.
    """
    if grid.f.size >= _ARRAY_GRID_MIN:
        from . import _decimal           # loaded by the first large sweep, not by every command
        return _decimal.grid_rows(grid, fmt, sep)
    start, comma, end = _ROW_LAYOUTS[fmt]
    n, k = grid.r.size, grid.gdtau.size
    values = np.concatenate([grid.r, grid.gdtau, grid.f.ravel()])    # one check for the whole grid
    formats = _cell_formats(values, fmt)
    cells = ("\n".join(formats[:n + k]) % tuple(values[:n + k].tolist())).split("\n")
    # A block's template text: start, then (r cell, tail) per row, rows parted by sep + start;
    # every block but the first opens with sep too.
    parts = [sep + start] * (3 * n)
    parts[0] = start
    parts[1::3] = cells[:n]
    blocks = []
    for lo, g_cell in zip(range(n + k, values.size, n), cells[n:]):
        block_formats = formats[lo:lo + n]
        tails = {spec: comma + g_cell + comma + spec + end for spec in set(block_formats)}
        parts[2::3] = map(tails.__getitem__, block_formats)
        blocks.append("".join(parts) % tuple(values[lo:lo + n].tolist()))
        parts[0] = sep + start
    return blocks


def _json_scalar(value) -> str:
    """The JSON text of None, a bool, an int, a float or a str."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, str):
        return encode_basestring(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _emit_json(value, indent: int, text: list, pieces: list) -> None:
    """Append the JSON text of value to text, the small texts of the piece being built.  A
    ``SweepGrid`` closes that piece: text is joined onto pieces, then the grid's row pieces follow."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            text.append("{}")
            return
        opening = "{\n"
        for key in sorted(value):
            text.append(f"{opening}{inner}{encode_basestring(str(key))}: ")
            _emit_json(value[key], indent + 1, text, pieces)
            opening = ",\n"
        text.append(f"\n{pad}}}")
    elif isinstance(value, SweepGrid):
        text.append("[\n" + inner)
        pieces.append("".join(text))
        text.clear()
        pieces += _grid_rows(value, "json", ",\n" + inner)
        text.append(f"\n{pad}]")
    elif isinstance(value, np.ndarray):
        if value.ndim != 2 or value.dtype != np.float64:
            raise TypeError(f"cannot serialize a {value.ndim}-D {value.dtype} array")
        if not value.size:
            _emit_json(value.tolist(), indent, text, pieces)
        else:
            text += ["[\n" + inner, _float_table(value, inner), f"\n{pad}]"]
    elif isinstance(value, (list, tuple)):
        if all(isinstance(v, (int, float, np.integer, np.floating, str)) for v in value):
            text.append("[" + ", ".join(map(_json_scalar, value)) + "]")
            return
        opening = "[\n"
        for v in value:
            text.append(opening + inner)
            _emit_json(v, indent + 1, text, pieces)
            opening = ",\n"
        text.append(f"\n{pad}]")
    else:
        text.append(_json_scalar(value))


def _json_pieces(value, indent: int = 0, tail: str = "") -> list:
    """The JSON text of value, then tail, as pieces in order: everything but a ``SweepGrid``'s rows
    is folded into the str next to it, so a value without a grid is one str, and one with a grid is
    a prefix, the grid writer's row pieces and a suffix."""
    text, pieces = [], []
    _emit_json(value, indent, text, pieces)
    text.append(tail)
    pieces.append("".join(text))
    return pieces


def canonical_json(value, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats and sorted keys.

    The table types, a 2-D float64 array and a ``SweepGrid``, are written by
    one format each; other arrays are refused and everything else, lists of
    rows included, recurses value by value.  This is the join of the pieces
    that ``write_report`` writes one by one.
    """
    return "".join(p if isinstance(p, str) else p.decode("ascii") for p in _json_pieces(value, indent))


def write_report(report: dict, path: str | None, fmt: str) -> None:
    """Write the report as JSON, or as CSV: the header of its ``columns`` over
    the rows of its ``SweepGrid``, which only a sweep has.

    Every piece is built, so every value formatted and checked, before anything
    is written: a refused report leaves no file and writes nothing to stdout.
    A file is written in binary, str pieces as UTF-8, with no newline
    translation; a regular file whose write fails is removed.  Stdout gets the
    pieces as text.
    """
    if fmt == "json":
        pieces = _json_pieces(report, tail="\n")
    elif fmt == "csv":
        grid = report.get("rows")
        if not isinstance(grid, SweepGrid):
            raise ValueError("this subcommand has no CSV form")
        pieces = [",".join(report["columns"]) + "\n", *_grid_rows(grid, "csv", "\n"), "\n"]
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is None:
        for piece in pieces:
            sys.stdout.write(piece if isinstance(piece, str) else piece.decode("ascii"))
        return
    fh = open(path, "wb")
    try:
        with fh:
            for piece in pieces:
                fh.write(piece.encode("utf-8") if isinstance(piece, str) else piece)
    except OSError:
        # A partial report is no report; a device or a link, such as /dev/stdout, stays.
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)
        raise


def _chi_payload(chi: np.ndarray) -> dict:
    return {"chi_real": chi.real, "chi_imag": chi.imag}


def _base_params(args, extra: dict | None = None) -> dict:
    params = dict(extra or {})
    if getattr(args, "g_mev", None) is not None:
        params["g_mev"] = float(args.g_mev)
        params["times_ps"] = times_in_picoseconds(args.g_mev)
    return params


# ----------------------------------------------------------------------------
# ideal-check
# ----------------------------------------------------------------------------

#: Random times per block of ideal-check's term-isolation check, so memory stays O(block) at any --samples.
IDEAL_CHECK_BLOCK = 1024


def cmd_ideal_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    g = 1.0
    built = cnot_unitary(g)
    if args.inject_angle_error:
        # Rz_X commutes with H_A, so this perturbs the frame's Rz_X(pi/2) angle.
        built = local_rotation("X", "z", 1e-3) @ built
    cnot_dev = abs(1.0 - abs(np.trace(built.conj().T @ CNOT_TARGET)) / 4.0)
    # A block's one draw gives the same times as one scalar draw per sample.
    iso_dev = 0.0
    for done in range(0, args.samples, IDEAL_CHECK_BLOCK):
        t = rng.uniform(0.05, 2.0 * math.pi, size=min(args.samples - done, IDEAL_CHECK_BLOCK)) / g
        v = term_isolation_unitary(g, t)
        w = evolve_unitary(zz_hamiltonian(g), t)
        overlaps = np.trace(np.swapaxes(v.conj(), -1, -2) @ w, axis1=-2, axis2=-1)
        iso_dev = max(iso_dev, float(np.max(np.abs(1.0 - np.abs(overlaps) / 4.0))))
    checks = [
        {"name": "cnot_synthesis_vs_target", "deviation": float(cnot_dev)},
        {"name": "term_isolation_identity", "max_deviation": iso_dev, "samples": args.samples},
    ]
    max_dev = max(cnot_dev, iso_dev)
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
        with open(args.design_file, encoding="utf-8-sig") as fh:
            return tomography.design_from_sequences(parse_sequences(fh.read()))
    except ValueError as exc:       # also a file that is not UTF-8 text
        _usage_error(f"{args.design_file}: {exc}")


_QPT_METHODS = {"pipeline": "pipeline", "closed-form": "closed_form", "montecarlo": "monte_carlo"}


def cmd_qpt(args) -> int:
    noise = NoiseParams.from_dimensionless(r=args.r, gdtau=args.gdtau)
    design = _load_design(args)
    if design is None and args.method == "all":
        design = tomography.design_sequences()
    methods = list(_QPT_METHODS) if args.method == "all" else [args.method]
    results = {m: tomography.run_qpt(noise, method=_QPT_METHODS[m], mc_samples=args.samples,
                                     seed=args.seed, design=design) for m in methods}
    primary = results["closed-form"] if args.method == "all" else results[args.method]
    deviations = {}
    if args.method == "all":
        def maxdev(a, b):
            return float(np.max(np.abs(results[a].chi - results[b].chi)))
        mc = results["montecarlo"]
        sampled = mc.stderr > 1e-12
        gap = np.abs(mc.chi - results["pipeline"].chi)[sampled]
        deviations = {
            "pipeline_vs_closed_form": maxdev("pipeline", "closed-form"),
            "montecarlo_vs_pipeline": maxdev("montecarlo", "pipeline"),
            # The same gap in units of each entry's propagated standard error.
            "montecarlo_max_abs_z": float(np.max(gap / mc.stderr[sampled], initial=0.0)),
            "montecarlo_vs_closed_form": maxdev("montecarlo", "closed-form"),
            # Off-diagonal sectors of the reconstruction depend on the sequence
            # design once timing noise is on, so a pipeline versus closed-form
            # gap there is expected rather than a defect; readout noise alone
            # opens no gap.
            "expected_discrepancy_caveat": bool(args.gdtau > 0.0),
        }
    params = {"r": args.r, "gdtau": args.gdtau}
    if "montecarlo" in results:                 # --samples has no effect on the other routes
        params["mc_samples"] = args.samples
    report = {
        "params": _base_params(args, params),
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
    grid = SweepGrid(rs, np.array(gdtaus, dtype=float),
                     np.array([closed_form.fidelity_closed_form(rs, gdtau) for gdtau in gdtaus]))
    report = {
        "params": _base_params(args, {
            "r_min": args.r_min, "r_max": args.r_max, "r_steps": args.r_steps,
            "gdtau_values": gdtaus, "jobs": args.jobs,
        }),
        "columns": ["r", "gdtau", "F"],
        "rows": grid,
        "seed": args.seed,
        "method": "closed-form",
    }
    write_report(report, args.out, args.format)
    print(f"fidelity-sweep: {grid.f.size} rows over gdtau in {gdtaus}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------------
# entanglement-threshold
# ----------------------------------------------------------------------------

def cmd_entanglement_threshold(args) -> int:
    design = _load_design(args) or tomography.design_sequences()
    result = tomography.entanglement_threshold(design, gdtau=args.gdtau, tol=args.tol)
    report = {
        "params": _base_params(args, {"gdtau": args.gdtau, "tolerance": args.tol}),
        "r_star": result.r_star,
        "bracket_history": result.bracket_history,
        "curve": result.curve,
        "endpoints": {"r0": float(result.curve[0, 1]), "r1": float(result.curve[-1, 1])},
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
    """argparse type: a kind() value passing check; NaN fails every check.  -0 reads as 0, so no
    report carries a negative zero.  A text that is not a number fails like one out of range."""
    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not check(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}")
        return value + kind(0)
    return convert


_real = _number(float, lambda x: True, "a number")         # the sweep checks its grid as a whole
_polarization = _number(float, lambda x: 0.0 <= x <= 1.0, "a polarization in [0, 1]")
_gdtau = _number(float, lambda x: 0.0 <= x < math.inf, "a finite gdtau >= 0")
_tolerance = _number(float, lambda x: 0.0 < x < math.inf, "a finite tolerance > 0")
_sample_count = _number(int, lambda n: n >= 1, "a sample count >= 1")
_job_count = _number(int, lambda n: n >= 1, "a job count >= 1")
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
    common.add_argument("--seed", type=_seed, default=0, help="master seed, any integer >= 0")
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
    p.add_argument("--samples", type=_sample_count, default=tomography.DEFAULT_MC_SAMPLES,
                   help="trajectories per probability in montecarlo mode")
    p.add_argument("--design-file", default=None,
                   help="custom 15-sequence design, blank-line separated line format")

    p = sub.add_parser("fidelity-sweep", parents=[common],
                       help="closed-form process fidelity over a polarization grid")
    p.add_argument("--r-min", type=_real, default=0.0)
    p.add_argument("--r-max", type=_real, default=1.0)
    p.add_argument("--r-steps", type=_r_steps, default=21)
    p.add_argument("--gdtau-values", type=_gdtau_list, default="0,0.1",
                   help="comma-separated gdtau values, one sweep per value")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--jobs", type=_job_count, default=1,
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
