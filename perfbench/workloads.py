"""Seeded workloads: the CLI argv of every op and the oracle that checks its report.

Each workload yields the same cycle of ops over and over, one op per role:

    heavy        the workload's most expensive command, one call per sample
    medium       a cheaper command that loads the same layers differently
    light        small commands, timed in batches of consecutive calls
    ideal_check  ``ideal-check`` in batches, a control run by every workload

The oracle of an op receives the report bytes the CLI wrote and returns a list
of problems; an empty list means the output is correct.  References the oracle
needs (pipeline process matrices, Monte Carlo standard errors) are computed in
``setup``, which the benchmark counts as set-up time.

Every value a workload draws comes from ``random.Random(seed)``; the program
receives only the resulting argv.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass

import numpy as np

from spinqpt import closed_form, tomography
from spinqpt.blockade import sequence_probability
from spinqpt.dynamics import NoiseParams, noisy_cnot_channel
from spinqpt.process_matrix import CHI_ORDER
from spinqpt.qcore import apply_channel

ROLES = ("heavy", "medium", "light", "ideal_check")

#: Structural checks (trace preservation, Hermiticity) and cross-route equality.
STRUCT_TOL = 1e-10
CROSS_TOL = 1e-12
#: Largest |z| of a Monte Carlo entry against the pipeline before it counts as wrong.
MC_Z_MAX = 6.0
#: CSV rows carry 12 significant digits, JSON rows 17.
CSV_TOL = 1e-11

IDEAL_BATCH = 8

# chi[(m,n),(k,l)] must equal conj(chi[(n,m),(l,k)]).
_SWAP = np.array([CHI_ORDER.index((n, m)) for m, n in CHI_ORDER])
_TRACE_ROW = np.array([1.0] * 4 + [0.0] * 12)


@dataclass(frozen=True)
class Op:
    """One timed sample: consecutive CLI calls and one oracle per call."""

    role: str
    argvs: tuple
    checks: tuple


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_json(data: bytes):
    try:
        return json.loads(data), []
    except ValueError as exc:
        return None, [f"report is not JSON: {exc}"]


def fidelity_at_zero_noise(r) -> float:
    """F(r, 0) = (1 + 3r)^2 / 16, the paper's fidelity without timing noise."""
    return (1.0 + 3.0 * r) ** 2 / 16.0


def chi_problems(report: dict) -> tuple[np.ndarray | None, list]:
    """Process matrix of a qpt report, with its structural problems."""
    try:
        chi = np.array(report["chi_real"], dtype=float) + 1j * np.array(report["chi_imag"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        return None, [f"malformed chi: {exc!r}"]
    if chi.shape != (16, 16) or not np.all(np.isfinite(chi)):
        return None, ["chi is not a finite 16x16 array"]
    problems = []
    trace_err = float(np.max(np.abs(chi[:4].sum(axis=0) - _TRACE_ROW)))
    if trace_err > STRUCT_TOL:
        problems.append(f"trace preservation off by {trace_err:.3g}")
    herm_err = float(np.max(np.abs(chi - chi[_SWAP][:, _SWAP].conj())))
    if herm_err > STRUCT_TOL or not report.get("hermiticity_defect", 1.0) <= STRUCT_TOL:
        problems.append(f"hermiticity defect {herm_err:.3g} (reported {report.get('hermiticity_defect')})")
    return chi, problems


def check_ideal(data: bytes) -> list:
    report, problems = _parse_json(data)
    if problems:
        return problems
    if report.get("passed") is not True:
        return [f"ideal-check did not pass: max deviation {report.get('max_deviation')}"]
    return []


class Workload:
    """Base class: the seeded generator, the ideal-check control and warm-up."""

    name = ""
    #: How each role's time follows host speed, as a power of the calibration
    #: loop's slowdown: 1 for ops bound by the interpreter and small numpy
    #: calls, like the loop itself; 0.5 for ops dominated by large arrays or
    #: by other processes.
    SPEED_EXPONENT = {role: 1.0 for role in ROLES}

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.ideal_seeds = [self.rng.randrange(2**31) for _ in range(4)]
        self._ideal_next = 0

    def setup(self) -> None:
        """Compute oracle references; counted in set-up time."""

    def warmup(self) -> list:
        """Ops run once, untimed and unchecked, before the first timed op."""
        return [self.ideal_op()]

    def cycle(self) -> list:
        raise NotImplementedError

    def ideal_op(self) -> Op:
        argvs = []
        for _ in range(IDEAL_BATCH):
            seed = self.ideal_seeds[self._ideal_next % len(self.ideal_seeds)]
            self._ideal_next += 1
            argvs.append(("ideal-check", "--seed", str(seed)))
        return Op("ideal_check", tuple(argvs), (check_ideal,) * len(argvs))


# ----------------------------------------------------------------------------
# analytic: the dynamics, blockade and tomography code of the analytic pipeline
# ----------------------------------------------------------------------------

class Analytic(Workload):
    """Threshold searches, pipeline QPT at fresh noise points, closed-form QPT.

    Each pipeline QPT draws a fresh (r, gdtau), so no cache keyed on the noise
    parameters can hit; each threshold search reuses one gdtau for about 73
    negativity evaluations, so such a cache would hit there.
    """

    name = "analytic"
    LIGHT_BATCH = 10
    PIPELINE_PER_CYCLE = 2

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        rng = self.rng
        self.threshold_tol = 1e-2 if tiny else 1e-4
        gdtaus = [0.0] + [round(rng.uniform(0.02, 0.3), 6) for _ in range(4)]
        rng.shuffle(gdtaus)
        self.threshold_gdtaus = gdtaus
        self.r_star = {}
        # Closed-form points: two without timing noise, two with.
        self.cf_points = [(rng.random(), 0.0), (rng.random(), rng.uniform(0.0, 0.3)),
                          (rng.random(), 0.0), (rng.random(), rng.uniform(0.0, 0.3))]
        self.cf_refs = {}
        self._threshold_next = 0

    def setup(self) -> None:
        design = tomography.design_sequences(1.0)
        for r, g in self.cf_points:
            noise = NoiseParams.from_dimensionless(r=r, gdtau=g)
            self.cf_refs[(r, g)] = tomography.run_qpt(noise, method="pipeline", design=design).chi

    def warmup(self) -> list:
        return [self.pipeline_op(), self.closed_form_op()] + super().warmup()

    def cycle(self) -> list:
        ops = [self.threshold_op()]
        for _ in range(self.PIPELINE_PER_CYCLE):
            ops.append(self.pipeline_op())
        ops += [self.closed_form_op(), self.ideal_op()]
        return ops

    def threshold_op(self) -> Op:
        g = self.threshold_gdtaus[self._threshold_next % len(self.threshold_gdtaus)]
        self._threshold_next += 1
        argv = ("entanglement-threshold", "--gdtau", _fmt(g), "--tol", _fmt(self.threshold_tol))
        return Op("heavy", (argv,), (lambda data: self.check_threshold(g, data),))

    def check_threshold(self, g: float, data: bytes) -> list:
        report, problems = _parse_json(data)
        if problems:
            return problems
        r_star = report.get("r_star")
        if not isinstance(r_star, float):
            return [f"no threshold at gdtau={g}: {report.get('message')}"]
        tol = self.threshold_tol
        if g == 0.0 and abs(r_star - 1.0 / math.sqrt(3.0)) > tol:
            problems.append(f"r* = {r_star} at gdtau=0, expected 1/sqrt(3)")
        for g_seen, r_seen in self.r_star.items():
            if (g_seen < g and r_seen > r_star + tol) or (g_seen > g and r_seen < r_star - tol):
                problems.append(f"r* decreases in gdtau: r*({g_seen})={r_seen}, r*({g})={r_star}")
        self.r_star.setdefault(g, r_star)
        return problems

    def pipeline_op(self) -> Op:
        r = self.rng.random()
        g = 0.0 if self.rng.random() < 0.25 else self.rng.uniform(0.0, 0.3)
        argv = ("qpt", "--method", "pipeline", "--r", _fmt(r), "--gdtau", _fmt(g))
        return Op("medium", (argv,), (lambda data: self.check_pipeline(r, g, data),))

    def check_pipeline(self, r: float, g: float, data: bytes) -> list:
        reference = closed_form.chi_closed_form(r, g).chi
        return self._check_against(r, g, reference, data)

    def closed_form_op(self) -> Op:
        argvs, checks = [], []
        for i in range(self.LIGHT_BATCH):
            r, g = self.cf_points[i % len(self.cf_points)]
            argvs.append(("qpt", "--r", _fmt(r), "--gdtau", _fmt(g)))
            checks.append(lambda data, r=r, g=g: self._check_against(r, g, self.cf_refs[(r, g)], data))
        return Op("light", tuple(argvs), tuple(checks))

    @staticmethod
    def _check_against(r: float, g: float, reference: np.ndarray, data: bytes) -> list:
        """Pipeline and closed form agree everywhere at gdtau = 0, on the population block otherwise."""
        report, problems = _parse_json(data)
        if problems:
            return problems
        chi, problems = chi_problems(report)
        if chi is None:
            return problems
        block = slice(None) if g == 0.0 else slice(0, 4)
        diff = float(np.max(np.abs(chi[block, block] - reference[block, block])))
        if diff > CROSS_TOL:
            problems.append(f"chi differs from the other route by {diff:.3g} at r={r}, gdtau={g}")
        if g == 0.0 and abs(report["fidelity"] - fidelity_at_zero_noise(r)) > CROSS_TOL:
            problems.append(f"fidelity {report['fidelity']} != (1+3r)^2/16 at r={r}")
        return problems


# ----------------------------------------------------------------------------
# montecarlo: the sampling kernel
# ----------------------------------------------------------------------------

def expected_mc_stderr(noise: NoiseParams, design) -> np.ndarray:
    """Standard error of every chi entry for one trajectory per probability.

    The binomial errors sqrt(p (1 - p)) of the exact sequence probabilities
    are pushed through the linear reconstruction and the linear assembly of
    chi, the same propagation ``run_qpt`` applies to its sampled estimates.
    Divide by sqrt(samples) for a run with that many trajectories.
    """
    n_seq = design.n_sequences
    inverse = np.linalg.inv(design.design_matrix)[:, :n_seq]
    basis_abs2 = np.array([np.abs(b) ** 2 for b in tomography.PAULI_BASIS])
    channel = noisy_cnot_channel(noise)
    var = {}
    for label, rho_in in tomography.qpt_input_states().items():
        rho_out = apply_channel(channel, rho_in)
        p = np.clip([sequence_probability(seq, rho_out, noise) for seq in design.sequences], 0.0, 1.0)
        var_coeffs = inverse ** 2 @ (p * (1.0 - p))
        var[label] = np.tensordot(var_coeffs, basis_abs2, axes=1)
    var_action = {(m, m): var[("d", m)] for m in range(4)}
    for m in range(4):
        for n in range(m + 1, 4):
            v = var[("+", m, n)] + var[("-", m, n)] + 0.5 * (var[("d", m)] + var[("d", n)])
            var_action[(m, n)] = v
            var_action[(n, m)] = v.T
    stderr = np.empty((16, 16))
    for col, (k, l) in enumerate(CHI_ORDER):
        for row, (m, n) in enumerate(CHI_ORDER):
            stderr[row, col] = math.sqrt(var_action[(k, l)][m, n])
    return stderr


class MonteCarlo(Workload):
    """Monte Carlo QPT at a large, a middle and a small sample count.

    At the large count the vectorized trajectory kernel dominates; at the
    small count the fixed cost per (input, sequence) pair does.  Each noise
    point keeps one ``--seed``, so repeated argv check byte-identical reruns.
    """

    name = "montecarlo"
    SPEED_EXPONENT = dict(Workload.SPEED_EXPONENT, heavy=0.5, medium=0.5)
    SAMPLES = {"heavy": 20_000, "medium": 2_000, "light": 500}
    TINY_SAMPLES = {"heavy": 400, "medium": 200, "light": 100}
    N_POINTS = 2

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        rng = self.rng
        self.samples = self.TINY_SAMPLES if tiny else self.SAMPLES
        self.points = [(rng.uniform(0.5, 1.0), rng.uniform(0.05, 0.3), rng.randrange(2**31))
                       for _ in range(self.N_POINTS)]
        self.refs = {}
        self._next = {role: 0 for role in self.samples}

    def setup(self) -> None:
        design = tomography.design_sequences(1.0)
        for r, g, _ in self.points:
            noise = NoiseParams.from_dimensionless(r=r, gdtau=g)
            chi = tomography.run_qpt(noise, method="pipeline", design=design).chi
            self.refs[(r, g)] = (chi, expected_mc_stderr(noise, design))

    def warmup(self) -> list:
        r, g, seed = self.points[0]
        argv = ("qpt", "--method", "montecarlo", "--r", _fmt(r), "--gdtau", _fmt(g),
                "--samples", "10", "--seed", str(seed))
        return [Op("light", (argv,), (lambda data: [],))] + super().warmup()

    def cycle(self) -> list:
        return [self.mc_op("heavy"), self.ideal_op(), self.mc_op("light"), self.mc_op("medium"),
                self.ideal_op(), self.mc_op("light"), self.mc_op("medium"), self.ideal_op(),
                self.mc_op("light")]

    def mc_op(self, role: str) -> Op:
        r, g, seed = self.points[self._next[role] % len(self.points)]
        self._next[role] += 1
        n = self.samples[role]
        argv = ("qpt", "--method", "montecarlo", "--r", _fmt(r), "--gdtau", _fmt(g),
                "--samples", str(n), "--seed", str(seed))
        return Op(role, (argv,), (lambda data: self.check_mc(r, g, n, data),))

    def check_mc(self, r: float, g: float, n: int, data: bytes) -> list:
        report, problems = _parse_json(data)
        if problems:
            return problems
        chi, problems = chi_problems(report)
        if chi is None:
            return problems
        reference, unit_err = self.refs[(r, g)]
        diff = np.abs(chi - reference)
        err = unit_err / math.sqrt(n)
        sampled = err > 1e-12
        z = float(np.max(diff[sampled] / err[sampled])) if sampled.any() else 0.0
        if z > MC_Z_MAX:
            problems.append(f"Monte Carlo chi is {z:.2f} standard errors from the pipeline")
        exact = float(np.max(diff[~sampled])) if (~sampled).any() else 0.0
        if exact > 1e-9:
            problems.append(f"entry with zero variance differs from the pipeline by {exact:.3g}")
        return problems


# ----------------------------------------------------------------------------
# sweep: the closed form, the CLI process pool and the report serializer
# ----------------------------------------------------------------------------

def parse_sweep(data: bytes, fmt: str) -> tuple[np.ndarray | None, list]:
    """Rows (r, gdtau, F) of a fidelity-sweep report."""
    try:
        if fmt == "csv":
            text = data.decode("ascii")
            header, _, body = text.partition("\n")
            if header != "r,gdtau,F":
                return None, [f"unexpected CSV header {header!r}"]
            rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        else:
            report = json.loads(data)
            if report.get("columns") != ["r", "gdtau", "F"]:
                return None, [f"unexpected columns {report.get('columns')!r}"]
            rows = np.array(report["rows"], dtype=float).reshape(-1, 3)
    except (ValueError, UnicodeDecodeError) as exc:
        return None, [f"malformed sweep report: {exc}"]
    return rows, []


def sweep_problems(rows: np.ndarray, r_steps: int, gdtaus: list, tol: float) -> list:
    """Grid order, F in (0, 1], and F = (1+3r)^2/16 on every gdtau = 0 row."""
    if rows.shape != (r_steps * len(gdtaus), 3):
        return [f"expected {r_steps * len(gdtaus)} rows, got {rows.shape[0]}"]
    problems = []
    r_grid = np.tile(np.linspace(0.0, 1.0, r_steps), len(gdtaus))
    g_grid = np.repeat(gdtaus, r_steps)
    if np.max(np.abs(rows[:, 0] - r_grid)) > tol or np.max(np.abs(rows[:, 1] - g_grid)) > tol:
        problems.append("rows are not in grid order")
    f = rows[:, 2]
    if not np.all((f > 0.0) & (f <= 1.0 + tol)):
        problems.append("fidelity outside (0, 1]")
    zero = rows[:, 1] == 0.0
    dev = float(np.max(np.abs(f[zero] - fidelity_at_zero_noise(rows[zero, 0])), initial=0.0))
    if dev > tol:
        problems.append(f"gdtau=0 rows differ from (1+3r)^2/16 by {dev:.3g}")
    return problems


class Sweep(Workload):
    """A large sweep through the process pool, the same grid as JSON without it, the default sweep.

    ``--jobs 1`` bypasses the pool, so removing the pool should leave the
    medium op unchanged; a faster serializer or closed form shows on it.
    """

    name = "sweep"
    SPEED_EXPONENT = dict(Workload.SPEED_EXPONENT, heavy=0.5)
    R_STEPS = 10_001
    TINY_R_STEPS = 101
    LIGHT_BATCH = 5
    DEFAULT_STEPS, DEFAULT_GDTAUS = 21, [0.0, 0.1]

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.r_steps = self.TINY_R_STEPS if tiny else self.R_STEPS
        self.gdtaus = [round(self.rng.uniform(0.02, 0.3), 6) for _ in range(3)]
        self.f_by_grid = {}
        self._next = {"heavy": 0, "medium": 0}

    def warmup(self) -> list:
        return [self.default_op()] + super().warmup()

    def cycle(self) -> list:
        return [self.grid_op("heavy"), self.default_op(), self.grid_op("medium"), self.ideal_op(),
                self.default_op(), self.grid_op("medium")]

    def grid_op(self, role: str) -> Op:
        g = self.gdtaus[self._next[role] % len(self.gdtaus)]
        self._next[role] += 1
        argv = ("fidelity-sweep", "--r-steps", str(self.r_steps), "--gdtau-values", f"0,{_fmt(g)}")
        fmt = "csv"
        if role == "medium":
            fmt = "json"
            argv += ("--format", "json", "--jobs", "1")
        return Op(role, (argv,), (lambda data: self.check_grid(g, fmt, data),))

    def check_grid(self, g: float, fmt: str, data: bytes) -> list:
        rows, problems = parse_sweep(data, fmt)
        if rows is None:
            return problems
        tol = CSV_TOL if fmt == "csv" else CROSS_TOL
        problems = sweep_problems(rows, self.r_steps, [0.0, g], tol)
        if problems:
            return problems
        # The pooled CSV run and the single-process JSON run must agree.
        other = self.f_by_grid.get((g, "json" if fmt == "csv" else "csv"))
        if other is not None and float(np.max(np.abs(other - rows[:, 2]))) > CSV_TOL:
            problems.append("CSV and JSON sweeps of the same grid disagree")
        self.f_by_grid[(g, fmt)] = rows[:, 2]
        return problems

    def default_op(self) -> Op:
        argvs = (("fidelity-sweep",),) * self.LIGHT_BATCH
        return Op("light", argvs, (self.check_default,) * self.LIGHT_BATCH)

    def check_default(self, data: bytes) -> list:
        rows, problems = parse_sweep(data, "csv")
        if rows is None:
            return problems
        return sweep_problems(rows, self.DEFAULT_STEPS, self.DEFAULT_GDTAUS, CSV_TOL)


WORKLOADS = {cls.name: cls for cls in (Analytic, MonteCarlo, Sweep)}

#: The command behind each role, by workload, as the printed output names it.
ROLE_NAMES = {
    "analytic": {"heavy": "threshold_ms", "medium": "qpt_pipeline_ms",
                 "light": "qpt_closed_form_ms", "ideal_check": "ideal_check_ms"},
    "montecarlo": {"heavy": "qpt_mc_large_ms", "medium": "qpt_mc_medium_ms",
                   "light": "qpt_mc_small_ms", "ideal_check": "ideal_check_ms"},
    "sweep": {"heavy": "sweep_csv_ms", "medium": "sweep_json_ms",
              "light": "sweep_default_ms", "ideal_check": "ideal_check_ms"},
}
