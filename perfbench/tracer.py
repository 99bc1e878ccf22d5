"""Spans around the public functions of each spinqpt layer, installed from outside.

The tracer wraps the functions in ``WRAPPED`` and replaces every reference to
them in the ``spinqpt`` module namespaces, so a name a module imported with
``from ... import`` is traced as well.  A span is (name, start, end, parent);
spans live in flat arrays in memory and are written out once, at the end.
A function's self time is its span's duration minus the time its child spans
cover.

Work done inside the process pool of ``fidelity-sweep`` happens in forked
workers: their spans stay in the workers and are invisible here.  The
recursive ``cli.canonical_json`` is deliberately not wrapped; its time shows
as self time of ``cli.write_report``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from time import perf_counter

import numpy as np

#: Qualified names of the wrapped functions.
WRAPPED = (
    "spinqpt.dynamics.exchange_hamiltonian",
    "spinqpt.dynamics.gaussian_averaged_channel",
    "spinqpt.dynamics.noisy_cnot_channel",
    "spinqpt.blockade.sequence_probability",
    "spinqpt.blockade.blockade_map",
    "spinqpt.blockade.propagate_sequence_samples",
    "spinqpt.blockade.sample_initial_states",
    "spinqpt.tomography.run_qpt",
    "spinqpt.tomography.design_sequences",
    "spinqpt.tomography.reconstruct_state",
    "spinqpt.tomography.assemble_channel_action",
    "spinqpt.tomography.reconstructed_output_negativity",
    "spinqpt.qcore.apply_channel",
    "spinqpt.qcore.negativity",
    "spinqpt.process_matrix.hermiticity_defect",
    "spinqpt.process_matrix.ideal_cnot_chi",
    "spinqpt.closed_form.chi_closed_form",
    "spinqpt.closed_form.fidelity_closed_form",
    "spinqpt.cli.cmd_fidelity_sweep",
    "spinqpt.cli.write_report",
    "numpy.linalg.eigh",
)

#: Root span of every CLI call the benchmark makes.
ROOT = "cli.main"

TRAJECTORIES = "blockade.propagate_sequence_samples.trajectories"
REPORT_BYTES = "cli.report_bytes"


def _layer(qualified: str) -> str:
    return qualified.removeprefix("spinqpt.")


SPAN_NAMES = (ROOT,) + tuple(_layer(q) for q in WRAPPED)


def metric_names(roles) -> list:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.self_ms"]
    names += [TRAJECTORIES, "blockade.mc_trajectories_per_s", "blockade.mc_survival_frac", REPORT_BYTES]
    names += [f"trace.overhead.{role}_ms" for role in roles]
    return names


class Tracer:
    """Span recorder; records only while ``active`` is set and wrappers are installed."""

    def __init__(self, roles):
        self.roles = tuple(roles)
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cycle = array("i")
        self.role = array("i")
        self._stack = [-1]
        self.active = False
        self.cur_cycle = 0
        self.cur_role = 0
        self.cycles = []                 # traced cycle ids, in order
        self.counters = {}               # (counter, cycle) -> total
        self.survivors = 0
        self._patches = []
        self._wrappers = {}
        hooks = {
            "spinqpt.blockade.propagate_sequence_samples": self._count_trajectories,
            "spinqpt.cli.write_report": self._count_report_bytes,
        }
        for nid, qualified in enumerate(WRAPPED, start=1):
            module_name, _, attr = qualified.rpartition(".")
            original = getattr(importlib.import_module(module_name), attr)
            self._wrappers[qualified] = (original, self._wrap(nid, original, hooks.get(qualified)))

    # -- recording ---------------------------------------------------------

    def open(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1])
        self.cycle.append(self.cur_cycle)
        self.role.append(self.cur_role)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, nid, fn, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _add(self, counter: str, value: float) -> None:
        key = (counter, self.cur_cycle)
        self.counters[key] = self.counters.get(key, 0) + value

    def _count_trajectories(self, args, kwargs, result) -> None:
        self._add(TRAJECTORIES, args[0].shape[0])
        self.survivors += int(np.count_nonzero(result[1]))

    def _count_report_bytes(self, args, kwargs, result) -> None:
        path = args[1] if len(args) > 1 else kwargs.get("path")
        if path is not None:
            self._add(REPORT_BYTES, os.path.getsize(path))

    # -- installation ------------------------------------------------------

    def install(self, cycle: int) -> None:
        """Patch every spinqpt namespace that holds a wrapped function."""
        self.cur_cycle = cycle
        self.cycles.append(cycle)
        modules = [m for name, m in list(sys.modules.items())
                   if name == "spinqpt" or name.startswith("spinqpt.")]
        for qualified, (original, wrapper) in self._wrappers.items():
            owner = importlib.import_module(qualified.rpartition(".")[0])
            for module in [owner] + modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def _arrays(self):
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "cycle": np.frombuffer(self.cycle, dtype=np.int32).copy(),
            "role": np.frombuffer(self.role, dtype=np.int32).copy(),
        }

    @staticmethod
    def self_times(a) -> np.ndarray:
        """Each span's duration minus the time its child spans cover."""
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                              minlength=len(duration))
        return duration - covered

    def metrics(self) -> dict:
        """Per-layer metrics: medians over traced cycles of per-cycle totals."""
        a = self._arrays()
        n_names = len(SPAN_NAMES)
        cycle_ids = np.array(self.cycles, dtype=np.int64)
        n_cycles = max(len(cycle_ids), 1)
        position = np.searchsorted(cycle_ids, a["cycle"]) if len(cycle_ids) else a["cycle"]
        flat = position * n_names + a["name"]
        self_s = self.self_times(a)
        calls = np.bincount(flat, minlength=n_cycles * n_names).reshape(n_cycles, n_names)
        busy = np.bincount(flat, weights=self_s, minlength=n_cycles * n_names).reshape(n_cycles, n_names)
        out = {}
        for nid, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = float(np.median(calls[:, nid]))
            out[f"{span}.self_ms"] = float(np.median(busy[:, nid])) * 1e3
        for counter in (TRAJECTORIES, REPORT_BYTES):
            out[counter] = float(np.median([self.counters.get((counter, c), 0) for c in self.cycles] or [0]))
        trajectories = sum(v for (name, _), v in self.counters.items() if name == TRAJECTORIES)
        kernel = SPAN_NAMES.index("blockade.propagate_sequence_samples")
        kernel_s = float(busy[:, kernel].sum())
        out["blockade.mc_trajectories_per_s"] = trajectories / kernel_s if kernel_s > 0 else 0.0
        out["blockade.mc_survival_frac"] = self.survivors / trajectories if trajectories else 0.0
        return out

    def calls_per_op(self, ops_by_role: dict) -> dict:
        """Mean calls of every span per op, by role: {role: {span: calls}}."""
        a = self._arrays()
        n_names = len(SPAN_NAMES)
        counts = np.bincount(a["role"] * n_names + a["name"],
                             minlength=len(self.roles) * n_names).reshape(len(self.roles), n_names)
        table = {}
        for rid, role in enumerate(self.roles):
            n_ops = ops_by_role.get(role, 0)
            if n_ops:
                table[role] = {span: round(float(counts[rid, nid]) / n_ops, 2)
                               for nid, span in enumerate(SPAN_NAMES) if counts[rid, nid]}
        return table

    def dump(self, path: str) -> None:
        """Write every span: names index SPAN_NAMES, roles index the role list."""
        np.savez(path, span_names=np.array(SPAN_NAMES), roles=np.array(self.roles), **self._arrays())
