"""The package names the benchmark under perfbench/ depends on.

perfbench/tracer.py wraps functions by qualified name, and perfbench/workloads.py
reads attributes of the spinqpt modules it imports as modules.  Renaming or
deleting one of them breaks the benchmark; these tests make that a test failure
here as well.
"""

import ast
import importlib
import importlib.util
import pathlib
import sys

import numpy as np

from spinqpt.dynamics import NoiseParams
from spinqpt.tomography import design_sequences

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module        # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    wrapped = load_perfbench("tracer").WRAPPED
    missing = []
    for qualified in wrapped:
        module, _, attr = qualified.rpartition(".")
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.append(qualified)
    assert len(wrapped) == 21 and missing == []


def test_module_attributes_read_by_workloads_exist():
    # Every `module.attr` read in workloads.py, for each module bound by `from spinqpt import ...`.
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name: importlib.import_module(f"spinqpt.{alias.name}")
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "spinqpt"
               for alias in node.names}
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in modules}
    assert {"closed_form", "tomography"} <= {module for module, _ in read}
    assert [f"{module}.{name}" for module, name in sorted(read) if not hasattr(modules[module], name)] == []


def test_workloads_reference_stderr_still_runs():
    # expected_mc_stderr keys its variances by the labels of qpt_input_states().
    workloads = load_perfbench("workloads")
    noise = NoiseParams.from_dimensionless(r=0.8, gdtau=0.1)
    stderr = workloads.expected_mc_stderr(noise, design_sequences(1.0))
    assert stderr.shape == (16, 16) and np.all(np.isfinite(stderr))


def test_traced_monte_carlo_counts_every_trajectory(tmp_path):
    # A Monte Carlo QPT averages its weight forms and makes no kernel call;
    # sequence_probability_mc thins the same forms through propagate_sequence_samples,
    # and the tracer counts the rows of its first argument, the (rows, 4) batch of
    # starting states of one call: n over one estimate.
    tracer_module = load_perfbench("tracer")
    shapes = []

    class Recording(tracer_module.Tracer):
        def _count_trajectories(self, args, kwargs, result):
            shapes.append((args[0].shape, args[0].dtype, args[0].flags.f_contiguous, result[1].shape))
            super()._count_trajectories(args, kwargs, result)

    from spinqpt import blockade, cli

    n = 300
    metrics = {}
    for label, run in (
        ("qpt", lambda: cli.main(["qpt", "--method", "montecarlo", "--samples", str(n), "--seed", "1",
                                  "--out", str(tmp_path / "report")])),
        ("estimate", lambda: blockade.sequence_probability_mc(
            blockade.MeasureSequence(steps=(blockade.Project("up"), blockade.Evolve(0.7), blockade.Project("up"))),
            np.diag([0.5, 0.5, 0.0, 0.0]), NoiseParams(r=0.8, gdtau=0.1), n, np.random.default_rng(2))),
    ):
        tracer = Recording(("light",))
        tracer.install(0)
        tracer.active = True
        try:
            result = run()
        finally:
            tracer.active = False
            tracer.uninstall()
        metrics[label] = tracer.metrics()
    assert result.n_samples == n
    assert metrics["qpt"][tracer_module.TRAJECTORIES] == 0
    assert metrics["qpt"]["blockade.propagate_sequence_samples.calls"] == 0
    assert metrics["qpt"]["tomography.run_qpt.calls"] == 1
    assert metrics["estimate"][tracer_module.TRAJECTORIES] == n
    assert metrics["estimate"]["blockade.propagate_sequence_samples.calls"] == len(shapes) == 1
    assert shapes == [((n, 4), complex, True, (n,))]
