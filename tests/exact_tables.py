"""Exact tables of the analytic engine: 16 x each tensor of the shipped design, as integers.

Every coefficient of the shipped design's ``pipeline_map``, ``chi0`` and
``reconstruction``, and of ``dynamics.CNOT_GATE_POLYNOMIAL``, is an integer
multiple of 1/16: the gate's phases are exact (-1, -i) and every rotation is a
multiple of pi/2.  ``test_tomography.py::TestExactTables`` pins the engine's
arrays to these integers within 1e-15, so a refactor may change their rounding
but not a coefficient.  Regenerate ``data/design_tables_x16.json`` with

    PYTHONPATH=src python tests/exact_tables.py

which first asserts that every rounding residual is below 1e-12, that
``pipeline_map`` and ``chi0`` hold an exact 0.0 in the real or imaginary part
of exactly the entries where the integer table has a zero (the engine zeroes
rounding residue when it builds them), and that the integer pipeline table,
with the integer chi0, reproduces
``forward_reference.forward_pipeline_chi`` within 1e-12 at random noise
points.  That reference shares no code with the design build, so the tables
are not just a copy of the engine's own floats.  The file holds each table's
shape and its nonzero entries as ``[flat index, 16 Re, 16 Im]``.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

TABLES = pathlib.Path(__file__).resolve().parent / "data" / "design_tables_x16.json"
SCALE = 16


def engine_arrays() -> dict:
    """The engine's arrays the tables pin, by name."""
    from spinqpt.dynamics import CNOT_GATE_POLYNOMIAL
    from spinqpt.tomography import design_sequences

    design = design_sequences()
    return {"pipeline_map": design.pipeline_map, "chi0": design.chi0,
            "reconstruction": design.reconstruction, "cnot_gate_polynomial": CNOT_GATE_POLYNOMIAL}


def load() -> dict:
    """The committed tables as integer-valued complex arrays, by name (16 x the engine's arrays)."""
    tables = {}
    for name, table in json.loads(TABLES.read_text(encoding="utf-8"))["tables"].items():
        dense = np.zeros(table["shape"], dtype=complex)
        for index, real, imag in table["nonzero"]:
            dense.flat[index] = complex(real, imag)
        tables[name] = dense
    return tables


def pipeline_chi(tables: dict, r: float, gdtau: float) -> np.ndarray:
    """The pipeline chi at (r, gdtau) from integer tables: chi0 plus the map at D = d^4, r and d, over 16."""
    from spinqpt.blockade import polynomial_value

    d = np.exp(-2.0 * gdtau**2)
    share = polynomial_value(polynomial_value(polynomial_value(tables["pipeline_map"], d**4), r), d)
    return ((tables["chi0"] + share) / SCALE).reshape(16, 16)


#: The engine arrays built with exact zeros in place of rounding residue.
ZEROED = ("pipeline_map", "chi0")


def integer_tables() -> dict:
    """16 x each engine array rounded to integers; a rounding residual of 1e-12 or more is an error, and
    so is a ZEROED array whose zeros are not the integer table's, part by part."""
    tables = {}
    for name, array in engine_arrays().items():
        scaled = SCALE * np.asarray(array)
        rounded = np.round(scaled.real) + 1j * np.round(scaled.imag)
        residual = np.max(np.abs(scaled - rounded))
        assert residual < 1e-12, f"{name}: 16 x it is {residual} away from integers"
        if name in ZEROED:
            for part in ("real", "imag"):
                assert np.array_equal(getattr(scaled, part) == 0, getattr(rounded, part) == 0), \
                    f"{name}: its {part} zeros are not the integer table's"
        tables[name] = rounded
    return tables


def check_against_forward(tables: dict, points: int = 6, seed: int = 0) -> float:
    """The largest |chi - forward_pipeline_chi| over random (r, gdtau); 1e-12 or more is an error."""
    from forward_reference import forward_pipeline_chi
    from spinqpt.dynamics import NoiseParams
    from spinqpt.tomography import design_sequences

    rng = np.random.default_rng(seed)
    worst = 0.0
    for r, gdtau in zip(rng.uniform(0.0, 1.0, points), rng.uniform(0.0, 2.0, points)):
        expected = forward_pipeline_chi(NoiseParams(r=float(r), gdtau=float(gdtau)), design_sequences())
        worst = max(worst, float(np.max(np.abs(pipeline_chi(tables, r, gdtau) - expected))))
    assert worst < 1e-12, f"the integer tables miss the forward reference by {worst}"
    return worst


def encode(tables: dict) -> str:
    """The tables as JSON, one nonzero entry per line."""
    blocks = []
    for name, table in tables.items():
        entries = [json.dumps([int(i), int(v.real), int(v.imag)])
                   for i, v in enumerate(table.ravel()) if v != 0]
        blocks.append(f'  {json.dumps(name)}: {{"shape": {json.dumps(list(table.shape))}, "nonzero": [\n    '
                      + ",\n    ".join(entries) + "\n  ]}")
    return f'{{"scale": {SCALE}, "tables": {{\n' + ",\n".join(blocks) + "\n}}\n"


def main() -> None:
    tables = integer_tables()
    worst = check_against_forward(tables)
    TABLES.write_text(encode(tables), encoding="utf-8")
    counts = ", ".join(f"{name} {np.count_nonzero(table)}" for name, table in tables.items())
    print(f"wrote {TABLES.name}: nonzero entries {counts}; forward reference within {worst:.1e}")


if __name__ == "__main__":
    main()
