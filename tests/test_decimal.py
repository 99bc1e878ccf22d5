"""The array kernel's text is "%.*g" byte for byte, or the value is left to "%"."""

import fractions
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import spinqpt
from spinqpt import _decimal

#: (precision, marker): the JSON writer's "%.17g" with the ".0" marker, the CSV writer's "%.12g",
#: and each precision the other way.
CASES = [(17, True), (17, False), (12, False), (12, True)]


def percent_texts(values, precision):
    """ "%.*g" of each value, one "%" over the whole array."""
    return ("\n".join(["%%.%dg" % precision] * values.size) % tuple(values.tolist())).split("\n")


def reference(texts, precision, marker):
    """The texts as fixed-width bytes, with ".0" added to a text without a point or an exponent
    if marker."""
    if marker:
        texts = [t if "." in t or "e" in t else t + ".0" for t in texts]
    return np.array(texts, dtype="S%d" % _decimal.row_width(precision))


def assert_exact(values, precision, marker, texts=None):
    """Every value the kernel writes has the bytes of "%" (texts, if given, are "%.*g" of the
    values), and it leaves to "%" exactly the values out of its range and those whose digits round
    up to 10**precision; returns that mask."""
    cells, fallback = _decimal.g_cells(values, precision, marker)
    assert cells.shape == (values.size, _decimal.row_width(precision))
    assert not cells[fallback].any()
    text = cells.view("S%d" % cells.shape[1]).ravel()
    texts = percent_texts(values, precision) if texts is None else texts
    expected = reference(texts, precision, marker)
    wrong = np.flatnonzero((text != expected) & ~fallback)
    assert wrong.size == 0, [(values[i], text[i], expected[i]) for i in wrong[:5]]
    carried_out = np.abs(np.array(list(map(float, texts)))) >= 10.0 ** precision
    odd = np.flatnonzero(fallback != (~in_range(values, precision) | carried_out))
    assert odd.size == 0, [(values[i], fallback[i]) for i in odd[:5]]
    return fallback


def in_range(values, precision):
    """|x| in [10**(precision - 23), 10**precision), compared exactly."""
    low = 10.0 ** (precision - 23)
    if fractions.Fraction(low) < fractions.Fraction(10) ** (precision - 23):
        low = np.nextafter(low, np.inf)
    size = np.abs(values)
    return (size >= low) & (size < 10.0 ** precision)


def random_finite(rng, size):
    bits = rng.integers(0, 2 ** 64, size=2 * size, dtype=np.uint64)
    values = bits.view(np.float64)
    return values[np.isfinite(values)][:size]


def random_around_range(rng, size):
    """Doubles with random mantissa bits and sign, their size uniform in exponent over 1e-12 ... 1e18."""
    binary = rng.integers(-40, 60, size=size)          # 2**-40 ~ 9e-13, 2**60 ~ 1.2e18
    mantissa = rng.integers(0, 2 ** 52, size=size, dtype=np.uint64)
    values = ((binary + 1023).astype(np.uint64) << np.uint64(52) | mantissa).view(np.float64)
    return np.where(rng.random(size) < 0.5, -values, values)


@pytest.mark.parametrize("precision", [17, 12])
def test_random_bit_patterns(precision):
    values = random_finite(np.random.default_rng(precision), 1_000_000)
    assert values.size == 1_000_000
    texts = percent_texts(values, precision)
    for marker in (True, False):
        assert_exact(values, precision, marker, texts)


@pytest.mark.parametrize("precision,marker", CASES)
def test_random_values_around_the_range(precision, marker):
    values = random_around_range(np.random.default_rng(100 + precision), 500_000)
    assert_exact(values, precision, marker)


def exact_ties(precision, rng, count):
    """Doubles exactly half-way between two precision-digit decimals, (k + 1/2) * 10**m with k of
    precision digits.  For m = j - s they are o * 5**j * 2**(j - s - 1) with o = (2k + 1) / 5**s odd:
    exact whenever o * 5**j < 2**53."""
    values = []
    for s in range(0, 21):
        o_min = -(-2 * 10 ** (precision - 1) // 5 ** s)
        o_max = min(2 ** 53, 2 * 10 ** precision // 5 ** s)
        if o_min >= o_max:
            continue
        odd = [int(o) | 1 for o in rng.integers(o_min, o_max, size=count)]
        for j in range(4):
            values += [float(o * 5 ** j) * 2.0 ** (j - s - 1) for o in odd if o * 5 ** j < 2 ** 53]
    return np.array(values)


@pytest.mark.parametrize("precision,marker", CASES)
def test_half_way_ties(precision, marker):
    ties = exact_ties(precision, np.random.default_rng(3), 400)
    assert ties.size > 5000
    # Each is a tie: the two candidate decimals are equally far, so "%" rounds to the even one.
    values = np.concatenate([ties, -ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)])
    assert_exact(values, precision, marker)


@pytest.mark.parametrize("precision,marker", CASES)
def test_powers_of_ten_and_their_neighbours(precision, marker):
    powers = 10.0 ** np.arange(-30, 31)
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    values = np.concatenate([values, -values, 2.0 * values, 5.0 * values, 9.0 * values])
    assert_exact(values, precision, marker)


@pytest.mark.parametrize("precision,marker", CASES)
def test_carries(precision, marker):
    carries = np.array([9.9999999999999995e-1, 0.95, 0.995, 99999999999.95, 999999999999.5,
                        9.5, 99.5, 9.99999999999995, 0.9999999999995, 1 - 2 ** -53, 1 - 2 ** -52,
                        99999999999999999.0, 9999999999999998.0, 9.9999999999999999e-7])
    nines = np.array([float("0." + "9" * n) for n in range(1, 20)]
                     + [float("9" * n + ".5") for n in range(1, 17)])
    values = np.concatenate([carries, nines])
    values = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, 2 * values), -values])
    assert_exact(values, precision, marker)


@pytest.mark.parametrize("precision,marker", CASES)
def test_edges(precision, marker):
    tiny, huge = 5e-324, np.finfo(np.float64).max
    edges = np.array([0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, 1e-310, huge, -huge,
                      1e-6, 1e17, 1e-11, 1e12, 1e-5, 1e-4, 1e16, 2.0 ** 53, 2.0 ** 53 + 2, 1.0, -1.0])
    below_max = edges[np.abs(edges) < huge]             # whose neighbour away from 0 is finite
    values = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(below_max, 2 * below_max)])
    assert_exact(values, precision, marker)


def test_benchmark_sized_grid_falls_back_only_on_its_zeros():
    from spinqpt.closed_form import fidelity_closed_form

    r = np.linspace(0.0, 1.0, 10_001)
    gdtau = np.array([0.0, 0.123456])
    f = np.concatenate([fidelity_closed_form(r, g) for g in gdtau])
    for values in (r, gdtau, f):
        for precision, marker in CASES:
            assert (assert_exact(values, precision, marker) == (values == 0.0)).all()


def test_importing_the_cli_leaves_the_kernel_unloaded():
    # A fresh interpreter on this checkout: the commands that never write a large sweep do not
    # compile the kernel, and importing it builds none of its tables.
    code = ("import sys, spinqpt.cli; print('spinqpt._decimal' in sys.modules); "
            "from spinqpt import _decimal as d; "
            "print([f.cache_info().currsize for f in (d._powers, d._digit_table, d._alphabet_words, d._layouts)])")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(spinqpt.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split("\n")[:2] == ["False", "[0, 0, 0, 0]"]
