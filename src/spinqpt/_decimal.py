"""Correctly rounded ``"%.17g"`` and ``"%.12g"`` text of float64 arrays, a whole array at a time.

``g_cells(values, precision, marker)`` gives one NUL-padded byte row per value
with the bytes of ``"%.*g" % (precision, value)``; with ``marker`` a value
printed without a point or an exponent gets a ``.0`` suffix, as the JSON
writer's ``_fmt_float`` does.  It also gives the mask of the values it leaves
to ``%``: zeros, values outside ``[10**(precision - 23), 10**precision)`` in
size, and a value whose rounding carries out of that range.

Why the digits are exact.  For a value in range, ``e = floor(log10|x|)`` and
``q = precision - 1 - e`` lie in ``[0, 22]``, so ``10**q`` is a double and
Dekker's two-product (Dekker, Numer. Math. 18, 224, 1971) writes
``|x| * 10**q`` as an exact sum ``hi + lo``.  Rounding that sum half to even
to an integer gives the ``precision`` significant digits that a correctly
rounded conversion (Gay, AT&T Numerical Analysis Manuscript 90-10, 1990), and
so CPython's ``%``, prints.  ``log10`` may put ``e`` one off near a power of
ten: the exact product is then outside ``[10**(precision - 1), 10**precision)``,
and those values are done again with ``e`` moved by one.  An integer that
rounds up to ``10**precision`` is ``10**(precision - 1)`` at ``e + 1``.

The text is one flat ``take`` from each value's digits and a few constant
characters, through a layout table keyed by (sign, exponent, kept digits),
which says where the point, the zeros and the exponent go.  The tables are
built on first use.

``grid_rows`` is the sweep writer's path for large grids: ``cli._grid_rows``
hands it every grid of at least ``cli._ARRAY_GRID_MIN`` F cells.  It lives
here, not in ``cli``, so that only such a sweep compiles it.
"""

from __future__ import annotations

import functools

import numpy as np

from .cli import _ROW_LAYOUTS, SweepGrid, _cell_formats

#: Dekker's splitter for float64, 2**27 + 1.
_SPLIT = 134217729.0
#: The largest q with 10**q exactly a double.
_MAX_Q = 22
#: The characters a layout takes besides digits; the first, NUL, pads a row.
_ALPHABET = "\0-.e+0123456789"


def row_width(precision: int) -> int:
    """Bytes in a row: the longest "%.*g" text, "-d.ddde-308", and a ".0"-marked integer fit."""
    return precision + 7


def _split(a: np.ndarray) -> tuple:
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _powers() -> tuple:
    """10**q for q in [0, 22], with Dekker's split of each."""
    p = 10.0 ** np.arange(_MAX_Q + 1)
    return (p, *_split(p))


@functools.cache
def _digit_table() -> np.ndarray:
    """The four ASCII digits of each of 0 ... 9999, one uint32 per number."""
    number = np.arange(10_000, dtype=np.uint16)
    digits = np.stack([number // 1000, number // 100 % 10, number // 10 % 10, number % 10], axis=1)
    return (digits.astype(np.uint8) + ord("0")).view(np.uint32).ravel()


@functools.cache
def _alphabet_words() -> np.ndarray:
    """_ALPHABET, NUL-padded to whole uint32 words."""
    words = -(-len(_ALPHABET) // 4)
    return np.frombuffer(_ALPHABET.ljust(4 * words, "\0").encode("ascii"), dtype=np.uint32)


def _groups(precision: int) -> int:
    """Groups of four digits that hold a precision-digit integer."""
    return -(-precision // 4)


@functools.cache
def _layouts(precision: int, marker: bool) -> np.ndarray:
    """For each (sign, exponent, kept digits), the source of each byte of the text.

    A source below ``4 * _groups(precision)`` is a digit of the value's digit
    row (right-aligned, so digit j of the text is ``offset + j``); above it,
    a character of ``_ALPHABET``.
    """
    digits = 4 * _groups(precision)
    offset = digits - precision
    char = {c: digits + i for i, c in enumerate(_ALPHABET)}
    exponents = range(precision - 1 - _MAX_Q, precision)
    table = np.full((2, len(exponents), precision, row_width(precision)), char["\0"], dtype=np.intp)
    for sign in (0, 1):
        for xi, exp in enumerate(exponents):
            for kept in range(1, precision + 1):
                d = [offset + j for j in range(kept)]
                if -4 <= exp < precision:
                    if exp >= 0:
                        whole = [offset + j for j in range(exp + 1)]
                        frac = d[exp + 1:]
                        out = whole + ([char["."]] + frac if frac else
                                       [char["."], char["0"]] if marker else [])
                    else:
                        out = [char["0"], char["."]] + [char["0"]] * (-exp - 1) + d
                else:
                    out = d[:1] + ([char["."]] + d[1:] if kept > 1 else [])
                    out += [char["e"], char["-" if exp < 0 else "+"]] + [char[c] for c in f"{abs(exp):02d}"]
                out = [char["-"]] * sign + out
                table[sign, xi, kept - 1, :len(out)] = out
    return table.reshape(-1, row_width(precision))


def _scaled(x: np.ndarray, q: np.ndarray) -> tuple:
    """x * 10**q as hi + lo exactly, hi its rounded product: Dekker's two-product."""
    p, p_hi, p_lo = (t[q] for t in _powers())
    hi = x * p
    x_hi, x_lo = _split(x)
    return hi, ((x_hi * p_hi - hi) + x_hi * p_lo + x_lo * p_hi) + x_lo * p_lo


def _round_half_even(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The int64 nearest the exact sum hi + lo, ties to even; |lo| is at most half an ulp of hi."""
    # hi + lo = m + d + n + t with m, n integers, |d|, |t| <= 1/2: below 2**53 n = 0, above it d = 0,
    # so d -+ 1/2 is exact and comparing it with -t decides the last unit without rounding.
    m = np.rint(hi)
    d = hi - m
    n = np.rint(lo)
    t = lo - n
    k = m.astype(np.int64) + n.astype(np.int64)
    odd = (k & 1).astype(bool)
    k += (d - 0.5 > -t) | ((d - 0.5 == -t) & odd)
    k -= (d + 0.5 < -t) | ((d + 0.5 == -t) & odd)
    return k


def g_cells(values: np.ndarray, precision: int, marker: bool) -> tuple:
    """The "%.*g" text of each value of a 1-D float64 array as a NUL-padded uint8 row, and the mask
    of the values left to "%", whose rows are all NUL.  marker adds ".0" to a text with neither a
    point nor an exponent.  precision is at most 17."""
    x = np.abs(values)
    inside = (x >= 10.0 ** (precision - 1 - _MAX_Q)) & (x < 10.0 ** precision)
    x[~inside] = 1.0                            # log10 sees no zero, no NaN, no infinity
    low, high = 10 ** (precision - 1), 10 ** precision
    exp_min, exp_max = precision - 1 - _MAX_Q, precision - 1
    # Clipped into the range, an estimate one off at its edge moves toward the right e.
    exp = np.clip(np.floor(np.log10(x)).astype(np.intp), exp_min, exp_max)
    hi, lo = _scaled(x, exp_max - exp)
    # The product's exact value is below 10**(precision - 1) when e is one too large, and at least
    # 10**precision when it is one too small; only values with hi at or beyond a bound can be.
    todo = np.flatnonzero(((hi <= low) | (hi >= high)) & inside)
    for _ in range(2):                          # the estimate of e, then at most one move
        if not todo.size:
            break
        h, r = hi[todo], lo[todo]
        over = (h > high) | ((h == high) & (r >= 0))
        under = (h < low) | ((h == low) & (r < 0))
        moved = over | under
        todo = todo[moved]
        exp[todo] += over[moved].astype(np.intp) - under[moved]
        edge = (exp[todo] < exp_min) | (exp[todo] > exp_max)        # 10**q would not be exact
        inside[todo[edge]] = False
        todo = todo[~edge]
        hi[todo], lo[todo] = _scaled(x[todo], exp_max - exp[todo])
    inside[todo] = False                        # still off after one move
    k = _round_half_even(hi, lo)
    carry = (k == high) & inside                # the digits round up to 10**precision
    k[carry] = low
    exp += carry
    fallback = ~inside | (exp > exp_max)
    k[fallback] = low
    exp[fallback] = exp_min

    # Each row's source: its digits, four to a uint32 word, then the alphabet.
    groups = _groups(precision)
    alphabet = _alphabet_words()
    words = np.empty((x.size, groups + alphabet.size), dtype=np.uint32)
    words[:, groups:] = alphabet
    table = _digit_table()
    for j in range(groups - 1, 0, -1):
        rest = k // 10_000
        words[:, j] = table[k - rest * 10_000]
        k = rest
    words[:, 0] = table[k]
    source = words.view(np.uint8)
    kept = precision - np.argmax(source[:, 4 * groups - 1::-1] != ord("0"), axis=1)

    layout = (np.signbit(values) * (_MAX_Q + 1) + (exp - exp_min)) * precision + kept - 1
    index = _layouts(precision, marker)[layout]
    index += np.arange(0, source.size, source.shape[1])[:, None]
    cells = source.ravel().take(index)
    cells[fallback] = 0
    return cells, fallback


#: Values per kernel call and rows per piece of grid_rows: this bounds their temporaries, and keeps
#: the traced peak of a 20,002-row sweep below that of the "%" path.
_CHUNK = 2048
#: The kernel's precision and ".0" marker, by report format.
_FORMATS = {"json": (17, True), "csv": (12, False)}


def byte_cells(values: np.ndarray, fmt: str) -> np.ndarray:
    """The cells of a 1-D float64 array in report format fmt as NUL-padded uint8 rows, as wide as
    the longest: the kernel's bytes, and one "%" of cli._cell_formats for the values it leaves,
    which refuses a non-finite one.  The kernel takes _CHUNK values at a time."""
    cells = np.empty((values.size, row_width(_FORMATS[fmt][0])), dtype=np.uint8)
    fallback = np.empty(values.size, dtype=bool)
    for lo in range(0, values.size, _CHUNK):
        cells[lo:lo + _CHUNK], fallback[lo:lo + _CHUNK] = g_cells(values[lo:lo + _CHUNK], *_FORMATS[fmt])
    if fallback.any():
        rest = values[fallback]
        texts = ("\n".join(_cell_formats(rest, fmt)) % tuple(rest.tolist())).split("\n")
        cells[fallback] = np.array(texts, dtype=f"S{cells.shape[1]}").view(np.uint8).reshape(rest.size, -1)
    return cells[:, :np.count_nonzero(cells.any(axis=0))]


def grid_rows(grid: SweepGrid, fmt: str, sep: str) -> str:
    """cli._grid_rows through the kernel: every cell from byte_cells, each piece of _CHUNK rows laid
    out as one uint8 table of NUL-padded columns, start | r | comma | gdtau | comma | F | end + sep,
    which bytes.translate closes up."""
    start, comma, end = _ROW_LAYOUTS[fmt]
    r_cells = byte_cells(grid.r, fmt)
    head, comma_bytes, tail = (np.frombuffer(text.encode("ascii"), dtype=np.uint8)
                               for text in (start, comma, end + sep))
    pieces = []
    for g_cell, f in zip(byte_cells(grid.gdtau, fmt), grid.f):
        middle = np.concatenate([comma_bytes, g_cell, comma_bytes])
        for lo in range(0, f.size, _CHUNK):
            f_cells = byte_cells(f[lo:lo + _CHUNK], fmt)
            rows = len(f_cells)
            table = np.concatenate([np.broadcast_to(head, (rows, head.size)), r_cells[lo:lo + rows],
                                    np.broadcast_to(middle, (rows, middle.size)), f_cells,
                                    np.broadcast_to(tail, (rows, tail.size))], axis=1)
            pieces.append(table.tobytes().translate(None, b"\0").decode("ascii"))
    pieces[-1] = pieces[-1][:-len(sep)]
    return "".join(pieces)
