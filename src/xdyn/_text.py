"""Exact float-to-text for whole numpy columns, byte for byte as CPython writes it.

``lines`` renders rows of float columns in blocks of BLOCK values, each cell
either ``"%.17g" % v`` (CSV) or ``float.__repr__(v)`` (JSON), with no Python
format call per value.

Exact domain: finite doubles with 1e-6 <= |x| < 1e17.  There |x| is scaled
by an exact power of ten 10^q (q <= 22) into [1e16, 1e17) with a Dekker
two-product, so the scaled value V = P + err is known exactly.  The 17
digits of "%.17g" are V rounded to the nearest integer.  The shortest
digits of repr are the nearest multiple of the largest 10^s (s <= 16) that
lies strictly inside V +- 2^(e-54) 10^q, the image of the interval that
reads back as x (on its boundary too when the significand is even).
Outside the domain CPython formats each distinct value once and the text
is spliced back in: +-0, subnormals, |x| < 1e-6 or >= 1e17, NaN and
infinities, powers of two for repr (their interval is lopsided) and exact
ties between two candidates.  Correctness therefore never depends on the
fast path.
"""
from __future__ import annotations

import numpy as np

# Values per block (1024 rows of five CSV cells, 5120 of a JSON column): a
# block's working arrays take about 130 bytes per value, whatever the rows.
BLOCK = 5 * 1024

# A cell is 28 two-byte slots, each byte a byte of the text or NUL: three
# slots of head (sign, and "0." with the zeros of a value below 1), 17 slots
# each holding a digit and the byte for a point after it, then the exponent
# and the separator that follows the cell.  Dropping the NULs leaves the text.
_WIDTH = 56
_HEAD = 3  # slots before the first digit
_EXP = 40  # byte of the exponent; CPython's own text fills the bytes before it
_SEP = 44  # byte of the separator, up to _WIDTH - _SEP bytes
_K_MIN, _K_MAX = -6, 16  # decimal exponents of the domain
_KS = _K_MAX - _K_MIN + 1


def _split(x):
    # Veltkamp split: hi carries the top 26 bits of x, and hi + lo == x.
    t = x * 134217729.0
    hi = t - (t - x)
    return hi, x - hi


_POW10 = np.array([float(10**q) for q in range(23)])  # exact doubles
_POW10_HI, _POW10_LO = _split(_POW10)


def _layout(k: int, shortest: bool) -> tuple[bytes, bytes, int, int]:
    """Head after the sign, exponent, digit the point follows (-1: in the head) and digits always shown.

    "%.17g" writes positional notation for -4 <= k < 17, repr for -4 <= k < 16;
    positional repr keeps a digit after the point, so 1.0 is "1.0".
    """
    if k < -4 or k >= (16 if shortest else 17):
        return b"", f"e{k:+03d}".encode(), 0, 1
    if k < 0:
        return b"0." + b"0" * (-k - 1), b"", -1, 1
    return b"", b"", k, k + 1 + shortest


def _tables(shortest: bool):
    """The point's digit per exponent; the decoration per (sign, exponent, digit after the point).

    A decoration row holds the head, the point, the exponent and "0" in
    every digit slot the layout always shows: "0" | digit is the digit.
    """
    made = [_layout(k, shortest) for k in range(_K_MIN, _K_MAX + 1)]
    rows = []
    for sign in (b"", b"-"):
        for head, tail, point, shown in made:
            for after in (False, True):
                row = bytearray(_WIDTH)
                row[: len(sign + head)] = sign + head
                row[2 * _HEAD : 2 * (_HEAD + shown) : 2] = b"0" * shown
                row[_EXP : _EXP + len(tail)] = tail
                if point >= 0 and (after or shown > point + 1):
                    row[2 * (_HEAD + point) + 1] = ord(".")
                rows.append(bytes(row))
    point = np.array([p for _, _, p, _ in made], dtype=np.intp)
    return point, np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(-1, _WIDTH)


_TABLES = {shortest: _tables(shortest) for shortest in (False, True)}

# Four digits as four slots: row i < 10000 holds the digits of i, row
# _STRIP + i the same with its trailing zeros as NUL (so row _STRIP is all
# NUL), row _LEAD + i the single digit i in the last slot.
_STRIP, _LEAD = 10000, 20000
_QUADS = np.zeros((_LEAD + 10, 4, 2), dtype=np.uint8)
_DIGITS = np.arange(48, 58, dtype=np.uint8)
for _j in range(4):  # digit j of i runs through 0..9, each held for 10^(3 - j) rows
    _QUADS[:_STRIP, _j, 0] = np.tile(np.repeat(_DIGITS, 10 ** (3 - _j)), 10**_j)
    # and is a trailing zero where i is a multiple of 10^(4 - j)
    _QUADS[_STRIP:_LEAD, _j, 0] = _QUADS[:_STRIP, _j, 0] * np.tile(np.arange(10 ** (4 - _j)) != 0, 10**_j)
_QUADS[_LEAD:, 3, 0] = _DIGITS
_QUADS = _QUADS.reshape(-1, 8).view(np.uint64).ravel()


def _rem(v, m: int):
    return v - v // m * m  # v % m; numpy divides by a scalar much faster than it takes %


def _scaled(a, q):
    """P, err with P + err == a * 10^q exactly, P the rounded product."""
    p = a * _POW10.take(q)
    ah, al = _split(a)
    bh, bl = _POW10_HI.take(q), _POW10_LO.take(q)
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _out_of_range(p, err):
    """-1 where P + err < 1e16, +1 where it is >= 1e17, else 0.

    (P - 10^j) + err has the sign of P + err - 10^j: P - 10^j is 0 or at
    least a spacing of P, more than |err|, and rounding keeps a sign.
    """
    return ((p - 1e17) + err >= 0.0).view(np.int8) - ((p - 1e16) + err < 0.0).view(np.int8)


def _shortest(d0, frac, a, q, d, exact):
    """repr's shortest digits, zero-padded to 17, from d (V's nearest 17); clears exact at ties.

    V = d0 + frac lies within h < 12 of any candidate, so every multiple of
    10^s with s >= 2 that can lie inside sits in (d0 - 12, d0 + 13], which
    holds at most one multiple of 100, m: all those levels pass together,
    exactly when m is inside, and m then has the digits of the largest.
    Distances are counted in units of 2^-53 as int64, which holds frac (a
    multiple of 2^-52) and h (one of 2^-53) exactly.
    """
    mant, e = np.frexp(a)
    exact &= mant != 0.5  # a power of two reads back from a lopsided interval
    # inside: distance < h, or == h with an even significand
    limit = np.ldexp(_POW10.take(q), e - 1).astype(np.int64) + ((a.view(np.int64) & 1) == 0)
    del mant, e
    f = (frac * 2.0**53).astype(np.int64)
    r = _rem(d0, 10)
    below = (r << 53) + f
    above = ((10 - r) << 53) - f
    tens = np.minimum(below, above) < limit
    exact &= ~(tens & (below == above))  # halfway between two: CPython decides
    d = np.where(tens, d0 - r + 10 * (below > above), d)
    del r, below, above, tens
    b = d0 + 13
    m = b - _rem(b, 100)
    return np.where((b - m < 25) & (np.abs(((d0 - m) << 53) + f) < limit), m, d)


def _decimal(x: np.ndarray, shortest: bool):
    """x as d * 10^(k - 16): 17-digit d, exponent index k - _K_MIN and the mask of the exact domain."""
    ax = np.abs(x)
    exact = (ax >= 1e-6) & (ax < 1e17)
    a = np.where(exact, ax, 1.0)  # keeps log10 and the arithmetic below quiet
    del ax
    q = np.minimum(np.maximum(16 - np.floor(np.log10(a)).astype(np.intp), 0), 22)
    p, err = _scaled(a, q)
    off = _out_of_range(p, err)
    fix = off.nonzero()[0]
    if fix.size:  # log10 misjudged the decade near a power of ten
        q[fix] = np.minimum(np.maximum(q[fix] - off[fix], 0), 22)
        p[fix], err[fix] = _scaled(a[fix], q[fix])
        exact[fix[_out_of_range(p[fix], err[fix]) != 0]] = False
    floor = np.floor(err)
    d0 = p.astype(np.int64) + floor.astype(np.int64)  # floor(V)
    frac = err - floor
    del p, err, floor
    exact &= frac != 0.5
    d = d0 + (frac > 0.5)
    if shortest:
        d = _shortest(d0, frac, a, q, d, exact)
    del d0, frac, a
    # digits that round up to the next power of ten go to CPython; no double
    # of the domain does (the one below a power of ten in it is 1e-6)
    exact &= d < 10**17
    return d, np.where(exact, 16 - q - _K_MIN, 0), exact


def _cells(x: np.ndarray, shortest: bool, decor: np.ndarray) -> np.ndarray:
    """(n, _WIDTH // 2) uint16: the text of x[i] and its separator in the slots of row i, NUL elsewhere.

    decor holds the decoration rows of _TABLES once for each separator;
    value i takes separator i % (number of separators).
    """
    n = x.size
    d, kk, exact = _decimal(x, shortest)
    hi = d // 10**8
    lo = d - hi * 10**8
    del d
    quads = np.empty((n, _WIDTH // 8), dtype=np.intp)  # take is fastest with intp
    quads[:, 0] = hi // 10**8
    mid = hi - quads[:, 0] * 10**8
    quads[:, 1] = mid // 10**4
    quads[:, 2] = mid - quads[:, 1] * 10**4
    quads[:, 3] = lo // 10**4
    quads[:, 4] = lo - quads[:, 3] * 10**4
    del hi, lo, mid
    zero = np.ones(n, dtype=bool)  # every lower group is 0: strip this one
    for j in range(4, 0, -1):
        quads[:, j] += _STRIP * zero
        zero &= quads[:, j] == _STRIP
    quads[:, 0] += _LEAD
    quads[:, 5:] = _STRIP
    cells = _QUADS.take(quads).view(np.uint16)
    del quads, zero
    point, base = _TABLES[shortest]
    after = cells.ravel().take(np.arange(n) * (_WIDTH // 2) + (_HEAD + 1) + point.take(kk))
    key = ((np.signbit(x) * _KS + kk) << 1) + (after != 0)  # a digit after the point
    seps = len(decor) // len(base)
    if seps > 1:
        key = key * seps + np.arange(n) % seps
    cells |= decor.take(key, axis=0)

    rest = np.flatnonzero(~exact)
    if rest.size:  # CPython's text before the exponent slots, the separator kept
        bits, inv = np.unique(x[rest].view(np.int64), return_inverse=True)
        fmt = float.__repr__ if shortest else "%.17g".__mod__
        text = np.array([fmt(v).encode() for v in bits.view(np.float64).tolist()], dtype=f"S{_SEP}")
        cells.view(np.uint8)[rest, :_SEP] = text.view(np.uint8).reshape(-1, _SEP)[inv.ravel()]
    return cells


def lines(columns, shortest: bool, sep: str, end: str):
    """Yield, block by block, the rows: each sep.join(its cells), followed by end but the last.

    columns are equal-length float arrays, or None for a column of empty
    cells; the first is an array.  Each cell is "%.17g" % v, or
    float.__repr__(v) when shortest.
    """
    present = [j for j, col in enumerate(columns) if col is not None]
    # the text between each present cell and the next one, or the row's end
    tails = [sep * (nxt - j) for j, nxt in zip(present, present[1:])]
    tails.append(sep * (len(columns) - 1 - present[-1]) + end)
    base = _TABLES[shortest][1]
    decor = np.repeat(base[:, None, :], len(tails), axis=1)
    for j, tail in enumerate(tails):
        decor[:, j, _SEP : _SEP + len(tail)] = np.frombuffer(tail.encode(), np.uint8)
    decor = decor.reshape(-1, _WIDTH).view(np.uint16)
    n, rows = len(columns[0]), BLOCK // len(present)
    for lo in range(0, n, rows):
        vals = np.stack([np.asarray(columns[j][lo : lo + rows], dtype=np.float64) for j in present], axis=1)
        text = _cells(vals.ravel(), shortest, decor).tobytes().translate(None, b"\0")
        if lo + rows >= n:
            text = text[: len(text) - len(end)]
        yield text.decode("ascii")
