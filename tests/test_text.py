"""The array formatter against CPython: every cell is "%.17g" % v or float.__repr__(v)."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xdyn._text import BLOCK, lines

FORMATS = {False: "%.17g".__mod__, True: float.__repr__}


def _powers_of_ten():
    p = np.array([10.0**k for k in range(-8, 19)])
    return [*p, *np.nextafter(p, 0.0), *np.nextafter(p, np.inf)]


EDGES = [
    *_powers_of_ten(),
    # "%.17g" switches to an exponent below 1e-4 and from 1e17, repr below 1e-4 and from 1e16
    1e-5, 9.9999999999999995e-5, 1e-4, 1.0000000000000001e-4, 0.00010000000000000009,
    1e16, 9999999999999998.0, 1e17, 99999999999999984.0, 1.0000000000000002e16,
    *(2.0**k for k in range(-30, 70, 7)), 2.0**-1074, 2.0**-1022, 2.0**1023,
    1.0 - 2.0**-53, 0.1 + 0.2, 0.1, 0.25, 37.5, 1.0, 3.0, 7.0, 1200.0, 1234567.0,
    0.0, -0.0, 5e-324, 1.7976931348623157e308, 2.2250738585072014e-308,
    123456789012345.625,  # "%.17g" halfway between two 17-digit strings
    5.432088488548378e16,  # shortest digits on the boundary, even significand
]


def _render(values, shortest):
    x = np.array(values, dtype=np.float64)
    return "".join(lines([x], shortest, "", "\n")).split("\n")


@pytest.mark.parametrize("shortest", [False, True], ids=["%.17g", "repr"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["pos", "neg"])
def test_edge_values_match_cpython(shortest, sign):
    values = [sign * v for v in EDGES]
    assert _render(values, shortest) == [FORMATS[shortest](v) for v in values]


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
    shortest=st.booleans(),
)
@example(values=[0.0, -0.0, 5e-324, -1e308], shortest=True)
@example(values=[123456789012345.625, 0.5], shortest=False)
def test_cells_match_cpython(values, shortest):
    assert _render(values, shortest) == [FORMATS[shortest](v) for v in values]


@settings(max_examples=100, deadline=None)
@given(
    exponent=st.integers(-7, 17),
    digits=st.integers(1, 10**17),
    shortest=st.booleans(),
)
def test_decimal_strings_read_back_match_cpython(exponent, digits, shortest):
    # short and long decimal strings, the values a time grid and a trace hold
    v = float(f"{digits}e{exponent - len(str(digits))}")
    assert _render([v, -v], shortest) == [FORMATS[shortest](v), FORMATS[shortest](-v)]


def test_random_bits_match_cpython():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**64, size=3 * BLOCK, dtype=np.uint64).view(np.float64)
    values = bits[np.isfinite(bits)].tolist()
    decades = (10.0 ** rng.uniform(-7, 17.5, size=3 * BLOCK)).tolist()
    for shortest in (False, True):
        for vals in (values, decades):
            assert _render(vals, shortest) == [FORMATS[shortest](v) for v in vals]


def test_rows_join_columns_and_skip_absent_ones():
    a, b = np.array([0.5, -2.0, 3e-7]), np.array([1.0, 0.0, 1e20])
    got = "".join(lines([a, None, b, None], False, ",", "\n"))
    assert got == "0.5,,1,\n-2,,0,\n2.9999999999999999e-07,,1e+20,"
