"""erfc and erfcx against a high-precision arbitrary-precision oracle."""

import math
import random
import sys

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nigcdf import DomainError, erfc, erfcx
from nigcdf.special import _erfcx


@pytest.fixture(autouse=True, scope="module")
def _thirty_digits():
    # the references run at 30 digits, or at the more a test asks for, and
    # mpmath's precision is restored once this module's tests are done
    with mpmath.workdps(30):
        yield


def _ref_erfc(x: float) -> float:
    return float(mpmath.erfc(mpmath.mpf(x)))


def _ref_erfcx(x: float) -> float:
    xm = mpmath.mpf(x)
    return float(mpmath.exp(xm * xm) * mpmath.erfc(xm))


def test_erfc_at_zero_is_exactly_one():
    assert erfc(0.0) == 1.0


def test_erfcx_at_zero_is_exactly_one():
    assert erfcx(0.0) == 1.0


def test_erfc_frozen_value():
    assert erfc(2.0) == pytest.approx(0.0046777349810472658, rel=1e-15)


def test_erfcx_frozen_value():
    assert erfcx(1.0) == pytest.approx(0.42758357615580700, rel=1e-15)


@pytest.mark.parametrize("x", [0.3, 1.7, 5.0])
def test_erfc_reflection(x):
    assert erfc(x) + erfc(-x) == pytest.approx(2.0, abs=1e-15)


def test_erfcx_tail_asymptote():
    # erfcx(x) * x * sqrt(pi) -> 1, first correction -1/(2 x^2)
    v = erfcx(50.0) * 50.0 * math.sqrt(math.pi)
    assert abs(v - 1.0) <= 2e-4


def test_erfc_against_oracle_table():
    # 200 points spanning the series, trapezoid, and asymptotic regimes
    xs = [-26.0 + 52.0 * i / 199.0 for i in range(200)]
    worst = 0.0
    for x in xs:
        ref = _ref_erfc(x)
        worst = max(worst, abs(erfc(x) - ref) / abs(ref))
    assert worst <= 1e-14


def test_erfcx_against_oracle_table():
    xs = [30.0 * i / 99.0 for i in range(100)]
    xs += [26.0 * i / 99.0 for i in range(100)]
    worst = 0.0
    for x in xs:
        ref = _ref_erfcx(x)
        worst = max(worst, abs(erfcx(x) - ref) / abs(ref))
    assert worst <= 1e-14


def _worst_rel_error(f, ref, xs):
    with mpmath.workdps(40):
        return max(abs(f(x) - ref(x)) / abs(ref(x)) for x in xs)


def test_erfc_within_1e15_of_mpmath_wherever_normal():
    rng = random.Random(3)
    xs = [-6.0 + 33.3 * i / 1500 for i in range(1501)]
    xs += [rng.uniform(-6.0, 27.3) for _ in range(1500)]
    # past x ~ 26.55 erfc(x) is subnormal and carries fewer digits
    xs = [x for x in xs if _ref_erfc(x) >= sys.float_info.min]
    assert _worst_rel_error(erfc, _ref_erfc, xs) <= 1e-15


def test_erfcx_within_1e15_of_mpmath():
    rng = random.Random(4)
    xs = [40.0 * i / 1500 for i in range(1501)]
    xs += [rng.uniform(0.0, 40.0) for _ in range(1500)]
    # small x, where e^{x^2} and erfc(x) both sit near one
    xs += [math.exp(rng.uniform(math.log(1e-12), 0.0)) for _ in range(1000)]
    assert _worst_rel_error(erfcx, _ref_erfcx, xs) <= 1e-15


def _ref_erfcx_far(x: float):
    # mpmath's erfc overflows near x = 1e300, so from x = 1e6 on the reference
    # is the large-x series (DLMF 7.12.1) to four terms, in mpmath; its error is
    # below the first dropped term, 105 / (2 x^2)^4 < 1e-46 relative
    if x < 1e6:
        xm = mpmath.mpf(x)
        return mpmath.exp(xm * xm) * mpmath.erfc(xm)
    t = 1 / (2 * mpmath.mpf(x) ** 2)
    return (1 - t + 3 * t**2 - 15 * t**3) / (x * mpmath.sqrt(mpmath.pi))


def test_erfcx_asymptotic_branch_within_1e15_of_mpmath():
    # x log-uniform over [26, 1e300], across the switch to the Horner series
    # at 26 and past x ~ 1.3e154, where x*x overflows and the series is its
    # leading term 1/(x sqrt(pi))
    rng = random.Random(26)
    xs = [26.0, math.nextafter(26.0, 30.0), 1e154, 1e155, 1e300]
    xs += [math.exp(rng.uniform(math.log(26.0), math.log(1e300))) for _ in range(1500)]
    assert _worst_rel_error(erfcx, _ref_erfcx_far, xs) <= 1e-15
    # above DBL_MAX / sqrt(pi) the value is subnormal, not 0
    for x in (1.7e308, sys.float_info.max):
        assert erfcx(x) > 0.0
        assert abs(erfcx(x) - float(_ref_erfcx_far(x))) <= 1e-323


def _erfcx_rounded_by_round(x: float) -> float:
    """The product form of ``_erfcx`` with x_h = round(512 x) / 512: the reference for its rounding."""
    xh = round(x * 512.0) / 512.0
    xl = x - xh
    return math.exp(xh * xh) * math.exp(xl * (x + xh)) * math.erfc(x)


def test_erfcx_rounds_its_split_point_as_round_does():
    # ``_erfcx`` rounds 512 x to an integer by adding and subtracting
    # 1.5 * 2^52; it must give the double that ``round`` gave, ties to even
    # included: at every tie k/1024 on [0, 26] and at 10,000 seeded x there
    rng = random.Random(1024)
    xs = [k / 1024 for k in range(26 * 1024 + 1)]
    xs += [rng.uniform(0.0, 26.0) for _ in range(10_000)]
    differ = [x for x in xs if _erfcx(x).hex() != _erfcx_rounded_by_round(x).hex()]
    assert differ == []


def test_regime_boundaries_are_seamless():
    for x in (0.5, 9.0, 26.0):
        for eps in (-1e-9, 0.0, 1e-9):
            v = erfc(x + eps)
            assert v == pytest.approx(_ref_erfc(x + eps), rel=1e-14)
            vx = erfcx(x + eps)
            assert vx == pytest.approx(_ref_erfcx(x + eps), rel=1e-14)


def test_erfc_strictly_decreasing():
    # stay right of x ~ -5.9, where the value saturates at exactly 2.0
    grid = [erfc(-5.0 + 31.0 * i / 124.0) for i in range(125)]
    assert all(a > b for a, b in zip(grid, grid[1:]))


def test_erfc_saturates_at_two_on_the_far_left():
    assert erfc(-8.0) == 2.0
    assert erfc(-26.0) == 2.0


@pytest.mark.parametrize("x", [27.31, 30.0, 1e3, 1e6 + 0.75 / 512, 1.5e6, 1e300])
def test_erfc_far_tails_are_exact(x):
    # past the underflow point erfc(x) rounds to 0, and erfc(-x) to 2; far
    # out the split exponential's correction factor would overflow
    assert erfc(x) == 0.0
    assert erfc(-x) == 2.0


def test_erfc_underflow_cut_is_seamless():
    # erfc(27.3) is about 9e-326, below half the smallest subnormal
    assert _ref_erfc(27.3) == 0.0
    for x in (27.0, 27.2):
        # subnormal results, spaced 4.9e-324 apart
        assert 0.0 < erfc(x) and abs(erfc(x) - _ref_erfc(x)) <= 1e-323
    assert erfc(27.299) == 0.0 and erfc(27.301) == 0.0


@given(st.floats(min_value=-26.0, max_value=26.0))
def test_erfc_range(x):
    v = erfc(x)
    assert 0.0 <= v <= 2.0
    if x < 26.0:
        assert v > 0.0


@given(st.floats(min_value=0.0, max_value=25.0))
def test_erfc_erfcx_consistency(x):
    # e^{x^2} erfc(x) = erfcx(x) wherever both are representable
    v = erfc(x)
    if v > 0.0 and math.isfinite(math.exp(x * x)):
        assert erfcx(x) == pytest.approx(v * math.exp(x * x), rel=1e-13)


@given(st.floats(min_value=0.0, max_value=300.0))
def test_erfcx_positive_side_never_overflows(x):
    v = erfcx(x)
    assert 0.0 < v <= 1.0
    assert math.isfinite(v)


def test_erfcx_refuses_negative_x():
    # no caller needs x < 0, so erfcx raises the package's DomainError there,
    # from the smallest negative double on; -0.0 is zero, not negative
    for x in (-5e-324, -1e-12, -0.5, -26.0, -30.0, -sys.float_info.max):
        with pytest.raises(DomainError, match="x >= 0 only"):
            erfcx(x)
    assert erfcx(-0.0) == 1.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, "one", None])
def test_special_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        erfc(bad)
    with pytest.raises(DomainError):
        erfcx(bad)
