"""Coefficient rows against their closed forms and the series-inversion loop."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nigcdf import DomainError, cdf_asym, d_closed_form, d_coefficients, validate
from nigcdf.coeffs import _KMAX_LIMIT, _row_values, _rows
from nigcdf.expansion import _series_kernel

W_RANGE = st.floats(min_value=0.05, max_value=1.0)


def test_d_zeroth_is_one():
    for w in (0.05, 0.31, 0.8, 1.0):
        assert d_coefficients(w, 0) == (1.0,)


def test_d_frozen_values_at_w_one():
    vals = d_coefficients(1.0, 2)
    assert vals[1] == pytest.approx(-3.0 / 8.0, rel=1e-15)
    assert vals[2] == pytest.approx(15.0 / 32.0, rel=1e-15)


def test_d_closed_form_frozen_values():
    assert d_closed_form(0.7, 0) == 1.0
    assert d_closed_form(1.0, 3) == pytest.approx(-1.025390625, rel=1e-15)
    # limit w -> 0+ of the k=1 rational form
    assert d_closed_form(1e-12, 1) == pytest.approx(-0.5, abs=1e-12)


def test_d_recursion_matches_closed_forms_at_w_08():
    table = d_coefficients(0.8, 4)
    for k in range(1, 5):
        assert table[k] == pytest.approx(d_closed_form(0.8, k), rel=1e-14)


@given(W_RANGE)
def test_d_recursion_matches_closed_forms(w):
    table = d_coefficients(w, 4)
    for k in range(5):
        ref = d_closed_form(w, k)
        assert abs(table[k] - ref) <= 1e-13 * abs(ref)


def test_d_factorial_growth():
    # |d_k| eventually increases in k for fixed w
    vals = d_coefficients(0.3, 25)
    tail = [abs(v) for v in vals[-10:]]
    assert all(a < b for a, b in zip(tail, tail[1:]))


def test_d_table_metadata():
    assert len(d_coefficients(0.4, 3)) == 4


@pytest.mark.parametrize("w", [0.0, -0.1, 1.0 + 1e-12, 2.0, math.nan, "w", None])
def test_d_rejects_bad_w(w):
    with pytest.raises(DomainError):
        d_coefficients(w, 2)
    with pytest.raises(DomainError):
        d_closed_form(w, 1)


@pytest.mark.parametrize("k", [-1, 5, 2.0, True, "3"])
def test_d_closed_form_rejects_bad_k(k):
    with pytest.raises(DomainError):
        d_closed_form(0.5, k)


@pytest.mark.parametrize("kmax", [-1, 2.5, True, "3", None])
def test_kmax_must_be_a_nonnegative_integer(kmax):
    with pytest.raises(DomainError):
        d_coefficients(0.5, kmax)


def test_kmax_past_the_limit_is_refused_before_any_row_is_built():
    built = _rows.cache_info().currsize
    with pytest.raises(DomainError, match="kmax must be"):
        d_coefficients(0.5, _KMAX_LIMIT + 1)
    with pytest.raises(DomainError, match="kmax must be"):
        cdf_asym(validate(8.0, 2.0, 3.0, 2.0), 5.0, kmax=_KMAX_LIMIT + 1)
    assert _rows.cache_info().currsize == built
    assert all(math.isfinite(d) for d in d_coefficients(0.5, _KMAX_LIMIT))


def test_the_largest_series_kernel_evaluates():
    # the longest sum: Horner over 152 rows of up to 152 coefficients each
    assert all(math.isfinite(v) for v in _series_kernel(_KMAX_LIMIT)(500.0, 1.0, 1.0))


def test_kmax_limit_is_the_last_finite_row():
    rows = _rows(_KMAX_LIMIT + 1)
    assert all(math.isfinite(c) for c in rows[_KMAX_LIMIT])
    assert not all(math.isfinite(c) for c in rows[_KMAX_LIMIT + 1])


def _reference_d_values(w, kmax):
    """d_0..d_kmax by the per-call series inversion the rows replace.

    b_0 = w + w^2, b_1 = w + w^2/2, b_{j+1} = -(j - 1/2) b_j / (j + 1) from
    b_2 = -w^2/8; c_0 = 1, c_k = -(1/b_0) sum_{j=1..k} b_j c_{k-j}; and
    d_k = (1/2)_k c_k.
    """
    b = [w + w * w, w + 0.5 * w * w, -w * w / 8.0]
    for k in range(2, kmax):
        b.append(-(k - 0.5) * b[k] / (k + 1))
    c = [1.0]
    values = [1.0]
    poch = 1.0
    for k in range(1, kmax + 1):
        c.append(-sum(b[j] * c[k - j] for j in range(1, k + 1)) / b[0])
        poch *= k - 0.5
        values.append(poch * c[k])
    return values


def _log_uniform_ws(n, seed):
    rng = random.Random(seed)
    return [math.exp(rng.uniform(math.log(1e-13), 0.0)) for _ in range(n)] + [1.0]


def test_rows_equal_the_closed_form_numerators():
    # d_k (1 + w)^k for k <= 4, read off d_closed_form, highest power first
    assert _rows(4) == (
        (1.0,),
        tuple(-c / 4 for c in (1, 2)),
        tuple(3 * c / 32 for c in (3, 9, 8)),
        tuple(-15 * c / 128 for c in (5, 20, 29, 16)),
        tuple(105 * c / 2048 for c in (35, 175, 345, 325, 128)),
    )


def test_rows_at_w_zero_are_the_pochhammer_symbols_exactly():
    # K(z, 0) = pi erfcx(sqrt z), whose asymptotic series has
    # d_k(0) = (-1)^k (1/2)_k; the recursion's w^0 terms carry no rounding
    # beyond that of the product (1/2)_k itself, formed in ascending order
    poch = 1.0
    for k, d in enumerate(_row_values(0.0, _KMAX_LIMIT)):
        if k:
            poch *= k - 0.5
        assert d == (-1.0) ** k * poch, k
    # and that product is (1/2)_k to within its k roundings
    exact = Fraction(1)
    for k in range(1, _KMAX_LIMIT + 1):
        exact *= Fraction(2 * k - 1, 2)
    assert abs(Fraction(poch) - exact) <= _KMAX_LIMIT * 2.0**-53 * exact


def test_rows_are_sign_definite_to_k_30():
    # Horner on w in (0, 1] then adds terms of one sign and cannot cancel
    for k, row in enumerate(_rows(30)):
        assert len(row) == k + 1
        assert all(c != 0.0 and (c > 0.0) == (k % 2 == 0) for c in row), k


def test_rows_do_not_depend_on_kmax():
    assert _rows(30)[:6] == _rows(5)


def test_d_values_match_the_reference_recursion_to_k_30():
    worst = 0.0
    for w in _log_uniform_ws(400, seed=11):
        for got, ref in zip(d_coefficients(w, 30), _reference_d_values(w, 30)):
            worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-13


@pytest.mark.parametrize("kmax", [0, 1, 5, 12, 25])
def test_series_matches_the_reference_sum(kmax):
    rng = random.Random(kmax)
    for w in _log_uniform_ws(60, seed=kmax):
        z = math.exp(rng.uniform(math.log(30.0), math.log(1e4)))
        # K(z, w) ~ sqrt(pi/z) / (1 + w) * sum_k d_k(w) / z^k
        pref = math.sqrt(math.pi / z) / (1.0 + w)
        terms = [pref * d / z**k for k, d in enumerate(_reference_d_values(w, kmax))]
        series, _, tail, _, work = _series_kernel(kmax)(z, w, w)
        scale = sum(abs(t) for t in terms)
        assert work == kmax
        assert abs(series - sum(terms)) <= 1e-13 * scale
        assert tail == pytest.approx(abs(terms[-1]), rel=1e-13, abs=0.0)


def _outcome(f, *args):
    """The float.hex of each K and dK ``f`` returns, or the DomainError message it raises."""
    try:
        return [v.hex() for v in f(*args)[:4]]
    except DomainError as exc:
        return str(exc)


# The kernel once summed its series by a straight-line function compiled from
# the rows, which unrolled the loop the kernel now runs.  These are the first
# 16 hex digits of the SHA-256 of the compiled function's outcomes over the
# draws of the test below, recorded before the loop replaced it; the draws
# and the kernel's arithmetic are exact IEEE operations, so they hold on
# every platform.
_COMPILED_DIGESTS = {
    0: "10434bd18ff4adfa", 1: "bf76897be4005abe", 2: "48eceebba2bec466",
    3: "d737645ff8d967f9", 4: "3c5ca954d48d228c", 5: "37d4a4c98aa3a77a",
    6: "26760152575be6c6", 7: "ed0e79d632d7cdb9", 8: "82dfd6c7eca20f0b",
    9: "fc13c3a3b93cb880", 10: "c31c87d66490510a", 11: "4a405ae1df4da87d",
    12: "1f0436469e6aa2f6", 13: "595d984ca3e5716b", 14: "6414e000eafdf25c",
    15: "ef08f5ac5dc2cd27", 16: "9c5362d2500d961a", 17: "56379d1f460c756e",
    18: "478958e31f8698ae", 19: "5dd715f35d4fe8be", 20: "2d3998ab061fb07f",
    21: "a3aebade7cbb5488", 22: "7ee804dedb2737ee", 23: "11c59b7441a548ce",
    24: "f4b0206636cf9696", 25: "14a6a78f010d4964", 26: "22d9439c24e0c1ba",
    27: "ec37c7143e906241", 28: "25ecd75a34b7c7c7", 29: "6f2dca8d77651d6a",
    30: "10dcad6fa96b0c0c", 50: "28aefb5aefc61f2a", 100: "b20e527fed0c12e9",
    _KMAX_LIMIT: "cba5be1e623fe420",
}


@pytest.mark.parametrize("kmax", [*range(31), 50, 100, _KMAX_LIMIT])
def test_series_kernel_matches_the_loop_bit_for_bit(kmax):
    # the loop against the compiled function it replaced, DomainError messages included
    rng = random.Random(1000 + kmax)
    digest = hashlib.sha256()
    refused = 0
    for _ in range(200):
        # z on [2^-7, 2^27] and each w on [2^-44, 1), drawn by exact scalings
        z = math.ldexp(rng.uniform(1.0, 2.0), rng.randint(-7, 26))
        w_plus = math.ldexp(rng.uniform(1.0, 2.0), rng.randint(-44, -1))
        w_minus = math.ldexp(rng.uniform(1.0, 2.0), rng.randint(-44, -1))
        outcome = _outcome(_series_kernel(kmax), z, w_plus, w_minus)
        digest.update(repr(outcome).encode())
        refused += isinstance(outcome, str)
    assert digest.hexdigest()[:16] == _COMPILED_DIGESTS[kmax]
    if kmax >= 100:
        # z below about 0.03 overflows from kmax = 100 on, and so exercises the error
        assert refused > 0
