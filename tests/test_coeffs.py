"""Coefficient rows against their closed forms and the series-inversion loop."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nigcdf import DomainError, cdf, d_closed_form, d_coefficients, validate
from nigcdf.coeffs import (
    _KMAX_LIMIT,
    _d_values,
    _horner,
    _rows,
    _small_z_horner,
    _small_z_rows,
)
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
    compiled = _horner.cache_info().currsize
    with pytest.raises(DomainError, match="kmax must be"):
        d_coefficients(0.5, _KMAX_LIMIT + 1)
    with pytest.raises(DomainError, match="kmax must be"):
        cdf(validate(8.0, 2.0, 3.0, 2.0), 5.0, method="asym", kmax=_KMAX_LIMIT + 1)
    assert _rows.cache_info().currsize == built
    assert _horner.cache_info().currsize == compiled
    assert all(math.isfinite(d) for d in d_coefficients(0.5, _KMAX_LIMIT))


def test_the_largest_series_kernel_compiles():
    # the longest source: one statement per coefficient of 152 rows
    assert all(math.isfinite(v) for v in _horner(_KMAX_LIMIT)(1.0, 1e-3))


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
    for k, d in enumerate(_d_values(0.0, _KMAX_LIMIT)):
        if k:
            poch *= k - 0.5
        assert d == (-1.0) ** k * poch, k
    # and that product is (1/2)_k to within its k roundings
    exact = Fraction(1)
    for k in range(1, _KMAX_LIMIT + 1):
        exact *= Fraction(2 * k - 1, 2)
    assert abs(Fraction(poch) - exact) <= _KMAX_LIMIT * 2.0**-53 * exact


def test_small_z_rows_equal_their_hand_sums():
    # U_n and V_n for n <= 3, from A_0 = 1, A_1 = a, A_2 = a^2/2 + 1/16,
    # A_3 = a^3/6 + a/16, B_0 = B_1 = 0, B_2 = 1/16 and B_3 = a/16
    assert _small_z_rows(3) == (
        ((1.0,), (1 / 18, 1 / 36)),
        ((1 / 4,), (1 / 96, 5 / 256)),
        ((1.0,), (1 / 6, 1 / 48)),
        ((1 / 2,), (1 / 24, 1 / 64)),
    )
    assert tuple(table[:2] for table in _small_z_rows(13)) == _small_z_rows(3)


@pytest.mark.parametrize("order", [1, 3, 13, 25])
def test_small_z_sums_match_the_loop_bit_for_bit(order):
    # the loop that the compiled function unrolls, table by table
    rng = random.Random(order)
    tables = _small_z_rows(order)
    for _ in range(50):
        b, y = rng.uniform(0.0, 0.25), rng.uniform(0.0, 0.25)
        totals, lasts = [], []
        for rows in tables:
            rows = list(reversed(rows))
            last = 0.0
            for c in rows[0]:
                last = last * b + c
            total = last
            for row in rows[1:]:
                p = 0.0
                for c in row:
                    p = p * b + c
                total = total * y + p
            totals.append(total)
            lasts.append(last)
        got = _small_z_horner(order)(b, y)
        assert got[:8] == (*totals, *lasts)
        assert got[8] == pytest.approx(y ** (len(tables[0]) - 1), rel=1e-14)


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
        for got, ref in zip(_d_values(w, 30), _reference_d_values(w, 30)):
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
        series, _, tail, _ = _series_kernel(kmax)(z, w, w)
        scale = sum(abs(t) for t in terms)
        assert abs(series - sum(terms)) <= 1e-13 * scale
        assert tail == pytest.approx(abs(terms[-1]), rel=1e-13, abs=0.0)


def _loop_series(z, w, kmax):
    """K(z, w) to order kmax and its last term by a Horner loop over ``_rows``.

    The loop that the compiled ``_horner`` functions unroll: Horner in
    y = 1 / ((1 + w) z) over the rows from P_kmax down, each row by Horner
    in w from 0.0, then the factor sqrt(pi/z) / (1 + w).
    """
    y = 1.0 / ((1.0 + w) * z)
    rows = reversed(_rows(kmax))
    last = 0.0
    for c in next(rows):
        last = last * w + c
    total = last
    yk = 1.0
    for row in rows:
        p = 0.0
        for c in row:
            p = p * w + c
        total = total * y + p
        yk *= y
    scale = math.sqrt(math.pi / z) / (1.0 + w)
    series = scale * total
    tail = abs(scale * last) * yk
    if not math.isfinite(series + tail):
        raise DomainError(
            f"the expansion of order kmax={kmax} leaves the double range at z={z!r}"
        )
    return series, tail


def _outcome(f, *args):
    """The float.hex of each value ``f`` returns, or the DomainError message it raises."""
    try:
        return [v.hex() for v in f(*args)]
    except DomainError as exc:
        return str(exc)


def _loop_kernel(kmax, z, w_plus, w_minus):
    k_plus, last_plus = _loop_series(z, w_plus, kmax)
    k_minus, last_minus = _loop_series(z, w_minus, kmax)
    return k_plus, k_minus, last_plus, last_minus


@pytest.mark.parametrize("kmax", [*range(31), 50, 100, _KMAX_LIMIT])
def test_series_kernel_matches_the_loop_bit_for_bit(kmax):
    rng = random.Random(1000 + kmax)
    log_w = (math.log(1e-13), 0.0)
    refused = 0
    for _ in range(200):
        z = math.exp(rng.uniform(math.log(1e-2), math.log(1e8)))
        w_plus, w_minus = math.exp(rng.uniform(*log_w)), math.exp(rng.uniform(*log_w))
        args = (z, w_plus, w_minus)
        expected = _outcome(_loop_kernel, kmax, *args)
        assert _outcome(_series_kernel(kmax), *args) == expected, args
        refused += isinstance(expected, str)
    if kmax >= 100:
        # z below about 0.03 overflows from kmax = 100 on, and so exercises the error
        assert refused > 0
