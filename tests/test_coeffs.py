"""Coefficient rows against their closed forms and the series-inversion loop."""

import dataclasses
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nigcdf import CoeffTable, DomainError, d_closed_form, d_coefficients
from nigcdf.coeffs import _d_values, _rows
from nigcdf.expansion import _series

W_RANGE = st.floats(min_value=0.05, max_value=1.0)


def test_d_zeroth_is_one():
    for w in (0.05, 0.31, 0.8, 1.0):
        assert d_coefficients(w, 0).values == (1.0,)


def test_d_frozen_values_at_w_one():
    vals = d_coefficients(1.0, 2).values
    assert vals[1] == pytest.approx(-3.0 / 8.0, rel=1e-15)
    assert vals[2] == pytest.approx(15.0 / 32.0, rel=1e-15)


def test_d_closed_form_frozen_values():
    assert d_closed_form(0.7, 0) == 1.0
    assert d_closed_form(1.0, 3) == pytest.approx(-1.025390625, rel=1e-15)
    # limit w -> 0+ of the k=1 rational form
    assert d_closed_form(1e-12, 1) == pytest.approx(-0.5, abs=1e-12)


def test_d_recursion_matches_closed_forms_at_w_08():
    table = d_coefficients(0.8, 4).values
    for k in range(1, 5):
        assert table[k] == pytest.approx(d_closed_form(0.8, k), rel=1e-14)


@given(W_RANGE)
def test_d_recursion_matches_closed_forms(w):
    table = d_coefficients(w, 4).values
    for k in range(5):
        ref = d_closed_form(w, k)
        assert abs(table[k] - ref) <= 1e-13 * abs(ref)


def test_d_factorial_growth():
    # |d_k| eventually increases in k for fixed w
    vals = d_coefficients(0.3, 25).values
    tail = [abs(v) for v in vals[-10:]]
    assert all(a < b for a, b in zip(tail, tail[1:]))


def test_d_table_metadata():
    table = d_coefficients(0.4, 3)
    assert isinstance(table, CoeffTable)
    assert table.pole_param == 0.4
    assert len(table.values) == 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.pole_param = 0.5


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
        pref = rng.uniform(-2.0, 2.0)
        terms = [pref * d / z**k for k, d in enumerate(_reference_d_values(w, kmax))]
        series, tail = _series(pref, z, w, kmax)
        scale = sum(abs(t) for t in terms)
        assert abs(series - sum(terms)) <= 1e-13 * scale
        assert tail == pytest.approx(abs(terms[-1]), rel=1e-13, abs=0.0)
