"""Coefficient recursions against their closed forms."""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nigcdf import CoeffTable, DomainError, d_closed_form, d_coefficients

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
