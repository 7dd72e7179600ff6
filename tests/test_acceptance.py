"""Acceptance gate: one test per published-benchmark criterion.

Each test is one criterion, run at its stated tolerance, so ``pytest -v``
prints one pass/fail line per criterion.  Reference values marked
"published" come from the benchmark table this package reproduces
(parameters alpha=8, mu=3, delta=2, beta in {-4, 2, 7.5}); values marked
"independent" were computed outside this package with a 30-digit
arbitrary-precision quadrature of the NIG density, cross-checked against
a third-party implementation (scipy), agreeing to well below 1e-15.

Criterion 3 checks the table's F values at the three transition points:
the split quadrature oracle must match the independent 30-digit
references at 1e-9.  The printed digits of the table are kept as
``F_PUBLISHED`` and shown in the failure report, but they are not the
judge: they are off from the true F by 3.0e-8, 4.7e-9 and 5.3e-10, which
an mpmath quadrature, scipy's ``norminvgauss`` and the references below
all confirm.  On row beta=2 the printed F is 4.7e-9 from the true value
while the table's own error column (``ERR_PUBLISHED``, criterion 4) says
1.7e-9; the abstract alone cannot settle which of the two is the typo.
"""

import csv
import io
import math
import random
from contextlib import redirect_stdout

import pytest

from nigcdf import (
    NearTransitionError,
    cdf,
    cdf_asym,
    cdf_quad_direct,
    cdf_quad_split,
    geometry,
    reflect,
    sf_asym,
    transition_point,
    validate,
)
from nigcdf.cli import main as cli_main
from nigcdf.selftest import coefficient_suite, draw_point, identity_suite

ALPHA, MU, DELTA = 8.0, 3.0, 2.0
BETAS = (-4.0, 2.0, 7.5)

X0_PUBLISHED = (1.845299462, 3.516397780, 8.388159062)
Z_PUBLISHED = (36.95041722, 33.04945788, 91.95791466)
F_PUBLISHED = (0.473833601, 0.512385772, 0.575900502)
ERR_PUBLISHED = (3.1e-8, 1.7e-9, 4.7e-10)

# independent references for the same three points: F(x0) from an mpmath
# ``quad`` of the NIG density (Bessel K1 form) at ``mp.dps = 30``, split at
# the exact x0 = mu + beta*delta/gamma, with F + G - 1 below 1e-30
# (rounding x0 to a double moves F by about 2e-16).  That run takes about
# 3 minutes, so the digits are stored here rather than recomputed in the
# test suite.
F_INDEPENDENT = (
    float("0.4738335709383809728755968"),
    float("0.5123857672640343651812192"),
    float("0.5759005025289265393683381"),
)


def _bench():
    return [validate(ALPHA, beta, MU, DELTA) for beta in BETAS]


def test_criterion_01_transition_points():
    for p, x0_ref in zip(_bench(), X0_PUBLISHED):
        assert abs(transition_point(p) - x0_ref) <= 1e-8


def test_criterion_02_large_parameter_values():
    for p, z_ref in zip(_bench(), Z_PUBLISHED):
        g = geometry(p, transition_point(p))
        assert abs(g.z - z_ref) <= 1e-7


def test_criterion_03_table_function_values():
    rows = []
    for p, f_pub, f_ind in zip(_bench(), F_PUBLISHED, F_INDEPENDENT):
        f = cdf_quad_split(p, transition_point(p))
        rows.append((p.beta, f, f_ind, f_pub, abs(f - f_ind)))
    report = "\n".join(
        f"  beta={beta:5}: oracle={f:.17g}  independent={f_ind:.17g}  "
        f"|oracle-independent|={diff:.3e}  table printed={f_pub}"
        for beta, f, f_ind, f_pub, diff in rows
    )
    assert all(diff <= 1e-9 for *_, diff in rows), (
        "oracle F at the transition points does not match the independent "
        "30-digit references to 1e-9\n" + report
    )


def test_criterion_04_asymptotic_errors():
    for p, err_ref in zip(_bench(), ERR_PUBLISHED):
        x0 = transition_point(p)
        asym = cdf_asym(p, x0, kmax=5).value
        quad = cdf_quad_split(p, x0)
        assert abs(asym - quad) <= 2.0 * err_ref


def test_criterion_05_identity_suite():
    name, passed, failed = identity_suite(n=10000, seed=1)
    assert failed == 0
    assert passed == 10000


def test_criterion_06_coefficient_suite():
    name, passed, failed = coefficient_suite(seed=1)
    assert failed == 0
    assert passed == 100


def test_criterion_07_cross_oracle():
    rng = random.Random(17)
    done = 0
    while done < 50:
        p, x = draw_point(rng)
        g = geometry(p, x)
        if abs(g.nu - p.tau) <= 0.05 or not 5.0 <= g.z <= 200.0:
            continue
        done += 1
        assert abs(cdf_quad_split(p, x) - cdf_quad_direct(p, x)) <= 1e-10


def test_criterion_08_global_behavior():
    for p in _bench():
        prev = -1.0
        for i in range(400):
            x = -7.0 + 30.0 * i / 399.0
            r = cdf(p, x)
            assert 0.0 <= r.value <= 1.0
            assert r.value >= prev
            prev = r.value
            f = cdf_asym(p, x).value
            g = sf_asym(p, x).value
            assert abs(f + g - 1.0) <= 1e-12
            if geometry(p, x).z >= 30.0:
                assert abs(f - cdf_quad_split(p, x)) <= 1e-7


def test_criterion_09_symmetric_median():
    p = validate(ALPHA, 0.0, MU, DELTA)
    assert abs(cdf(p, MU).value - 0.5) <= 1e-10
    assert abs(cdf(p, MU, method="asym").value - 0.5) <= 1e-10
    assert abs(cdf(p, MU, method="quad-split").value - 0.5) <= 1e-10
    # the direct oracle excludes nu = tau by design; the route must refuse,
    # not return a wrong number
    with pytest.raises(NearTransitionError):
        cdf(p, MU, method="quad-direct")


def test_criterion_10_reflection():
    rng = random.Random(23)
    draws = 0
    saw_negative_xi = False
    while draws < 20:
        p, x = draw_point(rng)
        draws += 1
        saw_negative_xi = saw_negative_xi or x < p.mu
        rp, rx = reflect(p, x)
        total = cdf_quad_split(p, x) + cdf_quad_split(rp, rx)
        assert abs(total - 1.0) <= 1e-10
    assert saw_negative_xi


def test_criterion_11_figure_curves():
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli_main(["figure1", "--points", "200"]) == 0
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert len(rows) == 200
    for beta in ("-4", "2", "7.5"):
        f_col = [float(r[f"F_beta_{beta}"]) for r in rows]
        assert all(0.0 <= v <= 1.0 for v in f_col)
        assert all(a <= b for a, b in zip(f_col, f_col[1:]))
        fm_col = [abs(float(r[f"Fminus_beta_{beta}"])) for r in rows]
        # magnitude bound confirmed against the oracle-computed minus part:
        # the largest |F_minus| over the grid is 0.0759 (beta=7.5), so the
        # curves stay below 0.08 while remaining far from identically zero
        assert max(fm_col) <= 0.08
        assert max(fm_col) >= 1e-3
        assert all(math.isfinite(v) for v in fm_col)
