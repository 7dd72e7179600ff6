"""The two quadrature oracles, cross-checked and pinned to reference values.

The pinned CDF values below were generated outside this package with
30-digit mpmath quadrature: the spot values from the same exact erfc
split, the transition-point values from the NIG density itself.  The split
oracle's trapezoid reproduces them to full double precision.  Its remainder
kernel is checked on its own against mpmath, and the oracle against two
reference kernels kept here, composite Gauss-Legendre and the earlier
sigma-grid trapezoid, each plugged into one reference split.
"""

import math
import random

import mpmath
import pytest

from nigcdf import (
    ConvergenceError,
    Method,
    NearTransitionError,
    cdf,
    cdf_asym,
    cdf_quad_direct,
    cdf_quad_split,
    geometry,
    reflect,
    transition_point,
    validate,
)
from nigcdf import oracle
from nigcdf.coeffs import _small_z_rows
from nigcdf.expansion import _SMALL_Z_LIMIT, _series_kernel
from nigcdf.oracle import _SMALL_Z_ORDER, _kernel, _small_z_kernel
from nigcdf.selftest import draw_point
from nigcdf.special import erfc, erfcx

ALPHA, MU, DELTA = 8.0, 3.0, 2.0

# F(x0) at the three benchmark transition points: an mpmath ``quad`` of the
# NIG density (Bessel K1 form) at ``mp.dps = 30``, split at the exact
# x0 = mu + beta*delta/gamma (rounding x0 to a double moves F by about
# 2e-16).  That run takes about 3 minutes, so the digits are stored here
# rather than recomputed in the test suite.
F_AT_X0 = {
    -4.0: float("0.4738335709383809728755968"),
    2.0: float("0.5123857672640343651812192"),
    7.5: float("0.5759005025289265393683381"),
}

# spot values away from the transition, 30-digit mpmath erfc split
F_SPOT = (
    (-4.0, 6.0, 0.99999999999994257),
    (2.0, 1.0, 8.5865493935831666e-7),
    (2.0, 5.0, 0.99512722743310920),
    (7.5, 15.0, 0.98235374905062289),
)


@pytest.mark.parametrize("beta", sorted(F_AT_X0))
def test_split_oracle_at_transition_points(beta):
    p = validate(ALPHA, beta, MU, DELTA)
    x0 = transition_point(p)
    assert cdf_quad_split(p, x0) == pytest.approx(F_AT_X0[beta], abs=1e-12)


@pytest.mark.parametrize("beta,x,ref", F_SPOT)
def test_split_oracle_spot_values(beta, x, ref):
    p = validate(ALPHA, beta, MU, DELTA)
    assert cdf_quad_split(p, x) == pytest.approx(ref, abs=1e-12)


def test_split_oracle_symmetric_median():
    p = validate(8.0, 0.0, 3.0, 2.0)
    assert cdf_quad_split(p, 3.0) == pytest.approx(0.5, abs=1e-13)


def test_split_oracle_rules_agree():
    # the first 10 draws, and on until 10 draws with z <= 5 and |zeta_plus| in
    # [0.3, 1.5] (within 108): there the plus kernel's weight |c_plus| is
    # 0.019 to 0.066 rather than damped away, so a 1e-10 relative bias in
    # that kernel moves F past the bound
    rng = random.Random(3)
    drawn = near = 0
    while drawn < 10 or near < 10:
        p, x = draw_point(rng)
        g = geometry(p, x)
        drawn += 1
        if g.z <= 5.0 and 0.3 <= abs(g.zeta_plus) <= 1.5:
            near += 1
        elif drawn > 10:
            continue
        a = cdf_quad_split(p, x)
        b = _reference_split_cdf(p, x, _legendre_kernel)
        assert abs(a - b) <= 1e-12


def test_split_oracle_bounds_and_monotone():
    p = validate(ALPHA, -4.0, MU, DELTA)
    grid = [cdf_quad_split(p, -7.0 + 30.0 * i / 99.0) for i in range(100)]
    assert all(0.0 <= v <= 1.0 for v in grid)
    assert all(a <= b for a, b in zip(grid, grid[1:]))


def test_split_oracle_continuity_at_transition():
    # x0 is a removable point of the split; values must bracket smoothly
    for beta in sorted(F_AT_X0):
        p = validate(ALPHA, beta, MU, DELTA)
        x0 = transition_point(p)
        lo = cdf_quad_split(p, x0 - 1e-6)
        mid = cdf_quad_split(p, x0)
        hi = cdf_quad_split(p, x0 + 1e-6)
        assert lo < mid < hi


def test_direct_oracle_agrees_left_of_transition():
    # nu > tau: F is the direct integral itself, no pole residue added
    p = validate(ALPHA, -4.0, MU, DELTA)
    assert abs(cdf_quad_direct(p, 0.5) - cdf_quad_split(p, 0.5)) <= 1e-11


def test_direct_oracle_reflects_right_of_transition():
    p = validate(ALPHA, 2.0, MU, DELTA)
    assert abs(cdf_quad_direct(p, 10.0) - cdf_quad_split(p, 10.0)) <= 1e-11


@pytest.mark.parametrize(
    "params,x",
    [((1e-308, 0.0, 0.0, 1.0), 5.0), ((1e-320, 0.0, 0.0, 1.0), 5.0),
     ((1.0, 0.5, 0.0, 1e-308), 1e-309)],
)
def test_direct_oracle_where_alpha_omega_nears_the_smallest_double(params, x):
    # reach / (alpha omega) overflows to inf here; the truncation point must
    # stay finite, so the result is a value and not a raw OverflowError
    p = validate(*params)
    value, _ = oracle._quad_direct(p, geometry(p, x))
    assert value == cdf_quad_direct(p, x)
    assert abs(value - cdf_quad_split(p, x)) <= 1e-12


def test_direct_oracle_refuses_transition_band():
    with pytest.raises(NearTransitionError):
        cdf_quad_direct(validate(8.0, 0.0, 3.0, 2.0), 3.0)
    p = validate(ALPHA, 2.0, MU, DELTA)
    with pytest.raises(NearTransitionError):
        cdf_quad_direct(p, transition_point(p))


def test_direct_oracle_step_halving_stability(monkeypatch):
    # a stopping change two orders coarser must not move the value beyond it
    p = validate(ALPHA, -4.0, MU, DELTA)
    fine = cdf_quad_direct(p, 0.5)
    monkeypatch.setattr(oracle, "_DIRECT_TOL", 1e-10)
    coarse = cdf_quad_direct(p, 0.5)
    assert abs(coarse - fine) <= 1e-10


def test_cross_oracle_agreement_on_random_draws():
    rng = random.Random(11)
    done = 0
    while done < 25:
        p, x = draw_point(rng)
        g = geometry(p, x)
        if abs(g.nu - p.tau) <= 0.05 or not 5.0 <= g.z <= 200.0:
            continue
        done += 1
        assert abs(cdf_quad_split(p, x) - cdf_quad_direct(p, x)) <= 1e-10


def test_reflect_frozen_example():
    p = validate(8.0, 2.0, 3.0, 2.0)
    rp, rx = reflect(p, 5.0)
    assert (rp.alpha, rp.beta, rp.mu, rp.delta) == (8.0, -2.0, -3.0, 2.0)
    assert rx == -5.0


def test_reflect_is_an_involution():
    p = validate(7.0, -3.5, 1.25, 0.75)
    rp, rx = reflect(p, 2.5)
    rrp, rrx = reflect(rp, rx)
    assert (rrp.alpha, rrp.beta, rrp.mu, rrp.delta) == (p.alpha, p.beta, p.mu, p.delta)
    assert rrx == 2.5


def test_reflection_identity_via_split_oracle():
    rng = random.Random(5)
    for _ in range(10):
        p, x = draw_point(rng)
        rp, rx = reflect(p, x)
        assert cdf_quad_split(p, x) + cdf_quad_split(rp, rx) == pytest.approx(1.0, abs=1e-10)


def test_kernel_raises_when_budget_exhausted(monkeypatch):
    # at z = 30 the certified step needs 12 nodes; a budget of 4 refuses it
    # before any node is summed
    monkeypatch.setattr(oracle, "_NODE_BUDGET", 4)
    with pytest.raises(ConvergenceError):
        _kernel(30.0, 0.5, 0.5)


@pytest.mark.parametrize("z", [5e-324, 1e-300, 1e-12, 1e20, 1e300])
def test_node_budget_covers_every_positive_z(z):
    k_plus, k_minus, _, _ = _kernel(z, 0.0, 1.0)
    # K(z, w) falls with z from K(0, 0) = pi and K(0, 1) = 2
    assert 0.0 < k_plus <= math.pi + 1e-13 and 0.0 < k_minus <= 2.0 + 1e-13
    if z < 1e-200:
        assert k_plus == pytest.approx(math.pi, abs=1e-13)
        assert k_minus == pytest.approx(2.0, abs=1e-13)


class _CountingMath:
    """Stands in for ``math`` in the oracle: counts exp calls, one per node past t = 0."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def exp(self, x):
        self.calls += 1
        return math.exp(x)


def test_kernel_node_counts_stay_within_the_documented_bounds(monkeypatch):
    # the worst call per band of z over a seeded grid with one z per cell of
    # width 0.017 in ln z, fine enough to land in the narrow windows where a
    # band takes its most nodes; the step depends on z alone, so w does not
    # move the count.  The oracle's docs and the README quote these numbers
    counting = _CountingMath()
    monkeypatch.setattr("nigcdf.oracle.math", counting)
    rng = random.Random(2026)
    lo, hi = math.log(1e-12), math.log(1e3)
    zs = [math.exp(lo + (hi - lo) * (i + rng.random()) / 2000) for i in range(2000)]
    zs += [1e-12, 1e-2, 1.0, 5e-324]
    ws = [0.0, 1.0, math.exp(rng.uniform(math.log(1e-13), 0.0))]
    worst = {1.0: 0, 1e-2: 0, 1e-12: 0, 5e-324: 0}
    for z in zs:
        for w in ws:
            counting.calls = 0
            _kernel(z, 0.0, w)
            for band in worst:
                if z >= band:
                    worst[band] = max(worst[band], counting.calls + 1)
    assert worst == {1.0: 21, 1e-2: 39, 1e-12: 131, 5e-324: 2991}


def _sinh_loop_kernel(z, w_plus, w_minus):
    """``_kernel`` by a plain node loop, one sinh, exp and sqrt per node; and its node count.

    The loop that the hyperbolic rotation of ``_kernel`` replaces: each
    node t = k h takes sigma = sinh(t) and q = sqrt(1 + sigma^2) afresh, on
    the same certified grid of ``oracle._step``; returns both kernels and
    the nodes it evaluated, t = 0 included.  sigma is sinh(k h) of the exact
    product, in 40-digit mpmath, rounded once: a double t = k h moves sigma
    by about t units of rounding, and at tiny z, where t runs to a few
    hundred, that left this reference up to 2.1e-15 of K off.  The node
    terms are summed by ``math.fsum``: a plain sum of the 233 terms at
    z = 7.3e-24, w = 0 is 7.1e-16 of K off the 40-digit value.
    """
    h, last, _, _ = oracle._step(z)
    with mpmath.workdps(40):
        step = mpmath.mpf(h)
        sigmas = [float(mpmath.sinh(k * step)) for k in range(1, last + 1)]
    terms_plus = [0.5 / (1.0 + w_plus)]
    terms_minus = [0.5 / (1.0 + w_minus)]
    for s in sigmas:
        s2 = s * s
        e = math.exp(-z * s2)
        c = math.sqrt(1.0 + s2)
        terms_plus.append(e / (c + w_plus))
        terms_minus.append(e / (c + w_minus))
    return 2.0 * h * math.fsum(terms_plus), 2.0 * h * math.fsum(terms_minus), last + 1


def test_rotated_kernel_matches_the_sinh_loop(monkeypatch):
    # z log-uniform over the whole positive double range the oracle meets,
    # w both ends and log-uniform between; the kernel sums both parts on its
    # one grid
    counting = _CountingMath()
    monkeypatch.setattr("nigcdf.oracle.math", counting)
    rng = random.Random(1919)
    log_z = (math.log(5e-324), math.log(1e16))
    log_w = (math.log(1e-13), 0.0)
    for i in range(600):
        z = 5e-324 if i == 0 else math.exp(rng.uniform(*log_z))
        w_plus = rng.choice((0.0, 1.0, math.exp(rng.uniform(*log_w))))
        w_minus = rng.choice((0.0, 1.0, math.exp(rng.uniform(*log_w))))
        args = (z, w_plus, w_minus)
        *expected, nodes = _sinh_loop_kernel(z, w_plus, w_minus)
        counting.calls = 0
        got = _kernel(*args)
        assert counting.calls + 1 == nodes, args
        for k, ref in zip(got[:2], expected):
            assert abs(k - ref) <= 2e-15 * ref, args


def _trapezoid_reference(z, w, h, digits):
    """The untruncated trapezoid sum h * sum over all k of f(k h), in ``digits``-digit mpmath.

    Summed until a term falls below 10^-(digits+5) of the total.
    """
    with mpmath.workdps(digits):
        z, w, h = mpmath.mpf(z), mpmath.mpf(w), mpmath.mpf(h)
        floor = mpmath.mpf(10) ** (-digits - 5)
        total = mpmath.mpf(0.5) / (1 + w)
        k = 1
        while True:
            t = k * h
            term = mpmath.exp(-z * mpmath.sinh(t) ** 2) / (mpmath.cosh(t) + w)
            total += term
            if term < floor * total:
                return 2 * h * total
            k += 1


def _check_strip_bound(z, w):
    """The certificate of ``oracle._step`` at (z, w), judged in 40-digit mpmath.

    Trefethen-Weideman on the strip |Im t| <= y: the whole trapezoid sum at
    step h is within B = 2M / (e^{2 pi y / h} - 1) of K, with
    M = e^{z sin^2 y} min(pi, sqrt(pi/(z cos 2y))) / cos y; checked at the
    certified step and at two and four times it, where the error is large
    enough to measure.  At the certified step B <= eps/2, and the sum over
    the kernel's own nodes, which drops those past T, is within eps of K.
    """
    h_c, last, y, eps = oracle._step(z)
    k = _kernel_reference(z, w)
    zm, ym = mpmath.mpf(z), mpmath.mpf(y)
    m = (
        mpmath.exp(zm * mpmath.sin(ym) ** 2)
        * min(mpmath.pi, mpmath.sqrt(mpmath.pi / (zm * mpmath.cos(2 * ym))))
        / mpmath.cos(ym)
    )
    for h in (h_c, 2.0 * h_c, 4.0 * h_c):
        bound = 2 * m / mpmath.expm1(2 * mpmath.pi * ym / h)
        assert abs(_trapezoid_reference(z, w, h, 40) - k) <= bound, (z, w, h)
        if h == h_c:
            assert bound <= 0.5 * eps * (1 + 1e-12), (z, w)
    hm = mpmath.mpf(h_c)
    kept = 2 * hm * (
        mpmath.mpf(0.5) / (1 + w)
        + mpmath.fsum(
            mpmath.exp(-zm * mpmath.sinh(j * hm) ** 2) / (mpmath.cosh(j * hm) + w)
            for j in range(1, last + 1)
        )
    )
    assert abs(kept - k) <= eps, (z, w)


def test_trapezoid_error_is_within_the_strip_bound():
    # z log-uniform over [0.3, 1e6], w at both ends and uniform between; at
    # w = 0 and large z the bound is nearly attained, so a slip in M fails here
    rng = random.Random(2020)
    with mpmath.workdps(40):
        for _ in range(50):
            z = math.exp(rng.uniform(math.log(0.3), math.log(1e6)))
            _check_strip_bound(z, rng.choice((0.0, 1.0, rng.random())))


def _kernel_reference(z: float, w: float):
    """K(z, w) by mpmath tanh-sinh quadrature in t, sigma = sinh(t), at the current precision."""
    z, w = mpmath.mpf(z), mpmath.mpf(w)
    end = mpmath.asinh(mpmath.sqrt(100 / z))  # the integrand is below e^{-100} beyond
    return 2 * mpmath.quad(
        lambda t: mpmath.exp(-z * mpmath.sinh(t) ** 2) / (mpmath.cosh(t) + w),
        [end * k / 16 for k in range(17)],
    )


@pytest.mark.parametrize("z", [1e-12, 1e-9, 1e-4, 0.5, 30.0, 5000.0])
def test_kernel_matches_mpmath(z):
    ws = (1e-12, 0.05, 0.7, 1.0)
    with mpmath.workdps(30):
        for w_plus, w_minus in zip(ws, reversed(ws)):
            k_plus, k_minus, _, _ = _kernel(z, w_plus, w_minus)
            assert abs(k_plus - float(_kernel_reference(z, w_plus))) <= 1e-14
            assert abs(k_minus - float(_kernel_reference(z, w_minus))) <= 1e-14


@pytest.mark.parametrize("z", [1e4, 1e8, 1e16])
def test_kernel_is_relatively_accurate_at_large_z(z):
    # K falls like sqrt(pi/z), to about 1.8e-8 at z = 1e16, where an absolute
    # 1e-14 says nothing; the truncated tail and the step are judged relative to K
    ws = (1e-12, 0.05, 0.7, 1.0)
    with mpmath.workdps(30):
        for w_plus, w_minus in zip(ws, reversed(ws)):
            k_plus, k_minus, _, _ = _kernel(z, w_plus, w_minus)
            for k, w in ((k_plus, w_plus), (k_minus, w_minus)):
                ref = float(_kernel_reference(z, w))
                assert abs(k - ref) <= 1e-14 * ref


def test_kernel_is_relatively_accurate_over_the_double_range():
    # z log-uniform from 1e-300 to 1e16, w at both ends and uniform between:
    # the certified level is within 2^-53 of K before rounding, and the
    # rounding of its sums stays below 1.1e-15 of K, where the step ladder
    # it replaced reached 1.3e-15 on such a sample
    rng = random.Random(4040)
    log_z = (math.log(1e-300), math.log(1e16))
    with mpmath.workdps(40):
        for _ in range(60):
            z = math.exp(rng.uniform(*log_z))
            w = rng.choice((0.0, 1.0, rng.random()))
            ref = _kernel_reference(z, w)
            k = _kernel(z, w, w)[0]
            assert abs(k - ref) <= 1.1e-15 * ref, (z, w)


# the w grid of the small-z kernel's checks: both ends, and both ends' neighbours
SMALL_Z_WS = (0.0, 1e-12, 0.05, 0.3, 0.7, 0.99, 1.0 - 1e-9, 1.0)
# from the smallest double up to the largest double below the crossover
SMALL_Z_ZS = (5e-324, 1e-300, 1e-100, 1e-12, 1e-4, 0.01, 0.1, 0.3, 0.45,
              math.nextafter(_SMALL_Z_LIMIT, 0.0))


def _small_z(z: float, w: float) -> float:
    return _small_z_kernel(z, w, w)[0]


def test_small_z_kernel_at_the_smallest_double_is_k_at_zero():
    # K(0, w) = 2 acos(w) / sqrt(1 - w^2), which tends to 2 as w -> 1; at
    # z = 5e-324, K(z, w) lies about 2 sqrt(pi z) = 8e-162 below it
    for w in SMALL_Z_WS:
        ref = 2.0 if w == 1.0 else 2.0 * math.acos(w) / math.sqrt((1.0 - w) * (1.0 + w))
        assert abs(_small_z(5e-324, w) - ref) <= 4e-16 * ref


@pytest.mark.parametrize("z", SMALL_Z_ZS)
def test_small_z_kernel_at_w_zero_is_pi_erfcx(z):
    ref = math.pi * erfcx(math.sqrt(z))
    assert abs(_small_z(z, 0.0) - ref) <= 1e-15 * ref


@pytest.mark.parametrize("z", SMALL_Z_ZS)
def test_small_z_kernel_matches_mpmath(z):
    with mpmath.workdps(30):
        for w_plus, w_minus in zip(SMALL_Z_WS, reversed(SMALL_Z_WS)):
            k_plus, k_minus, dk_plus, dk_minus = _small_z_kernel(z, w_plus, w_minus)
            for k, dk, w in ((k_plus, dk_plus, w_plus), (k_minus, dk_minus, w_minus)):
                ref = float(_kernel_reference(z, w))
                assert abs(k - ref) <= 2e-15 * ref
                assert 0.0 <= dk <= 1e-15 * ref


def _m_by_rows(z: float, a: float, order: int) -> float:
    """M = sum_n z^{n+1} [U_n(a) - Lambda V_n(a)] by a loop over n, from ``_small_z_rows``.

    Row n of U and of V is the (n // 2)-th row of the table of its parity,
    a polynomial in a^2, times a for odd n.
    """
    tables = _small_z_rows(order)
    lam = math.log(z) - math.log(4.0) + float(mpmath.euler)
    total = 0.0
    for n in range(order, -1, -1):
        u, v = (_horner_loop(tables[i + n % 2][n // 2], a * a) for i in (0, 2))
        if n % 2:
            u, v = a * u, a * v
        total = total * z + (u - lam * v)
    return z * total


def _horner_loop(row, x):
    value = 0.0
    for c in row:
        value = value * x + c
    return value


@pytest.mark.parametrize("z", [1e-300, 1e-12, 1e-4, 0.1, 0.3, 0.45])
def test_small_z_rows_sum_m_to_mpmath(z):
    # M = integral over [0, z] of e^{a t} K_0(t/2) dt, a = w^2 - 1/2, alone:
    # at small z, M enters K at about z ln(1/z) and so is invisible in K.
    # The reference integrates over [0, 1] in u = t / z, where the quadrature
    # resolves the logarithmic singularity at 0 at every z
    with mpmath.workdps(30):
        for w in SMALL_Z_WS:
            a = w * w - 0.5
            ref = z * mpmath.quad(
                lambda u: mpmath.exp(a * z * u) * mpmath.besselk(0, z * u / 2), [0, 1]
            )
            assert abs(_m_by_rows(z, a, _SMALL_Z_ORDER) - float(ref)) <= 1e-15 * float(ref)


def _hermite_rule(n: int) -> list:
    """(x_i, W_i) over the positive nodes of the order-n Gauss-Hermite rule, at the current precision.

    Golub-Welsch (the eigenvalues of the Jacobi matrix, off-diagonal
    sqrt(k/2)), then Newton on the normalised Hermite recurrence, whose
    polynomials p_k have p_n' = sqrt(2n) p_{n-1}; the weight is the
    Christoffel number 1 / sum_{k<n} p_k(x)^2 at the last iterate but one,
    which the last Newton step moves only at the working precision.
    """
    jacobi = mpmath.zeros(n, n)
    for k in range(1, n):
        jacobi[k, k - 1] = jacobi[k - 1, k] = mpmath.sqrt(mpmath.mpf(k) / 2)
    eigenvalues = mpmath.eigsy(jacobi, eigvals_only=True)
    rule = []
    for x in sorted(v for v in eigenvalues if v > 0):
        for _ in range(4):
            p0, p1, total = mpmath.mpf(0), mpmath.pi ** mpmath.mpf(-0.25), mpmath.mpf(0)
            for k in range(n):
                total += p1 * p1
                p0, p1 = p1, x * mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * p1 - mpmath.sqrt(
                    mpmath.mpf(k) / (k + 1)) * p0
            x -= p1 / (mpmath.sqrt(2 * n) * p0)
        rule.append((x, 1 / total))
    return rule


def _gauss_rule_mp(z, w, rule) -> mpmath.mpf:
    """The Gauss sum of ``oracle._gauss_kernel`` at the current precision, with ``rule``'s nodes."""
    z, w = mpmath.mpf(z), mpmath.mpf(w)
    total = mpmath.mpf(0)
    for x, weight in rule:
        q = mpmath.sqrt(1 + x * x / z)
        total += 2 * weight / (q * (q + w))
    return total / mpmath.sqrt(z)


def test_gauss_rule_literals_are_the_mpmath_rule_rounded_once():
    with mpmath.workdps(50):
        rule = _hermite_rule(16)
        assert abs(mpmath.fsum(2 * weight for _, weight in rule) - mpmath.sqrt(mpmath.pi)) < 1e-45
        recomputed = tuple((float(x * x), float(2 * weight)) for x, weight in reversed(rule))
    assert recomputed == oracle._GAUSS_RULE
    assert oracle._GAUSS_NODES == 8
    # smallest weight first; the rounded weights still sum to sqrt(pi)
    weights = [weight for _, weight in oracle._GAUSS_RULE]
    assert weights == sorted(weights)
    assert abs(math.fsum(weights) - math.sqrt(math.pi)) <= 2.3e-16


def test_gauss_rule_underestimates_k_by_at_most_its_bound():
    # z log-uniform over [30, 1e6], ends included, w at both ends and
    # uniform between: before rounding (the 50-digit rule) the rule lies
    # below K by at most 2^-53 K, the dK it reports.  Past z = 300 its error
    # falls below the 1e-38 to which 40 digits resolve K, so there only the
    # bound is checked.  Rounding included, the kernel is within 8e-16 of K.
    rng = random.Random(2201)
    log_z = (math.log(30.0), math.log(1e6))
    with mpmath.workdps(40):
        rule = _hermite_rule(16)
        for i in range(40):
            z = (30.0, 1e6)[i] if i < 2 else math.exp(rng.uniform(*log_z))
            w = rng.choice((0.0, 1.0, rng.random()))
            ref = _kernel_reference(z, w)
            rel = (ref - _gauss_rule_mp(z, w, rule)) / ref
            assert (0.0 if z <= 300.0 else -1e-38) <= rel <= 2.0**-53, (z, w)
            k_plus, k_minus, dk_plus, dk_minus = oracle._gauss_kernel(z, w, 1.0 - w)
            assert abs(k_plus - ref) <= 8e-16 * ref, (z, w)
            assert dk_plus == 2.0**-53 * k_plus and dk_minus == 2.0**-53 * k_minus


def test_gauss_rule_error_at_w_zero_falls_with_z():
    # at w = 0, where the relative error is largest, K = pi erfcx(sqrt z):
    # the error is positive, crosses 2^-53 at z = 26.2, and falls from there
    zs = (26.0, 26.5, 30.0, 35.0, 40.0, 50.0, 70.0, 100.0, 150.0, 200.0, 300.0)
    with mpmath.workdps(40):
        rule = _hermite_rule(16)
        errors = []
        for z in map(mpmath.mpf, zs):
            ref = mpmath.pi * mpmath.exp(z) * mpmath.erfc(mpmath.sqrt(z))
            errors.append((ref - _gauss_rule_mp(z, 0.0, rule)) / ref)
    assert errors[0] > 2.0**-53 >= errors[1]
    assert all(a >= b > 0.0 for a, b in zip(errors, errors[1:]))
    assert 1.9e-17 < errors[2] < 2.0e-17


@pytest.mark.parametrize("w", [0.0, 0.5, 1.0])
def test_gauss_rule_minus_the_kmax_15_series_is_order_z_minus_16(w):
    # the rule integrates u^k exactly for k <= 15, so with g(u) = 1/(q (q + w))
    # = sum_k g_k u^k and the rule's moments M_k = sum_i 2 W_i x_i^(2k),
    # Gauss - S_15 = sum_{k>=16} g_k M_k z^(-k-1/2): z^16.5 (Gauss - S_15)
    # tends to g_16 M_16, within O(1/z).  S_15 is the d-series to kmax = 15,
    # sum_k g_k Gamma(k + 1/2) z^(-k-1/2).
    with mpmath.workdps(80):
        rule = _hermite_rule(16)
        g = mpmath.taylor(lambda u: 1 / (mpmath.sqrt(1 + u) * (mpmath.sqrt(1 + u) + w)), 0, 16)
        half = mpmath.mpf(1) / 2

        def series(z):
            return mpmath.fsum(g[k] * mpmath.gamma(k + half) * z ** (-k - half) for k in range(16))

        limit = g[16] * mpmath.fsum(2 * weight * x**32 for x, weight in rule)
        for z in (1e2, 1e3, 1e4):
            z = mpmath.mpf(z)
            scaled = z**16.5 * (_gauss_rule_mp(z, w, rule) - series(z))
            assert abs(scaled / limit - 1) <= 20 / z, z
        # the float kernels show the same gap while it is above their rounding
        for z in (30.0, 35.0, 40.0):
            gauss = oracle._gauss_kernel(z, w, w)[0]
            gap = gauss - _series_kernel(15)(z, w, w)[0]
            assert abs(gap - float(_gauss_rule_mp(z, w, rule) - series(z))) <= 1e-15 * gauss, z


def test_gauss_route_agrees_with_the_trapezoid_at_every_w_minus():
    # seeded points with z >= 30, on both sides of the transition, with
    # w_minus < 0, 0 <= w_minus < 0.05 (the band the old gate sent to
    # quadrature) and w_minus >= 0.05; the two rules share nothing but the split
    rng = random.Random(2202)
    bands = {"negative": [], "small": [], "rest": []}
    while len(bands["small"]) < 25 or min(len(v) for v in bands.values()) < 25:
        p, x = draw_point(rng)
        g = geometry(p, x)
        if g.z < 30.0:
            continue
        band = "negative" if g.w_minus < 0.0 else "small" if g.w_minus < 0.05 else "rest"
        if len(bands[band]) < 300:
            bands[band].append((p, x))
    complemented = set()
    for points in bands.values():
        for p, x in points:
            r = cdf(p, x)
            assert r.method is Method.GAUSS_SPLIT and r.kmax_used == 8
            assert 0.0 <= r.error_estimate <= 1e-16
            assert abs(r.value - cdf_quad_split(p, x)) <= 4.5e-16, (p, x)
            complemented.add(r.complemented)
    assert complemented == {False, True}


@pytest.mark.parametrize("beta", [-6.0, -2.0, 0.0, 2.0, 6.0])
def test_cdf_has_no_jump_where_z_crosses_30(beta):
    # z = 2 alpha omega = 30 at two x, one each side of mu; the trapezoid
    # route ends one double short of each, and the Gauss route starts there
    p = validate(8.0, beta, 3.0, 1.0)
    reach = math.sqrt((15.0 / 8.0) ** 2 - 1.0)
    for side in (-1.0, 1.0):
        outer = p.mu + side * (reach + 0.1)  # z > 30
        inner = p.mu + side * (reach - 0.1)  # z < 30
        for _ in range(200):
            mid = 0.5 * (outer + inner)
            if mid in (outer, inner):
                break
            if geometry(p, mid).z >= 30.0:
                outer = mid
            else:
                inner = mid
        below, above = cdf(p, inner), cdf(p, outer)
        assert math.nextafter(inner, outer) == outer
        assert (below.method, above.method) == (Method.QUAD_SPLIT, Method.GAUSS_SPLIT)
        assert abs(above.value - below.value) <= 4.5e-16, (side, below, above)


def test_split_route_keeps_its_left_tail_relative_accuracy():
    # where F is small the tolerance is loose against F, so the auto route's
    # quad-split values are judged relative to F by the direct oracle, which
    # shares neither the split nor its kernel; |nu - tau| > 0.05 keeps the
    # points clear of the band the direct oracle refuses
    rng = random.Random(2027)
    worst, checked = 0.0, 0
    while checked < 300:
        p, x = draw_point(rng)
        r = cdf(p, x)
        if (
            r.method is Method.QUAD_SPLIT
            and 0.0 < r.value < 1e-6
            and abs(geometry(p, x).nu - p.tau) > 0.05
        ):
            worst = max(worst, abs(r.value - cdf_quad_direct(p, x)) / r.value)
            checked += 1
    assert worst <= 1e-10


def _sigma_grid_kernel(z: float, w: float, tol: float) -> float:
    """The split oracle's earlier kernel, kept as a reference.

    Trapezoid in sigma over [0, 8/sqrt(z)], starting step min(0.5, S/8),
    every node recomputed at each halving.
    """
    S = 8.0 / math.sqrt(z)

    def level(h: float) -> float:
        total = 0.5 / (1.0 + w)
        k = 1
        while k * h <= S:
            sig = k * h
            q = math.sqrt(1.0 + sig * sig)
            total += math.exp(-z * sig * sig) / (q * (q + w))
            k += 1
        return 2.0 * h * total

    h = min(0.5, S / 8.0)
    prev = level(h)
    for _ in range(12):
        h *= 0.5
        cur = level(h)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
    raise AssertionError("sigma-grid reference did not converge")


def _legendre_16() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of 16-point Gauss-Legendre on [-1, 1]."""
    n = 16
    half_nodes = []
    half_weights = []
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        dp = 0.0
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x -= dx
            if abs(dx) < 1e-15:
                break
        half_nodes.append(x)
        half_weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    nodes = tuple(half_nodes + [-v for v in half_nodes])
    weights = tuple(half_weights + half_weights)
    return nodes, weights


_GL_NODES, _GL_WEIGHTS = _legendre_16()


def _legendre_kernel(z: float, w: float, tol: float) -> float:
    """K(z, w) by composite 16-point Gauss-Legendre in sigma, kept as a reference.

    Integrates over [0, S], S = 8/sqrt(z), from 2 panels; each level
    doubles the panel count and is compared with the previous until the
    change drops below ``tol`` (absolute).
    """

    def f(sig: float) -> float:
        q = math.sqrt(1.0 + sig * sig)
        return math.exp(-z * sig * sig) / (q * (q + w))

    S = 8.0 / math.sqrt(z)

    def composite(panels: int) -> float:
        width = S / panels
        total = 0.0
        for i in range(panels):
            center = (i + 0.5) * width
            for t, wt in zip(_GL_NODES, _GL_WEIGHTS):
                total += wt * f(center + 0.5 * width * t)
        return width * total  # one factor 1/2 from the jacobian, times 2 for evenness

    panels = 2
    prev = composite(panels)
    for _ in range(12):
        panels *= 2
        cur = composite(panels)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
    raise AssertionError("Gauss-Legendre reference did not converge")


# the absolute accuracy asked of the reference splits below
_REF_TOL = 1e-12


def _reference_split_cdf(p, x, kernel, tol: float = _REF_TOL) -> float:
    """The split identity of ``cdf_quad_split`` with one reference ``kernel`` call per part.

    ``kernel(z, w, tol)`` returns K(z, w) to within an absolute ``tol`` of
    its own, min(0.1, tol/(4|coef|)) for each part, so that the two weighted
    parts together stay within tol/2.  The oracle takes no such tolerance:
    its trapezoid step is certified in advance to 2^-53 of K.
    """
    g = geometry(p, x)
    damp = math.exp(-g.z * g.s_plus**2)
    value = 0.5 * erfc(g.zeta_plus)
    coef_plus = -2.0 * g.s_plus * damp / (4.0 * math.pi)
    if coef_plus != 0.0:
        tol_plus = min(0.1, tol / (4.0 * abs(coef_plus)))
        value += coef_plus * kernel(g.z, g.w_plus, tol_plus)
    if abs(g.w_minus) >= 1e-13:
        sgn = 1.0 if g.w_minus > 0.0 else -1.0
        value += sgn * 0.5 * damp * erfcx(g.zeta_minus)
        coef_minus = -2.0 * g.s_minus * sgn * damp / (4.0 * math.pi)
        if coef_minus != 0.0:
            tol_minus = min(0.1, tol / (4.0 * abs(coef_minus)))
            value += coef_minus * kernel(g.z, abs(g.w_minus), tol_minus)
    return min(1.0, max(0.0, value))


def test_split_oracle_matches_sigma_grid_reference():
    rng = random.Random(17)
    for _ in range(40):
        p, x = draw_point(rng)
        ref = _reference_split_cdf(p, x, _sigma_grid_kernel)
        assert abs(cdf_quad_split(p, x) - ref) <= 1e-12


def test_split_route_reports_a_measured_error_estimate():
    # the estimate is |c_plus| eps + |c_minus| eps, eps = 2^-53 K_low the
    # bound the trapezoid step is certified to in advance; so it stays far
    # within half the references' tolerance plus a clamping of rounding
    # size, and the Gauss-Legendre reference judges it
    rng = random.Random(17)
    for _ in range(40):
        p, x = draw_point(rng)
        value, error = oracle._evaluate(geometry(p, x), False, oracle._kernel)
        assert 0.0 <= error <= 0.5 * _REF_TOL + 1e-15
        gauss = _reference_split_cdf(p, x, _legendre_kernel)
        assert abs(value - gauss) <= 100.0 * (error + 1e-15)


def test_direct_route_reports_a_measured_error_estimate():
    # on the criterion-07 points the estimate is the change of the direct
    # integral in its last halving, below the oracle's stopping change rather
    # than equal to it, and the split oracle judges it
    rng = random.Random(17)
    estimates = []
    while len(estimates) < 50:
        p, x = draw_point(rng)
        g = geometry(p, x)
        if abs(g.nu - p.tau) <= 0.05 or not 5.0 <= g.z <= 200.0:
            continue
        value, error = oracle._quad_direct(p, g)
        assert value == cdf_quad_direct(p, x)
        assert 0.0 <= error < oracle._DIRECT_TOL
        assert abs(value - cdf_quad_split(p, x)) <= 100.0 * (error + 1e-15)
        estimates.append(error)
    assert max(estimates) > 0.0


def _points_where_the_split_weight_underflows(count: int) -> list:
    """Seeded points with E = exp(-z s_plus^2) == 0, on both sides of the transition."""
    rng = random.Random(745)
    points = []
    while len(points) < count:
        alpha = math.exp(rng.uniform(0.0, math.log(1e3)))
        delta = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        p = validate(alpha, alpha * rng.uniform(-0.95, 0.95), 0.0, delta)
        x = rng.choice((-1.0, 1.0)) * delta * 10.0 ** rng.uniform(0.0, 4.0)
        g = geometry(p, x)
        if math.exp(-g.z * (g.s_plus * g.s_plus)) == 0.0:
            points.append((p, x, g))
    return points


@pytest.mark.parametrize(
    "entry", [cdf, cdf_asym, cdf_quad_split], ids=["auto", "asym", "quad-split"]
)
def test_split_skips_the_minus_part_where_its_weight_underflows(monkeypatch, entry):
    # with E = 0 both minus-part terms are exactly 0, so _split neither
    # evaluates erfcx nor changes F: F is the bare erfc term of the plus part
    minus_parts = []
    split = oracle._split

    def recorded(*args):
        parts = split(*args)
        minus_parts.append(parts[1])
        return parts

    def refused(x):
        raise AssertionError("erfcx evaluated for a minus part of weight 0")

    monkeypatch.setattr(oracle, "_split", recorded)
    monkeypatch.setattr(oracle, "_erfcx", refused)
    taken = set()
    for p, x, g in _points_where_the_split_weight_underflows(60):
        minus_parts.clear()
        r = entry(p, x)
        assert minus_parts == [0.0]
        if entry is cdf_quad_split:  # a bare float, F
            assert r == 0.5 * math.erfc(g.zeta_plus)
            continue
        taken.add((r.method, r.complemented))
        if r.complemented:
            assert r.value == 1.0 - 0.5 * math.erfc(-g.zeta_plus)
        else:
            assert r.value == 0.5 * math.erfc(g.zeta_plus)
    if entry is cdf:
        assert taken == {(Method.GAUSS_SPLIT, True), (Method.GAUSS_SPLIT, False)}


def _split_reference_near_w_minus_zero(p, x):
    """F at (p, x) by the split in mpmath, for |w_minus| below about 1e-12.

    At the current precision, the geometry comes from the exact double
    inputs, and K(z, w_plus) from ``_kernel_reference``.  F_minus is taken
    to first order in w_minus: it vanishes at w_minus = 0, s_minus moves
    only at second order, and -dK/dw(z, 0) = J, the integral of
    e^{-z sinh^2 t} / cosh^2 t over the real line, is sqrt(pi) U(1/2, 0, z)
    = sqrt(pi) z U(3/2, 2, z) (Tricomi U), so F_minus = w_minus E J / (2 pi)
    + O(w_minus^2).
    """
    a, b, mu, d, xm = map(mpmath.mpf, (p.alpha, p.beta, p.mu, p.delta, x))
    tau = mpmath.atan2(mpmath.sqrt(a * a - b * b), b)
    nu = mpmath.atan2(d, xm - mu)
    z = 2 * a * mpmath.hypot(xm - mu, d)
    s_plus, w_plus = mpmath.sin((nu - tau) / 2), mpmath.cos((nu - tau) / 2)
    w_minus = mpmath.cos((nu + tau) / 2)
    damp = mpmath.exp(-z * s_plus**2)
    f_plus = mpmath.erfc(s_plus * mpmath.sqrt(z)) / 2 - s_plus * damp / (2 * mpmath.pi) * (
        _kernel_reference(z, w_plus)
    )
    j = mpmath.sqrt(mpmath.pi) * z * mpmath.hyperu(1.5, 2, z)
    return f_plus + w_minus * damp * j / (2 * mpmath.pi)


def test_error_estimate_covers_the_minus_part_dropped_at_small_w_minus():
    # below |w_minus| = 1e-13 the split drops F_minus, which nears
    # E |w_minus| / pi at small z, and the estimate must cover it: seeded
    # points at x = mu - beta delta / gamma, where w_minus = 0, and with
    # |w_minus| log-uniform over [1e-16, 3e-13] on both sides; z runs from
    # 3.8e-3 to 78, and F_minus up to 2.7e-14 within the band
    rng = random.Random(2323)
    in_band = 0
    with mpmath.workdps(30):
        for i in range(40):
            alpha = math.exp(rng.uniform(math.log(1e-3), math.log(20.0)))
            delta = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
            p = validate(alpha, alpha * rng.uniform(-0.95, 0.95), rng.uniform(-2.0, 2.0), delta)
            x = p.mu - p.beta * p.delta / p.gamma
            if i % 4:
                # d w_minus / dx = delta / (2 omega^2)
                w = math.exp(rng.uniform(math.log(1e-16), math.log(3e-13)))
                x += rng.choice((-2.0, 2.0)) * w * ((x - p.mu) ** 2 + delta**2) / delta
            r = cdf(p, x)
            ref = float(_split_reference_near_w_minus_zero(p, x))
            assert abs(r.value - ref) <= r.error_estimate + 4.5e-16, (p, x, r)
            in_band += abs(geometry(p, x).w_minus) < 1e-13
    assert in_band >= 30
