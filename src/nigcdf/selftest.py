"""Built-in invariant suites, runnable from the CLI.

Each suite draws random valid parameters, checks a family of exact
identities or cross-checks, and reports pass/fail counts.
"""

import math
import random

from .coeffs import d_closed_form, d_coefficients
from .oracle import cdf_quad_direct, cdf_quad_split, reflect
from .params import Parameters, geometry, transition_point, validate
from .special import erfc

__all__ = ["DEFAULT_SEED", "run_all", "draw_point", "identity_suite"]

DEFAULT_SEED = 1


def draw_point(rng: random.Random) -> tuple[Parameters, float]:
    """One random valid parameter set and evaluation point.

    Ranges keep the identities well conditioned: |beta| <= 0.95 alpha and
    |x - mu| <= 15 delta bound both angles away from their degenerate ends.
    """
    alpha = math.exp(rng.uniform(math.log(0.3), math.log(40.0)))
    beta = alpha * rng.uniform(-0.95, 0.95)
    mu = rng.uniform(-5.0, 5.0)
    delta = math.exp(rng.uniform(math.log(0.2), math.log(8.0)))
    p = validate(alpha, beta, mu, delta)
    x = mu + delta * rng.uniform(-15.0, 15.0)
    return p, x


def identity_suite(n: int = 10000, seed: int = DEFAULT_SEED):
    """Exact trigonometric and exponent identities of the geometry.

    Checks, per draw: the exponent identity
    delta gamma + beta xi - alpha omega = z sigma_plus^2; the pole gap
    z (sigma_plus^2 - sigma_minus^2) = 2 gamma delta; the square-root forms
    of zeta_plus (compared through its square, with a separate sign check)
    and zeta_minus; and sin(nu -+ tau) = 2 s w for both sign choices.
    All at 1e-12 relative to the natural scale of each identity.
    """
    rng = random.Random(seed)
    passed = failed = 0
    for _ in range(n):
        p, x = draw_point(rng)
        g = geometry(p, x)
        aw = p.alpha * g.omega
        bxi = p.beta * g.xi
        gd = p.gamma * p.delta
        scale = max(aw, abs(bxi), gd)
        ok = True

        # sigma_plus^2 = -s_plus^2 and sigma_minus^2 = -s_minus^2
        lhs = gd + bxi - aw
        ok = ok and abs(lhs + g.z * (g.s_plus * g.s_plus)) <= 1e-12 * scale

        gap = g.z * (g.s_minus * g.s_minus - g.s_plus * g.s_plus)
        ok = ok and abs(gap - 2.0 * gd) <= 1e-12 * max(2.0 * gd, 1e-300)

        ok = ok and abs(g.zeta_plus * g.zeta_plus - (aw - bxi - gd)) <= 1e-12 * scale
        x0 = transition_point(p)
        if abs(x - x0) > 1e-9 * (1.0 + abs(x0)):
            ok = ok and (g.zeta_plus > 0.0) == (x0 > x)

        zeta_minus_ref = math.sqrt(aw - bxi + gd)
        ok = ok and abs(g.zeta_minus - zeta_minus_ref) <= 1e-12 * zeta_minus_ref

        for angle, s, w in (
            (g.nu - p.tau, g.s_plus, g.w_plus),
            (g.nu + p.tau, g.s_minus, g.w_minus),
        ):
            sin_direct = math.sin(angle)
            sin_half = 2.0 * s * w
            bound = 1e-12 * max(abs(sin_direct), abs(sin_half), 1e-300)
            ok = ok and abs(sin_direct - sin_half) <= bound

        if ok:
            passed += 1
        else:
            failed += 1
    return "geometry identities", passed, failed


def coefficient_suite(seed: int = DEFAULT_SEED):
    """d_k from the cached polynomial rows against the closed forms, k <= 4.

    50 draws of w uniform on [0.05, 1], the plus part's usual range, and
    50 log-uniform on [1e-13, 0.05), where the signed minus part takes
    w = |w_minus|; all at 1e-13 relative.
    """
    rng = random.Random(seed + 1)
    ws = [rng.uniform(0.05, 1.0) for _ in range(50)]
    ws += [math.exp(rng.uniform(math.log(1e-13), math.log(0.05))) for _ in range(50)]
    passed = failed = 0
    for w in ws:
        table = d_coefficients(w, 4)
        ok = all(
            abs(table[k] - d_closed_form(w, k)) <= 1e-13 * abs(d_closed_form(w, k))
            for k in range(5)
        )
        if ok:
            passed += 1
        else:
            failed += 1
    return "coefficient rows", passed, failed


def special_suite():
    """Reflection, monotonicity, and normalization of erfc."""
    passed = failed = 0
    for x in (0.3, 1.7, 5.0, 0.0, 11.0):
        if abs(erfc(x) + erfc(-x) - 2.0) <= 1e-14:
            passed += 1
        else:
            failed += 1
    # strict decrease is checkable only where erfc is away from its
    # saturation values: below x ~ -5.9 the result is exactly 2.0 in double
    grid = [erfc(-5.0 + 0.25 * i) for i in range(125)]
    if all(a > b for a, b in zip(grid, grid[1:])):
        passed += 1
    else:
        failed += 1
    if erfc(0.0) == 1.0:
        passed += 1
    else:
        failed += 1
    return "special functions", passed, failed


def oracle_suite(seed: int = DEFAULT_SEED):
    """Cross-oracle agreement and the reflection identity."""
    rng = random.Random(seed + 3)
    passed = failed = 0
    done = 0
    while done < 8:
        p, x = draw_point(rng)
        g = geometry(p, x)
        if abs(g.nu - p.tau) <= 0.05 or not 5.0 <= g.z <= 200.0:
            continue
        done += 1
        split = cdf_quad_split(p, x).value
        direct = cdf_quad_direct(p, x).value
        if abs(split - direct) <= 1e-10:
            passed += 1
        else:
            failed += 1
    for _ in range(8):
        p, x = draw_point(rng)
        rp, rx = reflect(p, x)
        if abs(cdf_quad_split(p, x).value + cdf_quad_split(rp, rx).value - 1.0) <= 1e-10:
            passed += 1
        else:
            failed += 1
    mid = validate(8.0, 0.0, 3.0, 2.0)
    if abs(cdf_quad_split(mid, 3.0).value - 0.5) <= 1e-12:
        passed += 1
    else:
        failed += 1
    return "quadrature oracles", passed, failed


def run_all(seed: int = DEFAULT_SEED):
    """Run every suite; returns a list of (name, passed, failed)."""
    return [
        identity_suite(seed=seed),
        coefficient_suite(seed=seed),
        special_suite(),
        oracle_suite(seed=seed),
    ]
