"""Generate the committed reference set that judges every route's accuracy.

Writes two files beside this script, one line per row, in the same order:

* ``reference_values.csv``: ``source``, the inputs alpha, beta, mu, delta
  and x as ``float.hex``, and F and G to 34 significant digits.
* ``reference_gates.csv``: the row's error class, then the error of
  ``cdf``, ``cdf_quad_split`` and ``cdf_quad_direct`` on it, rounded up to
  two significant digits, or ``refused`` where the route raises NigError.

The reference is the exact erfc split of the CDF in mpmath, from the exact
double inputs, with the geometry formed by the trig-free algebra
(gamma = sqrt((alpha - beta)(alpha + beta)), xi = x - mu,
omega = sqrt(xi^2 + delta^2), z = 2 alpha omega, D = alpha omega +
beta xi + gamma delta; zeta_plus = (beta delta - gamma xi) / sqrt(D),
w_plus = sqrt(D / z); zeta_minus = sqrt(alpha omega - beta xi +
gamma delta), w_minus = (beta delta + gamma xi) / (sqrt(z) zeta_minus)),
never through angles.  Each K(z, w) is 2 ``mp.quad`` of
e^{-z sinh^2 t} / (cosh t + w) over [0, T/8, T/4, T/2, T],
T = asinh(sqrt(200 / z)).  F and G each come from their own side of the
split, so G is never formed as 1 - F.  Every row is computed at 60 and at
90 digits, each plus the digits of z rounded up to tens, as an erfc
argument's error grows with its square; the two must agree to 1e-36
relative on F and on G, or the row is computed again 30 digits higher.

The cross-check shares nothing with the split: on every row with
|nu - tau| > 0.05 it sums the steepest-descent integral of
``cdf_quad_direct`` by the trapezoid rule in mpmath at a step h and at
h/2, and the smaller of F and G by each must agree with the split to
1e-30 relative.

The gates are a ratchet.  Where both files exist, a route's gate on a row
never rises: a measured error above max(gate, floor) is reported by row,
nothing is written, and the script exits 1; otherwise each gate becomes
the smaller of the old gate and the measured error.  The floors are about
one ulp, 2^-53 absolute and 2^-51 relative.

Run from the repository root:

    PYTHONPATH=src python tests/make_reference.py            # both files, and the cross-check
    PYTHONPATH=src python tests/make_reference.py --gates    # the gate pass alone
    PYTHONPATH=src python tests/make_reference.py --check 40 # regenerate 40 committed rows

``--check N`` recomputes N seeded-random committed rows at both precisions,
requires their stored digits back, and cross-checks 10 of them.
"""

from __future__ import annotations

import argparse
import csv
import math
import multiprocessing
import random
import sys
from bisect import bisect_right
from pathlib import Path
from typing import NamedTuple

from mpmath import mp, mpf

from nigcdf import (
    Method,
    NigError,
    cdf,
    cdf_quad_direct,
    cdf_quad_split,
    geometry,
    transition_point,
    validate,
)
from nigcdf.expansion import _BAND_EDGES
from nigcdf.selftest import draw_point
from test_wide_range import _draw

HERE = Path(__file__).resolve().parent
VALUES = HERE / "reference_values.csv"
GATES = HERE / "reference_gates.csv"

DIGITS = 34
PRECISIONS = (60, 90)
AGREE = mpf("1e-36")
CROSS_TOL = mpf("1e-30")
ROUTES = {"cdf": cdf, "quad_split": cdf_quad_split, "quad_direct": cdf_quad_direct}
# the error classes, by the smaller of F and G, and the floor of each gate:
# absolute on F where min(F, G) >= 1e-3 and where G < 1e-3; relative on F
# where F < 1e-3; where the smaller one is below 2^-1022 the route must
# return F <= 2^-1022 on the left and exactly 1.0 on the right
TAIL = mpf("1e-3")
TINY = mpf(2) ** -1022
FLOORS = {"body": mpf(2) ** -53, "left": mpf(2) ** -51, "right": mpf(2) ** -53, "underflow": mpf(0)}

# the 24 lower z edges of the bands of ``cdf`` when the set landed, which the
# ``bands`` rows were drawn at: the small-z series' order edges, the
# trapezoid's rung edges from 0.07, and the Gauss rules' edges from 30.
# Frozen, so that ``rows`` rebuilds the committed inputs whatever the live
# bands; ``_check_coverage`` judges the set against the live ones
LANDING_EDGES = (
    3.84e-06, 0.000131, 0.00111, 0.00479, 0.0137, 0.0307, 0.0578,
    0.07, 1.9356295155183645, 4.870135665543295, 8.225738316549053, 11.872117626645782,
    15.764432523671921, 19.885504008682826, 24.229740272648353, 28.797328840163438,
    30.0, 35.0, 51.0, 84.0, 182.0, 680.0, 10780.0, 67200000.0,
)

PAPER = (8.0, 3.0, 2.0)  # alpha, mu, delta of the paper's three distributions
PAPER_BETAS = (-4.0, 2.0, 7.5)


class Row(NamedTuple):
    source: str
    alpha: float
    beta: float
    mu: float
    delta: float
    x: float
    F: str = ""
    G: str = ""


# ---------------------------------------------------------------- the reference


def _erfcx(x):
    """e^{x^2} erfc(x) for x >= 0; by its asymptotic series from 1e8, where mpmath's erfc fails."""
    if x < 1e8:
        return mp.exp(x * x) * mp.erfc(x)
    total = term = mpf(1)
    k = 1
    while abs(term) > mp.eps:
        term *= -(2 * k - 1) / (2 * x * x)
        total += term
        k += 1
    return total / (x * mp.sqrt(mp.pi))


def _erfc(x):
    if abs(x) < 1e8:
        return mp.erfc(x)
    tail = mp.exp(-x * x) * _erfcx(abs(x))
    return tail if x > 0 else 2 - tail


def _kernel(z, w):
    end = mp.asinh(mp.sqrt(200 / z))
    return 2 * mp.quad(
        lambda t: mp.exp(-z * mp.sinh(t) ** 2) / (mp.cosh(t) + w),
        [0, end / 8, end / 4, end / 2, end],
    )


def _geometry(row):
    """(alpha omega, z, zeta_plus, zeta_minus^2, w_plus, w_minus, xi, omega) at the working precision.

    D and z s_minus^2 are each taken directly where their terms share a
    sign, and otherwise as (gamma^2 xi^2 + alpha^2 delta^2) / (alpha omega
    -+ beta xi) + gamma delta, which does not cancel.
    """
    a, b, mu, d, x = (mpf(v) for v in row[1:6])
    g = mp.sqrt((a - b) * (a + b))
    xi = x - mu
    omega = mp.sqrt(xi * xi + d * d)
    aw = a * omega
    z = 2 * aw
    rest = g * g * xi * xi + a * a * d * d
    d_plus = aw + b * xi + g * d if b * xi >= 0 else rest / (aw - b * xi) + g * d
    d_minus = aw - b * xi + g * d if b * xi <= 0 else rest / (aw + b * xi) + g * d
    zeta_plus = (b * d - g * xi) / mp.sqrt(d_plus)
    zeta_minus = mp.sqrt(d_minus)
    w_minus = (b * d + g * xi) / (mp.sqrt(z) * zeta_minus)
    return aw, z, zeta_plus, d_minus, mp.sqrt(d_plus / z), w_minus, xi, omega


def _extra_digits(row) -> int:
    """The digits of z, by tens: an erfc argument's relative error enters its value times its square.

    Rounding to tens keeps few precisions, and so few of ``mp.quad``'s
    node caches, one per precision.
    """
    with mp.workdps(20):
        z = 2 * mpf(row.alpha) * mp.hypot(mpf(row.x) - mpf(row.mu), mpf(row.delta))
        return 10 * max(0, int(mp.ceil(mp.log10(z) / 10)))


def split(row, dps: int):
    """(F, G) by the split in mpmath at ``dps`` digits plus the digits of z."""
    with mp.workdps(dps + _extra_digits(row)):
        _, z, zeta_plus, zeta_minus2, w_plus, w_minus, _, _ = _geometry(row)
        damp = mp.exp(-zeta_plus * zeta_plus)
        zeta_minus = mp.sqrt(zeta_minus2)
        weight = damp / (2 * mp.pi * mp.sqrt(z))  # c_pm = s_pm E / (2 pi) = zeta_pm weight
        plus = zeta_plus * weight * _kernel(z, w_plus)
        minus = damp * _erfcx(zeta_minus) / 2 - zeta_minus * weight * _kernel(z, abs(w_minus))
        if w_minus < 0:
            minus = -minus
        return _erfc(zeta_plus) / 2 - plus + minus, _erfc(-zeta_plus) / 2 + plus - minus


def reference(row) -> tuple[str, str]:
    """F and G of ``row`` to 34 digits, from two precisions that agree to 1e-36."""
    low, high = PRECISIONS
    while True:
        coarse, fine = split(row, low), split(row, high)
        with mp.workdps(high):
            if all(abs(c - f) <= AGREE * abs(f) for c, f in zip(coarse, fine)):
                return mp.nstr(fine[0], DIGITS), mp.nstr(fine[1], DIGITS)
        if high > 300:
            raise RuntimeError(f"no two precisions agree on {row}")
        low, high = high, high + 30


def direct(row, dps: int = 60):
    """F left of x0, G right of it: by the row's digits, and by the direct integral at h and at h/2.

    That is the function the integral gives directly, the smaller one in
    the tails.  The integrand is
    e^{-zeta_plus^2 - 2 alpha omega sinh^2(s/2)} sin nu (cos tau cosh s -
    cos nu) / (4 (sinh^2(s/2) + s_plus^2)(sinh^2(s/2) + s_minus^2)), whose
    exponent carries no cancellation; I is its integral over 2 pi, and
    F = I left of x0, G = -I right of it.  The poles lie at distance
    theta = |nu - tau| from the real line; the step takes a strip of
    0.9 theta, at most 1.5 and narrow enough that its growth
    e^{alpha omega (1 - cos y)} stays within 1e40, for about 40 digits.
    Each sum runs until a term falls below 1e-45 h of the sum of |f|.
    """
    with mp.workdps(dps + _extra_digits(row)):
        f_ref, g_ref = mpf(row.F), mpf(row.G)
        aw, z, zeta_plus, zeta_minus2, _, _, xi, omega = _geometry(row)
        sp2 = zeta_plus * zeta_plus / z
        sm2 = zeta_minus2 / z
        sin_nu, cos_nu, cos_tau = mpf(row.delta) / omega, xi / omega, mpf(row.beta) / mpf(row.alpha)

        def f(s):
            sh2 = mp.sinh(s / 2) ** 2
            scale = mp.exp(-zeta_plus * zeta_plus - 2 * aw * sh2) * sin_nu
            return scale * (cos_tau * mp.cosh(s) - cos_nu) / (4 * (sh2 + sp2) * (sh2 + sm2))

        def nodes(step, start, stride):
            total = size = mpf(0)
            k = start
            while True:
                term = f(k * step)
                total += term
                size += abs(term)
                if k > 8 and abs(term) < mpf(10) ** -45 * step * size:
                    return total
                k += stride

        goal = 40 * mp.log(10)
        y = min(0.9 * 2 * mp.asin(mp.sqrt(sp2)), mpf(1.5), mp.sqrt(2 * goal / aw))
        h = 2 * mp.pi * y / (goal + 2 * aw * mp.sin(y / 2) ** 2 + 20)
        coarse = h * (f(0) / 2 + nodes(h, 1, 1)) / mp.pi
        fine = coarse / 2 + h / 2 * nodes(h / 2, 1, 2) / mp.pi
        if zeta_plus > 0:
            ref, sums = f_ref, (coarse, fine)
        else:
            ref, sums = g_ref, (-coarse, -fine)
        return ref, *sums


def cross_checkable(row) -> bool:
    """|nu - tau| > 0.05 by the row's own geometry, clear of the poles that pinch the direct integral."""
    try:
        p = validate(*row[1:5])
        return abs(geometry(p, row.x).nu - p.tau) > 0.05
    except NigError:
        return False


# ---------------------------------------------------------------- the rows


def _point(source, p, x) -> Row:
    return Row(source, p.alpha, p.beta, p.mu, p.delta, float(x))


def _at_z(z: float, beta_ratio: float, left: bool) -> Row:
    """A row whose z, as the package computes it, is exactly ``z``, on the given side of x0.

    alpha is a power of two, so z = 2 alpha omega is exact and omega must be
    z / (2 alpha) in [1, 2); mu = 0 and delta = 1/4, and x steps by one
    double at a time until hypot(x, delta) is that omega.
    """
    alpha = 2.0 ** math.floor(math.log2(z / 2.0))
    p = validate(alpha, beta_ratio * alpha, 0.0, 0.25)
    omega = z / (2.0 * alpha)
    x = math.sqrt((omega - 0.25) * (omega + 0.25)) * (-1.0 if left else 1.0)
    for _ in range(200):
        got = geometry(p, x).z
        if got == z:
            assert (x < transition_point(p)) == left
            return _point("bands", p, x)
        x = math.nextafter(x, math.copysign(math.inf, x) if got < z else 0.0)
    raise RuntimeError(f"no double x gives z = {z!r}")


def _band_rows() -> list[Row]:
    """Every band of ``LANDING_EDGES`` on both sides of x0: inside it, at its edge and below."""
    inner = [1e-300, 1e-9]
    inner += [math.sqrt(lo * hi) for lo, hi in zip(LANDING_EDGES, LANDING_EDGES[1:])]
    inner += [1e9, 1e15]
    edges = [z for edge in LANDING_EDGES for z in (edge, math.nextafter(edge, 0.0))]
    return [
        _at_z(z, (0.5, -0.5)[i % 2], left)
        for i, z in enumerate(inner + edges)
        for left in (True, False)
    ]


def _tail_rows(rng: random.Random, count: int) -> list[Row]:
    """Both tails, from F or G near 1e-3 down to past 1e-340, on ``draw_point``'s distributions.

    Far out, ln F or ln G is about -(alpha omega - beta xi - gamma delta),
    so |xi| = (k ln 10 + gamma delta) / (alpha -+ beta) aims at 10^-k.
    """
    rows = []
    for i in range(count):
        p, _ = draw_point(rng)
        side = -1.0 if i % 2 else 1.0
        target = rng.uniform(3.0, 340.0) * math.log(10.0) + p.gamma * p.delta
        rows.append(_point("tails", p, p.mu + side * target / (p.alpha - side * p.beta)))
    return rows


def _transition_rows(rng: random.Random, count: int) -> list[Row]:
    """|nu - tau| in [0, 0.05]: nu = tau + d, x = mu + delta cot nu; d = 0 is x0 itself."""
    rows = [_point("transition", p, transition_point(p)) for p in _paper()]
    for i in range(count):
        p, _ = draw_point(rng)
        nu = p.tau + (rng.uniform(-0.05, 0.05) if i % 8 else 0.0)
        rows.append(_point("transition", p, p.mu + p.delta * math.cos(nu) / math.sin(nu)))
    return rows


def _mirror_rows() -> list[Row]:
    """Seeded points at w_minus = 0, x = mu - beta delta / gamma, and with |w_minus| in [1e-16, 3e-13]."""
    rng = random.Random(2323)
    rows = []
    for i in range(40):
        alpha = math.exp(rng.uniform(math.log(1e-3), math.log(20.0)))
        delta = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        p = validate(alpha, alpha * rng.uniform(-0.95, 0.95), rng.uniform(-2.0, 2.0), delta)
        x = p.mu - p.beta * p.delta / p.gamma
        if i % 4:
            # d w_minus / dx = delta / (2 omega^2)
            w = math.exp(rng.uniform(math.log(1e-16), math.log(3e-13)))
            x += rng.choice((-2.0, 2.0)) * w * ((x - p.mu) ** 2 + delta**2) / delta
        rows.append(_point("mirror", p, x))
    return rows


def _left_tail_rows() -> list[Row]:
    """The first 300 ``draw_point`` draws (seed 2027) that ``cdf`` sends to the trapezoid with 0 < F < 1e-6."""
    rng = random.Random(2027)
    rows = []
    while len(rows) < 300:
        p, x = draw_point(rng)
        r = cdf(p, x)
        if r.method is Method.QUAD_SPLIT and 0.0 < r.value < 1e-6 and abs(geometry(p, x).nu - p.tau) > 0.05:
            rows.append(_point("left_tail", p, x))
    return rows


def _paper():
    alpha, mu, delta = PAPER
    return [validate(alpha, beta, mu, delta) for beta in PAPER_BETAS]


def rows() -> list[Row]:
    """Every row of the set, in file order, without repeats."""
    rng = random.Random("reference")
    paper = _paper()
    out = [_point("paper_curves", paper[i % 3], rng.uniform(0.0, 20.0)) for i in range(150)]
    out += [_point("mixed_sweep", *draw_point(rng)) for _ in range(200)]
    for _ in range(300):
        alpha, beta, mu, delta, x = _draw(rng)
        out.append(_point("wide_range", validate(alpha, beta, mu, delta), x))
    out += _band_rows()
    out += _tail_rows(rng, 120)
    out += _transition_rows(rng, 60)
    out += _mirror_rows()
    out += _left_tail_rows()
    # the paper's spot values away from x0
    out += [_point("spot", paper[i], x) for i, x in ((0, 6.0), (1, 1.0), (1, 5.0), (2, 15.0))]
    # the normal limit alpha = delta = 10^k, beta = mu = 0, where F is Phi(x)
    # up to the first Edgeworth term, below 1e-16 from k = 8
    for k in range(6, 21):
        p = validate(10.0**k, 0.0, 0.0, 10.0**k)
        out += [_point("normal_limit", p, x) for x in (0.3, 1.0, 2.0, 4.0)]
    tails = [(1.0, 0.9, 0.0, 1.0, -60.0), (8.0, 7.5, 3.0, 2.0, -4.0), (8.0, 7.5, 3.0, 2.0, -8.0),
             (2.0, 0.0, 0.0, 1.0, -15.0), (1.0, -0.9, 0.0, 1.0, 25.0)]
    out += [Row("tail_repro", *t) for t in tails]
    # z at the ends of the double range: z overflows (F = 1, and the normal
    # limit F = Phi(0.5)), alpha omega near the least double, and gamma
    # underflowing at the Cauchy limit
    ends = [(1.0, 0.0, 0.0, 1.0, 1e308), (1e200, 0.0, 0.0, 1e200, 0.5),
            (1e-308, 0.0, 0.0, 1.0, 5.0), (1e-320, 0.0, 0.0, 1.0, 5.0),
            (1.0, 0.5, 0.0, 1e-308, 1e-309),
            (1.3952116312638158e-186, -1.3562192504497023e-186, -3.7714340517381006,
             7.593739372510547, -3.7712843354452077)]
    out += [Row("z_range", *t) for t in ends]
    seen = set()
    unique = []
    for row in out:
        if row[1:6] not in seen:
            seen.add(row[1:6])
            unique.append(row)
    return unique


def _check_coverage(table: list[Row]) -> None:
    """At least 1,000 rows, and every band of ``cdf`` on both sides of x0."""
    assert len(table) >= 1000, len(table)
    sides = set()
    for row in table:
        try:
            p = validate(*row[1:5])
            g = geometry(p, row.x)
        except NigError:
            continue
        sides.add((bisect_right(_BAND_EDGES, g.z), g.zeta_plus < 0.0))
    missing = {(band, right) for band in range(len(_BAND_EDGES) + 1) for right in (False, True)} - sides
    assert not missing, sorted(missing)


# ---------------------------------------------------------------- the judge


def error_class(f_ref, g_ref) -> str:
    if min(f_ref, g_ref) < TINY:
        return "underflow"
    if f_ref < TAIL:
        return "left"
    return "right" if g_ref < TAIL else "body"


def errors(row) -> tuple[str, dict]:
    """The row's class, and each route's error on it by that class, or ``"refused"``."""
    with mp.workdps(40):
        f_ref, g_ref = mpf(row.F), mpf(row.G)
        kind = error_class(f_ref, g_ref)
        out = {}
        p = validate(*row[1:5])
        for name, route in ROUTES.items():
            try:
                value = route(p, row.x).value
            except NigError:
                out[name] = "refused"
                continue
            if kind == "underflow" and (value <= TINY if f_ref < g_ref else value == 1.0):
                out[name] = mpf(0)
            else:
                err = abs(mpf(value) - f_ref)
                out[name] = err / f_ref if kind == "left" else err
        return kind, out


def within(err, gate: str, kind: str) -> bool:
    """Whether a measured error (or ``"refused"``) meets a gate: err <= max(gate, floor)."""
    if "refused" in (err, gate):
        return err == gate
    with mp.workdps(40):
        return err <= max(mpf(gate), FLOORS[kind])


def _gate(err) -> str:
    """``err`` rounded up to two significant digits, as a decimal string."""
    if err in ("refused", 0):
        return str(err)
    with mp.workdps(40):
        exp = int(mp.floor(mp.log10(err)))
        while True:
            digits = int(mp.ceil(err / mpf(10) ** (exp - 1)))
            if digits < 10:
                exp -= 1
            elif digits > 99:
                exp += 1
            else:
                return f"{digits // 10}.{digits % 10}e{exp}"


# ---------------------------------------------------------------- the files


def read_values() -> list[Row]:
    with VALUES.open(newline="") as fh:
        return [
            Row(r["source"], *(float.fromhex(r[k]) for k in ("alpha", "beta", "mu", "delta", "x")),
                r["F"], r["G"])
            for r in csv.DictReader(fh)
        ]


def read_gates() -> list[dict]:
    with GATES.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _write(path: Path, header, lines) -> None:
    with path.open("w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(lines)


def gate_pass(values: list[Row]) -> int:
    """Write the gates of ``values`` from the code, never raising a committed one; 1 if one would rise."""
    old = {}
    if GATES.exists() and VALUES.exists():
        old = {row[1:6]: gates for row, gates in zip(read_values(), read_gates())}
    lines, raised = [], []
    for i, row in enumerate(values):
        kind, errs = errors(row)
        before = old.get(row[1:6], {})
        line = [kind]
        for name, err in errs.items():
            gate, old_gate = _gate(err), before.get(name, "refused")
            # a refusal may turn into a value, never a value into a refusal or a larger one
            if old_gate != "refused" and not within(err, old_gate, kind):
                raised.append(f"line {i + 2} ({row.source}) {name}: {gate} > gate {old_gate}")
            elif old_gate != "refused" and mpf(old_gate) < mpf(gate):
                gate = old_gate
            line.append(gate)
        lines.append(line)
    for message in raised:
        print(message, file=sys.stderr)
    if raised:
        print(f"{len(raised)} gates would rise; nothing written", file=sys.stderr)
        return 1
    _write(GATES, ["class", *ROUTES], lines)
    return 0


def _with_reference(row: Row) -> Row:
    f_ref, g_ref = reference(row)
    return row._replace(F=f_ref, G=g_ref)


def _pool():
    # a worker is replaced after a few tasks, as ``mp.quad`` caches its nodes for good
    return multiprocessing.get_context("spawn").Pool(min(2, multiprocessing.cpu_count()), maxtasksperchild=4)


def cross_check(table: list[Row], pool) -> int:
    """Print the worst disagreements of the direct integral; 1 if any is past 1e-30."""
    worst_steps = worst_split = mpf(0)
    with mp.workdps(60):
        for ref, coarse, fine in pool.map(direct, table, chunksize=10):
            worst_steps = max(worst_steps, abs(coarse - fine) / abs(ref))
            worst_split = max(worst_split, abs(fine - ref) / abs(ref), abs(coarse - ref) / abs(ref))
    print(
        f"cross-check on {len(table)} rows: h against h/2 {mp.nstr(worst_steps, 3)}, "
        f"against the split {mp.nstr(worst_split, 3)} (relative, on F left of x0 and G right of it)"
    )
    return int(worst_steps > CROSS_TOL or worst_split > CROSS_TOL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--gates", action="store_true", help="the gate pass alone, on the committed values")
    mode.add_argument("--check", type=int, metavar="N", help="regenerate N seeded-random committed rows")
    args = parser.parse_args(argv)
    if args.gates:
        return gate_pass(read_values())
    if args.check is not None:
        committed = read_values()
        sample = random.Random(args.check).sample(committed, args.check)
        with _pool() as pool:
            fresh = pool.map(_with_reference, sample, chunksize=10)
            changed = [f"{row.source} {row[1:6]}" for row, new in zip(sample, fresh) if row != new]
            for line in changed:
                print(f"digits differ: {line}", file=sys.stderr)
            print(f"regenerated {len(sample)} rows, {len(changed)} differ")
            status = cross_check([row for row in sample if cross_checkable(row)][:10], pool)
        return int(bool(changed)) or status
    fresh = rows()
    _check_coverage(fresh)
    with _pool() as pool:
        fresh = pool.map(_with_reference, fresh, chunksize=10)
        status = cross_check([row for row in fresh if cross_checkable(row)], pool)
    status = status or gate_pass(fresh)
    if status == 0:
        _write(VALUES, Row._fields, [(r.source, *(v.hex() for v in r[1:6]), r.F, r.G) for r in fresh])
    print(f"{len(fresh)} rows")
    return status


if __name__ == "__main__":
    sys.exit(main())
