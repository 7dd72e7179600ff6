"""Numeric evaluation of the expansion coefficients.

The ``d_k(w)`` weight the power series that accompanies the erfc leading
term of the uniform expansion, for both the plus part (w = w_plus) and the
signed minus part (w = |w_minus|).  Each is rational in w:
``d_k(w) = P_k(w) / (1 + w)^k`` with ``P_k`` a degree-k polynomial whose
coefficients all share the sign (-1)^k.  ``_rows`` builds the ``P_k`` once
per ``kmax`` by a series inversion on polynomials; ``_row_values``
evaluates each by Horner on w, which on (0, 1] cannot cancel, so the d_k
match the closed forms to about 5e-16 relative from w = 1 down to
w = 1e-13, below which the minus part is treated as zero.  The closed forms
for k <= 4 serve as independent cross-checks in the tests and the selftest.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache
from math import factorial

from .errors import DomainError
from .params import _require_finite

__all__ = [
    "d_coefficients",
    "d_closed_form",
]

# the last row of ``_rows`` whose coefficients are all finite (row 152
# overflows); the O(kmax^3) build never starts for a kmax it cannot serve
_KMAX_LIMIT = 151


def _check_kmax(kmax: int) -> int:
    if not isinstance(kmax, int) or isinstance(kmax, bool) or not 0 <= kmax <= _KMAX_LIMIT:
        raise DomainError(f"kmax must be an integer in 0..{_KMAX_LIMIT}, got {kmax!r}")
    return kmax


def _check_w(w: float) -> float:
    w = _require_finite("w", w)
    if not (0.0 < w <= 1.0):
        raise DomainError(f"w must lie in (0, 1], got {w!r}")
    return w


@cache
def _rows(kmax: int) -> tuple[tuple[float, ...], ...]:
    """Coefficients of P_0..P_kmax, highest power of w first, for Horner.

    With b_0 = w(1 + w) divided out of the series inversion, Q_0 = 1 and
    Q_k = -[(1 + w/2) Q_{k-1} + w (1 + w) S_k], where
    S_k = sum_{j=2..k} binom(1/2, j) Q_{k-j} (1 + w)^{j-2} is summed by
    Horner in (1 + w); then P_k = (1/2)_k Q_k.  Every term of the recursion
    has the sign of Q_{k-1}, so no coefficient cancels.  Lists are
    lowest power first while building; the cost is O(kmax^3) once.
    """
    binom = [1.0]
    for j in range(1, kmax + 1):
        binom.append(binom[-1] * (1.5 - j) / j)
    q = [[1.0]]
    rows = [(1.0,)]
    poch = 1.0
    for k in range(1, kmax + 1):
        s = []
        for j in range(k, 1, -1):
            # s <- s (1 + w) + binom(1/2, j) Q_{k-j}
            s = [a + b for a, b in zip(s + [0.0], [0.0] + s)]
            for i, c in enumerate(q[k - j]):
                s[i] += binom[j] * c
        # s <- w (1 + w) s, of degree k
        s = [0.0] + [a + b for a, b in zip(s + [0.0], [0.0] + s)]
        for i, c in enumerate(q[k - 1]):
            s[i] += c
            s[i + 1] += 0.5 * c
        qk = [-c for c in s]
        q.append(qk)
        poch *= k - 0.5
        rows.append(tuple(poch * c for c in reversed(qk)))
    return tuple(rows)


def _straight_line(label: str, tables: tuple) -> Callable[[float, float], tuple[float, ...]]:
    """Tables of polynomial rows compiled into one straight-line function of (w, y).

    Each table holds the same number n + 1 of rows, each row a polynomial in
    w, highest power first.  The function returns, for each table, the sum
    over k of row_k(w) y^k, then for each table its last row at w, then
    y^n, the product of n factors y from 1.0: Horner in y over the rows from
    the last down, each row by Horner in w.  Each multiply-add is one
    assignment, in the order of the loop over the rows that it unrolls, with
    the coefficients written as float literals, which ``repr`` round-trips
    exactly.  A row starts at its leading coefficient, the double that
    0.0 * w + c gives for every finite w.  ``label`` names the function in
    tracebacks.
    """
    n = len(tables[0]) - 1
    body = []
    for i, rows in enumerate(tables):
        body.append(f"last{i} = {rows[n][0]!r}")
        body += [f"last{i} = last{i} * w + {c!r}" for c in rows[n][1:]]
        body.append(f"total{i} = last{i}")
        for row in reversed(rows[:n]):
            body.append(f"p = {row[0]!r}")
            body += [f"p = p * w + {c!r}" for c in row[1:]]
            body.append(f"total{i} = total{i} * y + p")
    body.append("yk = 1.0")
    body += ["yk = yk * y"] * n
    names = [f"total{i}" for i in range(len(tables))] + [f"last{i}" for i in range(len(tables))]
    body.append(f"return {', '.join(names)}, yk")
    source = "def straight_line(w, y):\n    " + "\n    ".join(body) + "\n"
    namespace: dict = {}
    exec(compile(source, f"<nigcdf.coeffs.{label}>", "exec"), namespace)
    return namespace["straight_line"]


@cache
def _small_z_rows(order: int) -> tuple[tuple[tuple[float, ...], ...], ...]:
    """The rows of the small-z series M, split by parity, for an odd ``order``.

    With a = w^2 - 1/2 and Lambda = ln z - ln 4 + gamma_E,
    M = sum_{n=0..order} z^{n+1} [U_n(a) - Lambda V_n(a)], where
    V_n = A_n / (n+1), U_n = (B_n + A_n / (n+1)) / (n+1),
    A_n(a) = sum_{j+2k=n} c_k a^j / j!, B_n(a) = sum_{j+2k=n} c_k H_k a^j / j!,
    c_k = 1 / (16^k k!^2) and H_k the harmonic numbers (H_0 = 0).  U_n and
    V_n hold only the powers a^j with j = n mod 2, so each is a^(n mod 2)
    times a polynomial in b = a^2.  Returns four tables of rows in b,
    highest power first: U at even n, U at odd n, V at even n, V at odd n,
    each of (order + 1) / 2 rows, so that with y = z^2

        sum_n z^n U_n(a) = sum_m U_2m(b) y^m + a z sum_m U_2m+1(b) y^m

    and likewise for V.  Each coefficient is one exact ratio of integers,
    which ``int / int`` rounds correctly.
    """
    tables: tuple[list, ...] = ([], [], [], [])
    harmonic = [(0, 1)]  # H_k as numerator, denominator
    for k in range(1, order // 2 + 1):
        num, den = harmonic[-1]
        harmonic.append((num * k + den, den * k))
    for n in range(order + 1):
        u_row, v_row = [], []
        for k in range(n // 2 + 1):  # j = n - 2k falls from n, highest power first
            num, den = harmonic[k]
            base = 16**k * factorial(k) ** 2 * factorial(n - 2 * k) * (n + 1)
            u_row.append((num * (n + 1) + den) / (base * (n + 1) * den))
            v_row.append(1 / base)
        tables[n % 2].append(tuple(u_row))
        tables[2 + n % 2].append(tuple(v_row))
    return tuple(tuple(table) for table in tables)


@cache
def _small_z_horner(order: int) -> Callable[[float, float], tuple[float, ...]]:
    """The rows of ``_small_z_rows(order)`` compiled by ``_straight_line`` into one function.

    ``_small_z_horner(order)(a * a, z * z)`` returns the four sums over the
    tables in their order, then the four last rows at b = a^2, then
    (z^2)^((order - 1) / 2).  Compiled on first use of an order, never at
    import.
    """
    return _straight_line(f"_small_z_horner({order})", _small_z_rows(order))


def _row_values(w: float, kmax: int) -> list[float]:
    """P_0(w)..P_kmax(w), each row of ``_rows`` by Horner in w, for a checked w and kmax."""
    values = []
    for row in _rows(kmax):
        p = 0.0
        for c in row:
            p = p * w + c
        values.append(p)
    return values


def d_coefficients(w: float, kmax: int) -> tuple[float, ...]:
    """d_0..d_kmax, evaluated from the polynomial rows of ``_rows``.

    ``w = |cos((nu -+ tau)/2)|`` is the pole parameter and d_0 is exactly 1.
    Checks ``0 < w <= 1`` and ``0 <= kmax <= 151``; raises DomainError otherwise.
    """
    w = _check_w(w)
    kmax = _check_kmax(kmax)
    u = 1.0 + w
    return tuple(p / u**k for k, p in enumerate(_row_values(w, kmax)))


def d_closed_form(w: float, k: int) -> float:
    """Explicit rational forms of d_k for k <= 4, used as test oracles."""
    w = _check_w(w)
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= 4:
        raise DomainError(f"closed forms exist for 0 <= k <= 4 only, got {k!r}")
    u = w + 1.0
    if k == 0:
        return 1.0
    if k == 1:
        return -(w + 2.0) / (4.0 * u)
    if k == 2:
        return 3.0 * (3.0 * w * w + 9.0 * w + 8.0) / (32.0 * u * u)
    if k == 3:
        return -15.0 * (((5.0 * w + 20.0) * w + 29.0) * w + 16.0) / (128.0 * u**3)
    return 105.0 * ((((35.0 * w + 175.0) * w + 345.0) * w + 325.0) * w + 128.0) / (2048.0 * u**4)
