"""Reference values from ``scipy.stats.norminvgauss``, run as a child process.

    python3 bench/reference.py < points.json > references.json

Reads a JSON list of ``[alpha, beta, mu, delta, x]`` points and writes
``{"refs": [...], "points_per_s": r}``, one ``[side, value]`` pair or
``null`` per point.  scipy is imported only here, so neither the timed
process nor the memory probe ever loads it.

scipy's cdf and sf integrate the density numerically from opposite ends.
Right of the transition point its cdf can lose all of F (values of 1e-27
where F is close to 1), so the reference for the smaller of F and G is the
cdf on the left and the sf on the right.  Its quadrature can also miss mass
in heavy tails (an sf off by 6e-8 at alpha=1.43, beta=1.35 shows this), so a
point has a reference only where the two tails agree: cdf + sf = 1 to
REF_CONSISTENCY.
"""

from __future__ import annotations

import json
import math
import sys
import time

REF_CONSISTENCY = 1e-10


def transition_point(alpha: float, beta: float, mu: float, delta: float) -> float:
    """mu + beta delta / gamma, the distribution mean, where F is near one half."""
    return mu + beta * delta / math.sqrt((alpha - beta) * (alpha + beta))


def choose_reference(x: float, x0: float, cdf: float, sf: float):
    """``("cdf", F)`` left of x0, ``("sf", G)`` right of it, or None when the tails disagree."""
    if not (math.isfinite(cdf) and math.isfinite(sf) and abs(cdf + sf - 1.0) <= REF_CONSISTENCY):
        return None
    return ("cdf", cdf) if x <= x0 else ("sf", sf)


def abs_error(value: float, reference) -> float:
    """Absolute error of a computed F against a reference of either side."""
    side, ref = reference
    return abs(value - ref) if side == "cdf" else abs((1.0 - value) - ref)


def main() -> int:
    import warnings

    from scipy import stats

    warnings.simplefilter("ignore")
    points = json.load(sys.stdin)
    refs = []
    side_s = 0.0
    for alpha, beta, mu, delta, x in points:
        dist = stats.norminvgauss(a=alpha * delta, b=beta * delta, loc=mu, scale=delta)
        x0 = transition_point(alpha, beta, mu, delta)
        # time the call that gives the reference; the other side only checks it
        start = time.perf_counter()
        first = float(dist.cdf(x) if x <= x0 else dist.sf(x))
        side_s += time.perf_counter() - start
        other = float(dist.sf(x) if x <= x0 else dist.cdf(x))
        cdf, sf = (first, other) if x <= x0 else (other, first)
        refs.append(choose_reference(x, x0, cdf, sf))
    json.dump({"refs": refs, "points_per_s": len(points) / side_s if side_s else 0.0}, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
