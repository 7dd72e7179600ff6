"""Command-line front end.

Subcommands:

* ``eval``: one evaluation at a point, with method and format selection.
* ``table1``: the benchmark grid, one CSV row per asymmetry value, comparing
  the asymptotic value against the quadrature oracle at the transition point.
* ``figure1``: CSV curve data (CDF and its minus-part correction) over
  x in [0, 20] for the three benchmark parameter sets.
* ``selftest``: the built-in invariant suites.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 near-transition
refusal of ``--method quad-direct``, 4 selftest failure.
"""

import argparse
import json
import sys
from bisect import bisect_right

from . import selftest as selftest_mod
from .errors import DomainError, NearTransitionError
from .coeffs import _check_kmax
from .expansion import _BAND_EDGES, _BANDS, DEFAULT_KMAX, cdf, cdf_asym
from .oracle import _split, cdf_quad_direct, cdf_quad_split
from .params import geometry, transition_point, validate

__all__ = ["main", "run"]

_BENCH_ALPHA = 8.0
_BENCH_MU = 3.0
_BENCH_DELTA = 2.0
_BENCH_BETAS = (-4.0, 2.0, 7.5)

_RECORD_FIELDS = ("x", "F", "G", "method", "kmax", "error_estimate", "x0", "z")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; 2 is reserved for
    # domain errors here, so route usage failures to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _points_type(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("at least 2 grid points are required")
    return value


def _fmt(value, digits: int) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return f"{value:.{digits}g}"


# eval --method: each choice and the public route it names, called as
# route(p, x, kmax); each returns its own ``EvalResult``, and only ``asym``
# reads kmax
_ROUTES = {
    "auto": lambda p, x, kmax: cdf(p, x),
    "asym": lambda p, x, kmax: cdf_asym(p, x, kmax),
    "quad-split": lambda p, x, kmax: cdf_quad_split(p, x),
    "quad-direct": lambda p, x, kmax: cdf_quad_direct(p, x),
}


def _cmd_eval(args) -> int:
    p = validate(args.alpha, args.beta, args.mu, args.delta)
    # outside input, so refused on every method, not only on the one that reads it
    kmax = _check_kmax(args.kmax)
    g = geometry(p, args.x)
    result = _ROUTES[args.method](p, args.x, kmax)
    record = {
        "x": args.x,
        "F": result.value,
        "G": 1.0 - result.value,
        "method": result.method.value,
        "kmax": result.kmax_used,
        "error_estimate": result.error_estimate,
        "x0": transition_point(p),
        "z": g.z,
    }
    if args.format == "plain":
        for key in _RECORD_FIELDS:
            print(f"{key}={_fmt(record[key], 10)}")
    elif args.format == "csv":
        print(",".join(_RECORD_FIELDS))
        print(",".join(_fmt(record[key], 17) for key in _RECORD_FIELDS))
    else:
        print(json.dumps({key: record[key] for key in _RECORD_FIELDS}))
    return 0


def _cmd_table1(args) -> int:
    # kmax is refused before the header, so a refused run prints nothing
    kmax = _check_kmax(args.kmax)
    print("beta,x0,F_asym,F_oracle,z,abs_err")
    for beta in _BENCH_BETAS:
        p = validate(_BENCH_ALPHA, beta, _BENCH_MU, _BENCH_DELTA)
        x0 = transition_point(p)
        g = geometry(p, x0)
        f_asym = cdf_asym(p, x0, kmax).value
        f_oracle = cdf_quad_split(p, x0).value
        row = (beta, x0, f_asym, f_oracle, g.z, abs(f_asym - f_oracle))
        print(",".join(f"{v:.17g}" for v in row))
    return 0


def _cmd_figure1(args) -> int:
    params = [validate(_BENCH_ALPHA, beta, _BENCH_MU, _BENCH_DELTA) for beta in _BENCH_BETAS]
    labels = [f"{beta:g}" for beta in _BENCH_BETAS]
    header = ["x"]
    header += [f"F_beta_{lab}" for lab in labels]
    header += [f"Fminus_beta_{lab}" for lab in labels]
    print(",".join(header))
    n = args.points
    for i in range(n):
        x = 20.0 * i / (n - 1)
        # the policy computes the smaller of F and G first on every z band,
        # which keeps the emitted curve monotone through the saturated tails
        fs = [cdf(p, x).value for p in params]
        # the minus part of the split with the kernel of the policy's z band,
        # certified on every band
        fminus = []
        for p in params:
            g = geometry(p, x)
            fminus.append(_split(g, False, _BANDS[bisect_right(_BAND_EDGES, g.z)][0])[1])
        print(",".join(f"{v:.17g}" for v in [x, *fs, *fminus]))
    return 0


def _cmd_selftest(args) -> int:
    total_failed = 0
    for name, passed, failed in selftest_mod.run_all(seed=args.seed):
        total_failed += failed
        print(f"{name}: {passed} passed, {failed} failed")
    if total_failed:
        print(f"selftest FAILED ({total_failed} failures)")
        return 4
    print("selftest passed")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="nigcdf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate F and G at one point")
    ev.add_argument("--alpha", type=float, required=True)
    ev.add_argument("--beta", type=float, required=True)
    ev.add_argument("--mu", type=float, required=True)
    ev.add_argument("--delta", type=float, required=True)
    ev.add_argument("--x", type=float, required=True)
    ev.add_argument("--method", choices=tuple(_ROUTES), default="auto")
    ev.add_argument("--kmax", type=int, default=DEFAULT_KMAX)
    ev.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    ev.set_defaults(func=_cmd_eval)

    tb = sub.add_parser("table1", help="benchmark rows at the transition points (CSV)")
    tb.add_argument("--kmax", type=int, default=DEFAULT_KMAX)
    tb.set_defaults(func=_cmd_table1)

    fg = sub.add_parser("figure1", help="CDF and minus-part curves on [0, 20] (CSV)")
    fg.add_argument("--points", type=_points_type, default=200)
    fg.set_defaults(func=_cmd_figure1)

    st = sub.add_parser("selftest", help="run the built-in invariant suites")
    st.add_argument("--seed", type=int, default=selftest_mod.DEFAULT_SEED)
    st.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except NearTransitionError as exc:
        print(f"near-transition error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())
