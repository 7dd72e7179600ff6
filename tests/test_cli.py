"""Command-line interface: formats, exit codes, and output stability."""

import json
import math
import pathlib
from bisect import bisect_right

import pytest

from nigcdf import cdf, cdf_asym, cdf_quad_direct, cdf_quad_split
from nigcdf.cli import main, run
from nigcdf.expansion import _BAND_EDGES, _BANDS, Method
from nigcdf.oracle import _split
from nigcdf.params import _geometry, geometry, validate
from nigcdf.selftest import run_all

EVAL_BASE = ["eval", "--alpha", "8", "--beta", "2", "--mu", "3", "--delta", "2"]


def _lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_eval_plain_format(capsys):
    assert main(EVAL_BASE + ["--x", "5"]) == 0
    out = dict(line.split("=", 1) for line in _lines(capsys))
    assert set(out) == {"x", "F", "G", "method", "kmax", "error_estimate", "x0", "z"}
    assert out["method"] == "gauss_split"
    assert float(out["F"]) == pytest.approx(0.99512722743310920, abs=1e-9)
    # plain mode prints 10 significant digits, so the sum carries that rounding
    assert float(out["F"]) + float(out["G"]) == pytest.approx(1.0, abs=1e-9)


def test_eval_symmetric_median(capsys):
    assert main(["eval", "--alpha", "8", "--beta", "0", "--mu", "3",
                 "--delta", "2", "--x", "3"]) == 0
    out = dict(line.split("=", 1) for line in _lines(capsys))
    assert float(out["F"]) == pytest.approx(0.5, abs=1e-10)


def test_eval_near_published_benchmark_value(capsys):
    assert main(EVAL_BASE + ["--x", "3.516397780"]) == 0
    out = dict(line.split("=", 1) for line in _lines(capsys))
    assert abs(float(out["F"]) - 0.512385772) <= 1e-8


def test_eval_csv_and_json_encode_identical_values(capsys):
    assert main(EVAL_BASE + ["--x", "5", "--format", "csv"]) == 0
    header, row = _lines(capsys)
    csv_record = dict(zip(header.split(","), row.split(",")))
    assert main(EVAL_BASE + ["--x", "5", "--format", "json"]) == 0
    json_record = json.loads(_lines(capsys)[0])
    assert set(csv_record) == set(json_record)
    for key, raw in csv_record.items():
        if key == "method":
            assert raw == json_record[key]
        else:
            assert float(raw) == float(json_record[key])
    # 17 significant digits round-trip the underlying doubles exactly
    assert float(csv_record["F"]) + float(csv_record["G"]) == 1.0


def test_eval_csv_is_bit_stable(capsys):
    assert main(EVAL_BASE + ["--x", "5", "--format", "csv"]) == 0
    first = capsys.readouterr().out
    assert main(EVAL_BASE + ["--x", "5", "--format", "csv"]) == 0
    assert capsys.readouterr().out == first


def _eval_json(capsys, args):
    assert main(["eval", *args.split(), "--format", "json"]) == 0
    return json.loads(_lines(capsys)[0])


# single eval points: the route label and kmax of the JSON record, a bound on
# its error estimate, and F against the F of another --method at the same
# point, or against a known value.  kmax is the work the kernel reports: on
# the trapezoid its nodes, t = 0 included, and 0 where no kernel is called
EVAL_POINTS = {
    "trapezoid": ("--alpha 1 --beta 0.2 --mu 0 --delta 1 --x 0.5",
                  "quad_split", 19, 5e-13, "quad-split", 1e-15),
    # z = 0.04
    "small-z": ("--alpha 0.5 --beta 0.125 --mu 3 --delta 0.04 --x 3",
                "small_z_series", 8, 5e-13, "quad-split", 1e-15),
    # right of the transition every band evaluates G first: z = 0.067 on the
    # small-z series, z = 0.297, past its crossover, and z = 6.32 on the
    # trapezoid, which also agrees with the direct oracle (|nu - tau| = 1.05)
    "small-z-right": ("--alpha 0.5 --beta 0.125 --mu 3 --delta 0.06 --x 3.03",
                      "small_z_series", 8, 5e-13, "quad-split", 1e-15),
    "past-small-z": ("--alpha 0.5 --beta 0.125 --mu 3 --delta 0.1 --x 3.28",
                     "quad_split", 26, 5e-13, "quad-split", 1e-15),
    "trapezoid-right": ("--alpha 1 --beta 0.2 --mu 0 --delta 1 --x 3",
                        "quad_split", 15, 5e-13, "quad-split", 1e-15),
    "trapezoid-direct": ("--alpha 1 --beta 0.2 --mu 0 --delta 1 --x 3",
                         "quad_split", 15, 5e-13, "quad-direct", 1e-12),
    # zeta_minus = 44.3, erfcx's large-x series, with split weight near 1 (z = 2040)
    "erfcx-series": ("--alpha 100 --beta 20 --mu 0 --delta 10 --x 2",
                     "gauss_split", 3, 5e-13, "quad-split", 1e-15),
    # the split weight underflows to 0, so the split calls no kernel
    "weight-underflow": ("--alpha 8 --beta 2 --mu 3 --delta 2 --x 2000",
                         "gauss_split", 0, 5e-13, 1.0, 0.0),
    # z = 45 and w_minus < 0.05, where the Gauss rule keeps its bound
    "gauss-small-w-minus": ("--alpha 8 --beta -4 --mu 3 --delta 2 --x 1",
                            "gauss_split", 7, 1e-15, "quad-direct", 1e-13),
    # x = -beta delta / gamma, w_minus = 7.5e-14: the minus part, 2.28e-14, is
    # over the small-z kernel's bound (z = 0.023), so the route keeps it
    "mirror-point": ("--alpha 0.01 --beta 0.005 --mu 0 --delta 1 --x -0.5773502691894258",
                     "small_z_series", 8, 1e-15, "quad-direct", 1e-14),
    # z near 6e-300, the longest trapezoid level, where NIG is Cauchy
    "cauchy": ("--alpha 1e-300 --beta 0 --mu 0 --delta 1 --x 3 --method quad-split",
               "quad_split", 2776, 5e-13, 0.5 + math.atan(3.0) / math.pi, 1e-15),
}


# each --method and the library function that serves it
LIBRARY_ROUTES = {"auto": cdf, "asym": cdf_asym, "quad-split": cdf_quad_split,
                  "quad-direct": cdf_quad_direct}


@pytest.mark.parametrize(
    "args,route,kmax,estimate,reference,tol", EVAL_POINTS.values(), ids=EVAL_POINTS
)
def test_eval_point_reports_its_route_estimate_and_value(
    capsys, args, route, kmax, estimate, reference, tol
):
    record = _eval_json(capsys, args)
    assert (record["method"], record["kmax"]) == (route, kmax), record
    assert record["error_estimate"] <= estimate, record
    # the CLI prints the record of the library's route, exactly: JSON
    # round-trips a double
    options = dict(zip(args.split()[::2], args.split()[1::2]))
    p = validate(*(float(options[f"--{k}"]) for k in ("alpha", "beta", "mu", "delta")))
    r = LIBRARY_ROUTES[options.get("--method", "auto")](p, float(options["--x"]))
    assert [record[k] for k in ("F", "method", "kmax", "error_estimate")] == [
        r.value, r.method.value, r.kmax_used, r.error_estimate
    ], (record, r)
    if isinstance(reference, str):
        reference = _eval_json(capsys, f"{args} --method {reference}")["F"]
    assert abs(record["F"] - reference) <= tol, (record, reference)


# the policy's trapezoid bands and ``--method quad-split`` share one trapezoid
# body, so on the band they print the same record, field for field: at the
# CI smoke step's point x = 0.5 (z = 2.24), right of the transition, where
# the policy evaluates G first, and at x = -3 (z = 6.32, another rung), left
# of it
@pytest.mark.parametrize("x", ["0.5", "-3"])
def test_eval_prints_the_quad_split_record_on_the_trapezoid_band(capsys, x):
    args = f"--alpha 1 --beta 0.2 --mu 0 --delta 1 --x {x}"
    auto = _eval_json(capsys, args)
    assert auto["method"] == "quad_split", auto
    assert auto == _eval_json(capsys, f"{args} --method quad-split")


def test_eval_refuses_an_unknown_method():
    with pytest.raises(SystemExit) as exc:
        main(EVAL_BASE + ["--x", "5", "--method", "fastest"])
    assert exc.value.code == 1


@pytest.mark.parametrize("method", ["auto", "quad-split"])
def test_eval_far_right_tail_exits_0(capsys, method):
    # z = 1.2e16 puts erfc's argument near 1e6, far past its underflow point
    assert main(["eval", "--alpha", "161640.48281451786", "--beta", "161615.32320196152",
                 "--mu", "3.249248017960257", "--delta", "714.4992216694952",
                 "--x", "36444063373.38008", "--method", method, "--format", "json"]) == 0
    record = json.loads(_lines(capsys)[0])
    assert 0.0 <= record["F"] <= 1.0
    assert record["F"] + record["G"] == 1.0


def test_eval_domain_error_exits_2(capsys):
    assert main(["eval", "--alpha", "8", "--beta", "8", "--mu", "3",
                 "--delta", "2", "--x", "5"]) == 2
    err = capsys.readouterr().err
    assert "beta" in err


@pytest.mark.parametrize("extra", [["--method", "quad-direct", "--kmax", "-1"],
                                   ["--method", "quad-split", "--kmax", "152"]])
def test_eval_out_of_range_kmax_exits_2(capsys, extra):
    assert main(["eval", "--alpha", "1", "--beta", "0.2", "--mu", "0", "--delta", "1",
                 "--x", "3"] + extra) == 2
    assert "domain error" in capsys.readouterr().err


def test_eval_takes_no_tol_option():
    # no route reads a tolerance, so the option is a usage error
    with pytest.raises(SystemExit) as exc:
        main(EVAL_BASE + ["--x", "5", "--method", "quad-direct", "--tol", "1e-10"])
    assert exc.value.code == 1


def test_eval_near_transition_exits_3(capsys):
    assert main(["eval", "--alpha", "8", "--beta", "0", "--mu", "3",
                 "--delta", "2", "--x", "3", "--method", "quad-direct"]) == 3
    assert "near-transition error" in capsys.readouterr().err


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(EVAL_BASE + ["--x", "5", "--format", "yaml"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["evaluate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["figure1", "--points", "1"])
    assert exc.value.code == 1


def test_table1_rows(capsys):
    assert main(["table1"]) == 0
    lines = _lines(capsys)
    assert lines[0] == "beta,x0,F_asym,F_oracle,z,abs_err"
    assert len(lines) == 4
    rows = {float(r.split(",")[0]): r.split(",") for r in lines[1:]}
    allowance = {-4.0: 6.2e-8, 2.0: 3.4e-9, 7.5: 9.4e-10}
    x0_ref = {-4.0: 1.845299462, 2.0: 3.516397780, 7.5: 8.388159062}
    z_ref = {-4.0: 36.95041722, 2.0: 33.04945788, 7.5: 91.95791466}
    for beta, row in rows.items():
        _, x0, f_asym, f_oracle, z, abs_err = map(float, row)
        assert abs(x0 - x0_ref[beta]) <= 1e-8
        assert abs(z - z_ref[beta]) <= 1e-7
        assert abs_err == pytest.approx(abs(f_asym - f_oracle), rel=1e-12)
        assert abs_err <= allowance[beta]


def test_readme_table1_block_matches_the_cli(capsys):
    # the README prints the table1 output verbatim; regenerate it with
    # `nigcdf table1` when the values move
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    # the fenced blocks, each without its opening line
    bodies = [b.split("\n", 1)[1] for b in readme.split("```")[1::2]]
    body = [b for b in bodies if b.startswith("beta,x0")]
    assert len(body) == 1
    assert main(["table1"]) == 0
    assert capsys.readouterr().out == body[0]


def test_figure1_shape_and_bounds(capsys):
    assert main(["figure1", "--points", "80"]) == 0
    lines = _lines(capsys)
    header = lines[0].split(",")
    assert header == [
        "x",
        "F_beta_-4",
        "F_beta_2",
        "F_beta_7.5",
        "Fminus_beta_-4",
        "Fminus_beta_2",
        "Fminus_beta_7.5",
    ]
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 80
    assert rows[0][0] == 0.0 and rows[-1][0] == 20.0
    for col in (1, 2, 3):
        series = [r[col] for r in rows]
        assert all(0.0 <= v <= 1.0 for v in series)
        assert all(a <= b for a, b in zip(series, series[1:]))
    # right tail reaches 1 for the beta=2 curve
    assert abs(rows[-1][2] - 1.0) <= 1e-6
    # the minus-part correction stays small but is not negligible
    for col in (4, 5, 6):
        magnitudes = [abs(r[col]) for r in rows]
        assert max(magnitudes) <= 0.08
        assert max(magnitudes) >= 1e-3


def test_figure1_respects_points_flag(capsys):
    assert main(["figure1", "--points", "2"]) == 0
    assert len(_lines(capsys)) == 3


def test_figure1_refuses_kmax_before_printing(capsys):
    # figure1 sums no series, so --kmax is a usage error, refused before any output
    with pytest.raises(SystemExit) as exc:
        main(["figure1", "--kmax", "5"])
    assert exc.value.code == 1
    assert capsys.readouterr().out == ""


def test_table1_refuses_kmax_before_printing(capsys):
    # a refused run must not leave a header-only CSV behind a redirect
    assert main(["table1", "--kmax", "152"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "domain error" in captured.err


def test_figure1_minus_column_is_the_minus_part_of_the_split(capsys):
    # every default cell has z >= 32, where a Gauss rule is certified, so
    # the minus part with the kernel of the cell's z band judges the trapezoid's
    assert main(["figure1"]) == 0
    rows = [list(map(float, line.split(","))) for line in _lines(capsys)[1:]]
    params = [validate(8.0, beta, 3.0, 2.0) for beta in (-4.0, 2.0, 7.5)]
    for row in rows:
        for p, fminus in zip(params, row[4:]):
            g = geometry(p, row[0])
            kernel, method = _BANDS[bisect_right(_BAND_EDGES, g.z)]
            assert method is Method.GAUSS_SPLIT
            expected = _split(g, False, kernel)[1]
            assert abs(fminus - expected) <= 1e-15, row


def _count_geometry_calls(monkeypatch):
    """The x of each ``Geometry`` record built, and of each geometry a split route computes.

    Every route computes its own geometry, by ``params._geometry`` inside
    ``oracle``; the CLI builds the record for what it prints.
    """
    records, routes = [], []

    def record(p, x):
        records.append(x)
        return geometry(p, x)

    def route(p, x):
        routes.append(x)
        return _geometry(p, x)

    monkeypatch.setattr("nigcdf.cli.geometry", record)
    monkeypatch.setattr("nigcdf.oracle._geometry", route)
    return records, routes


@pytest.mark.parametrize("method", ["auto", "asym", "quad-split", "quad-direct"])
@pytest.mark.parametrize("x", ["5", "1"])
def test_eval_computes_the_geometry_once(monkeypatch, capsys, method, x):
    # both points take the Gauss route under auto, x = 1 at w_minus < 0: one
    # record, and one geometry in the route, whichever the method
    records, routes = _count_geometry_calls(monkeypatch)
    assert main(EVAL_BASE + ["--x", x, "--method", method]) == 0
    assert records == routes == [float(x)]


@pytest.mark.parametrize("n", [2, 7])
def test_figure1_computes_one_geometry_per_curve_point(monkeypatch, capsys, n):
    # a record for the minus column, and one geometry in the policy's route
    records, routes = _count_geometry_calls(monkeypatch)
    assert main(["figure1", "--points", str(n)]) == 0
    assert len(records) == len(routes) == 3 * n


def test_table1_computes_one_geometry_per_row(monkeypatch, capsys):
    # a record for z, and one geometry in each of the two split routes
    records, routes = _count_geometry_calls(monkeypatch)
    assert main(["table1"]) == 0
    assert len(records) == 3
    assert len(routes) == 6


def test_selftest_passes_with_default_seed(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out
    assert " 0 failed" in out


def test_selftest_seed_independent():
    assert main(["selftest", "--seed", "2"]) == 0


def test_selftest_perturbation_hook_fails(monkeypatch, capsys):
    # z biased by one part in a million where the identity suite reads the
    # geometry: the suite must catch it, and the CLI must exit 4
    def biased(p, x):
        g = geometry(p, x)
        return g._replace(z=g.z * (1.0 + 1e-6))

    monkeypatch.setattr("nigcdf.selftest.geometry", biased)
    assert main(["selftest"]) == 4
    lines = _lines(capsys)
    report = dict(line.split(": ", 1) for line in lines[:-1])
    assert not report["geometry identities"].endswith(" 0 failed"), report
    assert lines[-1].startswith("selftest FAILED")


def test_run_all_reports_every_suite():
    report = run_all(seed=1)
    assert len(report) == 4
    assert all(failed == 0 for _, _, failed in report)
    assert all(passed > 0 for _, passed, _ in report)


def test_run_wrapper_uses_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["nigcdf", *EVAL_BASE, "--x", "5"])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("x=")


def test_eval_reports_finite_fields_everywhere(capsys):
    for x in ("-7", "1.845299462", "23"):
        assert main(["eval", "--alpha", "8", "--beta", "-4", "--mu", "3",
                     "--delta", "2", "--x", x]) == 0
        out = dict(line.split("=", 1) for line in _lines(capsys))
        for key in ("F", "G", "error_estimate", "x0", "z"):
            assert math.isfinite(float(out[key]))
