"""Command-line interface: formats, exit codes, and output stability."""

import json
import math
import pathlib

import pytest

from nigcdf.cli import main, run
from nigcdf.oracle import _gauss_kernel, _split
from nigcdf.params import geometry, validate
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


def test_eval_method_selection(capsys):
    assert main(EVAL_BASE + ["--x", "5", "--method", "quad-split"]) == 0
    out = dict(line.split("=", 1) for line in _lines(capsys))
    assert out["method"] == "quad_split"


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
    assert "convergence error" in capsys.readouterr().err


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
    # every default cell has z >= 32, where the Gauss rule is certified, so
    # its minus part judges the trapezoid's
    assert main(["figure1"]) == 0
    rows = [list(map(float, line.split(","))) for line in _lines(capsys)[1:]]
    params = [validate(8.0, beta, 3.0, 2.0) for beta in (-4.0, 2.0, 7.5)]
    for row in rows:
        for p, fminus in zip(params, row[4:]):
            expected = _split(geometry(p, row[0]), False, _gauss_kernel)[1]
            assert abs(fminus - expected) <= 1e-15, row


def _count_geometry_calls(monkeypatch):
    calls = []

    def counted(p, x):
        calls.append(x)
        return geometry(p, x)

    for module in ("cli", "expansion", "oracle"):
        monkeypatch.setattr(f"nigcdf.{module}.geometry", counted)
    return calls


@pytest.mark.parametrize("method", ["auto", "asym", "quad-split", "quad-direct"])
@pytest.mark.parametrize("x", ["5", "1"])
def test_eval_computes_the_geometry_once(monkeypatch, capsys, method, x):
    # both points take the Gauss route under auto, x = 1 at w_minus < 0
    calls = _count_geometry_calls(monkeypatch)
    assert main(EVAL_BASE + ["--x", x, "--method", method]) == 0
    assert calls == [float(x)]


@pytest.mark.parametrize("n", [2, 7])
def test_figure1_computes_one_geometry_per_curve_point(monkeypatch, capsys, n):
    calls = _count_geometry_calls(monkeypatch)
    assert main(["figure1", "--points", str(n)]) == 0
    assert len(calls) == 3 * n


def test_table1_computes_one_geometry_per_row(monkeypatch, capsys):
    calls = _count_geometry_calls(monkeypatch)
    assert main(["table1"]) == 0
    assert len(calls) == 3


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
