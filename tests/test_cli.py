import argparse
import csv
import inspect
import json
import math
import re
import sys
import warnings
from fractions import Fraction

import pytest

from fareychain import __version__, cli, coding, spinchain, thermo, transfer, verify
from fareychain.cli import main, parse_values
from fareychain.rings import Params
from test_transfer import _closed_n1_reference


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_values():
    assert parse_values("0.5") == [0.5]
    assert parse_values("0.5,1,2") == [0.5, 1.0, 2.0]
    assert parse_values("0:1:0.25") == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert parse_values("1:0:-0.5") == [1.0, 0.5, 0.0]
    assert parse_values("0.5:0.5:1") == [0.5]
    assert len(parse_values(f"1:{thermo.SWEEP_CAP}:1")) == thermo.SWEEP_CAP
    # the last point is the last one not past stop: round(3.85) = 4 steps of 0.26 would reach 1.04
    assert parse_values("0:1:0.26") == pytest.approx([0.0, 0.26, 0.52, 0.78])
    assert parse_values("1:0:-0.26") == pytest.approx([1.0, 0.74, 0.48, 0.22])
    # a span that rounds just below a whole number still reaches stop
    for spec, count in (("0:1:0.1", 11), ("0:1:0.05", 21), ("0.1:0.7:0.2", 4), ("1000.1:1000.7:0.2", 4)):
        grid = parse_values(spec)
        assert len(grid) == count and grid[-1] == pytest.approx(float(spec.split(":")[1]), abs=1e-12), (spec, grid)
    assert parse_values("0:1:0.1")[-1] == 1.0


def test_parse_values_rejects_bad_grids_before_building():
    for spec in ("0:1:0", "0:inf:1", "nan:1:0.1", "0:1:inf", "0:1e9:1", f"0:{thermo.SWEEP_CAP}:1",
                 "-1e308:1e308:1e-300"):
        with pytest.raises(ValueError):
            parse_values(spec)
    # the sign is read before the rounding slack, which overflows here
    for spec in ("0.5:0.1:0.1", "1:0:0.1", "0:1:-0.1", "1e308:-1e308:1"):
        with pytest.raises(ValueError, match="leads away from stop"):
            parse_values(spec)


def test_tree_rows_csv(capsys):
    code, out = run(capsys, "tree", "--rows", "3", "--r", "1", "--format", "csv")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "level,sigma,p,q,value"
    assert len(lines) == 1 + 1 + 2 + 4
    assert lines[1].startswith("1,,1.0,2.0,")


def test_tree_symbolic_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for path in (out1, out2):
        assert main(["tree", "--rows", "6", "--mode", "symbolic", "--out", str(path)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_tree_exact_mode_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for path in (out1, out2):
        assert main(["tree", "--rows", "8", "--mode", "exact", "--r", "2/3", "--out", str(path)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_tree_adjacency_json(capsys):
    code, out = run(capsys, "tree", "--rows", "3", "--r", "0.5", "--adjacency")
    assert code == 0
    adj = json.loads(out)
    assert {n["id"] for n in adj["nodes"]} >= {"root", "0", "1", "00"}


def test_phase_grid(capsys):
    code, out = run(capsys, "phase", "--r-grid", "0:0.2:0.1", "--tol", "1e-4")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
    vals = [float(r[1]) for r in rows]
    assert vals[0] == pytest.approx(1.0, abs=1e-3)
    assert vals == sorted(vals)
    for row in rows:
        assert len(row) == 5
        assert re.fullmatch(r"chandrupatla on log lambda_K at dim 12; \d+ evals; one Newton step at dim 16", row[4])
        assert 0.0 < float(row[2]) < 1e-4
        assert 0.0 < float(row[3]) < 1.0  # |g'(s_cr)|, ln 2 at r = 0


def _phase_rows(capsys, *argv):
    code, out = run(capsys, "phase", *argv)
    assert code == 0, argv
    return list(csv.DictReader(l for l in out.splitlines() if l and not l.startswith("#")))


def test_phase_slope_exact_at_tent_and_zero_at_farey(capsys):
    # the renewal slope |d log lambda_K/ds| / (mean return time) is taken at the root, not across the bracket:
    # ln 2 at r = 0 whatever the tol; 0 at r = 1, where the mean return time diverges
    for tol in ("1e-6", "1e-8", "1e-10", "1e-12"):
        (row,) = _phase_rows(capsys, "--r-grid", "0", "--tol", tol)
        assert abs(float(row["slope"]) - math.log(2.0)) <= 1e-9, tol
    (row,) = _phase_rows(capsys, "--r-grid", "1", "--tol", "1e-8")
    assert float(row["slope"]) == 0.0


def test_phase_reaches_farey_end(capsys):
    for argv in (("--r-grid", "0:1:0.05"), ("--r-grid", "0.9:1:0.02", "--tol", "1e-8")):
        rows = _phase_rows(capsys, *argv)
        assert float(rows[-1]["r"]) == 1.0
        assert abs(float(rows[-1]["s_cr"]) - 2.0) <= float(rows[-1]["error"]), argv
        s_cr = [float(row["s_cr"]) for row in rows]
        assert s_cr == sorted(s_cr)


def test_leaf_sums_at_large_s(capsys):
    # at s = 400 neither rho^(ns) (1.5^2000 at n = 5) nor the powers of the unscaled leaf roots fit the float range
    for argv in (("trace", "--n", "14"), ("xi", "--n", "14"), ("zeta",)):
        code, out = run(capsys, *argv, "--s", "400", "--r", "0.5")
        assert code == 0, argv


def test_thermo_sweep(capsys):
    code, out = run(capsys, "thermo", "--r", "0", "--s", "0.5", "--n", "12")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
    f_last = float(rows[-1][4])
    assert f_last == pytest.approx(0.5 * 0.6931471805599453, abs=0.1)


def test_lambda_jsonl(capsys):
    # 2^(1-s) at r = 0; at r = 1 the induced root for s < 1, and from s = 1, where 2s = s_cr = 2, on the fixed
    # point's mu_0 = 1
    for r, s, value in (("0", "2", 0.5), ("1", "0.75", None), ("1", "1", 1.0), ("1", "1.5", 1.0)):
        code, out = run(capsys, "lambda", "--s", s, "--r", r)
        rec = json.loads(out.splitlines()[1])
        assert code == 0 and rec["dim"] == 16 and math.isfinite(rec["error_estimate"]), rec
        assert value is None or abs(rec["value"] - value) <= rec["error_estimate"] <= 1e-10, rec


def test_zeta_number_theory_table_streams(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "emit", lambda records, fields, args: seen.append(records))
    assert main(["zeta", "--m", "1", "--qmax", "1000"]) == 0
    assert inspect.isgenerator(seen[0])  # nothing is computed until emit writes it


def test_zeta_number_theory_table(capsys):
    code, out = run(capsys, "zeta", "--m", "1", "--qmax", "6")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert rows == ["1,1", "2,-1", "3,-1", "4,0", "5,-1", "6,1"]
    assert "# args: --command=zeta --m=1 --qmax=6\n" in out  # the determinant record's flags are not echoed


def test_zeta_dynamical(capsys):
    code, out = run(capsys, "zeta", "--z", "0.5", "--s", "1", "--r", "0.5", "--N", "14")
    assert code == 0
    assert json.loads(out.splitlines()[0])["meta"]["args"] == "--N=14 --command=zeta --r=0.5 --s=1.0 --z=0.5"
    rec = json.loads(out.splitlines()[1])
    assert rec["converged"] is True
    assert rec["zeta_orbit_sum"][0] == pytest.approx(rec["zeta_det_ratio"][0], abs=1e-8)


def test_zeta_outside_the_orbit_sum_radius_names_the_cause(capsys):
    # z = 3 is far outside the radius of sum z^n Xi_n / n: exp of the orbit sum overflows, and the refusal says so
    code = main(["zeta", "--z", "3", "--s", "0.5", "--r", "0.5", "--N", "14"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    message = r"error: the orbit sum log zeta = \S+ at z=\(3\+0j\) is beyond exp's float range\n"
    assert re.fullmatch(message, captured.err), captured.err


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_zeta_records_are_strict_json(capsys):
    for argv in (("zeta", "--N", "2"), ("zeta", "--z", "0.95", "--s", "0.8", "--r", "0.6", "--N", "14")):
        code, out = run(capsys, *argv)
        assert code == 0
        meta, rec = (json.loads(line, parse_constant=_reject_constant) for line in out.splitlines())
        assert rec["error_estimate"] is None and "tail fit" in rec["error_reason"]
    code, out = run(capsys, "zeta", "--z", "0.5", "--s", "1", "--r", "0.5", "--N", "14")
    rec = json.loads(out.splitlines()[1], parse_constant=_reject_constant)
    assert rec["error_estimate"] > 0 and "error_reason" not in rec


def test_twisted_subcommand(capsys):
    code, out = run(capsys, "twisted", "--n", "6", "--s", "4", "--m", "0", "--r", "0.5")
    assert code == 0
    recs = [json.loads(l) for l in out.splitlines()[1:]]
    assert len(recs) == 6
    assert recs[-1]["value"][0] > 1.0


def test_twisted_names_its_route(capsys):
    for r, s, route in (("0.6", "2", r"operator iterates, dim \d+"), ("1.3", "2", r"tree-row sum \(r > 1\)"),
                        ("0.6", "-1", r"tree-row sum \(Re s < 0\)")):
        code, out = run(capsys, "twisted", "--n", "8", "--s", s, "--m", "1", "--r", r)
        assert code == 0
        recs = [json.loads(l) for l in out.splitlines()[1:]]
        assert len(recs) == 8 and all(re.fullmatch(route, rec["method"]) for rec in recs), recs


def test_code_and_conjugacy(capsys):
    code, out = run(capsys, "code", "--r", "0", "--x", "0.625", "--depth", "6")
    assert code == 0
    assert "0.625,101000" in out
    code, out = run(capsys, "conjugacy", "--r", "1", "--grid", "2", "--depth", "30")
    assert code == 0
    assert "0.5,0.5,30" in out


def test_exact_mode_codes_exact_points(capsys):
    # --x is read as Fractions: 0.3 is 3/10, not the binary float just below it (001101111111)
    code, out = run(capsys, "code", "--mode", "exact", "--r", "1", "--x", "0.3,2/7", "--depth", "12")
    assert code == 0 and out.splitlines()[-2:] == ["3/10,001110000000", "2/7,001100000000"]
    code, out = run(capsys, "code", "--mode", "exact", "--r", "1", "--x", "0:1:1/3", "--depth", "4")
    assert code == 0 and [line.split(",")[0] for line in out.splitlines()[-4:]] == ["0", "1/3", "2/3", "1"]
    code, out = run(capsys, "conjugacy", "--mode", "exact", "--r", "1", "--grid", "3", "--depth", "30")
    assert code == 0 and out.splitlines()[-4:] == ["0,0.0,30", "1/3,0.25,30", "2/3,0.75,30",
                                                f"1,{1 - 2**-30!r},30"]


def test_conjugacy_grid_capped_before_any_work(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(coding, "conjugacy_h", lambda *a: calls.append(a) or 0.5)
    for grid in (thermo.SWEEP_CAP, 10**7):
        code = main(["conjugacy", "--r", "0.5", "--grid", str(grid)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not calls
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: --grid {grid} ")


def test_conjugacy_records_stream(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "emit", lambda records, fields, args: seen.append(records))
    assert main(["conjugacy", "--r", "0.5", "--grid", str(thermo.SWEEP_CAP - 1)]) == 0  # the largest grid
    assert inspect.isgenerator(seen[0])  # nothing is computed until emit writes it


def test_spin_refuses_a_mode_its_table_is_not_computed_in(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(spinchain, "_walk", lambda *a: built.append(a))  # every table is built by it
    for argv in (("--mode", "symbolic", "--table", "qhat"),
                 ("--mode", "symbolic", "--table", "interaction"),
                 ("--mode", "exact", "--r", "1/3", "--table", "interaction")):
        code = main(["spin", "--k", "3", *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not built, argv
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: --table {argv[-1]} ") and argv[1] in lines[0], argv


def test_zeta_format_is_written_as_given(capsys):
    argv = ("zeta", "--z", "0.5", "--s", "1", "--r", "0.5", "--N", "8")
    code, out = run(capsys, *argv)  # no --format: the determinant record as JSON lines, none echoed
    assert code == 0 and "--format" not in json.loads(out.splitlines()[0])["meta"]["args"]
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0 and "--format=csv" in out
    (row,) = csv.DictReader(l for l in out.splitlines() if not l.startswith("#"))
    assert row["n"] == "8" and json.loads(row["det"])[1] == 0.0
    code, out = run(capsys, "zeta", "--m", "1", "--qmax", "3", "--format", "jsonl")
    assert code == 0 and [json.loads(l)["mu_m"] for l in out.splitlines()[1:]] == [1, -1, -1]


def test_commands_leave_the_parsed_namespace_unchanged(capsys):
    for argv in (("trace", "--n", "3", "--s", "1", "--r", "0.5"), ("lambda", "--s", "1", "--r", "0.5"),
                 ("twisted", "--n", "3", "--s", "2", "--m", "1", "--r", "0.5"), ("zeta", "--N", "6"),
                 ("conjugacy", "--r", "0.5", "--grid", "4"), ("spin", "--k", "2", "--r", "0.5")):
        args = cli.build_parser().parse_args(argv)
        before = dict(vars(args))
        assert args.func(args) == 0, argv
        assert vars(args) == before, argv
    capsys.readouterr()


def test_spin_tables(capsys):
    code, out = run(capsys, "spin", "--k", "2", "--r", "1", "--table", "q")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert rows == ["00,4.0", "01,5.0", "10,5.0", "11,4.0"]
    code, out = run(capsys, "spin", "--k", "3", "--mode", "symbolic", "--table", "q")
    assert code == 0
    assert "000,2 + rho + rho^2" in out
    code, out = run(capsys, "spin", "--k", "3", "--mode", "exact", "--r", "1/3", "--table", "qhat")
    assert code == 0 and "# mode: exact" in out
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert [t for t, _ in rows] == [format(i, "03b") for i in range(8)]
    assert Fraction(rows[0][1]) == sum(spinchain.pq_tables(3, Params.exact(Fraction(1, 3))).q) / 8


def test_spin_interaction_table_prints_no_negative_zero(capsys):
    # -Q^(t) vanishes exactly on the odd-weight words; negating that zero printed -0.0 on each of them
    code, out = run(capsys, "spin", "--k", "8", "--r", "0.5", "--table", "interaction")
    rows = list(csv.DictReader(l for l in out.splitlines() if not l.startswith("#")))
    assert code == 0 and len(rows) == 256
    odd = [row["value"] for row in rows if row["t"].count("1") % 2]
    assert len(odd) == 128 and set(odd) == {"0.0"}
    want = -spinchain.interaction_coefficients(8, Params.floating(0.5))
    assert [float(row["value"]) for row in rows] == want.tolist()


@pytest.mark.parametrize("suite", verify.SUITES)
def test_verify_suite_exit_code(capsys, suite):
    assert main(["verify", suite]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out


def test_cap_violations_reported(capsys, monkeypatch):
    levels = []
    step = spinchain._step

    def counted_step(*args):
        levels.append(args)
        return step(*args)

    monkeypatch.setattr(spinchain, "_step", counted_step)
    monkeypatch.setattr(transfer, "_series_blocks", lambda *a: pytest.fail("a refused n reached the series"))
    for rows in ("18", "30"):
        code = main(["tree", "--rows", rows, "--mode", "symbolic"])
        err = capsys.readouterr().err
        assert code == 2
        assert "cap" in err
    argv = ("twisted", "--n", "28", "--s", "1", "--m", "1", "--r", "0.5")
    assert main(list(argv)) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "" and "n=28 exceeds 27" in captured.err, argv
    cap = transfer.SERIES_CAP + 1  # the first-return series of trace, xi and zeta
    for argv in (("trace", "--n", str(cap), "--s", "1", "--r", "0.5"),
                 ("xi", "--n", str(cap), "--s", "1", "--r", "0.5"), ("zeta", "--N", str(cap))):
        assert main(list(argv)) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and f"n={cap} exceeds {cap - 1}" in captured.err, argv
    assert not levels  # the cap fails before any level is built


def test_missing_r_reported(capsys):
    assert main(["tree", "--rows", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: --r is required" in captured.err


def test_records_carry_the_route_error(capsys):
    # a finite error where the route computes one, null on the tree-row sum, which computes none
    series = f"first-return series, dim {transfer.SERIES_DIM}"
    for argv, method in ((("trace", "--n", "3", "--s", "1", "--r", "0.5"), series),
                         (("trace", "--n", "3", "--s", "1", "--r", "0.5", "--signed"), series),
                         (("xi", "--n", "3", "--s", "1", "--r", "0.5"), series),
                         (("twisted", "--n", "3", "--s", "2", "--m", "1", "--r", "0.5"), "operator iterates, dim 48"),
                         (("twisted", "--n", "3", "--s", "2", "--m", "1", "--r", "1.3"), "tree-row sum (r > 1)")):
        code, out = run(capsys, *argv)
        assert code == 0
        recs = [json.loads(l, parse_constant=lambda c: pytest.fail(f"non-finite {c}")) for l in out.splitlines()[1:]]
        assert len(recs) == 3 and all(rec["method"] == method for rec in recs), (argv, recs)
        for rec in recs:
            err = rec["error_estimate"]
            assert err is None if method.startswith("tree-row") else 0 < err <= 1e-9, (argv, rec)


def test_empty_series_rejected(capsys):
    for argv in (("trace", "--n", "0", "--s", "1", "--r", "0.5"),
                 ("trace", "--n", "0", "--s", "1", "--r", "0.5", "--signed"),
                 ("xi", "--n", "-2", "--s", "1", "--r", "0.5"),
                 ("zeta", "--N", "0")):
        assert main(list(argv)) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n must be >= 1" in captured.err


def test_overflow_refused_before_any_output(capsys):
    for argv in (("trace", "--n", "3", "--s=-400", "--r", "0.5"), ("xi", "--n", "3", "--s=-400", "--r", "0.5"),
                 ("zeta", "--s=-400", "--r", "0.5", "--z", "0.2", "--N", "4"),
                 ("twisted", "--n", "4", "--s=-400", "--m", "1", "--r", "0.5")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning escapes
            code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert re.search(r"not finite at n=\d+, s=-400\.0", captured.err), argv


def test_trace_near_farey_end(capsys):
    # the leaf root sqrt(T_0^2 - 4 rho^n) cancels here when taken that way: 1 - r = 1e-9 left it 0
    code, out = run(capsys, "trace", "--n", "3", "--s", "1", "--r", "0.999999999")
    assert code == 0
    recs = [json.loads(l) for l in out.splitlines()[1:]]
    assert [rec["n"] for rec in recs] == [1, 2, 3]
    closed = transfer.trace_closed_n1(1.0, 0.999999999).real
    assert closed == pytest.approx(1e9, rel=1e-6)
    # the walk holds rho = 2.0 - r rounded: it matches the closed form at the r of that rho, 2.0 - rho (exact)
    leaf = transfer.trace_sums(3, 1.0, 0.999999999, method="leaves")[0]
    at_walk_rho = transfer.trace_closed_n1(1.0, 2.0 - (2.0 - 0.999999999)).real
    assert leaf.real == pytest.approx(at_walk_rho, rel=1e-13) and leaf.imag == 0.0
    # the record is the series, which takes 1 - r exactly, as the closed form does, where the walk rounds rho = 2 - r
    reference = _closed_n1_reference(1.0, 0.999999999).real
    assert recs[0]["value"][0] == pytest.approx(reference, rel=1e-13) and recs[0]["value"][1] == 0.0
    assert closed == pytest.approx(reference, rel=1e-15)


def test_float_only_subcommands_take_no_mode(capsys):
    for argv in (("phase", "--r-grid", "0.5", "--mode", "symbolic"), ("zeta", "--mode", "exact"),
                 ("thermo", "--r", "0.5", "--s", "1", "--n", "4", "--mode", "exact")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "--mode" in capsys.readouterr().err


def test_thermo_columns_and_empty_zc_cell(capsys):
    code, out = run(capsys, "thermo", "--r", "0.7", "--s", "0.5", "--n", "2000")
    assert code == 0
    assert "inf" not in out.lower() and "nan" not in out.lower()
    rows = list(csv.DictReader(l for l in out.splitlines() if not l.startswith("#")))
    assert list(rows[0]) == ["r", "s", "n", "ZC", "Fn", "Mn", "logZC", "error", "dim"]
    log_max = math.log(sys.float_info.max)
    empty = [row for row in rows if row["ZC"] == ""]
    assert empty and all(log_max < float(row["logZC"]) < 1e3 for row in empty)
    for row in rows:
        assert 0.0 < float(row["error"]) <= 1e-9 and row["dim"] == "48"
        if row["ZC"]:
            assert float(row["logZC"]) == pytest.approx(math.log(float(row["ZC"])), rel=1e-14)
    code, out = run(capsys, "thermo", "--r", "0.7", "--s", "0.5", "--n", "2000", "--format", "jsonl")
    assert code == 0
    recs = [json.loads(line, parse_constant=_reject_constant) for line in out.splitlines()[1:]]
    assert len(recs) == len(rows)
    for rec, row in zip(recs, rows):  # the CSV row as JSON: ZC null where its cell is empty
        assert list(rec) == list(row)
        assert {k: "" if v is None else str(v) for k, v in rec.items()} == row


def test_thermo_rejects_r_and_cap_before_output(capsys):
    for argv in (("--r", "1.3", "--s", "2", "--n", "10"), ("--r", "0.5", "--s", "1,2", "--n", "100001")):
        code, out = run(capsys, "thermo", *argv)
        assert code == 2 and out == ""


def test_thermo_names_the_first_iterate_not_positive_at_half(capsys):
    # at r = 1 the iterates at 1/2 stay positive up to dim 384 at s = 17, not at s = 18
    assert main(["thermo", "--r", "1", "--s", "17", "--n", "20"]) == 0
    capsys.readouterr()
    code = main(["thermo", "--r", "1", "--s", "16,18", "--n", "20"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Z^C at r=1.0: dim vs 3 dim/4 term not finite at dim 384")
    assert lines[0].endswith("the iterate f_n at 1/2 is not positive and finite, first at n=18, s=18.0")


def test_parser_built_once_per_process(capsys, monkeypatch):
    argv = ("tree", "--rows", "2", "--r", "0.5")
    first = run(capsys, *argv)  # builds the parser unless an earlier call did
    calls = []
    add_argument = argparse.ArgumentParser.add_argument
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument",
                        lambda self, *a, **k: calls.append(a) or add_argument(self, *a, **k))
    assert run(capsys, *argv) == first and first[0] == 0
    assert calls == [] and cli.build_parser() is cli.build_parser()


def test_shared_parser_keeps_no_state_between_calls(capsys):
    thermo_argv = ("thermo", "--r", "0.7", "--s", "1,2", "--n", "5")
    code, out = run(capsys, *thermo_argv, "--format", "jsonl")
    assert code == 0 and json.loads(out.splitlines()[0])["meta"]
    code, out = run(capsys, *thermo_argv)
    assert code == 0 and "--format=csv" in out
    assert [l for l in out.splitlines() if not l.startswith("#")][0] == "r,s,n,ZC,Fn,Mn,logZC,error,dim"

    tree_argv = ("tree", "--rows", "3", "--r", "0.5")
    plain = run(capsys, *tree_argv)
    extended = run(capsys, *tree_argv, "--extended")
    assert extended[0] == 0 and extended[1] != plain[1]
    assert run(capsys, *tree_argv) == plain

    with pytest.raises(SystemExit) as exc:
        main(["tree", "--rows", "three", "--r", "0.5"])
    assert exc.value.code == 2 and "--rows" in capsys.readouterr().err
    assert run(capsys, *tree_argv) == plain

    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0 and capsys.readouterr().out == f"fareychain {__version__}\n"
