"""End-to-end command-line surface: flags, formats, exit codes, bytes.

Most invocations run the installed entry point in a subprocess, so
these tests cover argument parsing, serialization, and determinism
exactly as a shell user sees them.  The schedule CSV and polyline block
tests call cli.main in this process, to shrink the block size and to
trace memory.
"""

import csv
import io
import json
import math
import re
import tracemalloc
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import run_cli
from graphgrowth import cli, packets, quadrature, schedule, svgplot
from graphgrowth import (
    CertifyMethod,
    GraphFamily,
    QuadConfig,
    QuadMode,
    RadiiVariant,
    ScheduleConfig,
    SublevelDomain,
    build_schedule,
    certify_packets,
    completeness_trend,
    diagnostics,
    graph_area,
    make_packet,
    verify_disjoint,
)


def parse_csv(text: str):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


# ---------------------------------------------------------------------------
# area
# ---------------------------------------------------------------------------

def test_area_lower_rows_nondecreasing():
    proc = run_cli("area", "--family", "sin-exp", "--r", "3.2,4,4.8",
                   "--mode", "lower", "--max-depth", "10")
    assert proc.returncode == 0
    rows = parse_csv(proc.stdout)
    assert len(rows) == 3
    lows = [float(r["area_lower"]) for r in rows]
    assert lows == sorted(lows)
    assert all(r["source"] == "Quadrature" for r in rows)
    assert all(r["area_estimate"] == "" for r in rows)  # lower mode


def test_area_exp_frozen_row():
    proc = run_cli("area", "--family", "exp", "--r", "2", "--max-depth", "10")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == ("r,area_lower,area_estimate,source,cells_inside,"
                       "cells_boundary,depth_reached")
    assert lines[1] == ("2,11.058114197050362,11.125758485740805,"
                       "Quadrature,2614,2768,10")
    assert float(lines[1].split(",")[2]) <= 13.35


@pytest.mark.parametrize("family, r, row", [
    ("sin-exp", "2.7", "2.7000000000000002,38.616186873406477,42.97063106530981,"
                       "Quadrature,1826,1956,9"),
    ("sin-exp-sq", "1.8", "1.8,25.721547248691369,39.777021537213464,"
                          "Quadrature,2376,2692,9"),
])
def test_area_estimate_frozen_rows(family, r, row):
    # the whole stdout, so a moved last digit of area_estimate fails too
    proc = run_cli("area", "--family", family, "--r", r, "--mode", "estimate",
                   "--max-depth", "9")
    assert proc.returncode == 0
    assert proc.stdout == ("r,area_lower,area_estimate,source,cells_inside,"
                           "cells_boundary,depth_reached\n" + row + "\n")


@pytest.mark.parametrize("family, r, depth, mode, row", [
    ("sin-exp", "5.85", "13", "estimate",
     "5.8499999999999996,2275.6857486135882,2893.056683542678,Quadrature,42352,42914,13"),
    ("sin-exp-sq", "2.673", "13", "estimate",
     "2.673,959.6380480669452,3569.0075540543276,Quadrature,66848,76004,13"),
    ("exp", "19.398", "14", "estimate",
     "19.398,2793.9715883228801,2806.4873398796603,Quadrature,51546,50340,14"),
    ("sin-exp", "5.951", "14", "lower",
     "5.9509999999999996,2812.2032998257873,,Quadrature,85976,86678,14"),
])
def test_area_frozen_rows_at_benchmark_depths(capsys, family, r, depth, mode, row):
    # radii and depths of the benchmark's area jobs, where levels hold tens
    # of thousands of cells and several kernel chunks
    argv = ["area", "--family", family, "--r", r, "--mode", mode, "--max-depth", depth]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1] == row


def test_area_cap_exit_3():
    proc = run_cli("area", "--family", "sin-exp", "--r", "50")
    assert proc.returncode == 3
    assert proc.stdout == ""


def test_area_past_cell_budget_exit_3(monkeypatch, capsys):
    # an unbounded depth is refused before its level is allocated; the
    # budget is made tiny so that no large level is ever built
    monkeypatch.setattr(quadrature, "_CELL_BUDGET", 1024)
    argv = ["area", "--family", "exp", "--r", "2", "--max-depth", "100000"]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("refused: depth ") and "over the budget of 1024" in err


@pytest.mark.parametrize("argv, callee", [
    (["packets", "--family", "sin-exp", "--n", "1..5", "--method", "sampling",
      "--samples", "1000000000000"], "_certify_columns"),
    (["area", "--family", "exp", "--r", "2", "--samples-per-cell",
      "1000000000000"], "graph_area"),
])
@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""])
def test_memory_error_exit_2(monkeypatch, capsys, argv, callee, message):
    # the callee raises at once, as numpy does when an allocation fails,
    # so nothing is allocated
    def fail(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, callee, fail)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message or 'out of memory'}\n"


@pytest.mark.parametrize("argv, per", [
    (["packets", "--family", "sin-exp", "--n", "1..5", "--method", "sampling",
      "--samples", "1000000000000"], "packet"),
    (["packets", "--family", "sin-exp-sq", "--n", "2..3", "--delta", "0.01",
      "--method", "sampling", "--samples", str(quadrature._SAMPLE_BUDGET + 1)],
     "packet"),
    (["area", "--family", "exp", "--r", "2", "--samples-per-cell",
      "1000000000000"], "cell"),
])
def test_sample_count_past_budget_exit_3(capsys, argv, per):
    # refused before any sample point is allocated
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("refused: ")
    assert f"samples per {per}, over the budget of {quadrature._SAMPLE_BUDGET}" in err


def test_area_cap_override():
    proc = run_cli("area", "--family", "sin-exp", "--r", "8.2",
                   "--max-depth", "6", "--allow-large-r")
    assert proc.returncode == 0


@pytest.mark.parametrize("family", ["exp", "sin-exp-sq"])
def test_area_huge_radius_prints_largest_lower(family):
    # r*r overflows, so the whole seed box is classified inside at depth 0
    # and its area sum rounds down to the top of the double range; the
    # overflows on the way are handled, so numpy prints no warning
    proc = run_cli("area", "--family", family, "--r", "1e200", "--allow-large-r")
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = parse_csv(proc.stdout)
    assert len(rows) == 1
    assert rows[0]["area_lower"] == "1.7976931348623147e+308"


@pytest.mark.parametrize("family, row", [
    ("exp", "1.2999999999999999e+154,1.6899999999999978e+308,inf,Quadrature,10,22,3"),
    ("sin-exp", "1.2999999999999999e+154,1.6899999999999978e+308,inf,Quadrature,10,44,3"),
    ("sin-exp-sq", "1.2999999999999999e+154,1.2674999999999981e+308,inf,Quadrature,12,48,3"),
])
def test_area_near_square_overflow_is_quiet(family, row):
    # r^2 and the cell corners' squares overflow here; the overflows are
    # handled, so no numpy RuntimeWarning may reach stderr
    proc = run_cli("area", "--family", family, "--r", "1.3e154",
                   "--allow-large-r", "--max-depth", "3")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[1] == row


@pytest.mark.parametrize("mode,estimate", [("estimate", "0"), ("lower", "")])
def test_area_huge_pad_split_is_quiet(mode, estimate):
    # the seed box is [-1e155, 1e155]^2 and more, so the depth-2 children
    # 5e154 from the origin have squared distances that overflow at the
    # split; such a child is dropped, and no RuntimeWarning is written
    proc = run_cli("area", "--family", "exp", "--r", "2", "--pad", "1e155",
                   "--max-depth", "4", "--mode", mode)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[1] == f"2,0,{estimate},Quadrature,0,4,4"


def test_area_overflowing_cell_areas_are_quiet():
    # the boundary cells' areas (about 1e599) overflow; none holds a
    # member sample, so each adds 0 to the estimate rather than inf * 0
    proc = run_cli("area", "--family", "exp", "--r", "2", "--pad", "1e300",
                   "--max-depth", "4")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[1] == "2,0,0,Quadrature,0,4,4"


@pytest.mark.parametrize("pad, half", [
    ("1e308", "1e+308"),
    ("1.7976931348623157e308", "1.7976931348623157e+308"),
])
def test_area_seed_box_past_half_the_double_range_exit_2(pad, half):
    # refused before any cell is built, so every cell width stays finite
    proc = run_cli("area", "--family", "exp", "--r", "2", "--pad", pad,
                   "--max-depth", "4")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"error: seed box half-width r + pad = {half} is over "
                           "half the largest double\n")


@pytest.mark.parametrize("mode", ["lower", "estimate"])
@pytest.mark.parametrize("family", ["exp", "sin-exp", "sin-exp-sq"])
def test_area_edge_table(capsys, family, mode):
    # radii and pads at the edges of the double range; pyproject turns any
    # numpy RuntimeWarning into an error, so each run must also be quiet
    for r in ("5e-324", "2", "1e200", "1e300"):
        for pad in ("0", "1e155", "1e300", "1e308", "1.7976931348623157e308"):
            argv = ["area", "--family", family, "--r", r, "--pad", pad, "--mode", mode,
                    "--max-depth", "4", "--allow-large-r"]
            code = cli.main(argv)
            out, err = capsys.readouterr()
            assert code in (0, 2, 3), argv
            if code == 0:
                assert err == "", argv
                assert "nan" not in out.splitlines()[1].split(","), argv
            else:
                assert out == "" and "Traceback" not in err, argv


@pytest.mark.parametrize("mode", ["estimate", "lower"])
def test_area_csv_blocks_match_field_formatting(monkeypatch, capsys, mode):
    # nine radii in blocks of 7 rows; the reference formats each field alone
    radii = [1.5 + 0.25 * k for k in range(9)]
    cfg = QuadConfig(mode=QuadMode.ESTIMATE if mode == "estimate" else QuadMode.LOWER_BOUND,
                     max_depth=4)
    lines = ["r,area_lower,area_estimate,source,cells_inside,cells_boundary,depth_reached"]
    for r in radii:
        res = graph_area(SublevelDomain(GraphFamily.SIN_EXP, r), cfg)
        lines.append(",".join([
            _f17(r), _f17(res.lower), "" if res.estimate is None else _f17(res.estimate),
            "Quadrature", str(res.cells_inside), str(res.cells_boundary),
            str(res.depth_reached)]))
    monkeypatch.setattr(cli, "_CSV_BLOCK", 7)
    argv = ["area", "--family", "sin-exp", "--r", ",".join(map(repr, radii)),
            "--mode", mode, "--max-depth", "4"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


@pytest.mark.parametrize("pad", ["inf", "nan", "-1"])
def test_area_bad_pad_exit_2(pad):
    # a pad that is not finite and >= 0 is refused before any cell is split,
    # so numpy prints no warning
    proc = run_cli("area", "--family", "exp", "--r", "2", "--pad", pad,
                   "--max-depth", "4")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: seed_box_pad must be finite and >= 0, not {float(pad)}\n"


def test_area_real_list_syntax():
    # reals ride comma lists; the lo..hi range form is for integer n
    proc = run_cli("area", "--family", "exp", "--r", "2,3,4",
                   "--max-depth", "7")
    assert proc.returncode == 0
    rows = parse_csv(proc.stdout)
    assert [r["r"] for r in rows] == ["2", "3", "4"]
    assert run_cli("area", "--family", "exp", "--r", "2..4").returncode == 2


# ---------------------------------------------------------------------------
# packets
# ---------------------------------------------------------------------------

def test_packets_interval_100():
    proc = run_cli("packets", "--family", "sin-exp", "--n", "1..100",
                   "--method", "interval")
    assert proc.returncode == 0
    rows = parse_csv(proc.stdout)
    assert len(rows) == 100
    for r in rows:
        assert r["f_bound_ok"] == "true"
        assert r["fprime_bound_ok"] == "true"
        assert r["disjoint_ok"] == "true"


def test_packets_frozen_first_row():
    proc = run_cli("packets", "--family", "sin-exp", "--n", "1..1")
    assert proc.stdout.splitlines()[1] == (
        "1,1.1447298858494002,0.019894367886486918,"
        "0.079042209552706091,3.0738081045980707,true,true,true"
    )


def test_packets_gaussian_49_rows():
    proc = run_cli("packets", "--family", "sin-exp-sq", "--n", "2..50",
                   "--delta", "0.01")
    assert proc.returncode == 0
    rows = parse_csv(proc.stdout)
    assert len(rows) == 49
    assert rows[0]["n"] == "2" and rows[-1]["n"] == "50"


def test_packets_exp_rejected():
    proc = run_cli("packets", "--family", "exp", "--n", "1..5")
    assert proc.returncode == 2


@pytest.mark.parametrize("n, message", [
    # adjacent centers collide in double precision
    ("1000000000000000..1000000000000001", "too large for double precision"),
    # n*pi overflows a double
    ("1" + "0" * 309, "overflows a double"),
])
def test_packets_huge_n_exit_2(n, message):
    proc = run_cli("packets", "--family", "sin-exp", "--n", n)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, module, budget, what", [
    (["schedule", "--variant", "exp", "--N", "1001"], schedule, "_STAGE_BUDGET",
     "N=1001 stages"),
    (["schedule", "--variant", "gaussian", "--N", "1000000000000"], schedule,
     "_STAGE_BUDGET", "N=1000000000000 stages"),
    (["packets", "--family", "sin-exp", "--n", "1..1001"], packets, "_PACKET_BUDGET",
     "1001 packets"),
    (["packets", "--family", "sin-exp-sq", "--n", "2..1000000000001", "--delta", "0.01"],
     packets, "_PACKET_BUDGET", "1000000000000 packets"),
])
def test_counts_past_budget_exit_3(monkeypatch, capsys, argv, module, budget, what):
    # refused before anything is allocated; the budgets are made small so
    # that a count just past one stays cheap, and the huge counts would
    # need terabytes
    assert getattr(module, budget) == 1 << 20
    monkeypatch.setattr(module, budget, 1000)
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("refused: ") and f"{what}, over the budget of 1000" in err


@pytest.mark.parametrize("argv", [
    ["schedule", "--variant", "exp", "--N", "1000"],
    ["packets", "--family", "sin-exp", "--n", "1..1000"],
])
def test_counts_at_budget_run(monkeypatch, capsys, argv):
    monkeypatch.setattr(schedule, "_STAGE_BUDGET", 1000)
    monkeypatch.setattr(packets, "_PACKET_BUDGET", 1000)
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1001


def _packets_csv_reference(family, n_lo, n_hi, delta, method, samples):
    """The packet ledger built from certify_packets' DiskPacket list, each
    field of each row formatted alone."""
    ledger = [make_packet(family, n, delta) for n in range(n_lo, n_hi + 1)]
    gaps = verify_disjoint(family, n_lo, n_hi, delta).gaps.tolist()
    lines = ["n,center,radius,max_abs_f,min_abs_fprime,"
             "f_bound_ok,fprime_bound_ok,disjoint_ok"]
    for i, p in enumerate(certify_packets(ledger, method, samples)):
        cert = p.certificate
        disjoint = (i == 0 or gaps[i - 1] > 0) and (i == len(gaps) or gaps[i] > 0)
        lines.append(",".join([
            str(p.n), _f17(p.center), _f17(p.radius), _f17(cert.max_abs_f),
            _f17(cert.min_abs_fprime), _flag(cert.f_bound_ok),
            _flag(cert.fprime_bound_ok), _flag(disjoint),
        ]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("family, n_lo, n_hi, delta", [
    ("sin-exp", 1, 300, None),
    ("sin-exp-sq", 2, 300, 0.01),
    # the interval proofs stop closing at n = 318309886184
    ("sin-exp", 318309886180, 318309886190, None),
    ("sin-exp-sq", 318309886180, 318309886190, 0.01),
])
@pytest.mark.parametrize("method", ["interval", "sampling"])
def test_packets_columns_match_field_formatting(monkeypatch, capsys, family, n_lo, n_hi,
                                                delta, method):
    # the CLI reads the certifier's columns in blocks of 7 rows here; the
    # reference formats the list API's certificates field by field
    monkeypatch.setattr(cli, "_CSV_BLOCK", 7)
    argv = ["packets", "--family", family, "--n", f"{n_lo}..{n_hi}",
            "--method", method, "--samples", "40"]
    if delta is not None:
        argv += ["--delta", repr(delta)]
    want = _packets_csv_reference(
        GraphFamily.parse(family), n_lo, n_hi, delta,
        CertifyMethod.INTERVAL_PROOF if method == "interval"
        else CertifyMethod.DENSE_SAMPLING, 40)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want
    if method == "interval" and n_lo > 1000:
        assert "false" in want and "true,true,true" in want


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_packets_bad_samples_exit_2(samples):
    proc = run_cli("packets", "--family", "sin-exp", "--n", "1..5",
                   "--method", "sampling", "--samples", samples)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "samples must be a positive integer" in proc.stderr
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args, message", [
    (("--family", "sin-exp", "--r", "6,7,8,800"), "r = 800.0"),
    (("--family", "sin-exp-sq", "--delta", "0.01", "--r", "3,4,5,300"), "r = 300.0"),
    (("--family", "sin-exp", "--delta", "0.01", "--r", "6,7,8,9"), "delta"),
])
def test_growth_bad_packet_input_exit_2(args, message):
    proc = run_cli("growth", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("family", ["exp", "sin-exp"])
def test_growth_delta_refused_for_families_without_one(family):
    # e^z takes no delta, as sin(e^z) does not; neither ignores one
    proc = run_cli("growth", "--family", family, "--r", "2,3,4,5", "--delta", "0.01")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: delta applies only to the sin(e^(z^2)) family\n"


def test_growth_packet_samples_exponential():
    proc = run_cli("growth", "--family", "sin-exp", "--r",
                   "6,7,8,9,10,11,12,13,14")
    assert proc.returncode == 0
    d = json.loads(proc.stdout)
    assert d["model"] == "exponential"
    assert d["rate"] == 1.0018328557874241
    assert d["c_witness"] == 0.999
    assert d["r0_witness"] == 6
    assert set(d) == {"model", "rate", "log_intercept", "residual_rms",
                      "c_witness", "r0_witness"}


def test_growth_exp_quadrature_polynomial():
    proc = run_cli("growth", "--family", "exp", "--r", "2,2.5,3,3.5,4,4.5,5",
                   "--max-depth", "11")
    assert proc.returncode == 0
    assert proc.stdout == (
        '{"model": "polynomial", "rate": 2.2628880554334927, '
        '"log_intercept": 0.83128174593042226, "residual_rms": 0.025376351894545478, '
        '"c_witness": 2.2389999999999999, "r0_witness": 2}\n')


def test_growth_exp_samples_no_boundary(monkeypatch, capsys):
    # the fit and the witness read only the certified lower bounds, so the
    # quadrature runs in lower-bound mode and never samples a boundary cell
    def fail(*args, **kwargs):
        raise AssertionError("growth sampled the boundary cells")

    monkeypatch.setattr(quadrature, "_boundary_estimate_sum", fail)
    argv = ["growth", "--family", "exp", "--r", "2,3,4,5", "--max-depth", "8"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["model"] == "polynomial"


def test_growth_forced_gaussian_model():
    proc = run_cli("growth", "--family", "sin-exp-sq", "--delta", "0.01",
                   "--r", "2.5,3,3.5,4,4.5", "--model", "gaussian")
    assert proc.returncode == 0
    d = json.loads(proc.stdout)
    assert d["model"] == "gaussian"
    assert d["rate"] > 0
    assert d["rate"] == 0.99070634675120017


def test_growth_from_csv_input(tmp_path):
    gen = run_cli("area", "--family", "exp", "--r", "2,3,4,5",
                  "--max-depth", "9")
    src = tmp_path / "samples.csv"
    src.write_text(gen.stdout)
    proc = run_cli("growth", "--input", str(src))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["model"] == "polynomial"


def test_growth_input_reads_only_r_and_area_lower(tmp_path, capsys):
    # the fit reads r and area_lower: an estimate or a source that is not
    # one changes nothing
    rows = [("1", "2"), ("2", "5"), ("3", "9"), ("4", "15")]
    tables = {
        "plain": "r,area_lower\n" + "".join(f"{r},{a}\n" for r, a in rows),
        "estimate": "r,area_lower,area_estimate,source\n"
                    + "".join(f"{r},{a},x,Quadrature\n" for r, a in rows),
        "source": "r,area_lower,area_estimate,source\n"
                  + "".join(f"{r},{a},,bogus\n" for r, a in rows),
    }
    outputs = {}
    for name, text in tables.items():
        src = tmp_path / f"{name}.csv"
        src.write_text(text)
        assert cli.main(["growth", "--input", str(src)]) == 0
        outputs[name] = capsys.readouterr().out
    assert outputs["estimate"] == outputs["source"] == outputs["plain"]
    assert json.loads(outputs["plain"])["model"] == "polynomial"


@pytest.mark.parametrize("args, flag", [
    (("--family", "exp"), "--family"),
    (("--r", "9"), "--r"),
    (("--delta", "0.01"), "--delta"),
    (("--max-depth", "12"), "--max-depth"),
    (("--allow-large-r",), "--allow-large-r"),
    (("--model", "exponential", "--family", "exp", "--r", "9", "--delta", "0.01"), "--family"),
])
def test_growth_input_refuses_generating_flags(tmp_path, args, flag):
    # --input replaces the generated samples, so the flags that generate
    # them are refused, not ignored (--model still applies)
    src = tmp_path / "s.csv"
    src.write_text("r,area_lower\n2,1\n3,2\n4,4\n5,8\n")
    proc = run_cli("growth", "--input", str(src), *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {flag} applies to generated samples, not to --input\n"
    assert "Traceback" not in proc.stderr


def test_growth_rejects_bad_csv(tmp_path):
    src = tmp_path / "bad.csv"
    src.write_text("x,y\n1,2\n")
    proc = run_cli("growth", "--input", str(src))
    assert proc.returncode == 2


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_schedule_exp_json_flags():
    proc = run_cli("schedule", "--variant", "exp", "--n0", "10000",
                   "--N", "1000", "--format", "json")
    assert proc.returncode == 0
    d = json.loads(proc.stdout)
    assert d["all_hyp2_ok"] is True
    assert d["all_sigma_feasible"] is True
    assert d["completeness_trend"]["diverging"] is True
    assert len(d["sigma_partial_sums"]) == 1000


def test_schedule_stress_exit_0_with_false_flags():
    proc = run_cli("schedule", "--variant", "exp", "--n0", "1", "--N", "10")
    assert proc.returncode == 0
    rows = parse_csv(proc.stdout)
    assert any(r["hyp2_ok"] == "false" for r in rows)
    assert rows[0]["hyp2_ok"] == "false"


def test_schedule_csv_header_contract():
    proc = run_cli("schedule", "--variant", "exp", "--n0", "100", "--N", "5")
    lines = proc.stdout.splitlines()
    assert lines[0] == "n,r_n,mu_n,a_n,b_n,eps_n,sigma_n,eta_n,hyp2_ok,sigma_feasible"
    assert len(lines) == 6


def test_schedule_infeasible_sigma_empty_cell():
    proc = run_cli("schedule", "--variant", "gaussian", "--n0", "1", "--N", "5")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[1] == ("1,0.83255461115769769,0.21559246281050737,"
                       "0.11925807275000017,0.11925807275000017,"
                       "0.11925807275000017,,0.4132134202501675,false,false")
    rows = parse_csv(proc.stdout)
    assert rows[0]["sigma_n"] == ""
    assert rows[1]["sigma_feasible"] == "true"


def test_schedule_gaussian_query_ratios():
    # the counting law log N(R) = d R^2 read off the emitted diagnostics
    proc = run_cli("schedule", "--variant", "gaussian", "--d", "1",
                   "--n0", "1", "--N", "100000", "--query-R", "2.5,3,3.5",
                   "--format", "json")
    assert proc.returncode == 0
    d = json.loads(proc.stdout)
    assert d["N_of_R"] == {"2.5": 516, "3": 8101, "3.5": 100000}
    for key, n in d["N_of_R"].items():
        R = float(key)
        assert abs(math.log(n) / R**2 - 1.0) <= 0.15
    # the correctly rounded least-squares slope, checked against mpmath
    assert d["completeness_trend"]["exponent"] == -0.49984187226735133


def test_schedule_gaussian_large_n0_offset_dominates():
    # with n0 = 10^4 the first radius is sqrt(log 10001) ~ 3.03, so
    # small query radii contain no stage at all (see decisions ledger)
    proc = run_cli("schedule", "--variant", "gaussian", "--d", "1",
                   "--n0", "10000", "--N", "1000", "--query-R", "2.5,3",
                   "--format", "json")
    assert proc.returncode == 0
    d = json.loads(proc.stdout)
    assert d["N_of_R"] == {"2.5": 0, "3": 0}


def test_schedule_area_lower_scales_with_a0():
    proc = run_cli("schedule", "--variant", "exp", "--n0", "100", "--N", "50",
                   "--a0", "2.0", "--query-R", "5.1", "--format", "json")
    d = json.loads(proc.stdout)
    (key, count), = d["N_of_R"].items()
    assert d["area_lower_of_R"][key] == 2.0 * count


@pytest.mark.parametrize("args, message", [
    (("--format", "csv", "--query-R", "abc"), "--query-R needs --format json"),
    (("--query-R", "2.5"), "--query-R needs --format json"),
    (("--format", "json", "--query-R", "abc"), "bad real list 'abc'"),
    (("--format", "json", "--query-R", ""), "empty real list"),
    (("--format", "json", "--query-R", ","), "empty real list"),
])
def test_schedule_query_R_is_read_or_refused(args, message):
    # the CSV table has no N(R) column, so queries there are refused, not
    # dropped; an empty list is refused like ",", not read as no queries
    proc = run_cli("schedule", "--variant", "exp", "--n0", "100", "--N", "50", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_schedule_nan_query_exit_2():
    base = ("schedule", "--variant", "exp", "--n0", "100", "--N", "50",
            "--format", "json", "--query-R")
    proc = run_cli(*base, "5.1,nan")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "query radius must not be nan" in proc.stderr
    # inf counts every stage and a negative radius none
    proc = run_cli(*base, "inf,-1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["N_of_R"] == {"inf": 50, "-1": 0}


def _f17(x):
    return format(x, ".17g")


@pytest.mark.parametrize("block", [7, cli._FLOAT_BLOCK])
@pytest.mark.parametrize("value", [
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1],
    [],
    [2.5],
    (1.0, -2.0, 1e-300),
    [k / 7.0 for k in range(9000)],
    [1.0, 2, 3.5],
    [True, 0.5],
    [None, 1.5],
    [np.float64(0.1), 0.1],
    [[0.25, 1e-7], {"a": [0.5]}],
    np.array([k / 7.0 for k in range(9000)]),
    np.array([math.nan, -0.0, 5e-324, 1e308]),
    np.array([]),
], ids=["specials", "empty", "one", "tuple", "long", "int", "bool", "none",
        "np-float64", "nested", "array", "array-specials", "empty-array"])
def test_json_float_lists_match_per_element_join(monkeypatch, value, block):
    # float64 arrays are written in numpy per block of values, lists item
    # by item; both equal the per-element join
    monkeypatch.setattr(cli, "_FLOAT_BLOCK", block)

    def dumped(v):
        return b"".join(cli._json_dump(v)).decode()

    want = "[" + ", ".join(["%.17g" % v if type(v) is float else dumped(v)
                            for v in value]) + "]"
    assert dumped(value) == want
    assert dumped({"k": value}) == '{"k": ' + want + "}"


def _flag(b):
    return "true" if b else "false"


def _schedule_csv_reference(rows):
    """The schedule CSV built row by row, each field formatted alone."""
    lines = ["n,r_n,mu_n,a_n,b_n,eps_n,sigma_n,eta_n,hyp2_ok,sigma_feasible"]
    for row in rows:
        cells = [str(row.n)]
        cells += [_f17(v) for v in (row.r_n, row.mu_n, row.a_n, row.b_n, row.eps_n)]
        cells.append("" if row.sigma_n is None else _f17(row.sigma_n))
        cells += [_f17(row.eta_n), _flag(row.hyp2_ok), _flag(row.sigma_feasible)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("variant, theta", [("gaussian", 1.0), ("exp", 0.3)])
def test_schedule_writers_match_field_formatting(variant, theta):
    # the writers format columns, one row template at a time for the CSV;
    # the reference formats each field of each row
    cfg = ScheduleConfig(RadiiVariant.parse(variant), N=3000, n0=1, theta=theta)
    schedule = build_schedule(cfg)
    rows = list(schedule)
    assert any(row.sigma_n is None for row in rows)
    base = ("schedule", "--variant", variant, "--n0", "1", "--N", "3000",
            "--theta", repr(theta))

    proc = run_cli(*base)
    assert proc.returncode == 0
    assert proc.stdout == _schedule_csv_reference(rows)

    queries = [1.5, 2.0]
    diag = diagnostics(schedule, cfg, queries)
    exponent, diverging = completeness_trend(schedule, cfg)
    n_of_r = ", ".join(f'"{_f17(R)}": {diag.N_of_R[R]}' for R in queries)
    area = ", ".join(f'"{_f17(R)}": {_f17(diag.area_lower_of_R[R])}' for R in queries)
    sums = ", ".join(map(_f17, diag.sigma_partial_sums))
    want = (f'{{"all_hyp2_ok": {_flag(diag.all_hyp2_ok)}, '
            f'"all_sigma_feasible": {_flag(diag.all_sigma_feasible)}, '
            f'"eta_max_tail": {_f17(diag.eta_max_tail)}, '
            f'"N_of_R": {{{n_of_r}}}, "area_lower_of_R": {{{area}}}, '
            f'"sigma_partial_sums": [{sums}], '
            f'"completeness_trend": {{"exponent": {_f17(exponent)}, '
            f'"diverging": {_flag(diverging)}}}}}\n')
    proc = run_cli(*base, "--format", "json", "--query-R", "1.5,2")
    assert proc.returncode == 0
    assert proc.stdout == want


@pytest.mark.parametrize("N", [1, 6, 7, 8, 3000])
@pytest.mark.parametrize("variant, theta", [("gaussian", 1.0), ("exp", 0.3)])
def test_schedule_csv_blocks_do_not_change_output(monkeypatch, capsys, tmp_path,
                                                  variant, theta, N):
    # blocks of 7 rows: one short block, exactly one block, one row past it
    monkeypatch.setattr(cli, "_CSV_BLOCK", 7)
    cfg = ScheduleConfig(RadiiVariant.parse(variant), N=N, n0=1, theta=theta)
    want = _schedule_csv_reference(list(build_schedule(cfg)))
    argv = ["schedule", "--variant", variant, "--n0", "1", "--N", str(N),
            "--theta", repr(theta)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want
    path = tmp_path / "table.csv"
    assert cli.main(argv + ["--output", str(path)]) == 0
    assert path.read_bytes() == want.encode()


def test_schedule_csv_memory_is_bounded(tmp_path):
    # the table is written in blocks: its 20000 rows (3.4 MB of text,
    # 18 MB traced when held whole) never sit in memory at once
    argv = ["schedule", "--variant", "gaussian", "--N", "20000",
            "--output", str(tmp_path / "table.csv")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def test_plot_semilog_title_slope(tmp_path):
    gen = run_cli("packets", "--family", "sin-exp", "--n", "1..20")
    # packets CSV has no r column; use area output instead
    gen = run_cli("area", "--family", "sin-exp", "--r", "2,2.5,3,3.5,4",
                  "--max-depth", "9")
    src = tmp_path / "curve.csv"
    src.write_text(gen.stdout)
    proc = run_cli("plot", "--input", str(src), "--mode", "semilog-y")
    assert proc.returncode == 0
    assert "<svg" in proc.stdout and "mode=semilog-y; fitted slope=" in proc.stdout


def test_plot_exp_loglog_slope(tmp_path):
    gen = run_cli("area", "--family", "exp", "--r", "2,3,4,5",
                  "--max-depth", "9")
    src = tmp_path / "curve.csv"
    src.write_text(gen.stdout)
    out = tmp_path / "chart.svg"
    proc = run_cli("plot", "--input", str(src), "--mode", "log-log",
                   "--output", str(out))
    assert proc.returncode == 0
    text = out.read_text()
    title = next(line for line in text.splitlines() if "<title>" in line)
    assert "fitted slope=2.2812679407927159" in title


@pytest.mark.parametrize("rows, slope", [
    # every x equal: there is no least-squares line
    ("2,1\n2,5\n2,9\n", "nan"),
    # the exact slope 1e308/5e-324 is past the double range
    ("0,0\n5e-324,1e308\n", "inf"),
], ids=["constant-x", "overflow"])
def test_plot_degenerate_slope(tmp_path, rows, slope):
    src = tmp_path / "curve.csv"
    src.write_text("r,area_lower\n" + rows)
    proc = run_cli("plot", "--input", str(src))
    assert proc.returncode == 0
    assert f"mode=linear; fitted slope={slope}</title>" in proc.stdout


@pytest.mark.parametrize("block", [7, svgplot._POINT_BLOCK])
def test_plot_points_match_per_pair_formatting(monkeypatch, capsys, tmp_path, block):
    # the polyline is one % per block of pixel pairs; the reference
    # formats pair by pair
    monkeypatch.setattr(svgplot, "_POINT_BLOCK", block)
    src = tmp_path / "table.csv"
    assert cli.main(["schedule", "--variant", "gaussian", "--N", "3000",
                     "--output", str(src)]) == 0
    assert cli.main(["plot", "--input", str(src)]) == 0
    svg = capsys.readouterr().out
    tx, ty = cli._read_plot_columns(str(src))
    px = svgplot._pixels(tx, min(tx), max(tx), 60.0, 580.0)
    py = svgplot._pixels(ty, min(ty), max(ty), 420.0, 60.0)
    points = " ".join(map("%.3f,%.3f".__mod__, zip(px, py)))
    assert len(tx) == 3000
    assert re.search(r'points="([^"]*)"', svg).group(1) == points


def _bits(values):
    """The float64 bits of each value: -0.0 is not 0.0, and nan is nan."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


_AREA_LOWER_CSV = ("r,area_lower,area_estimate,source,cells_inside,cells_boundary,"
                   "depth_reached\n2,5,,Quadrature,1,2,3\n3,7,,Quadrature,1,2,3\n")


@pytest.mark.parametrize("text, want", [
    # area CSV: r against area_estimate when every row has one
    ("area_lower,r,area_estimate,source\n5,1,6,Quadrature\n7,2,8.5,Quadrature\n",
     ([1.0, 2.0], [6.0, 8.5])),
    # one blank estimate: area_lower for every row; blank lines are skipped
    ("r,area_lower,area_estimate\n1,5,6\n\n2,7, \n", ([1.0, 2.0], [5.0, 7.0])),
    # every estimate empty, as area --mode lower writes them
    (_AREA_LOWER_CSV, ([2.0, 3.0], [5.0, 7.0])),
    # any other CSV: its first two columns, quoted fields as csv reads them
    ('n,r_n,mu_n\n1,"0.5",x\n2,0.75,"y,z"\n', ([1.0, 2.0], [0.5, 0.75])),
    # a quoted field holds the newline: one row, not two
    ('x,y,z\n1,2,"\n3,4,5"\n', ([1.0], [2.0])),
    ("x,y\r\n1,2\r\n3,4\r\n", ([1.0, 3.0], [2.0, 4.0])),
    ("x,y\n1,\t2\n3,4\n", ([1.0, 3.0], [2.0, 4.0])),
    ("x,y\n1,2\x00\n3,4\n", ValueError("could not convert string to float: '2\\x00'")),
    # float() reads a full-width digit in a str, not in its UTF-8 bytes
    ("x,y\n1,２\n3,4\n", ([1.0, 3.0], [2.0, 4.0])),
    ("x,y\n1,2\n \n3,4\n", ValueError("CSV line 3 has 1 fields, the header has 2")),
    ("\nx,y\n1,2\n", ValueError("CSV needs at least two columns")),
    ("x,y\n1_0,2\n3,4\n", ([10.0, 3.0], [2.0, 4.0])),
    ("x,y\n-0.0,0.0\n0.0,-0.0\n", ([-0.0, 0.0], [0.0, -0.0])),
    ("x,y\n1,2\n3,4", ([1.0, 3.0], [2.0, 4.0])),
], ids=["estimate", "lower", "area-lower-mode", "first-two", "quoted-newline", "crlf",
        "tab", "nul",
        "non-ascii", "whitespace-line", "blank-header", "underscore", "signed-zeros",
        "no-final-newline"])
def test_plot_reads_columns(tmp_path, text, want):
    src = tmp_path / "curve.csv"
    src.write_bytes(text.encode("utf-8"))
    if isinstance(want, Exception):
        with pytest.raises(type(want), match=re.escape(str(want))):
            cli._read_plot_columns(str(src))
        return
    xs, ys = cli._read_plot_columns(str(src))
    assert (xs.tolist(), ys.tolist()) == want
    assert (_bits(xs), _bits(ys)) == tuple(map(_bits, want))


def _read_outcome(path):
    """The columns' bits, or the type and message of the error."""
    try:
        xs, ys = cli._read_plot_columns(path)
    except Exception as exc:  # the outcome under test
        return type(exc), str(exc)
    return xs.dtype, ys.dtype, _bits(xs), _bits(ys)


_NUMERALS = st.sampled_from(["1", "-0.0", "0.0", "2.5e3", "1_0", "inf", "-nan", " 7 ",
                             "1e400", ".5", "+4", "-1E-3", "", " "])
_ODD = st.one_of(st.sampled_from(["x", '"1"', '"', "1\r", "\t1", "1\x00", "\u0662"]),
                 st.text(alphabet='0123456789.,-+e_ "\t\r\x00\u00e9\uff12', max_size=6))
_HEADERS = st.sampled_from(["r,area_lower", "r,area_lower,area_estimate", "x,y",
                            "area_estimate,source,r,area_lower", "r,r,area_lower"])
# plain tables of numerals, blank fields and blank lines, and tables with
# odd fields, headers and line ends
_PLAIN_TEXTS = st.tuples(
    _HEADERS, st.lists(st.lists(_NUMERALS, min_size=2, max_size=5).map(",".join)
                       | st.just(""), max_size=5), st.sampled_from(["\n", ""]))
_ODD_TEXTS = st.tuples(
    _HEADERS | st.sampled_from(["x", "", " "]) | st.lists(_NUMERALS | _ODD).map(",".join),
    st.lists(st.lists(_NUMERALS | _ODD, max_size=5).map(",".join), max_size=6),
    st.sampled_from(["\n", "", "\r\n"]))


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=_PLAIN_TEXTS | _ODD_TEXTS, block=st.sampled_from([1, 7, 1 << 18]),
       limit=st.sampled_from([131072, 131072, 4]))
@example(text=("x,y", ["1,2", "3,2.5e3"], ""), block=1 << 18, limit=4)  # a long last line
def test_plot_reader_matches_csv_reader(tmp_path_factory, text, block, limit):
    # any text gives the same values, or the same error, as csv.reader alone
    header, lines, end = text
    path = str(tmp_path_factory.mktemp("plot") / "curve.csv")
    with open(path, "wb") as fh:
        fh.write(("\n".join([header, *lines]) + end).encode("utf-8"))
    saved = csv.field_size_limit(limit)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_READ_BLOCK", block)
            got = _read_outcome(path)
            mp.setattr(cli, "_plain_plot_columns", lambda path: None)
            want = _read_outcome(path)
    finally:
        csv.field_size_limit(saved)
    assert got == want


def test_plot_reads_plain_tables_without_csv(monkeypatch, tmp_path):
    # the schedule table, an area --mode lower table, and a table with a
    # blank line, one blank estimate and no final newline take the byte path
    paths = [str(tmp_path / name) for name in ("table.csv", "area.csv", "odd.csv")]
    assert cli.main(["schedule", "--variant", "gaussian", "--N", "3000",
                     "--output", paths[0]]) == 0
    assert cli.main(["area", "--family", "exp", "--r", "2,3,4", "--mode", "lower",
                     "--max-depth", "5", "--output", paths[1]]) == 0
    with open(paths[2], "w") as fh:
        fh.write("r,area_lower,area_estimate\n1,5,6\n\n2,7,\n3,8,9")
    want = [tuple(map(_bits, cli._read_plot_columns(p))) for p in paths]

    def refuse(path):
        raise AssertionError("csv.reader was asked to read " + path)

    monkeypatch.setattr(cli, "_csv_plot_columns", refuse)
    assert [tuple(map(_bits, cli._read_plot_columns(p))) for p in paths] == want
    assert [len(xs) for xs, _ in want] == [3000, 3, 3]
    assert want[2][1] == _bits([5.0, 7.0, 8.0])


def test_plot_declines_a_quoted_table_before_reading_a_field(monkeypatch, tmp_path):
    # the byte checks run over the whole file first: a '"' in the last of
    # 1e5 rows sends the table to csv.reader before any field is read
    src = tmp_path / "table.csv"
    assert cli.main(["schedule", "--variant", "gaussian", "--N", "100000",
                     "--output", str(src)]) == 0
    with open(src, "a") as fh:
        fh.write('100001,"3.5",0,0,0,0,,0,false,false\n')
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))[1:]

    def refuse(*args):
        raise AssertionError("a field was read before the decline")

    monkeypatch.setattr(cli._text, "reals", refuse)
    xs, ys = cli._read_plot_columns(str(src))
    assert (_bits(xs), _bits(ys)) == (_bits([float(row[0]) for row in rows]),
                                      _bits([float(row[1]) for row in rows]))
    assert len(xs) == 100_001 and ys[-1] == 3.5


def test_plot_read_memory_is_bounded(tmp_path):
    # the byte path reads blocks of _READ_BLOCK bytes and keeps only
    # floats: the 17 MB text of 1e5 stages, and its fields as str, never
    # sit in memory at once
    src = str(tmp_path / "table.csv")
    assert cli.main(["schedule", "--variant", "gaussian", "--N", "100000",
                     "--output", src]) == 0
    tracemalloc.start()
    try:
        xs, ys = cli._read_plot_columns(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert len(xs) == len(ys) == 100000


def test_plot_label_is_escaped(tmp_path):
    src = tmp_path / "curve.csv"
    src.write_text("r,area_lower\n1,2\n2,3\n")
    label = 'A<B & "C"'
    proc = run_cli("plot", "--input", str(src), "--label", label)
    assert proc.returncode == 0
    doc = minidom.parseString(proc.stdout)
    title = doc.getElementsByTagName("title")[0].firstChild.data
    caption = doc.getElementsByTagName("text")[-1].firstChild.data
    assert title == caption == f"{label}; mode=linear; fitted slope=1"
    # the default label has nothing to escape: its bytes do not move
    default = run_cli("plot", "--input", str(src))
    assert "<title>growth curve; mode=linear; fitted slope=1</title>" in default.stdout


def test_plot_empty_csv_exit_2(tmp_path):
    src = tmp_path / "empty.csv"
    src.write_text("r,area_lower\n")
    proc = run_cli("plot", "--input", str(src))
    assert proc.returncode == 2


@pytest.mark.parametrize("command", ["plot", "growth"])
def test_short_csv_row_exit_2(tmp_path, command):
    src = tmp_path / "short.csv"
    src.write_text("r,area_lower\n1,2\n3\n")
    proc = run_cli(command, "--input", str(src))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "line 3 has 1 fields" in proc.stderr


@pytest.mark.parametrize("command", ["plot", "growth"])
def test_csv_field_past_limit_exit_2(tmp_path, command):
    # the csv module refuses a field over 131072 characters: an input error
    src = tmp_path / "long.csv"
    src.write_text("r,area_lower\n1,2\n3," + "4" * 131073 + "\n")
    proc = run_cli(command, "--input", str(src))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: field larger than field limit (131072)\n"


@pytest.mark.parametrize("rows, mode", [
    ("1,2\n2,inf\n3,5\n", "linear"),
    ("1,2\n2,nan\n3,5\n", "linear"),
    ("1,2\n-inf,4\n3,5\n", "semilog-y"),
    ("1,2\n2,4\n1e200,5\n", "y-vs-r2"),
], ids=["inf", "nan", "x-inf", "x2-overflow"])
def test_plot_non_finite_exit_2(tmp_path, rows, mode):
    src = tmp_path / "curve.csv"
    src.write_text("r,area_lower\n" + rows)
    proc = run_cli("plot", "--input", str(src), "--mode", mode)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "finite" in proc.stderr


def test_plot_pixel_past_double_range(tmp_path):
    # (x - min) * 520 overflows: the pixel is inf, as Python's float
    # arithmetic gives it, and numpy prints no warning
    src = tmp_path / "curve.csv"
    src.write_text("r,area_lower\n0,1\n1e307,2\n5e306,3\n")
    proc = run_cli("plot", "--input", str(src))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert 'points="60.000,420.000 inf,240.000 inf,60.000"' in proc.stdout


def test_plot_range_past_double_range_exit_2(tmp_path):
    # every value is finite, but max - min is not
    src = tmp_path / "curve.csv"
    src.write_text("r,area_lower\n-1e308,1\n0,2\n1e308,3\n")
    proc = run_cli("plot", "--input", str(src))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_growth_classifies_over_fittable_models(tmp_path):
    # the Gaussian coordinate r^2 of 2e154 overflows; the other two fit
    src = tmp_path / "samples.csv"
    src.write_text("r,area_lower\n1,2\n2,5\n3,9\n2e154,1e10\n")
    proc = run_cli("growth", "--input", str(src))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["model"] == "polynomial"
    forced = run_cli("growth", "--input", str(src), "--model", "gaussian")
    assert forced.returncode == 2
    assert forced.stdout == ""
    assert "Traceback" not in forced.stderr
    assert "finite" in forced.stderr


@pytest.mark.parametrize("args", [
    ("--theta", "1e308"),
    ("--theta", "2e154"),
    ("--n0", "1" + "0" * 320),
], ids=["theta-1e308", "theta-2e154", "n0-321-digits"])
def test_schedule_beyond_double_range_exit_2(args):
    proc = run_cli("schedule", "--variant", "exp", "--N", "3", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("variant, args", [
    ("gaussian", ("--theta", "5")),
    ("exp", ("--d", "2")),
])
def test_schedule_other_variants_parameter_exit_2(variant, args):
    # theta scales only the exp radii and d only the Gaussian radii
    proc = run_cli("schedule", "--variant", variant, "--N", "3", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_plot_bad_mode_exit_2(tmp_path):
    src = tmp_path / "c.csv"
    src.write_text("r,area_lower\n1,2\n2,3\n")
    proc = run_cli("plot", "--input", str(src), "--mode", "cubist")
    assert proc.returncode == 2


# ---------------------------------------------------------------------------
# determinism and formats
# ---------------------------------------------------------------------------

def test_byte_determinism_across_threads():
    outs = set()
    for _ in range(4):
        proc = run_cli("packets", "--family", "sin-exp", "--n", "1..40")
        assert proc.returncode == 0
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_area_byte_determinism_across_threads():
    outs = set()
    for _ in range(4):
        proc = run_cli("area", "--family", "sin-exp-sq", "--r", "1.5,2,2.5",
                       "--max-depth", "9")
        assert proc.returncode == 0
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_repeat_invocation_identical():
    a = run_cli("growth", "--family", "sin-exp", "--r", "6,7,8,9,10")
    b = run_cli("growth", "--family", "sin-exp", "--r", "6,7,8,9,10")
    assert a.stdout == b.stdout


def test_output_file_matches_stdout(tmp_path):
    to_stdout = run_cli("packets", "--family", "sin-exp", "--n", "1..5")
    path = tmp_path / "out.csv"
    to_file = run_cli("packets", "--family", "sin-exp", "--n", "1..5",
                      "--output", str(path))
    assert to_file.returncode == 0
    assert path.read_bytes().decode() == to_stdout.stdout
    assert b"\r\n" not in path.read_bytes()


@pytest.mark.parametrize("argv", [
    ["area", "--family", "sin-exp", "--r", "2,3.5", "--mode", "lower", "--max-depth", "6"],
    ["packets", "--family", "sin-exp-sq", "--n", "2..40", "--delta", "0.01"],
    ["schedule", "--variant", "gaussian", "--N", "300"],
    ["schedule", "--variant", "exp", "--n0", "100", "--N", "300", "--format", "json"],
    ["growth", "--family", "exp", "--r", "2,4,8,16", "--max-depth", "6"],
    ["plot", "--label", "\u03c3 partial sums"],
], ids=["area", "packets", "schedule-csv", "schedule-json", "growth", "plot"])
def test_stdout_gets_the_bytes_of_a_file(capsysbinary, tmp_path, argv):
    # "--output -" writes the bytes a file gets: UTF-8, "\n" line ends
    if argv[0] == "plot":
        table = tmp_path / "table.csv"
        assert cli.main(["schedule", "--variant", "gaussian", "--N", "300",
                         "--output", str(table)]) == 0
        argv = [*argv, "--input", str(table)]
    assert cli.main([*argv, "--output", "-"]) == 0
    out = capsysbinary.readouterr().out
    path = tmp_path / "out"
    assert cli.main([*argv, "--output", str(path)]) == 0
    assert path.read_bytes() == out
    assert out.endswith(b"\n") and b"\r" not in out


def test_main_runs_commands_one_after_another(capsysbinary, tmp_path):
    # main builds its parser once per process: every later call, also one
    # after an argparse error (exit 2), prints and returns what a call in
    # a new process does
    table = tmp_path / "table.csv"
    commands = [
        ["area", "--family", "exp", "--r", "2,3", "--max-depth", "4"],
        ["schedule", "--variant", "exp", "--N", "5", "--format", "svg"],
        ["packets", "--family", "sin-exp", "--n", "1..3"],
        ["schedule", "--variant", "gaussian", "--N", "40", "--output", str(table)],
        ["area", "--family", "exp", "--max-depth", "4"],
        ["plot", "--input", str(table), "--mode", "log-log"],
        ["packets", "--family", "sin-exp", "--n", "5..1"],
        ["growth", "--family", "exp", "--r", "2,4,8,16", "--max-depth", "6"],
    ]
    in_process, parsers = [], set()
    for argv in commands:
        code = cli.main(argv)
        out, err = capsysbinary.readouterr()
        in_process.append((code, out.decode(), err.decode()))
        parsers.add(id(cli._parser))
    assert len(parsers) == 1
    separate = [(proc.returncode, proc.stdout, proc.stderr)
                for proc in (run_cli(*argv) for argv in commands)]
    assert in_process == separate
    assert [code for code, _, _ in in_process] == [0, 2, 0, 0, 2, 0, 2, 0]


def test_seventeen_digit_format():
    proc = run_cli("packets", "--family", "sin-exp", "--n", "2..2")
    center = proc.stdout.splitlines()[1].split(",")[1]
    assert center == "%.17g" % math.log(2 * math.pi)


# ---------------------------------------------------------------------------
# exit codes and flag validation
# ---------------------------------------------------------------------------

def test_unknown_family_exit_2():
    assert run_cli("area", "--family", "tanh", "--r", "2").returncode == 2


def test_bad_range_exit_2():
    assert run_cli("packets", "--family", "sin-exp", "--n", "5..1").returncode == 2


@pytest.mark.parametrize("args", [
    ("area", "--family", "exp", "--r", "2", "--format", "json"),
    ("growth", "--family", "exp", "--r", "2,3,4,5", "--format", "csv"),
    ("schedule", "--variant", "exp", "--N", "5", "--format", "svg"),
])
def test_format_command_compatibility(args):
    assert run_cli(*args).returncode == 2


def test_area_tol_rel_is_unknown():
    # the flag and the tolerance it fed are gone
    proc = run_cli("area", "--family", "exp", "--r", "2", "--max-depth", "4",
                   "--tol-rel", "5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unrecognized arguments: --tol-rel" in proc.stderr


def test_missing_subcommand_exit_2():
    assert run_cli().returncode == 2


def test_help_exits_0():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for sub in ("area", "packets", "growth", "schedule", "plot"):
        assert sub in proc.stdout


def _avx512_groups():
    """The AVX-512 groups numpy dispatches to on this host."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [name for name in __cpu_dispatch__
            if __cpu_features__.get(name) and ("AVX512" in name or name == "X86_V4")]


def test_outputs_do_not_depend_on_numpy_dispatch(tmp_path):
    # the same bytes with numpy's AVX-512 kernels switched off: no SIMD
    # log, pow or rounding reaches a schedule, its trend or a plot
    groups = _avx512_groups()
    if not groups:
        pytest.skip("numpy reports no AVX-512 dispatch on this host")
    outputs = []
    for env in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(groups)}):
        out = tmp_path / f"run{len(outputs)}"
        out.mkdir()
        for variant in ("gaussian", "exp"):
            for fmt in ("csv", "json"):
                proc = run_cli("schedule", "--variant", variant, "--N", "20000", "--format", fmt,
                               "--output", str(out / f"{variant}.{fmt}"), env_extra=env)
                assert proc.returncode == 0, proc.stderr
            proc = run_cli("plot", "--input", str(out / f"{variant}.csv"),
                           "--output", str(out / f"{variant}.svg"), env_extra=env)
            assert proc.returncode == 0, proc.stderr
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert len(outputs[0]) == 6 and outputs[0] == outputs[1]
