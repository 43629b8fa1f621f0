"""End-to-end command-line surface: flags, formats, exit codes, bytes.

Every invocation runs the installed entry point in a subprocess, so
these tests cover argument parsing, serialization, and determinism
exactly as a shell user sees them.
"""

import csv
import io
import json
import math

import pytest

from conftest import run_cli


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


def test_area_cap_exit_3():
    proc = run_cli("area", "--family", "sin-exp", "--r", "50")
    assert proc.returncode == 3
    assert proc.stdout == ""


def test_area_cap_override():
    proc = run_cli("area", "--family", "sin-exp", "--r", "8.2",
                   "--max-depth", "6", "--allow-large-r")
    assert proc.returncode == 0


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
        "0.079042209552705398,3.0738081045980721,true,true,true"
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


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------

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
    d = json.loads(proc.stdout)
    assert d["model"] == "polynomial"
    assert d["rate"] == 2.2628880554334931
    assert d["c_witness"] == 2.2389999999999999


def test_growth_forced_gaussian_model():
    proc = run_cli("growth", "--family", "sin-exp-sq", "--delta", "0.01",
                   "--r", "2.5,3,3.5,4,4.5", "--model", "gaussian")
    assert proc.returncode == 0
    d = json.loads(proc.stdout)
    assert d["model"] == "gaussian"
    assert d["rate"] > 0
    assert d["rate"] == 0.99070634675120006


def test_growth_from_csv_input(tmp_path):
    gen = run_cli("area", "--family", "exp", "--r", "2,3,4,5",
                  "--max-depth", "9")
    src = tmp_path / "samples.csv"
    src.write_text(gen.stdout)
    proc = run_cli("growth", "--input", str(src))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["model"] == "polynomial"


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
    assert d["completeness_trend"]["exponent"] == -0.49984187226735127


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


def test_plot_empty_csv_exit_2(tmp_path):
    src = tmp_path / "empty.csv"
    src.write_text("r,area_lower\n")
    proc = run_cli("plot", "--input", str(src))
    assert proc.returncode == 2


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
    for threads in ("1", "2", "4", "8"):
        proc = run_cli("packets", "--family", "sin-exp", "--n", "1..40",
                       env_extra={"GRAPHGROWTH_THREADS": threads})
        assert proc.returncode == 0
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_area_byte_determinism_across_threads():
    outs = set()
    for threads in ("1", "3", "5", "7"):
        proc = run_cli("area", "--family", "sin-exp-sq", "--r", "1.5,2,2.5",
                       "--max-depth", "9",
                       env_extra={"GRAPHGROWTH_THREADS": threads})
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


def test_missing_subcommand_exit_2():
    assert run_cli().returncode == 2


def test_help_exits_0():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for sub in ("area", "packets", "growth", "schedule", "plot"):
        assert sub in proc.stdout
