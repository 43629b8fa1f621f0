"""Self-test of the benchmark's output checks.

Run from the repository root: python3 -m pytest perfbench -q

Each job kind gets a real output from the CLI, which must pass, and
corrupted copies of it, each of which must count as a failed job.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graphgrowth.cli import main as cli_main  # noqa: E402

import run  # noqa: E402
from checks import check_output, packet_cross_check  # noqa: E402
from worker import _digest  # noqa: E402
from workloads import Job  # noqa: E402


def _job(tmp_path: Path, kind: str, argv: list[str], suffix: str, expect: dict,
         job_id: str | None = None) -> Job:
    job_id = job_id or kind
    out = str(tmp_path / f"{job_id}.{suffix}")
    job = Job(job_id, kind, tuple(argv + ["--output", out]), out, expect)
    assert cli_main(list(job.argv)) == 0
    return job


def _failed(job: Job, reference: dict | None = None, passes: int = 1) -> int:
    """Failed job runs as the benchmark counts them, for ``passes`` passes
    that all produced the file now on disk."""
    record = {"codes": [0], "digests": [_digest(job.output)[0]]}
    ref = {job.id: reference} if reference is not None else None
    failed, _ = run._check_passes([job], {"passes": [record] * passes}, ref)
    return failed


def _edit(path: str, old: str, new: str, count: int = 1) -> None:
    text = Path(path).read_text()
    assert old in text, old
    Path(path).write_text(text.replace(old, new, count))


def _drop_last_row(path: str) -> None:
    lines = Path(path).read_text().splitlines(keepends=True)
    Path(path).write_text("".join(lines[:-1]))


@pytest.fixture
def area(tmp_path):
    return _job(tmp_path, "area", ["area", "--family", "exp", "--r", "2.0,3.0",
                                   "--mode", "estimate", "--max-depth", "5"], "csv",
                {"radii": [2.0, 3.0], "depth": 5, "mode": "estimate"})


@pytest.fixture
def packets(tmp_path):
    return _job(tmp_path, "packets", ["packets", "--family", "sin-exp", "--n", "3..8"],
                "csv", {"n_lo": 3, "n_hi": 8, "method": "interval"})


@pytest.fixture
def growth(tmp_path):
    return _job(tmp_path, "growth", ["growth", "--family", "sin-exp",
                                     "--r", "4,10,20,30"], "json",
                {"model": "exponential"})


@pytest.fixture
def schedule_csv(tmp_path):
    return _job(tmp_path, "schedule", ["schedule", "--variant", "gaussian", "--N", "60"],
                "csv", {"N": 60, "format": "csv", "queries": []})


@pytest.fixture
def schedule_json(tmp_path):
    return _job(tmp_path, "schedule", ["schedule", "--variant", "exp", "--n0", "100",
                                       "--N", "60", "--format", "json",
                                       "--query-R", "4.7,4.9"], "json",
                {"N": 60, "format": "json", "queries": [4.7, 4.9]}, "schedule-json")


@pytest.fixture
def plot(tmp_path, schedule_csv):
    return _job(tmp_path, "plot", ["plot", "--input", schedule_csv.output], "svg", {})


def _reference(job: Job) -> dict:
    return check_output(job).reference_entry(job)


@pytest.mark.parametrize("name", ["area", "packets", "growth", "schedule_csv",
                                  "schedule_json", "plot"])
def test_clean_output_passes(name, request):
    job = request.getfixturevalue(name)
    assert check_output(job).problems == []
    assert _failed(job, _reference(job), passes=3) == 0


def _raise_first_lower(job: Job, factor: float) -> None:
    row = Path(job.output).read_text().splitlines()[1].split(",")
    _edit(job.output, f",{row[1]},", f",{float(row[1]) * factor!r},")


def test_area_lower_above_estimate(area):
    row = Path(area.output).read_text().splitlines()[1].split(",")
    _edit(area.output, f",{row[1]},", f",{float(row[2]) * 2!r},")
    assert _failed(area) == 1


def test_area_wrong_depth(area):
    _edit(area.output, ",5\n", ",4\n")
    assert _failed(area) == 1


def test_area_missing_row(area):
    _drop_last_row(area.output)
    assert _failed(area) == 1


def test_area_lower_raised_over_reference(area):
    reference = _reference(area)
    _raise_first_lower(area, 1.0 + 1e-15)
    assert check_output(area).problems == []
    assert _failed(area, reference) == 1


def test_area_lower_lowered_passes_reference(area):
    reference = _reference(area)
    _raise_first_lower(area, 0.5)
    assert _failed(area, reference) == 0


def test_area_cell_count_differs_from_reference(area):
    reference = _reference(area)
    row = Path(area.output).read_text().splitlines()[1].split(",")
    _edit(area.output, f",{row[4]},", f",{int(row[4]) + 1},")
    assert _failed(area, reference) == 1


def test_packets_flipped_flag(packets):
    _edit(packets.output, "true,true,true", "true,false,true")
    assert _failed(packets) == 1


def test_packets_missing_row(packets):
    _drop_last_row(packets.output)
    assert _failed(packets) == 1


def test_packets_max_f_below_reference(packets):
    reference = _reference(packets)
    value = check_output(packets).no_lower["max_abs_f"][0]
    _edit(packets.output, format(value, ".17g"), format(value * 0.999, ".17g"))
    assert _failed(packets, reference) == 1


def test_growth_wrong_model(growth):
    _edit(growth.output, '"exponential"', '"gaussian"')
    assert _failed(growth) == 1


def test_schedule_csv_missing_row(schedule_csv):
    _drop_last_row(schedule_csv.output)
    assert _failed(schedule_csv) == 1


def test_schedule_json_missing_key(schedule_json):
    _edit(schedule_json.output, '"eta_max_tail"', '"eta_tail"')
    assert _failed(schedule_json) == 1


def test_schedule_json_n_of_r_differs_from_reference(schedule_json):
    reference = _reference(schedule_json)
    doc = json.loads(Path(schedule_json.output).read_text())
    key = next(iter(doc["N_of_R"]))
    value = doc["N_of_R"][key]
    _edit(schedule_json.output, f'"{key}": {value}', f'"{key}": {value + 1}')
    assert _failed(schedule_json, reference) == 1


def test_plot_not_svg(plot):
    text = Path(plot.output).read_text()
    Path(plot.output).write_text(text[: len(text) // 2])
    assert _failed(plot) == 1


def test_missing_output_fails(area):
    Path(area.output).unlink()
    record = {"codes": [2], "digests": [None]}
    failed, _ = run._check_passes([area], {"passes": [record]}, None)
    assert failed == 1


def test_output_changing_between_passes_fails(area):
    first = {"codes": [0], "digests": ["0" * 32]}
    final = {"codes": [0], "digests": [_digest(area.output)[0]]}
    failed, _ = run._check_passes([area], {"passes": [first, final]}, None)
    assert failed == 1


def test_packet_cross_check_rejects_unsound_interval(tmp_path):
    interval = _job(tmp_path, "packets", ["packets", "--family", "sin-exp-sq",
                                           "--n", "2..6", "--delta", "0.01"], "csv",
                    {"n_lo": 2, "n_hi": 6, "method": "interval"}, "interval")
    sampled = _job(tmp_path, "packets", ["packets", "--family", "sin-exp-sq",
                                         "--n", "2..4", "--delta", "0.01",
                                         "--method", "sampling", "--samples", "400"],
                   "csv", {"n_lo": 2, "n_hi": 4, "method": "sampling"}, "sampled")
    proved, sampled_res = check_output(interval), check_output(sampled)
    problems, frac = packet_cross_check(proved, sampled_res)
    assert problems == [] and 0.0 < frac <= 1.0
    sampled_res.columns["min_abs_fprime"][0] = math.nextafter(
        proved.columns["min_abs_fprime"][0], 0.0)
    problems, _ = packet_cross_check(proved, sampled_res)
    assert len(problems) == 1


def test_tracer_skips_missing_names_and_derives_self_time():
    from types import SimpleNamespace

    import spans

    def graph_area(*args):
        return quadrature.bound_abs_f_batch(None, [0.0, 1.0, 2.0])

    quadrature = SimpleNamespace(bound_abs_f_batch=lambda family, cells: (
        [float("-inf")] * 3, [float("inf"), 1.0, 1.0]))
    cli = SimpleNamespace(graph_area=graph_area)
    tracer = spans.Tracer()
    tracer.install({"cli": cli, "quadrature": quadrature,
                    "packets": SimpleNamespace()})
    assert "packets.bound_abs_f_batch" in tracer.skipped
    assert "cli.certify_packet" in tracer.skipped
    tracer.job = "job-1"
    tracer.call("cli.main", lambda: cli.graph_area(), None, (), {})
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["cli.main", "quadrature.graph_area", "families.bound_f@quadrature"]
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 1]
    assert {s[spans.JOB] for s in tracer.spans} == {"job-1"}
    m = spans.pass_metrics(tracer.spans, 0, 0)
    assert m["families.bound_f.calls"] == 1 and m["families.bound_f.cells"] == 3
    assert m["families.trivial_frac"] == 1 / 3
    kernel = tracer.spans[2]
    area = tracer.spans[1]
    expected = (area[spans.END] - area[spans.START]
                - (kernel[spans.END] - kernel[spans.START]) - kernel[spans.OVERHEAD])
    assert m["quadrature.self_s"] == expected
