"""The demos run clean: each exits 0 and writes nothing to stderr, with
numpy RuntimeWarnings turned into errors.

demos/plot_growth_curves.py is left out: it rewrites the tracked SVGs in
demos/out/, and a test must not change the checkout.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", [
    "area_growth_walkthrough.py",
    "packet_ledger.py",  # drives the certify_packet / make_packet list API
    "schedule_audit.py",
])
def test_demo_runs_clean(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


def test_schedule_audit_residuals_are_at_rounding_level():
    # the audit takes eps_{n+1} from the schedule's own column, so the
    # sigma equation holds to a few ulps for both radius variants
    proc = _run("schedule_audit.py")
    assert proc.returncode == 0, proc.stderr
    worst = re.findall(r"worst sigma residual (\S+)", proc.stdout)
    assert len(worst) == 2
    assert all(float(w) < 1e-14 for w in worst), worst


def _run(demo):
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(DEMOS / demo)],
        capture_output=True, text=True, timeout=300.0,
    )
