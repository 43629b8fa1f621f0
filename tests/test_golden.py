"""Output digests of the schedule-audit commands at N = 3000.

The four commands the schedule-audit benchmark runs at N = 1e5 (a
Gaussian schedule as CSV, an exp and a Gaussian schedule as JSON with
query radii, and a plot of the CSV) run here at N = 3000, and each
output's sha256 must equal the digest recorded before the exact fits
took their Gram path.  A change that moves any output byte fails here;
if the move is intended, record the new digests and say old -> new in
CHANGES.md.
"""

import hashlib

import pytest

from graphgrowth import cli

# name: (argv without --output, sha256 of the output)
_GOLDEN = {
    "schedule-gaussian.csv": (
        ["schedule", "--variant", "gaussian", "--n0", "1", "--N", "3000", "--format", "csv"],
        "b7ec816ec9ca731e61b15d53175fd120254988046bb611d855cc690f787c1567"),
    "schedule-exp.json": (
        ["schedule", "--variant", "exp", "--n0", "12345", "--N", "3000", "--format", "json",
         "--query-R", "9.45,9.5,9.55,9.6"],
        "9cb48f6bfb0b32d667664ac7836dca5fd4116e31547b65f559cd7984bc80e063"),
    "schedule-gaussian.json": (
        ["schedule", "--variant", "gaussian", "--n0", "1", "--N", "3000", "--format", "json",
         "--query-R", "1.0,1.5,2.0,2.5"],
        "3ebf40c4a11aafc8dd5252bcbaba3c84b3f7737956c4e508675faa92fcc8cafa"),
    "plot-gaussian.svg": (
        ["plot", "--input", "schedule-gaussian.csv"],
        "89556ed3d29032686b5914c7e4308de75810976b3f511906e171dfe0cf1fdf2c"),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each command's output bytes, the CSV written before the plot reads it."""
    out = tmp_path_factory.mktemp("golden")
    data = {}
    for name, (argv, _) in _GOLDEN.items():
        argv = [str(out / arg) if arg in _GOLDEN else arg for arg in argv]
        assert cli.main([*argv, "--output", str(out / name)]) == 0
        data[name] = (out / name).read_bytes()
    return data


@pytest.mark.parametrize("name", list(_GOLDEN))
def test_schedule_audit_output_digest(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == _GOLDEN[name][1]
