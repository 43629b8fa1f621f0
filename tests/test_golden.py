"""Output digests of every writer of the command line.

The four commands the schedule-audit benchmark runs at N = 1e5 (a
Gaussian schedule as CSV, an exp and a Gaussian schedule as JSON with
query radii, and a plot of the CSV) run here at N = 3000, and each
output's sha256 must equal the digest recorded before the exact fits
took their Gram path.  Small area tables (each family in both modes),
packet ledgers (both families, both methods) and growth fits have
digests recorded before the table text became bytes.  A change that
moves any output byte fails here; if the move is intended, record the
new digests and say old -> new in CHANGES.md.
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


_AREA = [  # family, radius, mode, sha256
    ("exp", "4.5", "lower", "53a34bb433a6a4cf1de65275324f935a622324a1141c6e6cc4cbccdd6de85d5c"),
    ("exp", "4.5", "estimate", "efca67700791e566a649a9f837a5c7db5095f806cdece1a44fb8519bb619f762"),
    ("sin-exp", "3.2", "lower",
     "bf881ee1cb6d4bb4fe3641c95361bc0f032f01c61fc85e3716ec7813ca808d0b"),
    ("sin-exp", "3.2", "estimate",
     "4623f27532e3c93af4a44e101ee305ff36c78822f62d9bb812afb55d3fcfc44b"),
    ("sin-exp-sq", "2.1", "lower",
     "c59da9adcd49f63451773510ec191a16bd9601439e484e435217bb6c4975d202"),
    ("sin-exp-sq", "2.1", "estimate",
     "bbe56273677fa239a4e54a4e16e5e9ecdd4c88b0e2765954e207cf2e2ecafeb3"),
]
_PACKETS = [  # family, method, sha256
    ("sin-exp", "interval", "692b2aac9e8754962506db9705407be5b3f675816f397dd0fa7952399e9c2481"),
    ("sin-exp", "sampling", "5dce11be4f15dfa5e6b8b9045b84f4ed58a8fec0274a61d1d5872f12aa8f6d4f"),
    ("sin-exp-sq", "interval", "f3eaa18ffbcd09a22c21c436a8c063ef430ec245e1e5c0f1cccc9a2e6ce5db75"),
    ("sin-exp-sq", "sampling", "314fead392d743c418fed6a3574651f1699d5c0be3b2152582b1f161fbd07e52"),
]

# name: (argv without --output, sha256 of the output)
_WRITERS = {
    **{f"area-{family}-{mode}.csv": (
        ["area", "--family", family, "--r", r, "--mode", mode, "--max-depth", "8"], digest)
       for family, r, mode, digest in _AREA},
    **{f"packets-{family}-{method}.csv": (
        ["packets", "--family", family, "--n", "3..22", "--method", method, "--samples", "2000",
         *(["--delta", "0.01"] if family == "sin-exp-sq" else [])], digest)
       for family, method, digest in _PACKETS},
    "growth-exp.json": (
        ["growth", "--family", "exp", "--r", "2,4,8,16", "--max-depth", "6", "--format", "json"],
        "519950110b2a49aa2ef765705210127cd110940f371f270ec7ffdf01bb28eb6b"),
    "growth-sin-exp.json": (
        ["growth", "--family", "sin-exp", "--r", "4,6,8,10", "--format", "json"],
        "8f9e28a047361ffed4727c8bc5e8629044d8ef11d5a2cafa36f4c0f3d16ec168"),
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


@pytest.mark.parametrize("name", list(_WRITERS))
def test_writer_output_digest(tmp_path, name):
    argv, digest = _WRITERS[name]
    assert cli.main([*argv, "--output", str(tmp_path / name)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
