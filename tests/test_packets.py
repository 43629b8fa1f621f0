"""Disk packets: construction, certification, disjointness, counting.

The per-packet area quantum pi/4096 and the counting formula
floor(e^{r-2}/pi) are exact consequences of the packet layout; tests
check them to the bit where the arithmetic is closed-form.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from graphgrowth import (
    CertifyMethod,
    GraphFamily,
    GuardedResourceError,
    QuadConfig,
    QuadMode,
    SublevelDomain,
    certify_packet,
    certify_packets,
    count_packets_in_ball,
    graph_area,
    make_packet,
    packet_area_lower,
    packet_growth_lower_bound,
    verify_disjoint,
    verify_ez_minus_one_bound,
)
from graphgrowth import packets, quadrature
from graphgrowth.packets import DELTA_MAX, F_TARGET, fprime_target

from conftest import enclose_cells, run_cli

PI = math.pi


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_make_packet_sin_exp_n1():
    p = make_packet(GraphFamily.SIN_EXP, 1)
    assert p.center == math.log(PI)
    assert p.radius == 1.0 / (16 * PI)
    assert p.center == pytest.approx(1.14473, abs=1e-5)
    assert p.radius == pytest.approx(0.0198944, abs=1e-7)


def test_make_packet_sin_exp_n10():
    p = make_packet(GraphFamily.SIN_EXP, 10)
    assert p.center == math.log(10 * PI)
    assert p.radius == 1.0 / (160 * PI)


def test_make_packet_gaussian():
    p = make_packet(GraphFamily.SIN_EXP_SQ, 2, delta=0.01)
    assert p.center == math.sqrt(math.log(2 * PI))
    assert p.radius == 0.01 / (2 * math.sqrt(math.log(2)))
    # direct evaluation of the defining formulas (sqrt(log 2pi) rounds
    # to 1.35568, not 1.35535; the formula is the contract)
    assert p.center == pytest.approx(1.3556832470785147, rel=1e-12)
    assert p.radius == pytest.approx(0.006005, abs=1e-6)


def test_make_packet_rejections():
    with pytest.raises(ValueError):
        make_packet(GraphFamily.EXP, 1)
    with pytest.raises(ValueError):
        make_packet(GraphFamily.SIN_EXP, 0)
    with pytest.raises(ValueError):
        make_packet(GraphFamily.SIN_EXP_SQ, 1, delta=0.01)
    with pytest.raises(ValueError):
        make_packet(GraphFamily.SIN_EXP_SQ, 2)  # delta required
    with pytest.raises(ValueError):
        make_packet(GraphFamily.SIN_EXP_SQ, 2, delta=2 * DELTA_MAX)
    with pytest.raises(ValueError):
        make_packet(GraphFamily.SIN_EXP, 3, delta=0.01)  # no delta here


def test_fprime_targets():
    assert fprime_target(make_packet(GraphFamily.SIN_EXP, 4)) == PI
    p = make_packet(GraphFamily.SIN_EXP_SQ, 3, delta=0.01)
    assert fprime_target(p) == pytest.approx(PI * 3 * p.center / 2)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_certify_first_packet_interval():
    p = certify_packet(make_packet(GraphFamily.SIN_EXP, 1),
                       CertifyMethod.INTERVAL_PROOF)
    cert = p.certificate
    assert cert.method is CertifyMethod.INTERVAL_PROOF
    assert cert.f_bound_ok and cert.fprime_bound_ok
    assert cert.max_abs_f < F_TARGET
    assert cert.min_abs_fprime >= PI / 4
    assert cert.certified


def test_center_point_values():
    # sin(n pi) = 0 and |e^{z_n} cos(n pi)| = n pi at the packet center
    from graphgrowth import eval_f, eval_fprime
    for n in (1, 4, 9):
        c = math.log(n * PI)
        f = eval_f(GraphFamily.SIN_EXP, complex(c, 0.0))
        fp = eval_fprime(GraphFamily.SIN_EXP, complex(c, 0.0))
        assert f.magnitude < 1e-11
        assert fp.magnitude == pytest.approx(n * PI, rel=1e-12)


def _disk_samples_ring_loop(center, radius, count):
    """Reference: the center, then one ring at a time."""
    rings = max(4, int(math.sqrt(count)))
    per_ring = max(8, int(math.ceil((count - 1) / rings)))
    pts_re = [np.array([center])]
    pts_im = [np.array([0.0])]
    for j in range(1, rings + 1):
        rr = radius * j / rings
        theta = 2.0 * math.pi * np.arange(per_ring) / per_ring
        pts_re.append(center + rr * np.cos(theta))
        pts_im.append(rr * np.sin(theta))
    return np.concatenate(pts_re), np.concatenate(pts_im)


@pytest.mark.parametrize("count", [1, 17, 500, 10000])
def test_disk_samples_match_ring_loop(count):
    disks = [(p.center, p.radius) for p in
             [make_packet(GraphFamily.SIN_EXP, n) for n in (1, 7, 3000)]
             + [make_packet(GraphFamily.SIN_EXP_SQ, n, delta=0.01) for n in (2, 7, 3000)]]
    disks.append((0.0, 1.0 / (16.0 * PI * 5)))  # zero-centred, as in the e^zeta - 1 test
    for center, radius in disks:
        got = packets._disk_samples(center, radius, count)
        want = _disk_samples_ring_loop(center, radius, count)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.array_equal(g.view(np.int64), w.view(np.int64)), (center, count)


def test_certify_d50_dense_sampling():
    p = certify_packet(make_packet(GraphFamily.SIN_EXP, 50),
                       CertifyMethod.DENSE_SAMPLING, samples=10_000)
    cert = p.certificate
    assert cert.method is CertifyMethod.DENSE_SAMPLING
    assert cert.samples >= 10_000
    assert cert.f_bound_ok and cert.fprime_bound_ok


@pytest.mark.parametrize("n", [3, 17])
def test_sampling_bracketed_by_interval(n):
    # sampled extrema can never escape the rigorous enclosure
    base = make_packet(GraphFamily.SIN_EXP, n)
    ival = certify_packet(base, CertifyMethod.INTERVAL_PROOF).certificate
    dense = certify_packet(base, CertifyMethod.DENSE_SAMPLING,
                           samples=4000).certificate
    assert dense.max_abs_f <= ival.max_abs_f * (1 + 1e-12)
    assert dense.min_abs_fprime >= ival.min_abs_fprime * (1 - 1e-12)


def test_certify_gaussian_packets():
    for n in (2, 20, 200):
        p = certify_packet(make_packet(GraphFamily.SIN_EXP_SQ, n, delta=0.01),
                           CertifyMethod.INTERVAL_PROOF)
        assert p.certificate.certified, n


def test_certify_huge_n_reports_failed_proof():
    # e^z ~ n*pi = 3e13 lies beyond the enclosure kernels' trig argument
    # limit, so the proof cannot close; it must say so, not fall back
    p = certify_packet(make_packet(GraphFamily.SIN_EXP, 10**13),
                       CertifyMethod.INTERVAL_PROOF)
    assert p.certificate.method is CertifyMethod.INTERVAL_PROOF
    assert p.certificate.certified is False
    assert p.certificate.samples == 0
    proc = run_cli("packets", "--family", "sin-exp", "--n", str(10**13))
    assert proc.returncode == 0
    row = proc.stdout.splitlines()[1].split(",")
    assert row[0] == str(10**13)
    assert "false" in row[5:7]


def _grid_edges_one_packet(p, grid=8):
    """x edges and y edges (relative to the center) of one packet's
    grid-8 box, the outer edges moved outward until they enclose the
    disk."""
    edges = p.center - p.radius + 2.0 * p.radius * np.arange(grid + 1) / grid
    ys = edges - p.center
    edges[0] = np.nextafter(p.center - p.radius, -np.inf)
    edges[-1] = max(edges[-1], np.nextafter(p.center + p.radius, np.inf))
    ys[0], ys[-1] = min(ys[0], -p.radius), max(ys[-1], p.radius)
    return edges, ys


def _extrema_on_cells(p, xlo, xhi, ylo, yhi):
    """The rounded-outward extrema of one packet over the cells among
    the given ones that meet its disk, from one enclosure call."""
    dx = np.maximum(0.0, np.maximum(xlo - p.center, p.center - xhi))
    dy = np.maximum(0.0, np.maximum(ylo, -yhi))
    keep = (packets._nudge_down(dx * dx + dy * dy)
            <= packets._nudge_up(p.radius * p.radius))
    cells = xlo[keep], xhi[keep], ylo[keep], yhi[keep]
    _, f_hi, fp_lo, _ = enclose_cells(p.family, *cells)
    max_f = float(packets._nudge_up(np.exp(np.max(f_hi))))
    min_fp = float(np.maximum(packets._nudge_down(np.exp(np.min(fp_lo))), 0.0))
    return max_f, min_fp


def _full_disk_extrema_one_packet(p):
    """Reference: the grid-8 interval proof of one packet over the whole
    disk, as certified before the half cover."""
    edges, ys = _grid_edges_one_packet(p)
    return _extrema_on_cells(p, np.repeat(edges[:-1], 8), np.repeat(edges[1:], 8),
                             np.tile(ys[:-1], 8), np.tile(ys[1:], 8))


def _proof_extrema_one_packet(p):
    """Reference: the grid-8 interval proof of one packet on its own, one
    enclosure call per packet, over the 4 upper rows, each the hull of
    itself and the mirror image of its lower partner."""
    edges, ys = _grid_edges_one_packet(p)
    rows = [(min(ys[4 + j], -ys[4 - j]), max(ys[5 + j], -ys[3 - j])) for j in range(4)]
    ylo, yhi = (np.tile(np.array(side), 8) for side in zip(*rows))
    return _extrema_on_cells(p, np.repeat(edges[:-1], 4), np.repeat(edges[1:], 4),
                             ylo, yhi)


@pytest.mark.parametrize("family, n_lo, delta", [
    (GraphFamily.SIN_EXP, 1, None),
    (GraphFamily.SIN_EXP_SQ, 2, 0.01),
])
def test_disk_cells_cover_disk_exactly(family, n_lo, delta):
    # in exact rational arithmetic, per packet: the kept cells are cells
    # of one grid of gapless columns and of rows that start at or below
    # 0 and overlap or touch up to the top; the outer edges enclose the
    # upper half disk; and every grid cell that meets the closed disk is
    # kept.  So the kept cells and their mirror images in the real axis
    # cover the closed disk.
    grid = packets._PROOF_GRID
    centers, radii = packets._layout(family, n_lo, 3000, delta)
    col_edges, row_edges, (col, row), counts = packets._disk_cells(centers, radii, grid)
    xlo, xhi = col_edges[:, col]
    ylo, yhi = row_edges[:, row]
    ends = np.cumsum(counts).tolist()
    uncovered = []
    for n, c, r, end, count in zip(range(n_lo, 3001), centers.tolist(),
                                   radii.tolist(), ends, counts.tolist()):
        part = slice(end - count, end)
        cells = set(zip(xlo[part].tolist(), xhi[part].tolist(),
                        ylo[part].tolist(), yhi[part].tolist()))
        xs = sorted(set(xlo[part].tolist()) | set(xhi[part].tolist()))
        rows = sorted(set(zip(ylo[part].tolist(), yhi[part].tolist())))
        assert len(xs) == grid + 1 and len(rows) == grid // 2, n
        assert cells <= {(a, b, e, f) for a, b in zip(xs, xs[1:])
                         for e, f in rows}, n
        C, R = Fraction(c), Fraction(r)
        X = list(map(Fraction, xs))
        Y = [(Fraction(e), Fraction(f)) for e, f in rows]
        dx2 = [max(0, a - C, C - b) ** 2 for a, b in zip(X, X[1:])]
        dy2 = [max(0, e, -f) ** 2 for e, f in Y]
        missed = [(i, j) for i in range(grid) for j in range(grid // 2)
                  if dx2[i] + dy2[j] <= R * R
                  and (xs[i], xs[i + 1], *rows[j]) not in cells]
        rows_gapless = (Y[0][0] <= 0 and Y[-1][1] >= R
                        and all(lo <= hi for (_, hi), (lo, _) in zip(Y, Y[1:])))
        if missed or not (X[0] <= C - R and X[-1] >= C + R and rows_gapless):
            uncovered.append(n)
    assert not uncovered, f"{len(uncovered)} disks not covered, first {uncovered[:5]}"


@pytest.mark.parametrize("family, n_lo, delta", [
    (GraphFamily.SIN_EXP, 1, None),
    (GraphFamily.SIN_EXP_SQ, 2, 0.01),
])
def test_half_cover_certificates_are_conservative(family, n_lo, delta):
    # each half-cover cell contains two full-disk cells that return the
    # same bits, so a certificate can move only to the conservative side:
    # max |f| up, min |f'| down, and on these ranges no flag changes
    centers, radii = packets._layout(family, n_lo, 3000, delta)
    ns = np.arange(n_lo, 3001, dtype=float)
    columns = packets._certify_columns(family, ns, centers, radii,
                                       CertifyMethod.INTERVAL_PROOF, 0)
    wrong = []
    for n, max_f, min_fp, f_ok, fp_ok in zip(range(n_lo, 3001),
                                             *(c.tolist() for c in columns)):
        p = make_packet(family, n, delta)
        full_f, full_fp = _full_disk_extrema_one_packet(p)
        if not (max_f >= full_f and min_fp <= full_fp
                and f_ok == (full_f < F_TARGET)
                and fp_ok == (full_fp >= fprime_target(p))):
            wrong.append(n)
    assert not wrong, f"{len(wrong)} certificates moved the wrong way, first {wrong[:5]}"


def test_batched_certificates_match_single_packets():
    # both ranges span more than two groups, and the mixed list makes the
    # batch split at the family change as well as at group boundaries
    ns_se = range(1, 601)
    ns_sq = range(2, 601)
    assert len(ns_sq) > 2 * packets._CERTIFY_GROUP
    ledger = ([make_packet(GraphFamily.SIN_EXP, n) for n in ns_se]
              + [make_packet(GraphFamily.SIN_EXP_SQ, n, delta=0.01) for n in ns_sq])
    batch = certify_packets(ledger, CertifyMethod.INTERVAL_PROOF)
    assert [p.n for p in batch] == [p.n for p in ledger]
    for base, got in zip(ledger, batch):
        assert got == certify_packet(base, CertifyMethod.INTERVAL_PROOF), base.n
        cert = got.certificate
        assert (cert.max_abs_f, cert.min_abs_fprime) == _proof_extrema_one_packet(base)
        assert cert.certified, base.n


def _sampled_extrema_one_packet(p, samples):
    """Reference: the sampled extrema of one packet on its own, with the
    number of points taken."""
    zre, zim = packets._disk_samples(p.center, p.radius, samples)
    log_f, log_fp = packets.log_abs_f_fprime_batch(p.family, zre, zim)
    return float(np.exp(np.max(log_f))), float(np.exp(np.min(log_fp))), int(zre.size)


# the first index whose interval proof fails, for both families
FAILED_PROOF_N = 318309886184


@pytest.mark.parametrize("method, samples", [
    (CertifyMethod.INTERVAL_PROOF, 10000),
    (CertifyMethod.DENSE_SAMPLING, 40),
])
def test_columnar_certifier_matches_certify_packets(method, samples):
    # the list API and the columns the CLI reads agree field for field and
    # with a one-packet reference; the columns are cut at offset 7, off
    # the list API's _CERTIFY_GROUP grid, and the ledger changes family
    ledger = ([make_packet(GraphFamily.SIN_EXP, n) for n in range(1, 301)]
              + [make_packet(GraphFamily.SIN_EXP, FAILED_PROOF_N)]
              + [make_packet(GraphFamily.SIN_EXP_SQ, n, delta=0.01) for n in range(2, 301)]
              + [make_packet(GraphFamily.SIN_EXP_SQ, FAILED_PROOF_N, delta=0.01)])
    listed = certify_packets(ledger, method, samples)
    assert [p.n for p in listed] == [p.n for p in ledger]
    for family in (GraphFamily.SIN_EXP, GraphFamily.SIN_EXP_SQ):
        run = [(p, got) for p, got in zip(ledger, listed) if p.family is family]
        assert len(run) > packets._CERTIFY_GROUP + 7
        for part in (run[:7], run[7:]):
            columns = packets._certify_columns(
                family, np.array([float(p.n) for p, _ in part]),
                np.array([p.center for p, _ in part]),
                np.array([p.radius for p, _ in part]), method, samples)
            for (p, got), *fields in zip(part, *(c.tolist() for c in columns)):
                cert = got.certificate
                assert got == replace(p, certificate=cert)
                assert [cert.max_abs_f, cert.min_abs_fprime,
                        cert.f_bound_ok, cert.fprime_bound_ok] == fields, p.n
                assert (cert.method, cert.f_target, cert.fprime_target) == (
                    method, F_TARGET, fprime_target(p))
                if method is CertifyMethod.INTERVAL_PROOF:
                    assert fields[:2] == list(_proof_extrema_one_packet(p)), p.n
                    assert cert.samples == 0
                    assert cert.certified == (p.n != FAILED_PROOF_N), p.n
                else:
                    want = _sampled_extrema_one_packet(p, samples)
                    assert (*fields[:2], cert.samples) == want, p.n


@pytest.mark.parametrize("samples", [0, -1, 2.5])
def test_sampling_refuses_bad_sample_counts(samples):
    p = make_packet(GraphFamily.SIN_EXP, 3)
    with pytest.raises(ValueError, match="samples must be a positive integer"):
        certify_packet(p, CertifyMethod.DENSE_SAMPLING, samples=samples)
    # the interval proof takes no samples
    assert certify_packet(p, samples=samples).certificate.certified


def test_sampling_refuses_counts_past_the_budget():
    # _ring_layout checks the count before any point is allocated
    budget = quadrature._SAMPLE_BUDGET
    assert packets._ring_layout(budget) == (1024, 1024)
    p = make_packet(GraphFamily.SIN_EXP, 3)
    for count in (budget + 1, 10**400):
        with pytest.raises(GuardedResourceError, match="over the budget"):
            certify_packet(p, CertifyMethod.DENSE_SAMPLING, samples=count)
        # the interval proof takes no samples
        assert certify_packet(p, samples=count).certificate.certified


def test_certify_packets_sampling_on_request_only():
    ledger = [make_packet(GraphFamily.SIN_EXP, n) for n in (3, 4)]
    sampled = certify_packets(ledger, CertifyMethod.DENSE_SAMPLING, samples=500)
    assert [p.certificate.method for p in sampled] == [CertifyMethod.DENSE_SAMPLING] * 2
    assert all(p.certificate.samples >= 500 for p in sampled)
    assert [p.certificate.method for p in certify_packets(ledger)] == \
        [CertifyMethod.INTERVAL_PROOF] * 2


def test_certify_rejects_exp():
    import dataclasses
    p = make_packet(GraphFamily.SIN_EXP, 1)
    fake = dataclasses.replace(p, family=GraphFamily.EXP)
    with pytest.raises(ValueError):
        certify_packet(fake)


# ---------------------------------------------------------------------------
# |e^zeta - 1| bound on the packet scale
# ---------------------------------------------------------------------------

def test_ez_minus_one_bound():
    assert verify_ez_minus_one_bound(1)
    assert verify_ez_minus_one_bound(100)


@pytest.mark.parametrize("n", [1, 100, 10**6])
def test_ez_minus_one_sampled_maximum_below_closed_form(n, monkeypatch):
    # the ring sample the check once took stays at or below the closed form
    # e^rho - 1.  e^zeta - 1 is evaluated as expm1(x) cos y - 2 sin^2(y/2)
    # + i e^x sin y: np.exp(zeta) - 1.0 cancels and overshoots, by 5e-9
    # relative at n = 10^6
    rho = make_packet(GraphFamily.SIN_EXP, n).radius
    x, y = packets._disk_samples(0.0, rho, 10_000)
    sampled = np.hypot(np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2,
                       np.exp(x) * np.sin(y))
    assert sampled.max() <= packets._nudge_up(math.expm1(rho))
    # the check is not vacuous: a disk 4 times as wide fails it
    wide = replace(make_packet(GraphFamily.SIN_EXP, n), radius=4.0 * rho)
    monkeypatch.setattr(packets, "make_packet", lambda family, n: wide)
    assert not verify_ez_minus_one_bound(n)


def test_ez_minus_one_boundary_arithmetic():
    # t e^t < 1/(4 pi n) at t = 1/(16 pi n): the bound has slack 4 e^{-t}
    for n in (1, 10, 1000):
        t = 1.0 / (16 * PI * n)
        assert t * math.exp(t) < 1.0 / (4 * PI * n)


# ---------------------------------------------------------------------------
# disjointness
# ---------------------------------------------------------------------------

def test_disjoint_sin_exp_1000():
    rep = verify_disjoint(GraphFamily.SIN_EXP, 1, 1000)
    assert rep.all_disjoint
    assert rep.min_gap > 0
    assert rep.n_lo == 1 and rep.n_hi == 1000


def test_disjoint_gap_5_6():
    rep = verify_disjoint(GraphFamily.SIN_EXP, 5, 6)
    want = math.log(6 / 5) - (1 / (80 * PI) + 1 / (96 * PI))
    assert rep.min_gap == pytest.approx(want, rel=1e-12)
    assert rep.min_gap > 0


def test_disjoint_degenerate_range():
    rep = verify_disjoint(GraphFamily.SIN_EXP, 5, 5)
    assert rep.all_disjoint
    assert rep.min_gap == float("inf")


def test_disjoint_gaps_per_adjacent_pair():
    rep = verify_disjoint(GraphFamily.SIN_EXP, 5, 9)
    assert rep.gaps.shape == (4,)
    assert rep.min_gap == float(np.min(rep.gaps))
    assert rep.gaps[0] == pytest.approx(math.log(6 / 5) - (1 / (80 * PI) + 1 / (96 * PI)),
                                        rel=1e-12)
    assert verify_disjoint(GraphFamily.SIN_EXP, 5, 5).gaps.size == 0


def test_disjoint_gaussian():
    rep = verify_disjoint(GraphFamily.SIN_EXP_SQ, 2, 200, delta=0.01)
    assert rep.all_disjoint
    assert rep.min_gap > 0


def test_disjoint_large_range():
    rep = verify_disjoint(GraphFamily.SIN_EXP, 1, 100_000)
    assert rep.all_disjoint


@pytest.mark.parametrize("family, n_lo, delta", [
    (GraphFamily.SIN_EXP, 1, None),
    (GraphFamily.SIN_EXP_SQ, 2, 0.01),
])
def test_disjoint_gaps_match_make_packet(family, n_lo, delta):
    # one layout serves both: the gaps are those of the printed packets,
    # bit for bit, on every host
    n_hi = 100_000
    ledger = [make_packet(family, n, delta) for n in range(n_lo, n_hi + 1)]
    centers, radii = packets._layout(family, n_lo, n_hi, delta)
    assert centers.tolist() == [p.center for p in ledger]
    assert radii.tolist() == [p.radius for p in ledger]
    want = np.array([b.center - a.center - b.radius - a.radius
                     for a, b in zip(ledger, ledger[1:])])
    got = verify_disjoint(family, n_lo, n_hi, delta).gaps
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _no_np_log(*args, **kwargs):
    raise AssertionError("the packet layout must take its logs from libm")


def test_layout_takes_no_numpy_log(monkeypatch):
    monkeypatch.setattr(np, "log", _no_np_log)
    for family, n_lo, delta in ((GraphFamily.SIN_EXP, 1, None),
                                (GraphFamily.SIN_EXP_SQ, 2, 0.01)):
        packets._layout(family, n_lo, 500, delta)
        assert verify_disjoint(family, n_lo, 500, delta).all_disjoint
        assert count_packets_in_ball(family, 4.0, delta) > 0
        assert packet_growth_lower_bound(family, 4.0, delta) > 0


def test_sin_exp_refuses_delta():
    # one validation rule: a delta is refused for sin(e^z) everywhere
    with pytest.raises(ValueError, match="delta"):
        verify_disjoint(GraphFamily.SIN_EXP, 1, 5, delta=0.01)
    with pytest.raises(ValueError, match="delta"):
        count_packets_in_ball(GraphFamily.SIN_EXP, 6.0, delta=0.01)
    with pytest.raises(ValueError, match="delta"):
        count_packets_in_ball(GraphFamily.SIN_EXP, 1.0, delta=0.01)
    with pytest.raises(ValueError, match="delta"):
        packet_growth_lower_bound(GraphFamily.SIN_EXP, 6.0, delta=0.01)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_count_examples():
    assert count_packets_in_ball(GraphFamily.SIN_EXP, 2 + math.log(5 * PI)) == 5
    assert count_packets_in_ball(GraphFamily.SIN_EXP, 4.0) == 2
    assert count_packets_in_ball(GraphFamily.SIN_EXP, 1.0) == 0


def test_count_matches_exact_predicate():
    # count is the largest n with log(n pi) + 2 <= r, no fencepost slips
    for r in np.linspace(2.5, 9.0, 40):
        n = count_packets_in_ball(GraphFamily.SIN_EXP, float(r))
        if n > 0:
            assert math.log(n * PI) + 2 <= r
        assert math.log((n + 1) * PI) + 2 > r


def test_count_exponential_trend():
    for r in np.linspace(6.0, 14.0, 17):
        n = count_packets_in_ball(GraphFamily.SIN_EXP, float(r))
        assert abs(math.log(n) - (r - 2 - math.log(PI))) <= math.log(2)


def test_count_gaussian_trend():
    rs = [2.5, 3.0, 3.5, 4.0, 4.5]
    ratios = [math.log(count_packets_in_ball(GraphFamily.SIN_EXP_SQ, r, delta=0.01)) / r**2
              for r in rs]
    mid = sum(ratios) / len(ratios)
    for q in ratios:
        assert abs(q - mid) <= 0.15 * mid


@pytest.mark.parametrize("family, r, delta", [
    (GraphFamily.SIN_EXP, 800.0, None),  # e^(r-2) overflows a double
    (GraphFamily.SIN_EXP_SQ, 300.0, 0.01),  # more than 10**18 packets
])
def test_count_huge_radius_raises_value_error(family, r, delta):
    with pytest.raises(ValueError, match=f"r = {r}"):
        count_packets_in_ball(family, r, delta)
    with pytest.raises(ValueError, match=f"r = {r}"):
        packet_growth_lower_bound(family, r, delta)


# ---------------------------------------------------------------------------
# per-packet area and the growth lower bound
# ---------------------------------------------------------------------------

def test_packet_area_exact_quantum():
    for n in (1, 7):
        p = certify_packet(make_packet(GraphFamily.SIN_EXP, n))
        assert packet_area_lower(p) == PI / 4096


def test_packet_area_rejects_uncertified():
    with pytest.raises(ValueError):
        packet_area_lower(make_packet(GraphFamily.SIN_EXP, 1))


def test_packet_area_gaussian_positive():
    p = certify_packet(make_packet(GraphFamily.SIN_EXP_SQ, 2, delta=0.01))
    val = packet_area_lower(p)
    assert 0 < val < PI * p.radius**2 * p.certificate.min_abs_fprime**2 * (1 + 1e-12)


def test_growth_lower_bound_r6():
    got = packet_growth_lower_bound(GraphFamily.SIN_EXP, 6.0)
    assert got == 17 * PI / 4096
    assert got == pytest.approx(0.01304, abs=1e-5)


def test_growth_lower_bound_r1():
    assert packet_growth_lower_bound(GraphFamily.SIN_EXP, 1.0) == 0.0


def test_growth_lower_bound_exceeds_smooth_curve():
    for r in np.linspace(3.0, 12.0, 19):
        got = packet_growth_lower_bound(GraphFamily.SIN_EXP, float(r))
        floor_gap = (PI / 4096) * (math.exp(r - 2) / PI - 1)
        assert got >= floor_gap


@pytest.mark.parametrize("r", [3.5, 4.2, 5.0])
def test_growth_lower_bound_vs_quadrature(r):
    # packet mass is a tiny part of the certified area
    packets = packet_growth_lower_bound(GraphFamily.SIN_EXP, r)
    quad = graph_area(SublevelDomain(GraphFamily.SIN_EXP, r),
                      QuadConfig(mode=QuadMode.LOWER_BOUND, max_depth=12)).lower
    assert packets <= quad + 1e-12


def test_growth_lower_bound_gaussian():
    v3 = packet_growth_lower_bound(GraphFamily.SIN_EXP_SQ, 3.0, delta=0.01)
    v4 = packet_growth_lower_bound(GraphFamily.SIN_EXP_SQ, 4.0, delta=0.01)
    assert 0 < v3 < v4
    assert v3 == pytest.approx(34.530399254982811, rel=1e-12)
