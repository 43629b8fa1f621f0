"""Disk packets: certified area quanta along the real axis.

Both oscillatory families carry a sequence of small real-centered disks
("packets") on which |f| stays uniformly small while |f'| is uniformly
large.  Each packet therefore contributes a guaranteed chunk of graph
area as soon as its graph image lies inside the ball B_r, and counting
packets inside B_r gives certified lower bounds for area growth.

Packet layout:

  sin(e^z):     center log(n*pi), radius 1/(16*pi*n), n >= 1.
                On these disks |f| < 2 and |f'| >= pi*n/4, so each packet
                contributes at least (pi*n/4)^2 * pi * radius^2, which is
                exactly pi/4096 independent of n.  Writing z = c_n + zeta,
                e^z = n*pi*e^zeta, and the power series gives
                |e^zeta - 1| <= e^|zeta| - 1 < 1/(4*pi*n) on the disk, so
                e^z stays within 1/4 of n*pi;
                verify_ez_minus_one_bound checks this closed form with
                directed rounding.

  sin(e^(z^2)): center sqrt(log(n*pi)), radius delta/(n*sqrt(log n)),
                n >= 2, delta <= 0.01.  Writing z = c_n + zeta, the inner
                exponent is n*pi*e^q with q = zeta*(zeta + 2*c_n), and
                |q| <= t_n := radius*(radius + 2*c_n).  The elementary
                chain |n*pi*(e^q - 1)| <= n*pi*|q|*e^|q| and
                |cos(u) - 1| <= |u|*sinh|u| then yields closed-form
                certified bounds for max |f| and min |f'| on the disk.

  e^z:          strictly monotone magnitude, no packet structure; packet
                constructors reject this family.

Certification runs either by rigorous interval enclosures over the
upper half of an 8x8 subdivision of the disk's bounding box
(IntervalProof) or, when the caller asks for it, by dense sampling
(DenseSampling, not rigorous, reported as such).  |f| and |f'| are even
in Im z for both families, so the 4 upper rows decide the certificate,
each cell widened to also hold the mirror image of its lower partner.
Interval proofs run batched: the disk cells of a fixed-size group of
packets, as edge tables and (column, row) addresses, go through the
cell kernel for both bounds, in the array-wide style of Rump, "Fast
and parallel interval arithmetic", BIT 39 (1999).  A proof that does
not close is reported as a failed IntervalProof, never replaced by
sampling.  For both families this happens from n = 318309886184 on:
there the inner argument n*pi passes the enclosure kernels'
trigonometric argument limit (1e12) and the enclosures turn trivial.

One columnar certifier, _certify_columns, does both methods: it returns
max |f|, min |f'| and both flags as arrays over a run of same-family
packets.  The CLI ledger reads those columns directly; certify_packets
wraps them in DiskPacket objects for the list API only.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace
from enum import Enum
from itertools import groupby

import numpy as np

from .families import (
    GraphFamily,
    _column_terms,
    _enclose_f,
    _enclose_fprime,
    _nudge_down,
    _nudge_up,
    _row_terms,
    log_abs_f_fprime_batch,
)
from .quadrature import _SAMPLE_BUDGET, GuardedResourceError

__all__ = [
    "DELTA_MAX",
    "F_TARGET",
    "CertifyMethod",
    "PacketCertificate",
    "DiskPacket",
    "DisjointnessReport",
    "make_packet",
    "fprime_target",
    "certify_packet",
    "certify_packets",
    "verify_ez_minus_one_bound",
    "verify_disjoint",
    "count_packets_in_ball",
    "packet_area_lower",
    "packet_growth_lower_bound",
]

# Packet |f| must stay strictly below this on every packet disk.
F_TARGET = 2.0

# Largest admissible delta for the Gaussian-type family packets; the
# closed-form margin analysis below needs t_n small, which this enforces.
DELTA_MAX = 1e-2

# Interval proofs subdivide each packet's bounding box into
# _PROOF_GRID^2 cells and enclose the upper half of them, widened to
# their mirror partners (_disk_cells): 30 cells per packet meet the
# disk.  Finer grids never certified a packet that grid 8 left unproved.
_PROOF_GRID = 8

# Packets per batched pass of the cell kernel: enough to amortise the
# per-call overhead, few enough that the group's cells (~7.7k at 30 per
# packet) add under a megabyte to peak memory.  256 ran the certifier
# 5-10% faster than 128 on 1000-2000 packets, and 384 no faster.
_CERTIFY_GROUP = 256

# Most packets one ledger (packets --n lo..hi) may hold, 500 times the
# benchmark's 2000 packets.  A 2e5-packet interval ledger peaked at
# 50 MB of resident memory, about 100 bytes per packet; past the budget
# the ledger would grow memory until the host kills the process.
_PACKET_BUDGET = 1 << 20


class CertifyMethod(Enum):
    INTERVAL_PROOF = "IntervalProof"
    DENSE_SAMPLING = "DenseSampling"


@dataclass(frozen=True)
class PacketCertificate:
    """Outcome of checking the packet bounds |f| < f_target and
    |f'| >= fprime_target over the packet disk.

    For INTERVAL_PROOF the extrema are rigorous enclosure endpoints; for
    DENSE_SAMPLING they are observed sample extrema and the certificate
    is only evidence, not proof.
    """

    n: int
    method: CertifyMethod
    max_abs_f: float
    min_abs_fprime: float
    f_target: float
    fprime_target: float
    f_bound_ok: bool
    fprime_bound_ok: bool
    samples: int = 0

    @property
    def certified(self) -> bool:
        return (
            self.f_bound_ok
            and self.fprime_bound_ok
            and self.method is CertifyMethod.INTERVAL_PROOF
        )


@dataclass(frozen=True)
class DiskPacket:
    family: GraphFamily
    n: int
    center: float
    radius: float
    delta: float | None = None
    certificate: PacketCertificate | None = None

    def __post_init__(self) -> None:
        if self.radius <= 0 or not math.isfinite(self.radius):
            raise ValueError("packet radius must be positive and finite")
        if self.center <= 0:
            raise ValueError("packet centers lie on the positive real axis")


@dataclass(frozen=True)
class DisjointnessReport:
    family: GraphFamily
    n_lo: int
    n_hi: int
    all_disjoint: bool
    min_gap: float
    # gaps[i] separates packets n_lo+i and n_lo+i+1
    gaps: np.ndarray


def _layout(family: GraphFamily, n_lo: int, n_hi: int,
            delta: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Centers and radii of packets n_lo..n_hi as float arrays: the one
    place the layout in the module docstring is written.

    Every check on the family, the indices, delta and the packet count
    (against _PACKET_BUDGET) runs before any float array is built.  The
    logs come from libm, once per packet, and the rest is IEEE-exact
    numpy arithmetic, so each element equals the scalar formula bit for
    bit, on any host with the same libm.
    """
    if family is GraphFamily.EXP:
        raise ValueError("e^z has monotone magnitude and no packet structure")
    if n_hi > sys.float_info.max / math.pi:
        raise ValueError("packet index too large: n*pi overflows a double")
    if family is GraphFamily.SIN_EXP:
        if n_lo < 1:
            raise ValueError("sin(e^z) packets start at n=1")
        if delta is not None:
            raise ValueError("delta applies only to the sin(e^(z^2)) family")
    else:
        if n_lo < 2:
            raise ValueError("sin(e^(z^2)) packets start at n=2")
        if delta is None:
            raise ValueError("sin(e^(z^2)) packets require delta")
        if not (0 < delta <= DELTA_MAX):
            raise ValueError(f"delta must lie in (0, {DELTA_MAX}], got {delta}")
    if n_hi - n_lo + 1 > _PACKET_BUDGET:
        raise GuardedResourceError(
            f"{n_hi - n_lo + 1} packets, over the budget of {_PACKET_BUDGET}; "
            "shorten the range")
    ns = np.fromiter(map(float, range(n_lo, n_hi + 1)), float)
    log_npi = np.fromiter(map(math.log, (ns * math.pi).tolist()), float, ns.size)
    if family is GraphFamily.SIN_EXP:
        return log_npi, 1.0 / (16.0 * math.pi * ns)
    log_n = np.fromiter(map(math.log, ns.tolist()), float, ns.size)
    return np.sqrt(log_npi), delta / (ns * np.sqrt(log_n))


def make_packet(family: GraphFamily, n: int, delta: float | None = None) -> DiskPacket:
    """Construct the n-th packet disk (without certificate)."""
    centers, radii = _layout(family, n, n, delta)
    return DiskPacket(family, n, float(centers[0]), float(radii[0]), delta)


def fprime_target(packet: DiskPacket) -> float:
    """Required lower bound for |f'| on the packet disk."""
    if packet.family is GraphFamily.SIN_EXP:
        return math.pi * packet.n / 4.0
    return math.pi * packet.n * packet.center / 2.0


def _gaussian_margins(packet: DiskPacket) -> tuple[float, float, float, float]:
    """Closed-form margins of a sin(e^(z^2)) packet.

    Returns (t, U, max_f, min_cos) where t bounds |q| on the disk,
    U = n*pi*t*e^t bounds the inner-argument drift u away from the hit
    point n*pi, max_f = sinh(U) >= max |f| (since |sin u| <= sinh|u|
    termwise), and min_cos = c_n = 1 - U*sinh(U) is the certified lower
    bound for |cos(n*pi + u)| = |cos u| via |cos u - 1| <= |u|*sinh|u|.
    """
    t = packet.radius * (packet.radius + 2.0 * packet.center)
    U = math.pi * packet.n * t * math.exp(t)
    max_f = math.sinh(U)
    c = max(0.0, 1.0 - U * math.sinh(U))
    return t, U, max_f, c


def _disk_cells(centers: np.ndarray, radii: np.ndarray, grid: int):
    """(xs, ys, cells, counts): upper-half cells of each packet disk as
    (2, P*grid) column and (2, P*(grid // 2)) row edge tables, the (2, n)
    (column, row) addresses of the kept cells, packet by packet and
    column by column, and the number of cells kept per packet.

    Take an even grid x grid subdivision of each packet's bounding
    box, with h = grid // 2 rows above its middle edge and y edges ys
    relative to the center.  Upper row j (0 <= j < h) becomes the hull
    of itself and the mirror image of its lower partner, from
    min(ys[h+j], -ys[h-j]) to max(ys[h+j+1], -ys[h-j-1]), so each of its
    cells contains both of the cells it replaces.  |f| and |f'| are
    even in Im z, so the kept cells decide the certificate: with their
    mirror images they cover the closed disk in exact arithmetic.  The
    outermost edges move outward only: x to the next double past
    c -/+ r, y to exactly -r and r where the rounded edge falls inside,
    so no cell shrinks.  Adjacent columns share their edges, adjacent
    rows share or overlap theirs, and a cell is dropped only when its
    distance from the center, rounded down, exceeds the radius, rounded
    up.
    """
    c = centers[:, None]
    r = radii[:, None]
    edges = c - r + 2.0 * r * np.arange(grid + 1) / grid
    ys = edges - c
    edges[:, 0] = np.nextafter(edges[:, 0], -np.inf)  # c - r, rounded
    edges[:, -1] = np.maximum(edges[:, -1], np.nextafter(centers + radii, np.inf))
    ys[:, 0] = np.minimum(ys[:, 0], -radii)
    ys[:, -1] = np.maximum(ys[:, -1], radii)
    h = grid // 2
    rows_lo = np.minimum(ys[:, h:-1], -ys[:, h:0:-1])
    rows_hi = np.maximum(ys[:, h + 1:], -ys[:, h - 1::-1])
    # dx carries at most one rounding and dy none, so the squared sum is
    # within four half-ulps of its true value; _nudge_down's four ulps
    # take it below
    dx = np.maximum(0.0, np.maximum(edges[:, :-1] - c, c - edges[:, 1:]))
    dy = np.maximum(0.0, np.maximum(rows_lo, -rows_hi))
    dist2 = (dx * dx)[:, :, None] + (dy * dy)[:, None, :]
    keep = _nudge_down(dist2) <= _nudge_up(r * r)[:, :, None]
    packet, col, row = np.nonzero(keep)
    xs = np.stack([edges[:, :-1].ravel(), edges[:, 1:].ravel()])
    ys = np.stack([rows_lo.ravel(), rows_hi.ravel()])
    cells = np.stack([packet * grid + col, packet * h + row])
    return xs, ys, cells, np.count_nonzero(keep, axis=(1, 2))


def _ring_layout(count: int) -> tuple[int, int]:
    """(rings, points per ring) of the disk sample set for `count` samples."""
    if not isinstance(count, numbers.Integral) or count < 1:
        raise ValueError("samples must be a positive integer")
    if count > _SAMPLE_BUDGET:
        raise GuardedResourceError(
            f"{count} samples per packet, over the budget of {_SAMPLE_BUDGET}; "
            "lower samples")
    rings = max(4, int(math.sqrt(count)))
    return rings, max(8, int(math.ceil((count - 1) / rings)))


def _disk_samples(center: float, radius: float, count: int):
    """Deterministic center-plus-rings sampling covering the closed disk
    including its boundary circle."""
    rings, per_ring = _ring_layout(count)
    rr = (radius * np.arange(1, rings + 1) / rings)[:, None]
    theta = 2.0 * math.pi * np.arange(per_ring) / per_ring
    pts_re = center + rr * np.cos(theta)
    pts_im = rr * np.sin(theta)
    return np.append(center, pts_re), np.append(0.0, pts_im)


def _certify_columns(family: GraphFamily, ns: np.ndarray, centers: np.ndarray,
                     radii: np.ndarray, method: CertifyMethod, samples: int):
    """Certificate columns of same-family packets: arrays of max_abs_f,
    min_abs_fprime, f_bound_ok and fprime_bound_ok.

    ns holds the packet indices as floats.  INTERVAL_PROOF runs the cell
    kernel's two stages over the disk cells of each _CERTIFY_GROUP
    consecutive packets (_disk_cells) and reduces them per packet.
    DENSE_SAMPLING makes one point-kernel call per packet, on `samples`
    points or a few more.  fprime_target is evaluated as the scalar
    formula is, so every element has its bits.
    """
    max_f = np.empty(ns.size)
    min_fp = np.empty(ns.size)
    if method is CertifyMethod.DENSE_SAMPLING:
        for i, (center, radius) in enumerate(zip(centers.tolist(), radii.tolist())):
            log_f, log_fp = log_abs_f_fprime_batch(
                family, *_disk_samples(center, radius, samples))
            max_f[i] = np.exp(np.max(log_f))
            min_fp[i] = np.exp(np.min(log_fp))
    else:
        for lo in range(0, ns.size, _CERTIFY_GROUP):
            group = slice(lo, lo + _CERTIFY_GROUP)
            xs, ys, (col, row), counts = _disk_cells(centers[group], radii[group],
                                                     _PROOF_GRID)
            cols, rows = _column_terms(family, *xs), _row_terms(family, *ys)
            _, f_hi, box = _enclose_f(family, cols, rows, col, row)
            fp_lo, _ = _enclose_fprime(family, cols, rows, col, row, box)
            del box  # else it lives on while the next group's cells are enclosed
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            with np.errstate(over="ignore"):
                max_f[group] = _nudge_up(np.exp(np.maximum.reduceat(f_hi, starts)))
                min_fp[group] = np.maximum(
                    _nudge_down(np.exp(np.minimum.reduceat(fp_lo, starts))), 0.0)
    if family is GraphFamily.SIN_EXP:
        fp_target = math.pi * ns / 4.0
    else:
        fp_target = math.pi * ns * centers / 2.0
    return max_f, min_fp, max_f < F_TARGET, min_fp >= fp_target


def certify_packets(packets, method: CertifyMethod | None = None,
                    samples: int = 10000) -> list[DiskPacket]:
    """Attach certificates for |f| < F_TARGET and |f'| >= fprime_target,
    in input order.

    The default INTERVAL_PROOF encloses |f| and |f'| on the disk cells of
    _CERTIFY_GROUP consecutive same-family packets at a time.  A packet
    whose proof does not close keeps its IntervalProof certificate with
    the failing flag false.  DENSE_SAMPLING, only on request, takes
    `samples` points per packet (a positive integer) and is explicitly
    non-rigorous.  Each run of same-family packets goes through
    _certify_columns, the certifier the CLI ledger calls directly.
    """
    packets = list(packets)
    if any(p.family is GraphFamily.EXP for p in packets):
        raise ValueError("e^z has no packets to certify")
    if method is CertifyMethod.DENSE_SAMPLING:
        rings, per_ring = _ring_layout(samples)
        taken = 1 + rings * per_ring
    else:
        method, taken = CertifyMethod.INTERVAL_PROOF, 0
    out: list[DiskPacket] = []
    for family, run in groupby(packets, key=lambda p: p.family):
        run = list(run)
        columns = _certify_columns(
            family,
            np.fromiter((float(p.n) for p in run), float, len(run)),
            np.array([p.center for p in run], dtype=float),
            np.array([p.radius for p in run], dtype=float),
            method, samples)
        for p, max_f, min_fp, f_ok, fp_ok in zip(run, *(c.tolist() for c in columns)):
            out.append(replace(p, certificate=PacketCertificate(
                n=p.n, method=method, max_abs_f=max_f, min_abs_fprime=min_fp,
                f_target=F_TARGET, fprime_target=fprime_target(p),
                f_bound_ok=f_ok, fprime_bound_ok=fp_ok, samples=taken)))
    return out


def certify_packet(packet: DiskPacket, method: CertifyMethod | None = None,
                   samples: int = 10000) -> DiskPacket:
    """certify_packets for a single packet: a failed interval proof is
    reported as failed, not replaced by sampling."""
    return certify_packets([packet], method, samples)[0]


def verify_ez_minus_one_bound(n: int) -> bool:
    """Prove max |e^zeta - 1| < 1/(4*pi*n) over the disk |zeta| <= 1/(16*pi*n).

    This is the key smallness estimate behind the sin(e^z) packet bounds:
    on packet n the inner argument e^z = n*pi*e^zeta stays within
    n*pi * 1/(4*pi*n) = 1/4 of the hit point n*pi.  The power series gives
    |e^zeta - 1| <= sum_k |zeta|^k / k! = e^|zeta| - 1, so the check is
    expm1(rho) < 1/(4*pi*n) at the packet radius rho, with the left side
    rounded up and the right side down.
    """
    rho = make_packet(GraphFamily.SIN_EXP, n).radius
    return bool(_nudge_up(math.expm1(rho)) < _nudge_down(1.0 / (4.0 * math.pi * n)))


def verify_disjoint(family: GraphFamily, n_lo: int, n_hi: int,
                    delta: float | None = None) -> DisjointnessReport:
    """Check pairwise disjointness of packets n_lo..n_hi.

    Centers increase and radii do not increase for both families, so the
    minimal gap over all pairs is attained by some adjacent pair; both
    monotonicities are checked numerically before the reduction, and a
    range so far out that its centers collide in double precision is
    rejected with ValueError.
    """
    if n_hi < n_lo:
        raise ValueError("need n_hi >= n_lo")
    centers, radii = _layout(family, n_lo, n_hi, delta)
    if centers.size < 2:
        return DisjointnessReport(family, n_lo, n_hi, True, math.inf, np.empty(0))
    if not (np.all(np.diff(centers) > 0) and np.all(np.diff(radii) <= 0)):
        raise ValueError(
            f"packets {n_lo}..{n_hi} are too large for double precision: "
            "their centers no longer increase strictly"
        )
    gaps = centers[1:] - centers[:-1] - radii[1:] - radii[:-1]
    min_gap = float(np.min(gaps))
    return DisjointnessReport(family, n_lo, n_hi, bool(min_gap > 0), min_gap, gaps)


def _gaussian_in_ball(packet: DiskPacket, r: float) -> bool:
    """Certified containment of the graph over a sin(e^(z^2)) packet in B_r.

    Every parameter point obeys |z| <= center + radius and the closed
    margin |f| <= sinh(U) from the drift analysis, so the graph
    point norm is at most sqrt((center+radius)^2 + max_f^2).
    """
    _, _, max_f, _ = _gaussian_margins(packet)
    if not math.isfinite(max_f):
        return False
    return (packet.center + packet.radius) ** 2 + max_f * max_f <= r * r


def count_packets_in_ball(family: GraphFamily, r: float,
                          delta: float | None = None) -> int:
    """Count packets whose graph provably lies inside the ball B_r.

    sin(e^z): packet n qualifies iff center + 2 <= r, i.e. log(n*pi) <= r-2
    (|f| < 2 on the packet and |z| <= center + radius < center + 1, with
    a unit of slack folded into the constant 2).  Count is the largest
    such n, computed in closed form and then nudged against the exact
    predicate to kill floating-point fencepost errors.

    sin(e^(z^2)): the closed-form drift margin decides containment,
    (center+radius)^2 + max_f^2 <= r^2, which is monotone in n and is
    resolved by binary search.

    A radius whose count no double index can reach raises ValueError.
    """
    if r <= 0 or not math.isfinite(r):
        raise ValueError("r must be positive and finite")
    if family is GraphFamily.SIN_EXP:
        def ok(n: int) -> bool:
            return make_packet(family, n, delta).center + 2.0 <= r

        if not ok(1):  # also refuses a delta
            return 0
        try:
            n = math.floor(math.exp(r - 2.0) / math.pi)
        except OverflowError:
            raise ValueError(f"r = {r} holds more packets than a double "
                             "can index") from None
        # nudge against the exact predicate
        while n >= 1 and not ok(n):
            n -= 1
        while ok(n + 1):
            n += 1
        return n

    def ok(n: int) -> bool:
        return _gaussian_in_ball(make_packet(family, n, delta), r)

    if not ok(2):  # also refuses e^z and a bad delta
        return 0
    lo = 2  # ok
    hi = 4
    while ok(hi):
        lo = hi
        hi *= 2
        if hi > 10 ** 18:
            raise ValueError(f"r = {r} holds more than 10**18 packets, "
                             "beyond the supported range")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo - 1  # packets are n = 2..lo, count = lo-1


def packet_area_lower(packet: DiskPacket) -> float:
    """Certified graph-area contribution of one certified packet.

    sin(e^z): (pi*n/4)^2 * pi * radius^2 = pi/4096 exactly, for every n.
    sin(e^(z^2)): (certified min |f'|)^2 * pi * radius^2.
    """
    cert = packet.certificate
    if cert is None or not (cert.f_bound_ok and cert.fprime_bound_ok):
        raise ValueError("packet_area_lower needs a packet whose bounds verified")
    if packet.family is GraphFamily.SIN_EXP:
        return math.pi / 4096.0
    return cert.min_abs_fprime ** 2 * math.pi * packet.radius ** 2


def packet_growth_lower_bound(family: GraphFamily, r: float,
                              delta: float | None = None) -> float:
    """Certified lower bound for graph area in B_r from packets alone.

    sin(e^z): count * pi/4096.

    sin(e^(z^2)): count * min over counted packets of the closed-form
    quantum.  The minimum is bounded factorwise: (center-radius)^2/log(n)
    decreases in n (take the last packet), while t_n and U_n decrease in
    n so e^(-2t) and c_n^2 are worst at n=2.  The product of per-factor
    minima is a valid lower bound for every counted packet's quantum.
    """
    count = count_packets_in_ball(family, r, delta)
    if count == 0:
        return 0.0
    if family is GraphFamily.SIN_EXP:
        return count * (math.pi / 4096.0)
    last = make_packet(family, count + 1, delta)  # packets run n = 2 .. count+1
    factor_growth = (last.center - last.radius) ** 2 / math.log(last.n)
    t2, _, _, c2 = _gaussian_margins(make_packet(family, 2, delta))
    quantum = (
        4.0 * math.pi ** 3 * delta * delta
        * factor_growth * math.exp(-2.0 * t2) * c2 * c2
    )
    return count * quantum
