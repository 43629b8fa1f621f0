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
                exactly pi/4096 independent of n.

  sin(e^(z^2)): center sqrt(log(n*pi)), radius delta/(n*sqrt(log n)),
                n >= 2, delta <= 0.01.  Writing z = c_n + zeta, the inner
                exponent is n*pi*e^q with q = zeta*(zeta + 2*c_n), and
                |q| <= t_n := radius*(radius + 2*c_n).  The elementary
                chain |n*pi*(e^q - 1)| <= n*pi*|q|*e^|q| and
                |cos(u) - 1| <= |u|*sinh|u| then yields closed-form
                certified bounds for max |f| and min |f'| on the disk.

  e^z:          strictly monotone magnitude, no packet structure; packet
                constructors reject this family.

Certification runs either by rigorous interval subdivision of the disk's
bounding box (IntervalProof) or by dense sampling (DenseSampling, not
rigorous, reported as such).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .families import (
    GraphFamily,
    _nudge_down,
    _nudge_up,
    bound_abs_f_batch,
    bound_abs_fprime_batch,
    log_abs_f_batch,
    log_abs_fprime_batch,
)

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


def make_packet(family: GraphFamily, n: int, delta: float | None = None) -> DiskPacket:
    """Construct the n-th packet disk (without certificate)."""
    if family is GraphFamily.EXP:
        raise ValueError("e^z has monotone magnitude and no packet structure")
    if family is GraphFamily.SIN_EXP:
        if n < 1:
            raise ValueError("sin(e^z) packets start at n=1")
        if delta is not None:
            raise ValueError("delta applies only to the sin(e^(z^2)) family")
        return DiskPacket(
            family=family,
            n=n,
            center=math.log(n * math.pi),
            radius=1.0 / (16.0 * math.pi * n),
        )
    if n < 2:
        raise ValueError("sin(e^(z^2)) packets start at n=2")
    if delta is None:
        raise ValueError("sin(e^(z^2)) packets require delta")
    if not (0 < delta <= DELTA_MAX):
        raise ValueError(f"delta must lie in (0, {DELTA_MAX}], got {delta}")
    return DiskPacket(
        family=family,
        n=n,
        center=math.sqrt(math.log(n * math.pi)),
        radius=delta / (n * math.sqrt(math.log(n))),
        delta=delta,
    )


def fprime_target(packet: DiskPacket) -> float:
    """Required lower bound for |f'| on the packet disk."""
    if packet.family is GraphFamily.SIN_EXP:
        return math.pi * packet.n / 4.0
    return math.pi * packet.n * packet.center / 2.0


def _gaussian_margins(n: int, delta: float) -> tuple[float, float, float, float]:
    """Closed-form packet margins for sin(e^(z^2)).

    Returns (t, U, max_f, min_cos) where t bounds |q| on the disk,
    U = n*pi*t*e^t bounds the inner-argument drift u away from the hit
    point n*pi, max_f = sinh(U) >= max |f| (since |sin u| <= sinh|u|
    termwise), and min_cos = c_n = 1 - U*sinh(U) is the certified lower
    bound for |cos(n*pi + u)| = |cos u| via |cos u - 1| <= |u|*sinh|u|.
    """
    z = math.sqrt(math.log(n * math.pi))
    rho = delta / (n * math.sqrt(math.log(n)))
    t = rho * (rho + 2.0 * z)
    U = math.pi * n * t * math.exp(t)
    max_f = math.sinh(U)
    c = max(0.0, 1.0 - U * math.sinh(U))
    return t, U, max_f, c


def _disk_cells(center: float, radius: float, grid: int):
    """Cells of a grid x grid subdivision of the bounding box that meet
    the disk (conservative: keeps a cell when its nearest point is
    within the radius)."""
    edges = center - radius + 2.0 * radius * np.arange(grid + 1) / grid
    xlo = np.repeat(edges[:-1], grid)
    xhi = np.repeat(edges[1:], grid)
    ylo = np.tile(edges[:-1] - center, grid)
    yhi = np.tile(edges[1:] - center, grid)
    dx = np.maximum(0.0, np.maximum(xlo - center, center - xhi))
    dy = np.maximum(0.0, np.maximum(ylo, -yhi))
    keep = dx * dx + dy * dy <= radius * radius
    return xlo[keep], xhi[keep], ylo[keep], yhi[keep]


def _disk_samples(center: float, radius: float, count: int):
    """Deterministic center-plus-rings sampling covering the closed disk
    including its boundary circle."""
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


def certify_packet(packet: DiskPacket, method: CertifyMethod | None = None,
                   samples: int = 10000, refine_levels: int = 4) -> DiskPacket:
    """Attach a certificate for |f| < F_TARGET and |f'| >= fprime_target.

    Default method is INTERVAL_PROOF with grid refinement (8, 16, ...);
    if refinement stays inconclusive the packet falls back to a
    DENSE_SAMPLING certificate, which is explicitly non-rigorous.
    """
    if packet.family is GraphFamily.EXP:
        raise ValueError("e^z has no packets to certify")
    fp_target = fprime_target(packet)
    if method is None:
        method = CertifyMethod.INTERVAL_PROOF

    if method is CertifyMethod.INTERVAL_PROOF:
        grid = 8
        best: PacketCertificate | None = None
        for _ in range(refine_levels):
            xlo, xhi, ylo, yhi = _disk_cells(packet.center, packet.radius, grid)
            _, f_hi = bound_abs_f_batch(packet.family, xlo, xhi, ylo, yhi)
            fp_lo, _ = bound_abs_fprime_batch(packet.family, xlo, xhi, ylo, yhi)
            with np.errstate(over="ignore"):
                max_f = float(_nudge_up(np.exp(np.max(f_hi))))
                min_fp = float(np.maximum(_nudge_down(np.exp(np.min(fp_lo))), 0.0))
            cert = PacketCertificate(
                n=packet.n,
                method=method,
                max_abs_f=max_f,
                min_abs_fprime=min_fp,
                f_target=F_TARGET,
                fprime_target=fp_target,
                f_bound_ok=max_f < F_TARGET,
                fprime_bound_ok=min_fp >= fp_target,
                samples=0,
            )
            best = cert
            if cert.f_bound_ok and cert.fprime_bound_ok:
                return replace(packet, certificate=cert)
            grid *= 2
        # Inconclusive interval proof: report sampling evidence instead,
        # tagged as non-rigorous by its method.
        assert best is not None
        return certify_packet(packet, CertifyMethod.DENSE_SAMPLING, samples)

    zre, zim = _disk_samples(packet.center, packet.radius, samples)
    log_f = log_abs_f_batch(packet.family, zre, zim)
    log_fp = log_abs_fprime_batch(packet.family, zre, zim)
    max_f = float(np.exp(np.max(log_f)))
    min_fp = float(np.exp(np.min(log_fp)))
    cert = PacketCertificate(
        n=packet.n,
        method=CertifyMethod.DENSE_SAMPLING,
        max_abs_f=max_f,
        min_abs_fprime=min_fp,
        f_target=F_TARGET,
        fprime_target=fp_target,
        f_bound_ok=max_f < F_TARGET,
        fprime_bound_ok=min_fp >= fp_target,
        samples=int(zre.size),
    )
    return replace(packet, certificate=cert)


def verify_ez_minus_one_bound(n: int, samples: int = 10000) -> bool:
    """Check max |e^zeta - 1| < 1/(4*pi*n) over the disk |zeta| <= 1/(16*pi*n).

    This is the key smallness estimate behind the sin(e^z) packet bounds:
    on packet n the inner argument e^z = n*pi*e^zeta stays within
    n*pi * 1/(4*pi*n) = 1/4 of the hit point n*pi.  Verified on the
    deterministic ring sample set (boundary circle included), where the
    maximum of the convex modulus is attained up to discretization.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    rho = 1.0 / (16.0 * math.pi * n)
    target = 1.0 / (4.0 * math.pi * n)
    zre, zim = _disk_samples(0.0, rho, samples)
    zeta = zre + 1j * zim
    worst = float(np.max(np.abs(np.exp(zeta) - 1.0)))
    return worst < target


def verify_disjoint(family: GraphFamily, n_lo: int, n_hi: int,
                    delta: float | None = None) -> DisjointnessReport:
    """Check pairwise disjointness of packets n_lo..n_hi.

    Centers increase and radii do not increase for both families, so the
    minimal gap over all pairs is attained by some adjacent pair; both
    monotonicities are asserted numerically before the reduction.
    """
    if n_hi < n_lo:
        raise ValueError("need n_hi >= n_lo")
    ns = np.arange(n_lo, n_hi + 1, dtype=float)
    if family is GraphFamily.SIN_EXP:
        if n_lo < 1:
            raise ValueError("sin(e^z) packets start at n=1")
        centers = np.log(ns * math.pi)
        radii = 1.0 / (16.0 * math.pi * ns)
    elif family is GraphFamily.SIN_EXP_SQ:
        if n_lo < 2:
            raise ValueError("sin(e^(z^2)) packets start at n=2")
        if delta is None or not (0 < delta <= DELTA_MAX):
            raise ValueError("valid delta required")
        centers = np.sqrt(np.log(ns * math.pi))
        radii = delta / (ns * np.sqrt(np.log(ns)))
    else:
        raise ValueError("e^z has no packets")
    if ns.size < 2:
        return DisjointnessReport(family, n_lo, n_hi, True, math.inf)
    if not (np.all(np.diff(centers) > 0) and np.all(np.diff(radii) <= 0)):
        raise AssertionError("packet layout lost monotonicity")
    gaps = centers[1:] - centers[:-1] - radii[1:] - radii[:-1]
    min_gap = float(np.min(gaps))
    return DisjointnessReport(family, n_lo, n_hi, bool(min_gap > 0), min_gap)


def _gaussian_in_ball(n: int, delta: float, r: float) -> bool:
    """Certified containment of the graph over packet n in B_r.

    Every parameter point obeys |z| <= center + radius and the closed
    margin |f| <= sinh(U) + U from the drift analysis, so the graph
    point norm is at most sqrt((center+radius)^2 + max_f^2).
    """
    z = math.sqrt(math.log(n * math.pi))
    rho = delta / (n * math.sqrt(math.log(n)))
    _, _, max_f, _ = _gaussian_margins(n, delta)
    if not math.isfinite(max_f):
        return False
    return (z + rho) ** 2 + max_f * max_f <= r * r


def count_packets_in_ball(family: GraphFamily, r: float,
                          delta: float | None = None,
                          margin_policy: str = "certified") -> int:
    """Count packets whose graph provably lies inside the ball B_r.

    sin(e^z): packet n qualifies iff center + 2 <= r, i.e. log(n*pi) <= r-2
    (|f| < 2 on the packet and |z| <= center + radius < center + 1, with
    a unit of slack folded into the constant 2).  Count is the largest
    such n, computed in closed form and then nudged against the exact
    predicate to kill floating-point fencepost errors.

    sin(e^(z^2)): policy "certified" uses the closed-form drift margin
    (containment test (center+radius)^2 + max_f^2 <= r^2, monotone in n);
    policy "conservative" uses the cruder center + 2/center <= r test
    (also monotone over the integer packet range).  Both are resolved by
    binary search.
    """
    if r <= 0 or not math.isfinite(r):
        raise ValueError("r must be positive and finite")
    if family is GraphFamily.EXP:
        raise ValueError("e^z has no packets")
    if family is GraphFamily.SIN_EXP:
        if r <= 2.0:
            return 0
        n = int(math.floor(math.exp(r - 2.0) / math.pi))
        # nudge against the exact predicate log(n*pi) + 2 <= r
        while n >= 1 and math.log(n * math.pi) + 2.0 > r:
            n -= 1
        while math.log((n + 1) * math.pi) + 2.0 <= r:
            n += 1
        return max(0, n)

    if delta is None or not (0 < delta <= DELTA_MAX):
        raise ValueError("valid delta required")
    if margin_policy == "certified":
        def ok(n: int) -> bool:
            return _gaussian_in_ball(n, delta, r)
    elif margin_policy == "conservative":
        def ok(n: int) -> bool:
            z = math.sqrt(math.log(n * math.pi))
            return z + 2.0 / z <= r
    else:
        raise ValueError(f"unknown margin_policy {margin_policy!r}")

    if not ok(2):
        return 0
    lo = 2  # ok
    hi = 4
    while ok(hi):
        lo = hi
        hi *= 2
        if hi > 10 ** 18:
            raise OverflowError("packet count exceeds supported range")
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


def _gaussian_area_quantum(n: int, delta: float) -> float:
    """Closed-form per-packet area lower bound for sin(e^(z^2)).

    min |f'| >= 2*pi*n*(center-radius)*e^(-t)*c_n on the disk, so the
    packet contributes at least (that)^2 * pi * radius^2, which via
    radius^2 = delta^2/(n^2 log n) collapses to
    4*pi^3*delta^2 * (center-radius)^2/log(n) * e^(-2t) * c_n^2.
    """
    z = math.sqrt(math.log(n * math.pi))
    rho = delta / (n * math.sqrt(math.log(n)))
    t, _, _, c = _gaussian_margins(n, delta)
    return (
        4.0 * math.pi ** 3 * delta * delta
        * (z - rho) ** 2 / math.log(n)
        * math.exp(-2.0 * t)
        * c * c
    )


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
    assert delta is not None
    n_last = count + 1  # packets run n = 2 .. count+1
    z_last = math.sqrt(math.log(n_last * math.pi))
    rho_last = delta / (n_last * math.sqrt(math.log(n_last)))
    factor_growth = (z_last - rho_last) ** 2 / math.log(n_last)
    t2, _, _, c2 = _gaussian_margins(2, delta)
    quantum = (
        4.0 * math.pi ** 3 * delta * delta
        * factor_growth * math.exp(-2.0 * t2) * c2 * c2
    )
    return count * quantum
