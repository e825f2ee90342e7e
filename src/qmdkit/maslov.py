"""Maslov index for paths of Lagrangian lines in the symplectic plane.

A line through the origin is its angle theta in [0, pi); paths are
piecewise linear in a continuous angle lift, stored internally in units
of pi so that two lines coincide exactly when the lifted difference is
an integer.  The index of a pair of paths is the signed crossing count:
a crossing where the relative angle increases contributes +1, one where
it decreases -1, and crossings at the endpoints of [0, 1] count half.
At a breakpoint the two one-sided relative velocities each contribute
half, which makes the index additive under concatenation by
construction.  Crossings with vanishing one-sided relative velocity are
rejected rather than silently perturbed.

Whether the lines coincide is decided in one place, ``_levels``: a
difference within ``tol`` of the integer k (0 < tol < 0.5) is on level
2k, one strictly between k and k + 1 on level 2k + 1.  The difference at
the merged breakpoints is then an integer walk h, and the index is half
its net step, (h_end - h_start) / 2.  Refining a path, or moving a
breakpoint's difference within ``tol`` of its level, leaves the walk's
ends and so the index as they are; a segment whose two ends lie on one
level crosses nothing.

All indices are exact fractions with denominator 1 or 2.

Cost: a path holds its breakpoints and lift once, as read-only float64
arrays, which every pass reads as they are.  A pair with n merged
breakpoints takes one sort of the merged breakpoints (``np.union1d``) and
a few linear numpy passes over them (the difference, its levels, slopes
and the tangential test); ``maslov`` then reads the walk's two ends.
``crossings`` adds the integer levels strictly inside each segment, one
sort of the crossings found and one ``CrossingRecord`` per crossing.
Building a path from angles is linear too: the lift is a running sum
checked against the step rule, with a Python step per breakpoint only
from the first half-turn tie that the sum resolves the other way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

import numpy as np


class NonRegularCrossingError(ValueError):
    """A crossing with (one-sided) relative angular velocity below tolerance."""


class PathError(ValueError):
    pass


def _continuous_lift(raw_pi_units: Sequence[float]) -> np.ndarray:
    """Resolve mod-1 jumps by picking the representative nearest the previous value.

    Step i shifts u[i] by round(lift[i-1] - u[i]).  The running sum of
    round(u[i-1] - u[i]) gives the same shifts except at half-turn ties,
    where round's half-to-even reads the running shift's parity (and float
    rounding of lift - u can flip a tie).  So the sum is checked against the
    step rule in one pass, and the steps from the first disagreement on are
    taken one at a time.
    """
    u = np.asarray(raw_pi_units, dtype=float)
    shift = np.cumsum(np.round(u[:-1] - u[1:]))
    lift = np.concatenate((u[:1], u[1:] + shift))
    wrong = np.flatnonzero(np.round(lift[:-1] - u[1:]) != shift)
    if not wrong.size:
        return lift
    out = lift[:wrong[0] + 1].tolist()
    for v in u[wrong[0] + 1:].tolist():
        out.append(v + round(out[-1] - v))
    return np.array(out)


@dataclass(frozen=True, eq=False)
class LagrangianLinePath:
    """Piecewise-linear path of lines, lift stored in units of pi.

    ``times`` and ``lift`` are read-only 1-D float64 arrays, copied from
    the input (never a view of the caller's array)."""
    times: np.ndarray
    lift: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)    # a copy: never a view
        lift = np.array(self.lift, dtype=float)
        if times.ndim != 1 or lift.ndim != 1:
            raise PathError("times and angles must be 1-D sequences of numbers")
        if len(times) != len(lift) or len(times) < 2:
            raise PathError("need matching times and angles, at least two samples")
        if not (np.isfinite(times).all() and np.isfinite(lift).all()):
            raise PathError("times and angles must be finite")
        if not (times[1:] > times[:-1]).all():
            raise PathError("times must be strictly increasing")
        if times[0] != 0.0 or times[-1] != 1.0:
            raise PathError("paths are parameterized over [0, 1]")
        times.flags.writeable = False
        lift.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "lift", lift)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LagrangianLinePath):
            return NotImplemented
        return (np.array_equal(self.times, other.times)
                and np.array_equal(self.lift, other.lift))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which it equals
        return hash(((self.times + 0.0).tobytes(), (self.lift + 0.0).tobytes()))

    @classmethod
    def from_angles(cls, times: Sequence[float], angles_rad: Sequence[float]) -> "LagrangianLinePath":
        angles = np.asarray(angles_rad, dtype=float)
        if not np.isfinite(angles).all():
            raise PathError("angles must be finite")
        return cls(times, _continuous_lift(angles / math.pi))

    @classmethod
    def from_pi_units(cls, times: Sequence[float], lift: Sequence[float]) -> "LagrangianLinePath":
        return cls(times, lift)

    @classmethod
    def constant(cls, angle_rad: float) -> "LagrangianLinePath":
        u = angle_rad / math.pi
        return cls((0.0, 1.0), (u, u))

    def value_at(self, t: float) -> float:
        return float(_values_at(self, np.array([t], dtype=float))[0])

    def reverse(self) -> "LagrangianLinePath":
        return LagrangianLinePath(1.0 - self.times[::-1], self.lift[::-1])

    def refine(self, k: int) -> "LagrangianLinePath":
        """Subdivide each segment into k equal pieces (same geometric path)."""
        s = np.arange(k) / k

        def subdivide(x):
            return np.append((x[:-1, None] * (1 - s) + x[1:, None] * s).ravel(), x[-1])
        return LagrangianLinePath(subdivide(self.times), subdivide(self.lift))

    def reparameterize(self, new_times: Sequence[float]) -> "LagrangianLinePath":
        new_times = np.asarray(new_times, dtype=float)
        if len(new_times) != len(self.times):
            raise PathError("reparameterization must keep the sample count")
        return LagrangianLinePath(new_times, self.lift)

    def to_json(self) -> dict:
        # tolist: the JSON holds Python floats, the only numbers from_json reads
        return {"times": self.times.tolist(),
                "angles": ((self.lift % 1.0) * math.pi).tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "LagrangianLinePath":
        times, angles = data["times"], data["angles"]
        if not (isinstance(times, list) and isinstance(angles, list)):
            raise PathError("times and angles must be arrays")
        # checked before numpy, which reads "0.5" and true as numbers and
        # fails on a nested list with a bare ValueError
        if not {int, float}.issuperset(map(type, times + angles)):
            raise PathError("times and angles must be arrays of numbers")
        return cls.from_angles(np.array(times, dtype=float), np.array(angles, dtype=float))


@dataclass(frozen=True)
class CrossingRecord:
    time: float
    endpoint: bool
    sign_in: int   # one-sided velocity signs; 0 when the side does not exist
    sign_out: int
    contribution: Fraction


# a record's contribution, (sign_in + sign_out) / 2, keyed by the sum
_HALVES = {v: Fraction(v, 2) for v in range(-2, 3)}


def _values_at(g: LagrangianLinePath, ts: np.ndarray) -> np.ndarray:
    """The lift at every time of ``ts``, linear between breakpoints."""
    times, lift = g.times, g.lift
    i = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, len(times) - 2)
    t0, t1, u0, u1 = times[i], times[i + 1], lift[i], lift[i + 1]
    return u0 + (u1 - u0) * (ts - t0) / (t1 - t0)


def _merged_difference(g: LagrangianLinePath, g2: LagrangianLinePath):
    """The merged breakpoints of the pair and the lifted difference there."""
    times = np.union1d(g.times, g2.times)
    return times, _values_at(g, times) - _values_at(g2, times)


def _levels(d, tol: float) -> np.ndarray:
    """The level of each difference in ``d``: 2k where it lies within ``tol``
    of the integer k (the two lines coincide there), 2 floor(d) + 1 where it
    lies strictly between two integers.  Levels are exact integers held as
    floats (infinite from 2^1023 on).  ValueError unless 0 < tol < 0.5: from
    0.5 on, a value lies within tol of two integers."""
    if not 0 < tol < 0.5:
        raise ValueError(f"tol must lie strictly between 0 and 0.5, got {tol!r}")
    r = np.round(d)
    return np.where(np.abs(d - r) <= tol, 2 * r, 2 * np.floor(d) + 1)


# inf slopes (from tiny time steps) are valid and compare as the floats did
@np.errstate(all="ignore")
def _walk(g: LagrangianLinePath, g2: LagrangianLinePath, tol: float):
    """The merged breakpoints, the lifted difference there, the slopes
    between them, the difference's level walk h and the breakpoints that
    are crossings (even h), or the error ``crossings`` and ``maslov`` raise."""
    times, diff = _merged_difference(g, g2)
    h = _levels(diff, tol)
    if not np.isfinite(h).all():
        raise PathError("the lifted angle difference of the pair is not finite")
    slopes = (diff[1:] - diff[:-1]) / (times[1:] - times[:-1])
    flat = np.abs(slopes) <= tol
    on = h % 2 == 0
    if on.all() and flat.all():
        if (h != h[0]).any():
            raise NonRegularCrossingError("difference hops between integer levels")
        return times, diff, slopes, h, np.zeros(0, int)   # on the diagonal throughout

    # a crossing at a breakpoint needs relative velocity on both sides; the
    # ends of [0, 1] miss one side
    tangential = on & (np.append(False, flat) | np.append(flat, False))
    if tangential.any():
        t = float(times[np.argmax(tangential)])
        raise NonRegularCrossingError(
            f"tangential crossing at t={t}: relative angular velocity "
            f"below tolerance; perturb the paths")
    return times, diff, slopes, h, np.flatnonzero(on)


def crossings(g: LagrangianLinePath, g2: LagrangianLinePath,
              tol: float = 1e-9) -> List[CrossingRecord]:
    """Crossing records of the pair, or NonRegularCrossingError.

    The pair crosses wherever the lifted angle difference passes through
    an integer (the lines coincide there): at each breakpoint on a level,
    signed in and out by the level walk's step on that side (0 along a
    segment whose two ends lie on one level), and at every level strictly
    between a segment's two ends.  A path pair whose difference is
    identically one integer never leaves the diagonal and reports no
    crossings at all (constant intersection dimension).  A difference that
    is not finite, or whose level is not (lifts near the float range),
    raises PathError.
    """
    times, diff, slopes, h, at = _walk(g, g2, tol)
    m = len(times) - 1
    step = np.sign(h[1:] - h[:-1]).astype(int)

    # interior crossings: every integer k with 2k strictly between a
    # segment's two levels, one entry per (segment, k), in segment order
    # and then k order
    lo, hi = np.minimum(h[:-1], h[1:]), np.maximum(h[:-1], h[1:])
    k_first = np.floor(lo / 2) + 1
    counts = np.maximum(np.ceil(hi / 2) - k_first, 0).astype(np.int64)
    seg = np.repeat(np.arange(m), counts)
    k = k_first[seg] + (np.arange(seg.size) - np.repeat(np.cumsum(counts) - counts, counts))
    t_star = times[seg] + (k - diff[seg]) / slopes[seg]

    # stable, so equal times keep breakpoint crossings before interior ones
    time = np.concatenate((times[at], t_star))
    order = np.argsort(time, kind="stable")
    endpoint = np.concatenate(((at == 0) | (at == m), np.zeros(len(seg), bool)))
    sign_in = np.concatenate((np.append(0, step)[at], step[seg]))
    sign_out = np.concatenate((np.append(step, 0)[at], step[seg]))
    return [CrossingRecord(t, e, si, so, _HALVES[si + so]) for t, e, si, so in
            zip(time[order].tolist(), endpoint[order].tolist(),
                sign_in[order].tolist(), sign_out[order].tolist())]


def maslov(g: LagrangianLinePath, g2: LagrangianLinePath,
           tol: float = 1e-9) -> Fraction:
    """Relative index: signed interior crossings plus half endpoint
    crossings, which sum to half the net step of the level walk."""
    _, _, _, h, _ = _walk(g, g2, tol)
    return Fraction(int(h[-1]) - int(h[0]), 2)


def concat(g1: LagrangianLinePath, g2: LagrangianLinePath,
           tol: float = 1e-9) -> LagrangianLinePath:
    """Time-rescaled concatenation; g2 must start on g1's final line."""
    level = _levels(g1.lift[-1] - g2.lift[0], tol)
    if level % 2:
        raise PathError("concatenation endpoints are distinct lines")
    times = np.concatenate((0.5 * g1.times, 0.5 + 0.5 * g2.times[1:]))
    lift = np.concatenate((g1.lift, g2.lift[1:] + level / 2))
    return LagrangianLinePath(times, lift)


def conjugate(g: LagrangianLinePath, m: np.ndarray,
              tol: float = 1e-9) -> LagrangianLinePath:
    """Map every sample line by a fixed symplectic (det = 1) matrix.

    Sampling must be fine enough that consecutive images stay within a
    quarter turn, or the rebuilt lift would pick wrong representatives;
    refine() first for fast-moving paths.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2) or abs(float(np.linalg.det(m)) - 1.0) > tol:
        raise ValueError("conjugation requires a 2x2 matrix of determinant 1")
    raw = []
    for u in g.lift.tolist():
        v = m @ np.array([math.cos(u * math.pi), math.sin(u * math.pi)])
        raw.append(math.atan2(v[1], v[0]) / math.pi % 1.0)
    return LagrangianLinePath(g.times, _continuous_lift(raw))


def intersection_dim(g: LagrangianLinePath, g2: LagrangianLinePath, t: float,
                     tol: float = 1e-9) -> int:
    """dim of the intersection of the two lines at time t (1 or 0), the
    term of the endpoint parity axiom 2 mu = dim(0) - dim(1) mod 2."""
    return int(_levels(g.value_at(t) - g2.value_at(t), tol) % 2 == 0)


def index_shift(i_c, dim_c: int) -> int:
    """Integer grading offset i_c - dim_c / 2; input must be a half-integer
    with 2*i_c = dim_c (mod 2), the coherence condition."""
    i_c = Fraction(i_c)
    if i_c.denominator not in (1, 2):
        raise ValueError("index must be a half-integer")
    twice = i_c * 2
    if (twice - dim_c) % 2 != 0:
        raise ValueError(f"incoherent input: 2*{i_c} and {dim_c} differ mod 2")
    shifted = i_c - Fraction(dim_c, 2)
    assert shifted.denominator == 1
    return int(shifted)
