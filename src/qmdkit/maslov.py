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

All indices are exact fractions with denominator 1 or 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np


class NonRegularCrossingError(ValueError):
    """A crossing with (one-sided) relative angular velocity below tolerance."""


class PathError(ValueError):
    pass


def _continuous_lift(raw_pi_units: Sequence[float]) -> List[float]:
    """Resolve mod-1 jumps by picking the representative nearest the previous value."""
    lift = [float(raw_pi_units[0])]
    for u in raw_pi_units[1:]:
        u = float(u)
        k = round(lift[-1] - u)
        lift.append(u + k)
    return lift


@dataclass(frozen=True)
class LagrangianLinePath:
    """Piecewise-linear path of lines, lift stored in units of pi."""
    times: Tuple[float, ...]
    lift: Tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        lift = tuple(float(u) for u in self.lift)
        if len(times) != len(lift) or len(times) < 2:
            raise PathError("need matching times and angles, at least two samples")
        if not all(map(math.isfinite, times + lift)):
            raise PathError("times and angles must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise PathError("times must be strictly increasing")
        if times[0] != 0.0 or times[-1] != 1.0:
            raise PathError("paths are parameterized over [0, 1]")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "lift", lift)

    @classmethod
    def from_angles(cls, times: Sequence[float], angles_rad: Sequence[float]) -> "LagrangianLinePath":
        if not all(map(math.isfinite, angles_rad)):
            raise PathError("angles must be finite")
        return cls(tuple(times), tuple(_continuous_lift([a / math.pi for a in angles_rad])))

    @classmethod
    def from_pi_units(cls, times: Sequence[float], lift: Sequence[float]) -> "LagrangianLinePath":
        return cls(tuple(times), tuple(float(u) for u in lift))

    @classmethod
    def constant(cls, angle_rad: float) -> "LagrangianLinePath":
        u = angle_rad / math.pi
        return cls((0.0, 1.0), (u, u))

    def value_at(self, t: float) -> float:
        return float(_values_at(self, np.array([t], dtype=float))[0])

    def reverse(self) -> "LagrangianLinePath":
        times = tuple(1.0 - t for t in reversed(self.times))
        return LagrangianLinePath(times, tuple(reversed(self.lift)))

    def refine(self, k: int) -> "LagrangianLinePath":
        """Subdivide each segment into k equal pieces (same geometric path)."""
        times: List[float] = []
        lift: List[float] = []
        for i in range(len(self.times) - 1):
            for j in range(k):
                s = j / k
                times.append(self.times[i] * (1 - s) + self.times[i + 1] * s)
                lift.append(self.lift[i] * (1 - s) + self.lift[i + 1] * s)
        times.append(self.times[-1])
        lift.append(self.lift[-1])
        return LagrangianLinePath(tuple(times), tuple(lift))

    def reparameterize(self, new_times: Sequence[float]) -> "LagrangianLinePath":
        new_times = tuple(float(t) for t in new_times)
        if len(new_times) != len(self.times):
            raise PathError("reparameterization must keep the sample count")
        return LagrangianLinePath(new_times, self.lift)

    def to_json(self) -> dict:
        return {"times": list(self.times),
                "angles": [(u % 1.0) * math.pi for u in self.lift]}

    @classmethod
    def from_json(cls, data: dict) -> "LagrangianLinePath":
        times, angles = data["times"], data["angles"]
        if not (isinstance(times, list) and isinstance(angles, list)):
            raise PathError("times and angles must be arrays")
        return cls.from_angles(times, angles)


@dataclass(frozen=True)
class CrossingRecord:
    time: float
    endpoint: bool
    sign_in: int   # one-sided velocity signs; 0 when the side does not exist
    sign_out: int
    contribution: Fraction


def _values_at(g: LagrangianLinePath, ts: np.ndarray) -> np.ndarray:
    """The lift at every time of ``ts``, linear between breakpoints."""
    times, lift = np.asarray(g.times), np.asarray(g.lift)
    i = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, len(times) - 2)
    t0, t1, u0, u1 = times[i], times[i + 1], lift[i], lift[i + 1]
    return u0 + (u1 - u0) * (ts - t0) / (t1 - t0)


def _merged_difference(g: LagrangianLinePath, g2: LagrangianLinePath):
    times = np.union1d(g.times, g2.times)
    diff = _values_at(g, times) - _values_at(g2, times)
    return times.tolist(), diff.tolist()


def crossings(g: LagrangianLinePath, g2: LagrangianLinePath,
              tol: float = 1e-9) -> List[CrossingRecord]:
    """Crossing records of the pair, or NonRegularCrossingError.

    The pair crosses wherever the lifted angle difference passes through
    an integer (the lines coincide there).  A path pair whose difference
    is identically one integer never leaves the diagonal and reports no
    crossings at all (constant intersection dimension).
    """
    times, diff = _merged_difference(g, g2)
    m = len(times) - 1
    slopes = [(diff[i + 1] - diff[i]) / (times[i + 1] - times[i]) for i in range(m)]

    near_int = [abs(d - round(d)) <= tol for d in diff]
    if all(near_int) and all(abs(s) <= tol for s in slopes):
        if len(set(round(d) for d in diff)) != 1:
            raise NonRegularCrossingError("difference hops between integer levels")
        return []

    records: List[CrossingRecord] = []
    for j, (t, d) in enumerate(zip(times, diff)):
        if not near_int[j]:
            continue
        s_in = slopes[j - 1] if j > 0 else None
        s_out = slopes[j] if j < m else None
        for s in (s_in, s_out):
            if s is not None and abs(s) <= tol:
                raise NonRegularCrossingError(
                    f"tangential crossing at t={t}: relative angular velocity "
                    f"below tolerance; perturb the paths")
        si = int(np.sign(s_in)) if s_in is not None else 0
        so = int(np.sign(s_out)) if s_out is not None else 0
        contribution = Fraction(si + so, 2)
        records.append(CrossingRecord(t, j == 0 or j == m, si, so, contribution))

    for i in range(m):
        lo, hi = sorted((diff[i], diff[i + 1]))
        k_first = math.ceil(lo - tol)
        k_last = math.floor(hi + tol)
        for k in range(k_first, k_last + 1):
            if abs(diff[i] - k) <= tol or abs(diff[i + 1] - k) <= tol:
                continue  # breakpoint crossing, already recorded
            s = slopes[i]
            t_star = times[i] + (k - diff[i]) / s
            records.append(CrossingRecord(t_star, False, int(np.sign(s)),
                                          int(np.sign(s)), Fraction(int(np.sign(s)))))
    records.sort(key=lambda r: r.time)
    return records


def maslov(g: LagrangianLinePath, g2: LagrangianLinePath,
           tol: float = 1e-9) -> Fraction:
    """Relative index: signed interior crossings plus half endpoint crossings."""
    return sum((r.contribution for r in crossings(g, g2, tol)), Fraction(0))


def concat(g1: LagrangianLinePath, g2: LagrangianLinePath,
           tol: float = 1e-9) -> LagrangianLinePath:
    """Time-rescaled concatenation; g2 must start on g1's final line."""
    gap = g1.lift[-1] - g2.lift[0]
    k = round(gap)
    if abs(gap - k) > tol:
        raise PathError("concatenation endpoints are distinct lines")
    times = [0.5 * t for t in g1.times] + [0.5 + 0.5 * t for t in g2.times[1:]]
    lift = list(g1.lift) + [u + k for u in g2.lift[1:]]
    return LagrangianLinePath(tuple(times), tuple(lift))


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
    for u in g.lift:
        v = m @ np.array([math.cos(u * math.pi), math.sin(u * math.pi)])
        raw.append(math.atan2(v[1], v[0]) / math.pi % 1.0)
    return LagrangianLinePath(g.times, tuple(_continuous_lift(raw)))


def intersection_dim(g: LagrangianLinePath, g2: LagrangianLinePath, t: float,
                     tol: float = 1e-9) -> int:
    d = g.value_at(t) - g2.value_at(t)
    return 1 if abs(d - round(d)) <= tol else 0


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
