"""Seeded inputs for the four benchmark workloads.

Every generator takes ``(seed, round_no)`` and returns the jobs of one
round: a fixed ladder of sizes whose contents are drawn from a generator
seeded by ``(seed, workload, round_no)``.  The same seed therefore gives
the same inputs, every round draws fresh inputs (so a cache keyed on the
input cannot turn later rounds into replays), and the cost of a round is
nearly the same for every seed, which keeps run-to-run spread small.

Each job carries what its checker needs to know in ``expect``: values
known by construction, never values computed by the library under test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from qmdkit.cubical import GridMask
from qmdkit.fields import ScalarField

WORKLOADS = ("masks", "descriptors", "fields", "paths")


@dataclass
class Job:
    name: str
    payload: object
    expect: Dict[str, object] = field(default_factory=dict)


def rng_for(workload: str, seed: int, round_no: int) -> np.random.Generator:
    # default_rng takes non-negative entropy only; % keeps negative seeds distinct
    return np.random.default_rng([int(seed) % 2**64, WORKLOADS.index(workload), int(round_no)])


# -- masks -------------------------------------------------------------------

# (size, fill, periodic axes): fixed per rung, so every round costs the same
MASK_BLOBS = (
    (16, 0.35, (False, False)), (24, 0.5, (True, False)), (32, 0.65, (False, True)),
    (40, 0.5, (True, True)), (48, 0.35, (False, False)),
    (6, 0.65, (True, False, False)), (8, 0.5, (False, True, True)),
    (10, 0.35, (True, True, True)),
)
# (name, size, periodic axes, holes, hole size); the cost of a holed box does
# not depend on where the holes fall.  The cube with cavities is the costliest
# rung and sets job_tail_s, so it runs twice a round (on fresh inputs) to give
# its fastest run the samples it needs to settle
MASK_HOLED = (
    ("holes2d", 32, (False, False), 3, 4), ("cylinder2d", 24, (True, False), 2, 3),
    ("torus2d", 24, (True, True), 1, 4), ("annulus2d", 32, (False, False), 1, 16),
    ("cavities3d", 8, (False, False, False), 2, 1), ("cavities3d", 8, (False, False, False), 2, 1),
    ("torus3d", 8, (True, True, True), 1, 2),
)


def _blob(rng: np.random.Generator, dims: Tuple[int, ...], fill: float) -> np.ndarray:
    """Thresholded smoothed noise: blobs with holes at an exact fill fraction."""
    noise = rng.standard_normal(dims)
    for _ in range(2):
        for axis in range(len(dims)):
            noise = noise + np.roll(noise, 1, axis=axis) + np.roll(noise, -1, axis=axis)
    cut = np.sort(noise, axis=None)[int(round((1.0 - fill) * noise.size))]
    return noise >= cut


def _holed(rng: np.random.Generator, n: int, ndim: int, holes: int, size: int) -> np.ndarray:
    """A full box minus `holes` cubes of side `size` at random places.

    Holes keep two cells from the box faces and from each other (slots on
    a grid of pitch size + 2 when there are several), so their closures
    never touch a face or one another.
    """
    cells = np.ones((n,) * ndim, dtype=bool)
    if holes == 1:
        anchors = [tuple(int(v) for v in rng.integers(2, n - size - 1, ndim))]
    else:
        slots = list(itertools.product(range(2, n - size - 1, size + 2), repeat=ndim))
        anchors = [slots[i] for i in rng.choice(len(slots), size=holes, replace=False)]
    for anchor in anchors:
        cells[tuple(slice(a, a + size) for a in anchor)] = False
    return cells


def _holed_betti(ndim: int, periodic: Tuple[bool, ...], holes: int) -> Tuple[int, ...]:
    """Betti numbers of a box with p periodic axes (a p-torus times an
    interval) minus `holes` disjoint open cubes.  With a boundary every
    hole adds one (ndim-1)-cycle; on the closed n-torus the first hole
    kills the top class instead."""
    betti = [math.comb(sum(periodic), k) for k in range(ndim + 1)]
    if all(periodic):
        betti[ndim] = 0
        betti[ndim - 1] += holes - 1
    else:
        betti[ndim - 1] += holes
    return tuple(betti)


def masks_round(seed: int, round_no: int) -> List[Job]:
    """Grid masks for ``cubical.build_complex`` + ``cubical.betti``.

    Ladder: 2-D blobs at 16^2..48^2 and 3-D blobs at 6^3..10^3, plus six
    boxes with random holes whose Betti numbers are known (an open square
    with three holes, a cylinder, a 2-torus, an annulus, a cube with two
    cavities and a 3-torus), each with its own mix of periodic and open
    axes.  The dense boundary matrices grow with the square of the cell
    count, so the working set runs from tens of KiB to tens of MiB, past
    the 2 MiB per-core L2 cache of the x86-64 host the ladder was sized on.  The
    ladder stops at 48^2 and 10^3 (about 0.1 s a job) because the run
    needs each rung many times: on a shared host one job's time varies
    by up to 1.7x, and a rung's fastest run settles only after some
    twenty runs.  An 11^3 or 12^3 mask (0.5 s, about 250 MiB) would cut
    that to ten, and the 96^2 and 16^3 masks (5 to 9 s, 1.2 to 1.6 GiB)
    to a handful.  Fills of 0.35, 0.5 and 0.65 vary the
    number of components and holes.  Sizes, fills, periodic axes and hole
    counts are fixed per rung and only shapes and hole places are random,
    so that every round costs about the same.
    """
    rng = rng_for("masks", seed, round_no)
    jobs: List[Job] = []
    for n, fill, periodic in MASK_BLOBS:
        dims = (n,) * len(periodic)
        jobs.append(Job(f"blob{len(dims)}d-{n}", GridMask(dims, periodic, _blob(rng, dims, fill))))
    for name, n, periodic, holes, size in MASK_HOLED:
        cells = _holed(rng, n, len(periodic), holes, size)
        jobs.append(Job(f"{name}-{n}", GridMask(cells.shape, periodic, cells),
                        {"betti": _holed_betti(len(periodic), periodic, holes)}))
    return jobs


# -- descriptors -----------------------------------------------------------------

# (generators, pieces, with --cutoff below the top piece)
DESCRIPTOR_LADDER = (
    (12, 2, False), (12, 4, False), (10, 6, False), (16, 3, False), (20, 2, False),
    (24, 3, False), (28, 4, True), (32, 2, False),
)


def _random_filtered_pairs(rng: np.random.Generator, n_gens: int, levels: int):
    """Generators with (level, degree), a pairing with known persistence, and
    the boundary matrix after a filtration-preserving change of basis.

    The pairing is the canonical form: each pair x -> y (degree drop 1,
    level(y) <= level(x)) is one summand, unpaired generators are homology.
    Conjugating by a unitriangular matrix that only adds lower-or-equal
    level generators of the same degree keeps d^2 = 0, the filtration and
    the spectral sequence, while filling in the boundary.  Levels marked
    Betti-only get no within-level pair, so their within-level boundary is
    zero and they can be written as Betti vectors.
    """
    # equal level sizes and degree counts: the cost of a job depends on them
    level = np.sort(np.resize(np.arange(1, levels + 1), n_gens))
    degree = rng.permutation(np.resize(np.arange(4), n_gens))
    betti_only = set(int(p) for p in rng.choice(np.arange(1, levels + 1),
                                                size=max(1, levels // 3), replace=False))
    partner = [-1] * n_gens
    for x in rng.permutation(n_gens):
        if partner[x] >= 0 or degree[x] == 0 or rng.random() < 0.2:
            continue
        options = [y for y in range(n_gens)
                   if partner[y] < 0 and y != x and degree[y] == degree[x] - 1
                   and (level[y] < level[x]
                        or (level[y] == level[x] and int(level[x]) not in betti_only))]
        if options:
            y = options[int(rng.integers(len(options)))]
            partner[x], partner[y] = y, x

    d = np.zeros((n_gens, n_gens), dtype=np.uint8)  # d[i, j]: i in the boundary of j
    for x in range(n_gens):
        if partner[x] >= 0 and degree[partner[x]] == degree[x] - 1:
            d[partner[x], x] = 1
    # change of basis e_j <- e_j + e_i (level i <= level j, same degree):
    # columns j += i, then rows i += j, keeps d conjugate to the pairing
    for _ in range(3 * n_gens):
        i, j = (int(v) for v in rng.integers(0, n_gens, 2))
        if i == j or degree[i] != degree[j] or level[i] > level[j]:
            continue
        d[:, j] ^= d[:, i]
        d[i, :] ^= d[j, :]
    return level, degree, partner, d, betti_only


def page_dims_by_construction(level, degree, partner, k: int,
                              top: int) -> Dict[Tuple[int, int], int]:
    """E^k dims of the canonical form, truncated to levels <= top.

    A pair with level gap g contributes both ends to pages 1..g and dies on
    page g+1; a gap-0 pair is gone from page 1; an unpaired generator, or a
    pair whose upper end lies above the truncation, survives every page.
    """
    out: Dict[Tuple[int, int], int] = {}
    for g in range(len(level)):
        if level[g] > top:
            continue
        mate = partner[g]
        alive = mate < 0 or level[mate] > top or abs(int(level[g]) - int(level[mate])) >= k
        if alive:
            key = (int(level[g]), int(degree[g]) - int(level[g]))
            out[key] = out.get(key, 0) + 1
    return out


def descriptors_round(seed: int, round_no: int) -> List[Job]:
    """QMD descriptors for ``qmdkit specseq --pages all`` (in-process CLI).

    Each descriptor is a random filtered complex with a known persistence
    pairing (see ``_random_filtered_pairs``), split into one piece per
    filtration level: a level's within-level boundary becomes the piece's
    local ``complex`` (or its ``betti`` vector when that boundary is zero),
    and every entry between levels becomes a cross term, so pairs with a
    level gap of k >= 2 make the higher differentials d_k non-zero.
    Actions are distinct random values in level order, iota a random shift
    of the local degrees, and pieces are listed in random order.

    Ladder: 10 to 32 generators over 2 to 6 pieces, with equal piece sizes
    and equal counts per degree (0 to 3), since those set the cost.  The
    CLI path computes every page twice (once in ``converge``, once for
    ``--pages all``), so the cost grows with the pieces as well as the
    generators: 10 generators over 6 pieces take about 0.15 s, 20 over 6
    about 0.3 s and a 93-generator complex over 2 s.  The ladder keeps
    every job near 0.15 s or below so that each rung runs some twenty
    times a run, enough for its fastest run to settle on a shared host
    (200 generators would take about 20 s per job).  One rung also passes
    ``--cutoff`` between the top two pieces, which truncates the
    filtration.
    """
    rng = rng_for("descriptors", seed, round_no)
    jobs: List[Job] = []
    for n_gens, levels, cut in DESCRIPTOR_LADDER:
        level, degree, partner, d, betti_only = _random_filtered_pairs(rng, n_gens, levels)
        actions = np.sort(rng.choice(np.arange(1, 1000), size=levels, replace=False)) / 100.0
        pieces = []
        local_name: Dict[int, str] = {}
        for p in range(1, levels + 1):
            members = [g for g in range(n_gens) if level[g] == p]
            iota = int(rng.integers(-1, 2))
            if p in betti_only:  # Betti vectors start at local degree 0
                iota = min(iota, min(int(degree[g]) for g in members))
                counts: Dict[int, int] = {}
                for g in members:
                    m = int(degree[g]) - iota
                    local_name[g] = f"h{m}.{counts.get(m, 0)}"
                    counts[m] = counts.get(m, 0) + 1
                body = {"betti": [counts.get(m, 0) for m in range(max(counts) + 1)]}
            else:
                for g in members:
                    local_name[g] = f"g{g}"
                body = {"complex": {
                    "generators": [{"name": local_name[g], "degree": int(degree[g]) - iota}
                                   for g in members],
                    "boundary": {local_name[j]: [local_name[i] for i in members if d[i, j]]
                                 for j in members if any(d[i, j] for i in members)},
                }}
            pieces.append({"name": f"L{p}", "action": float(actions[p - 1]), "iota": iota,
                           **body})
        cross = [{"from": f"L{level[j]}/{local_name[j]}", "to": f"L{level[i]}/{local_name[i]}"}
                 for j in range(n_gens) for i in range(n_gens)
                 if d[i, j] and level[i] < level[j]]
        order = rng.permutation(levels)
        descriptor = {"pieces": [pieces[i] for i in order], "cross_terms": cross}

        top, cutoff = levels, None
        if cut:
            top = levels - 1
            cutoff = float((actions[top - 1] + actions[top]) / 2.0)
        pages = [page_dims_by_construction(level, degree, partner, k, top)
                 for k in range(1, top + 2)]
        homology: Dict[int, int] = {}
        for (p, q), dim in pages[-1].items():
            homology[p + q] = homology.get(p + q, 0) + dim
        degrees = sorted({int(degree[g]) for g in range(n_gens) if level[g] <= top})
        jobs.append(Job(f"desc-{n_gens}g{levels}p" + ("-cut" if cutoff is not None else ""),
                        {"descriptor": descriptor, "cutoff": cutoff},
                        {"pages": pages,
                         "homology": {n: homology.get(n, 0) for n in degrees}}))
    return jobs


# -- fields ----------------------------------------------------------------------


def _grid(n: int, periodic: bool) -> Tuple[float, float]:
    """(origin, spacing) of an axis: [-1, 1] with a node at 0, or a circle."""
    if periodic:
        return 0.0, 2.0 * math.pi / n
    return -1.0, 2.0 / (n - 1)


def _field(dims, periodic, fn) -> ScalarField:
    grid = [_grid(n, p) for n, p in zip(dims, periodic)]
    return ScalarField.sample(dims, [h for _, h in grid], periodic, fn,
                              origin=[o for o, _ in grid])


# the 97^2 torus is the costliest rung and sets job_tail_s, so it runs twice
# a round (on fresh inputs) to give its fastest run more samples
FIELD_LADDER = (
    ("torus2", 33), ("torus2", 65), ("torus2", 97), ("torus2", 97),
    ("cross2", 33), ("cross2", 41),
    ("bowl2", 33), ("bowl2", 65), ("bowl2", 129),
    ("tube3", 17), ("tube3", 21),
    ("bowl3", 17), ("bowl3", 25),
)


def fields_round(seed: int, round_no: int) -> List[Job]:
    """Fields with coordinate-aligned minimum sets of known class.

    Families (all minima, because ``flatten`` needs f >= 0 near C with
    f = 0 on C; the saddle is left out for that reason):

    - ``torus2``: a (1 + sin(theta - phi)) on a periodic 2-D grid, C the
      circle at a random row: Morse-Bott, Betti (1, 1, 0).
    - ``cross2``: a (x - x0)^2 (y - y0)^2 on [-1, 1]^2, C the coordinate
      cross through a random node (the figure-eight minimum): minimally
      degenerate, Betti (1, 0, 0).  The cross reaches the grid edge, so its
      isolation box is the whole grid and tau equals f; at 65^2 with
      a = 0.5 the scan at t = 63/64 finds nodes beside the arms below
      grad_tol, so the family stays below 65^2.
    - ``bowl2`` / ``bowl3``: a x^2 + b y^2 (+ c z^2) about a random interior
      node: a Morse point, Betti (1, 0, ...).
    - ``tube3``: a (y - y0)^2 + b (z - z0)^2 over a periodic x axis, C a
      circle through a random node: Morse-Bott, Betti (1, 1, 0, 0).

    Sizes run 33^2 to 129^2 and 17^3 to 25^3, every job near 0.15 s or
    below, so that each rung runs some thirty times a run, enough for its
    fastest run to settle on a shared host (a 33^3 tube takes 0.3 s).  A
    2-torus in a 3-torus is left out: its thickening is a whole slab,
    whose Betti numbers make the job ``cubical``-led (0.17 s at 12^3, the
    smallest grid whose Hessian floor lets ``classify`` see the torus, and
    1.3 s at 24^3).  Amplitudes stay within 5 % of fixed values (1 to 2),
    because they set the thickening's size and so the job's cost; the seed
    moves the critical set instead.  They also keep every non-zero Hessian
    eigenvalue above the floor 4 h^2 below which ``classify`` reads it as
    zero.  delta = 0.02 (0.005 for the cross, whose arms are flat to
    fourth order) keeps every thickening a few cells thin.
    The full chart is used throughout: at a minimum the transverse index is
    0, so minimal degeneracy holds along the full chart only.
    """
    rng = rng_for("fields", seed, round_no)
    jobs: List[Job] = []
    for family, n in FIELD_LADDER:
        # amplitudes vary by 5 % only: they set the thickening's size and so
        # the job's cost; the seed moves the critical set instead
        a, b, c = (float(v) for v in np.array([1.5, 1.0, 2.0]) * rng.uniform(0.95, 1.05, 3))
        ndim = 3 if family.endswith("3") else 2
        node = tuple(int(v) for v in rng.integers(n // 3, n - n // 3, ndim))
        ctr = [-1.0 + i * 2.0 / (n - 1) for i in node]
        delta = 0.02
        if family == "torus2":  # C is the circle at row node[0]
            node = (node[0], 0)
            phi = node[0] * 2.0 * math.pi / n - 1.5 * math.pi
            f = _field((n, n), (True, True), lambda x, y: a * (1.0 + np.sin(x - phi)))
            expect = {"classification": "morse_bott", "betti": (1, 1, 0)}
        elif family == "cross2":
            f = _field((n, n), (False, False),
                       lambda x, y: b * ((x - ctr[0]) * (y - ctr[1])) ** 2)
            delta = 0.005
            expect = {"classification": "minimally_degenerate", "betti": (1, 0, 0)}
        elif family in ("bowl2", "bowl3"):
            coef = (b, a, c)
            f = _field((n,) * ndim, (False,) * ndim,
                       lambda *x: sum(coef[i] * (x[i] - ctr[i]) ** 2 for i in range(ndim)))
            expect = {"classification": "morse", "betti": (1,) + (0,) * ndim}
        else:  # tube3: C is the circle over the periodic x axis through node
            node = (0,) + node[1:]
            f = _field((n, n, n), (True, False, False),
                       lambda x, y, z: b * (y - ctr[1]) ** 2 + a * (z - ctr[2]) ** 2)
            expect = {"classification": "morse_bott", "betti": (1, 1, 0, 0)}
        jobs.append(Job(f"{family}-{n}", {"field": f, "node": node, "delta": delta},
                        expect))
    return jobs


# -- paths -----------------------------------------------------------------------

PATH_RANDOM = (100, 300, 600, 1000)
PATH_KNOWN = (200, 800, 2000)


def _times(rng: np.random.Generator, n: int) -> List[float]:
    inner = np.unique(rng.uniform(0.0, 1.0, n - 2))
    inner = inner[(inner > 0.0) & (inner < 1.0)]
    return [0.0] + [float(t) for t in inner] + [1.0]


def _path_json(times, lift) -> dict:
    return {"times": list(times), "angles": [(u % 1.0) * math.pi for u in lift]}


def paths_round(seed: int, round_no: int) -> List[Job]:
    """Pairs of Lagrangian line paths for ``qmdkit maslov`` (in-process CLI).

    Random pairs at 100 to 1000 breakpoints are random walks of the angle
    lift with steps below 0.45 half-turns, so consecutive angles differ by
    less than pi/2 and ``from_json``'s lift recovers the generated path.
    Each random pair runs in both orders, and the checker requires
    maslov(a, b) == -maslov(b, a).  Known pairs at 200, 800 and 2000
    breakpoints rotate monotonically through k half-turns against a
    constant line offset by half a turn, so the index is exactly k.  For
    every pair the lifted difference starts and ends off the integers, so
    the index also equals floor(d(1)) - floor(d(0)) by continuity.

    The ladder stops at 2000 breakpoints (0.6 s): today's cost is
    quadratic (4000 breakpoints take 2.75 s, 16000 take 48 s), and larger
    pairs would leave too few runs of each rung for its fastest run to
    settle.
    """
    rng = rng_for("paths", seed, round_no)
    jobs: List[Job] = []
    for n in PATH_RANDOM:
        ta, tb = _times(rng, n), _times(rng, n)
        ua = np.cumsum(np.concatenate([[rng.uniform(0, 1)], rng.uniform(-0.45, 0.45, len(ta) - 1)]))
        ub = np.cumsum(np.concatenate([[rng.uniform(0, 1)], rng.uniform(-0.45, 0.45, len(tb) - 1)]))
        a, b = _path_json(ta, ua), _path_json(tb, ub)
        expect = math.floor(ua[-1] - ub[-1]) - math.floor(ua[0] - ub[0])
        jobs.append(Job(f"random-{n}-ab", {"a": a, "b": b}, {"index": expect}))
        jobs.append(Job(f"random-{n}-ba", {"a": b, "b": a},
                        {"index": -expect, "mirror_of": len(jobs) - 1}))
    for n in PATH_KNOWN:
        k = int(rng.integers(1, min(40, (n - 1) // 10) + 1))
        ta = _times(rng, n)
        steps = rng.uniform(0.5, 1.5, len(ta) - 1)
        u0 = float(rng.uniform(0, 1))
        ua = u0 + np.concatenate([[0.0], np.cumsum(steps / steps.sum() * k)])
        tb = _times(rng, n)
        ub = np.full(len(tb), u0 - 0.5)
        jobs.append(Job(f"halfturns-{n}", {"a": _path_json(ta, ua), "b": _path_json(tb, ub)},
                        {"index": k}))
    return jobs


ROUNDS = {"masks": masks_round, "descriptors": descriptors_round,
          "fields": fields_round, "paths": paths_round}
