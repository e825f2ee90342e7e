"""Spectral sequences of filtered chain complexes over GF(2).

A FilteredComplex is a finite chain complex whose basis elements carry a
homological degree and a filtration level p in 1..r, with the differential
preserving the filtration (the boundary of a level-p generator lies in the
span of levels <= p); construction checks that and d^2 = 0, once, so its
pages never fail.  Page k is defined by the cycle/boundary formula

    Z^k_{p,q} = {x in F_p C_{p+q} : dx in F_{p-k}}
    E^k_{p,q} = Z^k_{p,q} / (Z^{k-1}_{p-1,q+1} + d Z^{k-1}_{p+k-1,q-k+2})

with the page-k differential induced by d, of bidegree (-k, k-1).  It is
computed from the persistence pairing instead (Edelsbrunner-Harer,
Computational Topology, VII; Basu-Parida 2017): one column reduction in
filtration order pairs generators, a pair whose levels differ by l gives
a class at each end on pages 1..l and is cancelled by d_l, and unpaired
generators survive to every page.  So d_k is a partial identity on the
classes, held as its (source, target) generator pairs.  Finite complexes
stabilize no later than page r+1; the stable page's total dimensions
recover the homology of the underlying complex.

Descriptors bundle local data per critical piece: an action value (which
orders the filtration), an integer grading offset iota, and a local
complex (or just its Betti numbers).  The assembled total complex puts
piece p's degree-m homology in total degree m + iota_p, so its first page
realizes the local-homology dimensions directly.  Action-cutoff
truncations form a directed system whose first pages agree on every
common bidegree, verified by the directed-limit check.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

# quotient_dim, solve_row_combination and subspace_sum are unused here;
# perfbench/tracing.py patches them on this module
from .gf2 import (quotient_dim, reduce_columns,  # noqa: F401
                  solve_row_combination, subspace_sum)


class FiltrationError(ValueError):
    pass


class BoundaryError(ValueError):
    pass


class CrossTermError(ValueError):
    pass


class DescriptorError(ValueError):
    """A descriptor piece with a bad value or an unknown or duplicate name."""


# most generators one piece's Betti numbers may expand into; far above any
# real descriptor, it stops a huge Betti number before any name is built
MAX_GENERATORS = 10 ** 6


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    filtration: int

    def __post_init__(self):
        if self.filtration < 1:
            raise FiltrationError(f"generator {self.name}: filtration must be >= 1")


class FilteredComplex:
    """Finite GF(2) chain complex with a filtration adapted to its basis;
    construction checks names, degrees, the filtration and d^2 = 0, once."""

    def __init__(self, generators: Sequence[Generator],
                 boundary: Dict[str, Iterable[str]]):
        self.generators: Tuple[Generator, ...] = tuple(generators)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        by_name = {g.name: g for g in self.generators}
        boundary_names: Dict[str, Tuple[str, ...]] = {}
        raises_level = None     # the first entry that raises the level, in generator order
        for g in self.generators:
            targets = tuple(boundary.get(g.name, ()))
            boundary_names[g.name] = targets
            for tname in targets:
                tgt = by_name.get(tname)
                if tgt is None:
                    raise BoundaryError(f"boundary of {g.name} names unknown "
                                        f"generator {tname}")
                if tgt.degree != g.degree - 1:
                    raise BoundaryError(f"boundary of {g.name} (degree {g.degree}) hits "
                                        f"{tname} of degree {tgt.degree}")
                if raises_level is None and tgt.filtration > g.filtration:
                    raises_level = FiltrationError(
                        f"differential raises filtration: {g.name} (p={g.filtration}) "
                        f"-> {tname} (p={tgt.filtration})")
        for name in boundary:
            if name not in by_name:
                raise BoundaryError(f"boundary given for unknown generator {name}")
        if raises_level is not None:
            raise raises_level
        for g in sorted(self.generators, key=lambda g: g.degree):
            # d(d g) counts each path g -> t -> s once, mod 2
            twice: set = set()
            for tname in boundary_names[g.name]:
                for sname in boundary_names[tname]:
                    twice ^= {sname}
            if twice:
                raise BoundaryError(f"d^2 != 0 out of degree {g.degree}")
        # read-only, since persistence() keeps its pairing once computed
        self.boundary_names: Mapping[str, Tuple[str, ...]] = MappingProxyType(boundary_names)
        self._persistence = None    # (pairs, unpaired) as tuples, once reduced

    # -- structure queries ----------------------------------------------

    def degrees(self) -> List[int]:
        return sorted({g.degree for g in self.generators})

    def dim(self, n: int) -> int:
        return sum(g.degree == n for g in self.generators)

    def filtrations(self, n: int) -> List[int]:
        return [g.filtration for g in self.generators if g.degree == n]

    def generator_names(self, n: int) -> List[str]:
        return [g.name for g in self.generators if g.degree == n]

    @property
    def max_filtration(self) -> int:
        return max((g.filtration for g in self.generators), default=1)

    def is_empty(self) -> bool:
        return not self.generators

    def _pivots(self, order: Sequence[Generator]) -> List[Optional[int]]:
        """``reduce_columns`` over the boundary columns of `order`, each
        listing its targets' positions in `order`."""
        position = {g.name: i for i, g in enumerate(order)}
        return reduce_columns([position[t] for t in self.boundary_names[g.name]]
                              for g in order)

    # -- homology oracle ---------------------------------------------------

    def homology_dims(self) -> Dict[int, int]:
        """Direct GF(2) homology of the unfiltered total complex.

        One ``reduce_columns`` pass over every generator in degree order,
        ignoring the filtration: a degree-n column reduces only against
        other degree-n columns, so rank d_n is their pivot count.
        """
        order = sorted(self.generators, key=lambda g: g.degree)
        rank: Dict[int, int] = {}
        for g, pivot in zip(order, self._pivots(order)):
            if pivot is not None:
                rank[g.degree] = rank.get(g.degree, 0) + 1
        return {n: self.dim(n) - rank.get(n, 0) - rank.get(n + 1, 0)
                for n in self.degrees()}

    # -- persistence -------------------------------------------------------

    def persistence(self) -> Tuple[List[Tuple[Generator, Generator]], List[Generator]]:
        """Persistence pairs (x, y), x the pivot of y's reduced boundary, and
        the unpaired generators (Edelsbrunner-Letscher-Zomorodian 2002).

        Generators are sorted by (filtration, degree); a boundary target
        sits one degree lower at no higher level, which construction has
        checked, so every prefix spans a subcomplex.  Each boundary column
        lists its targets' positions in that order and goes through
        ``reduce_columns``; a column's pivot is its latest generator after
        reduction.  The first call stores the result, so ``page`` and
        ``converge`` share one reduction per complex; every call returns
        fresh lists.
        """
        if self._persistence is None:
            self._persistence = self._reduce()
        pairs, unpaired = self._persistence
        return list(pairs), list(unpaired)

    def _reduce(self) -> Tuple[Tuple[Tuple[Generator, Generator], ...], Tuple[Generator, ...]]:
        order = sorted(self.generators, key=lambda g: (g.filtration, g.degree))
        pairs, paired = [], set()
        for y, x in enumerate(self._pivots(order)):
            if x is not None:
                pairs.append((order[x], order[y]))
                paired.update((x, y))
        return tuple(pairs), tuple(g for i, g in enumerate(order) if i not in paired)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "generators": [{"name": g.name, "degree": g.degree,
                            "filtration": g.filtration} for g in self.generators],
            "boundary": {name: list(t) for name, t in sorted(self.boundary_names.items())
                         if t},
        }

    @classmethod
    def from_json(cls, data: dict) -> "FilteredComplex":
        gens = []
        for i, d in enumerate(_require_list(data["generators"], "generators")):
            _require_object(d, f"generator {i}")
            _require_str(d["name"], f"generator {i}: name")
            gens.append(Generator(d["name"], _require_int(d["degree"], f"degree of {d['name']}"),
                                  _require_int(d.get("filtration", 1),
                                               f"filtration of {d['name']}")))
        boundary = data.get("boundary", {})
        _require_object(boundary, "boundary")
        for name, targets in boundary.items():
            _require_list(targets, f"boundary of {name}")
        return cls(gens, boundary)


# -- pages -----------------------------------------------------------------


@dataclass
class Page:
    """Page E^k: the dimension of each bidegree (p, q), and d_k as the
    (source, target) generator pairs leaving each bidegree that has a
    class; a pair maps the source's class to the target's, which sits at
    (p - k, q + k - 1).  No class is in two pairs, so the rank of d_k out
    of (p, q) is the number of its pairs."""

    k: int
    entries: Dict[Tuple[int, int], int]
    differentials: Dict[Tuple[int, int], List[Tuple[Generator, Generator]]]

    def dims(self) -> Dict[Tuple[int, int], int]:
        return {pq: d for pq, d in self.entries.items() if d}

    def dim_at(self, p: int, q: int) -> int:
        return self.entries.get((p, q), 0)

    def total_dims(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for (p, q), d in self.dims().items():
            out[p + q] = out.get(p + q, 0) + d
        return out

    def to_json(self) -> dict:
        return {
            "page": self.k,
            "entries": [{"p": p, "q": q, "dim": d}
                        for (p, q), d in sorted(self.dims().items())],
        }


def page(fc: FilteredComplex, k: int) -> Page:
    """Page E^k with its induced differential of bidegree (-k, k-1)."""
    if k < 1:
        raise ValueError("pages are defined for k >= 1")
    return _page_from_pairs(*fc.persistence(), k)


def _page_from_pairs(pairs: List[Tuple[Generator, Generator]],
                     unpaired: List[Generator], k: int) -> Page:
    """Each unpaired generator gives a class, a pair whose level gap is at
    least k gives a class at each end, and d_k maps y's class to x's on the
    pairs (x, y) whose gap is exactly k."""
    live = [(x, y) for x, y in pairs if y.filtration - x.filtration >= k]
    entries: Dict[Tuple[int, int], int] = {}
    for g in unpaired + [g for pair in live for g in pair]:
        pq = (g.filtration, g.degree - g.filtration)
        entries[pq] = entries.get(pq, 0) + 1
    differentials: Dict[Tuple[int, int], List[Tuple[Generator, Generator]]] = {
        pq: [] for pq in entries}
    for x, y in live:
        if y.filtration - x.filtration == k:
            differentials[(y.filtration, y.degree - y.filtration)].append((y, x))
    return Page(k, entries, differentials)


def converge(fc: FilteredComplex) -> Tuple[int, Page]:
    """Smallest k with E^k = E^{k+1} = ... and the stable page.

    A pair with level gap l is cancelled by d_l, so the pages stop changing
    after the widest gap; the stable page is page r+1 for r levels.
    """
    if fc.is_empty():
        return 1, Page(1, {}, {})
    pairs, unpaired = fc.persistence()
    widest = max((y.filtration - x.filtration for x, y in pairs), default=0)
    return 1 + widest, _page_from_pairs(pairs, unpaired, fc.max_filtration + 1)


# -- descriptors -------------------------------------------------------------


@dataclass(frozen=True)
class QMDPiece:
    """One piece of a descriptor: a string name, a finite real action (not
    a bool), an integer iota, and Betti numbers (at most MAX_GENERATORS in
    all) or a local complex, whose generators are an array of objects
    with string names.  The walk that validates it also fills
    `generators`, its (name, total degree) pairs, and `boundary`, its
    local differential: names take the prefix ``<piece>/`` (b_m gives
    ``h<m>.0``, ``h<m>.1``, ...) and degrees shift by iota.  Neither takes
    part in construction, equality or repr."""

    name: str
    action: float
    iota: int
    betti: Optional[Tuple[int, ...]] = None
    local_complex: Optional[dict] = None
    generators: Tuple[Tuple[str, int], ...] = field(init=False, repr=False, compare=False)
    boundary: Dict[str, Tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_str(self.name, "piece name")
        if (self.betti is None) == (self.local_complex is None):
            raise DescriptorError(f"piece {self.name}: provide exactly one of betti "
                                  f"or local_complex")
        if (isinstance(self.action, bool) or not isinstance(self.action, numbers.Real)
                or not -math.inf < self.action < math.inf):
            raise DescriptorError(f"piece {self.name}: action must be finite, "
                                  f"got {self.action!r}")
        _require_int(self.iota, f"piece {self.name}: iota")
        expanded: Dict[str, Tuple[str, ...]] = {}
        if self.betti is not None:
            betti = tuple(_require_int(b, f"piece {self.name}: betti") for b in self.betti)
            if any(b < 0 for b in betti):
                raise DescriptorError(f"piece {self.name}: betti numbers must be >= 0, "
                                      f"got {list(betti)}")
            if sum(betti) > MAX_GENERATORS:
                raise DescriptorError(f"piece {self.name}: Betti numbers expand into more "
                                      f"than {MAX_GENERATORS} generators")
            object.__setattr__(self, "betti", betti)
            gens = [(f"{self.name}/h{m}.{i}", m + self.iota)
                    for m, b in enumerate(betti) for i in range(b)]
        else:
            frag = self.local_complex
            boundary = frag.get("boundary", {}) if isinstance(frag, dict) else None
            if not isinstance(boundary, dict):
                raise DescriptorError(f"piece {self.name}: complex must be an object "
                                      f"whose boundary maps names to lists")
            rename, gens = {}, []
            for i, g in enumerate(_require_list(frag["generators"],
                                                f"piece {self.name}: generators")):
                _require_object(g, f"piece {self.name}: generator {i}")
                _require_str(g["name"], f"piece {self.name}: generator name")
                degree = _require_int(g["degree"], f"piece {self.name}: degree of {g['name']}")
                rename[g["name"]] = f"{self.name}/{g['name']}"
                gens.append((rename[g["name"]], degree + self.iota))
            for src, targets in boundary.items():
                if not isinstance(targets, list):
                    raise DescriptorError(f"piece {self.name}: boundary of {src} must be "
                                          f"a list of generator names, got {targets!r}")
                for name in (src, *targets):
                    _require_str(name, f"piece {self.name}: boundary name")
                    if name not in rename:
                        raise DescriptorError(f"piece {self.name}: boundary names "
                                              f"unknown generator {name}")
                expanded[rename[src]] = tuple(rename[t] for t in targets)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "boundary", expanded)


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DescriptorError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _require_str(value, what: str) -> None:
    if not isinstance(value, str):
        raise DescriptorError(f"{what} must be a string, got {value!r}")


def _require_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise DescriptorError(f"{what} must be an array, got {value!r}")
    return value


def _require_object(value, what: str) -> None:
    if not isinstance(value, dict):
        raise DescriptorError(f"{what} must be an object, got {value!r}")


@dataclass(frozen=True)
class QMDDescriptor:
    pieces: Tuple[QMDPiece, ...]
    cross_terms: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self):
        seen = set()
        for piece in self.pieces:
            for name, _ in piece.generators:
                if name in seen:
                    raise DescriptorError(f"generator name {name} is used twice")
                seen.add(name)
        for src, dst in self.cross_terms:
            _require_str(src, "cross term name")
            _require_str(dst, "cross term name")
            if src not in seen or dst not in seen:
                raise DescriptorError(f"cross term {src} -> {dst} names unknown generators")

    def to_json(self) -> dict:
        out = {"pieces": [], "cross_terms": [{"from": a, "to": b}
                                             for a, b in self.cross_terms]}
        for piece in self.pieces:
            entry = {"name": piece.name, "action": piece.action, "iota": piece.iota}
            if piece.betti is not None:
                entry["betti"] = list(piece.betti)
            else:
                entry["complex"] = piece.local_complex
            out["pieces"].append(entry)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "QMDDescriptor":
        pieces = []
        for i, entry in enumerate(_require_list(data["pieces"], "pieces")):
            _require_object(entry, f"piece {i}")
            pieces.append(QMDPiece(
                name=entry["name"],
                action=entry["action"],
                iota=entry["iota"],
                betti=(tuple(_require_list(entry["betti"], f"piece {i}: betti"))
                       if "betti" in entry else None),
                local_complex=entry.get("complex"),
            ))
        cross = []
        for i, term in enumerate(_require_list(data.get("cross_terms", []), "cross_terms")):
            _require_object(term, f"cross term {i}")
            cross.append((term["from"], term["to"]))
        return cls(tuple(pieces), tuple(cross))


def build_from_qmd(descriptor: QMDDescriptor) -> FilteredComplex:
    """Assemble the filtered total complex of a descriptor.

    Pieces are sorted by action (stable, so ties keep input order and get
    distinct consecutive levels); piece p's expanded generators, a local
    degree-m one in total degree m + iota_p, sit at filtration p.  Cross
    terms, whose names the descriptor has already checked, become off-block
    differential entries; CrossTermError unless each points to a strictly
    lower-action piece and drops total degree by exactly one.
    """
    generators: List[Generator] = []
    boundary: Dict[str, Tuple[str, ...]] = {}
    owner: Dict[str, QMDPiece] = {}
    for p, piece in enumerate(sorted(descriptor.pieces, key=lambda pc: pc.action), start=1):
        for name, degree in piece.generators:
            generators.append(Generator(name, degree, p))
            owner[name] = piece
        boundary.update(piece.boundary)
    gen_degree = {g.name: g.degree for g in generators}
    for src, dst in descriptor.cross_terms:
        if owner[dst].action >= owner[src].action:
            raise CrossTermError(f"cross term {src} -> {dst} does not decrease action")
        if gen_degree[dst] != gen_degree[src] - 1:
            raise CrossTermError(f"cross term {src} -> {dst} must drop degree by 1")
        boundary[src] = (*boundary.get(src, ()), dst)
    return FilteredComplex(generators, boundary)


def truncate_by_action(descriptor: QMDDescriptor, cutoff: float) -> QMDDescriptor:
    """Keep pieces with action < cutoff and cross terms among them."""
    kept = tuple(p for p in descriptor.pieces if p.action < cutoff)
    names = {name for p in kept for name, _ in p.generators}
    cross = tuple((a, b) for a, b in descriptor.cross_terms
                  if a in names and b in names)
    return QMDDescriptor(kept, cross)


def directed_limit_check(descriptor: QMDDescriptor,
                         cutoffs: Sequence[float]) -> bool:
    """First-page entries present at one cutoff agree at every larger cutoff."""
    cutoffs = list(cutoffs)
    if any(b < a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError("cutoffs must be nondecreasing")
    dims_per_cutoff = []
    for cut in cutoffs:
        trunc = truncate_by_action(descriptor, cut)
        if not trunc.pieces:
            dims_per_cutoff.append({})
            continue
        dims_per_cutoff.append(page(build_from_qmd(trunc), 1).dims())
    for i, small in enumerate(dims_per_cutoff):
        for big in dims_per_cutoff[i + 1:]:
            for pq, dim in small.items():
                if big.get(pq, 0) != dim:
                    return False
    return True
