"""Combinatorial face lattices of standard polytope families.

Faces are stored as vertex-index sets with an explicit rank (rank = dimension,
so vertices have rank 0, the empty face rank -1, the whole polytope rank d);
the order relation is set inclusion.  Flag vectors, duals, quotients and the
Eulerian test are all computed from these lattices by brute-force enumeration,
which makes this module the ground truth every closed form is tested against.

All counts are Python ints, so nothing overflows; lattices are immutable after
construction and the internal caches are only ever filled, never invalidated,
so concurrent readers are safe.
"""

import itertools
import json
import math
import os

from .errors import DeskScaleExceeded, FaceNotInLattice, InvalidParams
from .flagalg import FlagVector, FVector

MAX_DIMENSION = 8
DEFAULT_MAX_FACES = 10**6
MAX_FACES_ENV = "FLAGVEC_MAX_FACES"


def max_faces() -> int:
    """Current face-count budget; overridable via FLAGVEC_MAX_FACES."""
    value = os.environ.get(MAX_FACES_ENV)
    if value is None:
        return DEFAULT_MAX_FACES
    return int(value)


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class FaceLattice:
    """Ranked face poset of a polytope, ordered by vertex-set inclusion.

    ``faces`` is an iterable of (rank, vertex-iterable) pairs; it must contain
    exactly one rank -1 face (empty) and one rank d face (all vertices), and
    every vertex appearing anywhere must occur as a rank 0 singleton.
    """

    def __init__(self, d: int, faces):
        if d < 0:
            raise InvalidParams(f"dimension must be >= 0, got {d}")
        if d > MAX_DIMENSION:
            raise DeskScaleExceeded(
                f"dimension {d} exceeds the supported bound {MAX_DIMENSION}")
        by_rank: list[set[frozenset[int]]] = [set() for _ in range(d + 2)]
        for rank, verts in faces:
            if not -1 <= rank <= d:
                raise InvalidParams(f"face rank {rank} outside -1..{d}")
            by_rank[rank + 1].add(frozenset(verts))
        total = sum(len(level) for level in by_rank)
        budget = max_faces()
        if total > budget:
            raise DeskScaleExceeded(
                f"{total} faces exceed the enumeration budget {budget} "
                f"(override with {MAX_FACES_ENV})")
        if len(by_rank[0]) != 1 or next(iter(by_rank[0])):
            raise InvalidParams("need exactly one empty face of rank -1")
        if len(by_rank[d + 1]) != 1:
            raise InvalidParams("need exactly one top face of rank d")
        vertices = set()
        for v in by_rank[1]:
            if len(v) != 1:
                raise InvalidParams(f"rank 0 face {sorted(v)} is not a singleton")
            vertices |= v
        top = next(iter(by_rank[d + 1]))
        for level in by_rank:
            for f in level:
                if not f <= vertices:
                    raise InvalidParams(
                        f"face {sorted(f)} uses unknown vertices")
                if not f <= top:
                    raise InvalidParams(
                        f"face {sorted(f)} not contained in the top face")

        self.d = d
        self._ranks: list[tuple[frozenset[int], ...]] = [
            tuple(sorted(level, key=sorted)) for level in by_rank]
        self._masks: list[tuple[int, ...]] = [
            tuple(_mask(f) for f in level) for level in self._ranks]
        self._rank_of: dict[frozenset[int], int] = {}
        for r, level in enumerate(self._ranks):
            for f in level:
                self._rank_of[f] = r - 1
        if len(self._rank_of) != total:
            twice = next(f for r, level in enumerate(self._ranks) for f in level
                         if self._rank_of[f] != r - 1)
            raise InvalidParams(
                f"vertex set {sorted(twice)} appears at two ranks")
        # lazily filled caches
        self._below: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
        self._flags: FlagVector | None = None
        self._toric_g_memo: dict[tuple[int, int], tuple] = {}

    # ------------------------------------------------------------------
    # basic queries

    def faces(self, rank: int) -> tuple[frozenset[int], ...]:
        if not -1 <= rank <= self.d:
            raise InvalidParams(f"rank {rank} outside -1..{self.d}")
        return self._ranks[rank + 1]

    def all_faces(self):
        for r in range(-1, self.d + 1):
            for f in self._ranks[r + 1]:
                yield r, f

    def face_count(self) -> int:
        return sum(len(level) for level in self._ranks)

    def n_vertices(self) -> int:
        return len(self._ranks[1])

    def top(self) -> frozenset[int]:
        return self._ranks[self.d + 1][0]

    def rank(self, face) -> int:
        try:
            return self._rank_of[frozenset(face)]
        except KeyError:
            raise FaceNotInLattice(f"{sorted(face)} is not a face") from None

    def f_vector(self) -> FVector:
        return FVector(tuple(len(self._ranks[r + 1]) for r in range(self.d)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaceLattice):
            return NotImplemented
        return self.d == other.d and all(
            set(a) == set(b) for a, b in zip(self._ranks, other._ranks))

    def __hash__(self):
        return hash((self.d, self.face_count(), self.n_vertices()))

    def __repr__(self):
        return f"FaceLattice(d={self.d}, faces={self.face_count()})"

    # ------------------------------------------------------------------
    # chain enumeration

    def _faces_below(self, a: int, b: int) -> tuple[tuple[int, ...], ...]:
        """For each rank-b face, the indices of the rank-a faces under it."""
        key = (a, b)
        cached = self._below.get(key)
        if cached is not None:
            return cached
        amasks = self._masks[a + 1]
        out = tuple(
            tuple(i for i, ma in enumerate(amasks) if ma & ~mb == 0)
            for mb in self._masks[b + 1])
        self._below[key] = out
        return out

    def flag_number(self, S) -> int:
        """Number of chains of faces whose rank set is exactly S."""
        S = tuple(sorted(set(S)))
        if S and not (0 <= S[0] and S[-1] < self.d):
            raise InvalidParams(f"rank set {S} outside 0..{self.d - 1}")
        if self._flags is not None:
            return self._flags.get(S)
        if not S:
            return 1
        counts = [1] * len(self._ranks[S[0] + 1])
        for a, b in zip(S, S[1:]):
            below = self._faces_below(a, b)
            counts = [sum(counts[i] for i in idxs) for idxs in below]
        return sum(counts)

    def flag_vector(self) -> FlagVector:
        """All 2^d flag numbers, by depth-first chain extension.

        Chain counts for an index set are built from the counts of its prefix,
        so each subset costs one incidence sweep.
        """
        if self._flags is not None:
            return self._flags
        d = self.d
        entries: dict[tuple[int, ...], int] = {(): 1}

        def extend(prefix: tuple[int, ...], counts: list[int]):
            for r in range(prefix[-1] + 1, d):
                below = self._faces_below(prefix[-1], r)
                nxt = [sum(counts[i] for i in idxs) for idxs in below]
                entries[prefix + (r,)] = sum(nxt)
                extend(prefix + (r,), nxt)

        for r0 in range(d):
            seed = [1] * len(self._ranks[r0 + 1])
            entries[(r0,)] = len(seed)
            extend((r0,), seed)
        self._flags = FlagVector(d, entries)
        return self._flags

    # ------------------------------------------------------------------
    # derived lattices

    def interval(self, lower, upper) -> "FaceLattice":
        """The interval [lower, upper] as a polytope lattice of its own.

        Its vertices are the faces covering ``lower`` inside the interval;
        dimension is rank(upper) - rank(lower) - 1.
        """
        lower = frozenset(lower)
        upper = frozenset(upper)
        rl, ru = self.rank(lower), self.rank(upper)
        if not (lower <= upper and rl < ru):
            raise InvalidParams("interval requires lower < upper")
        lm, um = _mask(lower), _mask(upper)
        members: list[tuple[int, int]] = []  # (rank, mask)
        for r in range(rl, ru + 1):
            for m in self._masks[r + 1]:
                if lm & ~m == 0 and m & ~um == 0:
                    members.append((r, m))
        atoms = sorted(m for r, m in members if r == rl + 1)
        faces = []
        for r, m in members:
            # a member contains atom i iff the atom's mask is a submask
            verts = [] if r == rl else [
                i for i, am in enumerate(atoms) if am & ~m == 0]
            faces.append((r - rl - 1, verts))
        return FaceLattice(ru - rl - 1, faces)

    def quotient(self, face) -> "FaceLattice":
        """Lattice of the quotient polytope: the interval [face, top]."""
        face = frozenset(face)
        if self.rank(face) >= self.d:
            raise InvalidParams("cannot take the quotient by the top face")
        return self.interval(face, self.top())

    def restriction(self, face) -> "FaceLattice":
        """The face itself as a polytope: the interval [empty, face]."""
        face = frozenset(face)
        if self.rank(face) <= -1:
            raise InvalidParams("cannot restrict to the empty face")
        return self.interval(frozenset(), face)

    def dual(self) -> "FaceLattice":
        """Order-reversed lattice; vertices of the dual are the facets."""
        if self.d == 0:
            return FaceLattice(0, list(self.all_faces()))
        facet_masks = self._masks[self.d]
        faces = []
        for r in range(-1, self.d + 1):
            for m in self._masks[r + 1]:
                over = [i for i, fm in enumerate(facet_masks) if m & ~fm == 0]
                faces.append((self.d - 1 - r, over))
        return FaceLattice(self.d, faces)

    # ------------------------------------------------------------------
    # Eulerian test

    def is_eulerian(self) -> bool:
        """Every interval of rank >= 1 balances even- and odd-rank elements.

        Rank-1 intervals are balanced trivially, so only gaps >= 2 are tested;
        the relative parity shift inside an interval is constant, which lets
        global rank parity stand in for interval-local parity.
        """
        flat_masks: list[int] = []
        flat_rank: list[int] = []
        for r in range(-1, self.d + 1):
            for m in self._masks[r + 1]:
                flat_masks.append(m)
                flat_rank.append(r)
        n = len(flat_masks)
        up = [0] * n
        down = [0] * n
        for i in range(n):
            mi = flat_masks[i]
            for j in range(n):
                if i != j and mi & ~flat_masks[j] == 0:
                    up[i] |= 1 << j
                    down[j] |= 1 << i
        even = 0
        for j in range(n):
            if flat_rank[j] % 2 == 0:
                even |= 1 << j
        full = (1 << n) - 1
        for i in range(n):
            m = up[i]
            while m:
                low = m & -m
                j = low.bit_length() - 1
                m ^= low
                if flat_rank[j] - flat_rank[i] < 2:
                    continue
                inner = (up[i] & down[j]) | (1 << i) | (1 << j)
                n_even = (inner & even).bit_count()
                n_odd = (inner & (full & ~even)).bit_count()
                if n_even != n_odd:
                    return False
        return True

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> str:
        doc = {
            "d": self.d,
            "faces": [
                {"rank": r, "vertices": sorted(f)} for r, f in self.all_faces()
            ],
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "FaceLattice":
        doc = json.loads(text)
        return cls(doc["d"], [(f["rank"], f["vertices"]) for f in doc["faces"]])


# ----------------------------------------------------------------------
# builders


def _check_dim(d: int, low: int):
    if d < low:
        raise InvalidParams(f"dimension must be >= {low}, got {d}")
    if d > MAX_DIMENSION:
        raise DeskScaleExceeded(
            f"dimension {d} exceeds the supported bound {MAX_DIMENSION}")


def _simplicial_lattice(d: int, n: int, facets) -> FaceLattice:
    """Close a set of facets (vertex tuples) under taking subsets."""
    faces: list[tuple[int, tuple[int, ...]]] = [(-1, ()), (d, tuple(range(n)))]
    seen: set[frozenset[int]] = set()
    for facet in facets:
        for size in range(1, d + 1):
            for sub in itertools.combinations(facet, size):
                fs = frozenset(sub)
                if fs not in seen:
                    seen.add(fs)
                    faces.append((size - 1, sub))
    return FaceLattice(d, faces)


def build_simplex(d: int) -> FaceLattice:
    """Face lattice of the d-simplex: all subsets of d+1 vertices."""
    _check_dim(d, 0)
    verts = range(d + 1)
    faces = []
    for size in range(0, d + 2):
        for sub in itertools.combinations(verts, size):
            faces.append((size - 1, sub))
    return FaceLattice(d, faces)


def _gale_even(sub: tuple[int, ...], n: int) -> bool:
    # any two elements outside sub must have an even number of elements of
    # sub strictly between them; consecutive outside pairs suffice
    inside = set(sub)
    outside = [i for i in range(n) if i not in inside]
    for x, y in zip(outside, outside[1:]):
        if sum(1 for s in sub if x < s < y) % 2 == 1:
            return False
    return True


def build_cyclic(d: int, n: int) -> FaceLattice:
    """Cyclic d-polytope on n vertices via Gale's evenness condition.

    Facets are the d-subsets S of the vertex line 0 < 1 < ... < n-1 such that
    any two vertices outside S have evenly many elements of S between them;
    all proper faces are subsets of facets since the polytope is simplicial.
    """
    _check_dim(d, 2)
    if n <= d:
        raise InvalidParams(f"cyclic polytope needs n >= d+1, got n={n}, d={d}")
    if math.comb(n, d) > 5 * 10**6:
        raise DeskScaleExceeded(
            f"facet enumeration over C({n},{d}) subsets is out of budget")
    facets = [sub for sub in itertools.combinations(range(n), d)
              if _gale_even(sub, n)]
    return _simplicial_lattice(d, n, facets)


def build_cube(d: int) -> FaceLattice:
    """Face lattice of the d-cube; faces are boxes fixing a sign pattern."""
    _check_dim(d, 1)
    faces: list[tuple[int, list[int]]] = [(-1, [])]
    for free in _powerset(range(d)):
        fixed = [i for i in range(d) if i not in free]
        for bits in itertools.product((0, 1), repeat=len(fixed)):
            verts = []
            for extra in itertools.product((0, 1), repeat=len(free)):
                coord = [0] * d
                for i, b in zip(fixed, bits):
                    coord[i] = b
                for i, b in zip(free, extra):
                    coord[i] = b
                verts.append(sum(b << i for i, b in enumerate(coord)))
            faces.append((len(free), verts))
    return FaceLattice(d, faces)


def build_crosspolytope(d: int) -> FaceLattice:
    """Face lattice of the d-cross-polytope (dual of the cube).

    Vertices 2i and 2i+1 are the antipodal pair on axis i; proper faces are
    exactly the vertex sets avoiding every antipodal pair.
    """
    _check_dim(d, 1)
    faces: list[tuple[int, tuple[int, ...]]] = [(-1, ()), (d, tuple(range(2 * d)))]
    for size in range(1, d + 1):
        for axes in itertools.combinations(range(d), size):
            for signs in itertools.product((0, 1), repeat=size):
                faces.append((size - 1, tuple(2 * a + s for a, s in zip(axes, signs))))
    return FaceLattice(d, faces)


def build_polygon(n: int) -> FaceLattice:
    """Face lattice of the n-gon."""
    if n < 3:
        raise InvalidParams(f"polygon needs at least 3 vertices, got {n}")
    faces: list[tuple[int, tuple[int, ...]]] = [(-1, ()), (2, tuple(range(n)))]
    for i in range(n):
        faces.append((0, (i,)))
        faces.append((1, (i, (i + 1) % n)))
    return FaceLattice(2, faces)


def _powerset(iterable):
    items = list(iterable)
    for size in range(len(items) + 1):
        yield from itertools.combinations(items, size)


# functional aliases for the derived-lattice operations


def dual(lattice: FaceLattice) -> FaceLattice:
    return lattice.dual()


def quotient(lattice: FaceLattice, face) -> FaceLattice:
    return lattice.quotient(face)


def flag_vector(lattice: FaceLattice) -> FlagVector:
    return lattice.flag_vector()


def flag_number(lattice: FaceLattice, S) -> int:
    return lattice.flag_number(S)


def is_eulerian(lattice: FaceLattice) -> bool:
    return lattice.is_eulerian()
