"""Combinatorial face lattices of standard polytope families.

Each face is stored once, as the sorted tuple of its vertex labels, with an
explicit rank (rank = dimension, so vertices have rank 0, the empty face rank
-1, the whole polytope rank d); the order relation is set inclusion.  Vertex
labels may be any nonnegative ints, and a large label costs no more than a
small one.  The ranks, each an ascending tuple of faces, are the only per-face
structure: ``rank`` and every method taking a face bisect them.  Every
operation on a lattice (``flag_vector``, ``flag_number``, ``is_eulerian``,
``dual``, ``interval``, ``quotient``, ``restriction``) is a ``FaceLattice``
method; the module's functions are the builders of the standard families.
Everything here reads one exact inclusion incidence, ``_above``: per rank,
each vertex has a bitset of the faces of that rank holding it, and the faces
over a face are the AND of its vertices' bitsets.  Every bitset is a window
``(first, bits)`` stored from its first face on, so a face with few faces over
it costs few bits however many faces the lattice has.  ``flag_vector`` is the
lattice's only chain sweep: rank by rank, the faces with equal chain counts
form a group, whose packed count is held once; each face keeps only a small
key, its multiplicity in every group below as one mixed-radix digit, summed
for all faces at once with bit-sliced counters.  The invariants that are
linear forms on the flag vector are read from it by ``cdindex``.
``is_eulerian`` ANDs windows over and under the two ends of each interval of
even rank gap; ``dual`` reads each face's window of facets; ``interval`` takes
the window over its lower end less the window meeting the vertices outside
its upper end, so no face is tested on its own.  This enumeration makes the
module the ground truth every closed form is tested against.

All counts are Python ints, so nothing overflows; lattices are immutable after
construction and the internal caches are only ever filled, never invalidated,
so concurrent readers are safe.
"""

import bisect
import itertools
import json
import math
import operator
import os
import sys
from collections import Counter
from functools import lru_cache

from .errors import DeskScaleExceeded, FaceNotInLattice, InvalidParams
from .families import cyclic_f
from .flagalg import FlagVector, FVector, index_sets
from .rational import count_exact, is_count, is_json_int, load_json

MAX_DIMENSION = 8
DEFAULT_MAX_FACES = 10**6
MAX_FACES_ENV = "FLAGVEC_MAX_FACES"
# flag_vector: a Python step peeling one face off a window costs about as
# much as C-level bit operations over this many bits, and adding a window to
# a bit-sliced counter costs about two such steps
_PEEL_STEP_BITS = 1000
_INT = frozenset((int,))


def max_faces() -> int:
    """Current face-count budget; overridable via FLAGVEC_MAX_FACES, which
    must be a count as ``rational`` reads one, and at least 1."""
    value = os.environ.get(MAX_FACES_ENV)
    if value is None:
        return DEFAULT_MAX_FACES
    budget = int(value) if is_count(value) else 0
    if budget < 1:
        raise InvalidParams(
            f"{MAX_FACES_ENV} must be a decimal integer >= 1, got {value!r}")
    return budget


def _check_face_budget(total: int):
    """Refuse a lattice of ``total`` faces when it exceeds the budget; the
    builders call it with their closed-form face count before any face."""
    budget = max_faces()
    if total > budget:
        raise DeskScaleExceeded(
            f"{total} faces exceed the enumeration budget {budget} "
            f"(override with {MAX_FACES_ENV})")


class FaceLattice:
    """Ranked face poset of a polytope, ordered by vertex-set inclusion.

    ``faces`` is an iterable of (rank, vertex-iterable) pairs; it must contain
    exactly one rank -1 face (empty) and one rank d face (all vertices), and
    every vertex appearing anywhere must occur as a rank 0 singleton.  Every
    vertex label is an int >= 0.  Each face is kept once, as the sorted tuple
    of its distinct labels (repeated labels and repeated faces collapse), and
    every method that takes a face accepts any iterable of its labels.
    """

    def __init__(self, d: int, faces):
        _check_dim(d, 0)
        given: list[list[tuple]] = [[] for _ in range(d + 2)]
        for rank, verts in faces:
            if not -1 <= rank <= d:
                raise InvalidParams(f"face rank {rank} outside -1..{d}")
            given[rank + 1].append(tuple(verts))
        # each rank as the ascending tuple of its distinct faces, each the
        # sorted tuple of its distinct labels (kept if given so); each rank's
        # list is dropped once its tuple is made, so no rank is held twice
        self._ranks: list[tuple[tuple[int, ...], ...]] = []
        for rank in range(-1, d + 1):
            level = given.pop(0)
            if not _natural_labels(level):
                f = next(f for f in level if not _natural_labels([f]))
                raise InvalidParams(f"face {list(f)} of rank {rank} has a vertex"
                                    " label that is not an int >= 0")
            for i, f in enumerate(level):
                if not all(map(operator.lt, f, f[1:])):
                    level[i] = tuple(sorted(set(f)))
            level.sort()
            self._ranks.append(tuple(map(operator.itemgetter(0),
                                         itertools.groupby(level))))
        _check_face_budget(self.face_count())
        if len(self._ranks[0]) != 1 or self._ranks[0][0]:
            raise InvalidParams("need exactly one empty face of rank -1")
        if len(self._ranks[d + 1]) != 1:
            raise InvalidParams("need exactly one top face of rank d")
        vertices = set()
        for v in self._ranks[1]:
            if len(v) != 1:
                raise InvalidParams(f"rank 0 face {list(v)} is not a singleton")
            vertices.update(v)
        top = self._ranks[d + 1][0]
        if not vertices.issuperset(top):
            raise InvalidParams(f"face {list(top)} uses unknown vertices")
        top_labels = set(top)  # a face inside it uses known vertices only
        for level in self._ranks:
            if not top_labels.issuperset(itertools.chain.from_iterable(level)):
                f = next(f for f in level if not top_labels.issuperset(f))
                raise InvalidParams(f"face {list(f)} not contained in the top face")

        self.d = d
        # lazily filled caches
        # per rank, each vertex -> (first, bits): the faces of that rank
        # holding it are first + k for the set bits k of bits
        self._windows: list[dict[int, tuple[int, int]] | None] = [None] * (d + 2)
        self._flags: FlagVector | None = None
        self._check_strict_inclusions()

    def _check_strict_inclusions(self):
        """Refuse a face inside a face of equal or lower rank, strictly or as
        one vertex set at two ranks.  That needs a rank-b face with as many
        vertices as a rank-a face for some b < a, or more for b = a, so
        lattices whose face size grows with the rank (every builder) skip it."""
        largest = [max(map(len, level), default=0) for level in self._ranks]
        smallest = [min(map(len, level), default=0) for level in self._ranks]
        for a in range(self.d + 1):
            for b in range(-1, a + 1):
                if largest[b + 1] < smallest[a + 1] + (a == b):
                    continue
                for i, (first, bits) in enumerate(self._above(a, b)):
                    if a == b:
                        bits ^= 1 << (i - first)  # a face lies in itself
                    if bits:
                        f = self._ranks[a + 1][i]
                        g = self._ranks[b + 1][_members(first, bits)[0]]
                        # f == g, or f inside a copy of a face of another rank
                        raise InvalidParams(
                            f"vertex set {list(g)} appears at two ranks"
                            if sum(g in level for level in self._ranks) > 1
                            else f"face {list(f)} of rank {a} lies strictly inside"
                                 f" face {list(g)} of rank {b}")

    # ------------------------------------------------------------------
    # basic queries

    def faces(self, rank: int) -> tuple[tuple[int, ...], ...]:
        """The faces of a rank, each its sorted tuple of vertex labels, in
        ascending tuple order."""
        if not -1 <= rank <= self.d:
            raise InvalidParams(f"rank {rank} outside -1..{self.d}")
        return self._ranks[rank + 1]

    def all_faces(self):
        """Every (rank, face) pair, by rank and then as in ``faces``."""
        for r in range(-1, self.d + 1):
            for f in self._ranks[r + 1]:
                yield r, f

    def face_count(self) -> int:
        return sum(len(level) for level in self._ranks)

    def n_vertices(self) -> int:
        return len(self._ranks[1])

    def top(self) -> tuple[int, ...]:
        """The whole polytope: the sorted tuple of every vertex label."""
        return self._ranks[self.d + 1][0]

    def _locate(self, face) -> tuple[int, int]:
        """(rank, index) of the face whose labels an iterable holds, in any
        order and with repeats, by bisecting each rank; else FaceNotInLattice."""
        key = None
        try:
            key = tuple(sorted(set(face)))
            for r, level in enumerate(self._ranks, -1):
                i = bisect.bisect_left(level, key)
                if i < len(level) and level[i] == key:
                    return r, i
        except TypeError:  # not iterable, unhashable or unordered
            pass
        shown = face if key is None else list(key)
        raise FaceNotInLattice(f"{shown!r} is not a face")

    def rank(self, face) -> int:
        return self._locate(face)[0]

    def f_vector(self) -> FVector:
        return FVector(tuple(len(self._ranks[r + 1]) for r in range(self.d)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaceLattice):
            return NotImplemented
        return self.d == other.d and self._ranks == other._ranks

    def __hash__(self):
        return hash((self.d, self.face_count(), self.n_vertices()))

    def __repr__(self):
        return f"FaceLattice(d={self.d}, faces={self.face_count()})"

    # ------------------------------------------------------------------
    # chain enumeration

    def _vertex_windows(self, b: int) -> dict[int, tuple[int, int]]:
        """Per vertex, the rank-b faces holding it as a bitset over face
        indices, stored from the vertex's first such face onward."""
        windows = self._windows[b + 1]
        if windows is None:
            holding: dict[int, list[int]] = {}
            for j, f in enumerate(self._ranks[b + 1]):
                for v in f:
                    holding.setdefault(v, []).append(j)
            windows = self._windows[b + 1] = {}
            for v, js in holding.items():  # bit j - js[0] is digit js[-1] - j
                digits = bytearray(b"0") * (js[-1] - js[0] + 1)
                for j in js:
                    digits[js[-1] - j] = 49  # "1"
                windows[v] = js[0], int(digits, 2)
        return windows

    def _above(self, a: int, b: int, faces=None):
        """Yield for each rank-a face, or each of ``faces`` if given, the
        rank-b faces over it as a window ``(first, bits)``: faces first + k
        for the set bits k of bits.

        The lattice's one inclusion test: the window is the AND of the face's
        vertices' rank-b windows (every rank-b face for the empty face), so
        only the faces over it are ever visited.  Windows are made as they
        are read, so a caller that reads each once holds one at a time."""
        windows = self._vertex_windows(b)
        everything = (0, (1 << len(self._ranks[b + 1])) - 1)
        for f in self._ranks[a + 1] if faces is None else faces:
            if not f:
                yield everything
                continue
            vertices = iter(f)
            first, bits = windows.get(next(vertices), (0, 0))
            for v in vertices:
                if not bits:
                    break
                start, vbits = windows.get(v, (0, 0))
                if start > first:  # align both windows at the later start
                    bits = (bits >> (start - first)) & vbits
                    first = start
                else:
                    bits &= vbits >> (first - start)
            yield first, bits

    def _meeting(self, face, b: int) -> tuple[int, int]:
        """The rank-b faces sharing a vertex with ``face``, as a window: the
        OR of its vertices' rank-b windows."""
        windows = self._vertex_windows(b)
        spans = [windows[v] for v in face if v in windows]
        first = min((start for start, _ in spans), default=0)
        bits = 0
        for start, vbits in spans:
            bits |= vbits << (start - first)
        return first, bits

    def flag_number(self, S) -> int:
        """Number of chains of faces whose rank set is exactly S."""
        return self.flag_vector().get(S)

    def flag_vector(self) -> FlagVector:
        """All 2^d flag numbers, in one pass over the ranks.

        The chains of rank set S ending at a face are counted in the W-bit
        field at offset W * sum(2^s for s in S) of one packed int; f_S is
        field S of the sum over all proper faces.  No f_S exceeds the product
        of the nonzero face counts, so W = its bit length + 1 never carries.
        Faces of a rank with equal counts form a group, which alone holds the
        packed count.  Rank by rank, each face y gets a small key instead:
        its multiplicity in each group g below (how many of g's faces lie
        under y, from ``_push``) as g's mixed-radix digit, 0..|g|.  Equal keys
        mean equal counts, (1 + sum of m * count(g)) << (W << rank), so each
        key is decoded once, and keys of equal count merge.  On the builders'
        lattices each rank is one group; duals of cyclic polytopes have a few.
        """
        if self._flags is not None:
            return self._flags
        d = self.d
        width = math.prod(max(len(level), 1)
                          for level in self._ranks[1:d + 1]).bit_length() + 1
        below = []  # (radix, count) of every group so far, by ascending radix
        radices, group_of = [], []  # per rank: each group's radix, each face's group
        radix, total = 1, 0
        for b in range(d):
            keys = [0] * len(self._ranks[b + 1])
            for a in range(b):
                self._push(a, b, radices[a], group_of[a], keys)
            groups, number = {}, {}  # count -> [group, faces]; key -> group
            for key, faces in Counter(keys).items():  # in order of first face
                count, rest = 1, key
                for r, c in reversed(below):  # each nonzero digit, highest first
                    if rest >= r:
                        m, rest = divmod(rest, r)
                        count += m * c
                group = groups.setdefault(count << (width << b), [len(groups), 0])
                group[1] += faces
                number[key] = group[0]
            total += sum(count * faces for count, (_, faces) in groups.items())
            group_of.append([number[key] for key in keys])
            for count, (_, faces) in groups.items():
                below.append((radix, count))
                radix *= faces + 1
            radices.append([r for r, _ in below[len(below) - len(groups):]])
        field = (1 << width) - 1
        entries = {S: total >> (width * offset) & field for S, offset in _fields(d)}
        self._flags = FlagVector(d, {(): 1} | entries)
        return self._flags

    def _push(self, a: int, b: int, counts: list[int], group_of, into: list[int]):
        """Add counts[g] into into[y] for each rank-a face of group g and
        each rank-b face y over it; ``flag_vector`` passes each group's radix
        as its count, so into[y] adds up to y's key.

        A window holding at least 2 + s / _PEEL_STEP_BITS faces, s = first +
        its bit length being the bits it spans once aligned, goes into its
        group's bit-sliced counter: plane i holds bit i of every rank-b
        face's multiplicity m, so adding a window is a ripple of C-level XORs
        and ANDs, and each group adds count * m once per face y.  Any other
        window (a polygon's, or one spanning far more faces than it holds)
        adds its count face by face, peeling its bits.
        """
        planes = [[] for _ in counts]
        for g, (first, bits) in zip(group_of, self._above(a, b)):
            if (bits.bit_count() - 2) * _PEEL_STEP_BITS >= first + bits.bit_length():
                carry, counter = bits << first, planes[g]
                for i, plane in enumerate(counter):  # ripple-carry add
                    counter[i], carry = plane ^ carry, plane & carry
                    if not carry:
                        break
                else:
                    counter.append(carry)
                continue
            count = counts[g]
            # peeled inline: a call to _members per window is slower here
            while bits:  # peel the lowest set bit, face first + k - 1
                k = (bits & -bits).bit_length()
                first += k
                into[first - 1] += count
                bits >>= k
        for count, counter in zip(counts, planes):
            if counter:
                for y, m in enumerate(_multiplicities(counter)):
                    if m:
                        into[y] += count * m

    # ------------------------------------------------------------------
    # derived lattices

    def interval(self, lower, upper) -> "FaceLattice":
        """The interval [lower, upper] as a polytope lattice of its own.

        Its vertices are the faces covering ``lower`` inside the interval;
        dimension is rank(upper) - rank(lower) - 1.
        """
        (rl, il), (ru, iu) = self._locate(lower), self._locate(upper)
        lower, upper = self._ranks[rl + 1][il], self._ranks[ru + 1][iu]
        lower_labels, upper_labels = frozenset(lower), frozenset(upper)
        if not (rl < ru and lower_labels <= upper_labels):
            raise InvalidParams("interval requires lower < upper")
        # (rank, face) for the faces over lower inside upper: the window over
        # lower, less the faces meeting a vertex of the top outside upper
        outside = [v for v in self.top() if v not in upper_labels]
        members = [(rl, lower)]
        for r in range(rl + 1, ru + 1):
            level = self._ranks[r + 1]
            first, bits = next(self._above(rl, r, [lower]))
            start, out = self._meeting(outside, r)
            bits &= ~(out << (start - first) if start >= first
                      else out >> (first - start))
            members += [(r, level[j]) for j in _members(first, bits)]
        # the interval's vertices are its atoms, numbered in the order of
        # their vertex labels read from the largest down; an atom lies in a
        # member when the member holds all of its vertices beyond lower
        atoms = sorted((tuple(v for v in f if v not in lower_labels)
                        for r, f in members if r == rl + 1),
                       key=lambda extra: extra[::-1])
        atoms_of: dict[int, list[int]] = {}
        for k, extra in enumerate(atoms):
            for v in extra:
                atoms_of.setdefault(v, []).append(k)
        faces = []
        for r, f in members:
            held: dict[int, int] = {}  # atom -> how many of its vertices f holds
            for v in f:
                for k in atoms_of.get(v, ()):
                    held[k] = held.get(k, 0) + 1
            faces.append((r - rl - 1, [k for k, n in held.items()
                                       if n == len(atoms[k])]))
        return FaceLattice(ru - rl - 1, faces)

    def quotient(self, face) -> "FaceLattice":
        """Lattice of the quotient polytope: the interval [face, top]."""
        rank, i = self._locate(face)
        if rank >= self.d:
            raise InvalidParams("cannot take the quotient by the top face")
        return self.interval(self._ranks[rank + 1][i], self.top())

    def restriction(self, face) -> "FaceLattice":
        """The face itself as a polytope: the interval [empty, face]."""
        rank, i = self._locate(face)
        if rank <= -1:
            raise InvalidParams("cannot restrict to the empty face")
        return self.interval((), self._ranks[rank + 1][i])

    def dual(self) -> "FaceLattice":
        """Order-reversed lattice; vertices of the dual are the facets."""
        # one int object per facet label, shared by every face holding it
        labels = list(range(len(self._ranks[self.d])))
        return FaceLattice(self.d, (
            (self.d - 1 - r, [labels[j] for j in _members(*window)])
            for r in range(-1, self.d + 1)
            for window in self._above(r, self.d - 1)))

    # ------------------------------------------------------------------
    # Eulerian test

    def is_eulerian(self) -> bool:
        """Every interval of rank >= 1 balances even- and odd-rank elements.

        Only even rank gaps >= 2 are tested.  A gap-1 interval holds its two
        ends alone, and an odd-gap interval whose proper subintervals are
        Eulerian is Eulerian: mu(x, y) summed from below and from above gives
        2 mu = -2 (Stanley, EC I, ch. 3 exercises).
        That uses only the stored ranks, so it holds on non-graded input too.
        Faces z strictly between x and y are counted rank by rank, as the AND
        of x's window of rank-c faces over it and y's window of rank-c faces
        under it; both are stored from their first face on, so memory stays
        linear on lattices whose windows are narrow.  When x is the empty face
        or y the top, its window is the whole rank, so the other end's window
        is counted alone.
        """
        d = self.d
        above = {(a, b): list(self._above(a, b))
                 for a in range(-1, d) for b in range(a + 1, d)}
        for b in range(1, d + 1):
            # below[c][y]: the rank-c faces under rank-b face y as a window,
            # filled in increasing c-index so that its first face comes first;
            # the intervals to the top do not read it
            below = {}
            for c in range((b + 1) % 2, b) if b < d else ():  # inside even gaps
                firsts = [0] * len(self._ranks[b + 1])
                masks = [0] * len(self._ranks[b + 1])
                for z, window in enumerate(above[c, b]):
                    for y in _members(*window):  # the faces y over face z
                        if masks[y]:
                            masks[y] |= 1 << (z - firsts[y])
                        else:
                            firsts[y], masks[y] = z, 1
                below[c] = list(zip(firsts, masks))
            for a in range(b - 2, -2, -2):
                # faces at odd distance from x count +1, at even distance -1;
                # with the ends x and y the interval balances when the sum is 2
                if a == -1 or b == d:
                    # over the empty face or under the top, the faces between
                    # are the other end's window alone: count it, shift nothing
                    balance = [0] * len(self._ranks[(a if b == d else b) + 1])
                    for c in range(a + 1, b):
                        sign = 1 if (c - a) % 2 else -1
                        balance = [t + sign * bits.bit_count() for t, (_, bits)
                                   in zip(balance, above[a, c] if b == d else below[c])]
                    if any(t != 2 for t in balance):
                        return False
                    continue
                between = [(1 if (c - a) % 2 else -1, above[a, c], below[c])
                           for c in range(a + 1, b)]
                for x, window in enumerate(above[a, b]):
                    for y in _members(*window):  # the faces y over face x
                        balance = 0
                        for sign, up, down in between:
                            (f1, m1), (f2, m2) = up[x], down[y]
                            balance += sign * (m1 & m2 >> (f1 - f2) if f1 > f2
                                               else m2 & m1 >> (f2 - f1)).bit_count()
                        if balance != 2:
                            return False
        return True

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> str:
        return json.dumps({"d": self.d, "faces": [
            {"rank": r, "vertices": list(f)} for r, f in self.all_faces()]})

    @classmethod
    def from_json(cls, text: str) -> "FaceLattice":
        """The lattice of a ``to_json`` document; any other shape raises
        InvalidParams."""
        doc = load_json(text)
        d = doc.get("d") if isinstance(doc, dict) else None
        if not is_json_int(d):
            raise InvalidParams(f'"d" must be an integer, got {json.dumps(d)}')
        faces = doc.get("faces")
        if not isinstance(faces, list):
            raise InvalidParams(f'"faces" must be a list, got {json.dumps(faces)}')
        out = []
        for k, face in enumerate(faces):
            if isinstance(face, dict):
                rank, verts = face.get("rank"), face.get("vertices")
                if (is_json_int(rank) and isinstance(verts, list)
                        and all(is_json_int(v) and v >= 0 for v in verts)):
                    out.append((rank, verts))
                    continue
            raise InvalidParams(
                f'face {k} must be {{"rank": integer, "vertices": [integer >= 0,'
                f' ...]}}, got {json.dumps(face)}')
        return cls(d, out)


@lru_cache(maxsize=None)
def _fields(d: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(S, the field of f_S in ``flag_vector``'s total) for S nonempty."""
    return tuple((S, sum(1 << s for s in S)) for S in sorted(index_sets(d)[1:]))


def _natural_labels(faces) -> bool:
    """Whether every label of every face is an int >= 0, tested at C level."""
    labels = itertools.chain.from_iterable
    return (_INT.issuperset(map(type, labels(faces)))
            and min(labels(faces), default=0) >= 0)


def _multiplicities(planes: list[int]) -> memoryview:
    """Read a bit-sliced counter: entry y is the sum of bit y of planes[i]
    times 2^i.  Each plane is spread to one field per bit by C-level string
    and int conversions, so no Python step is taken per bit."""
    size, code = next((size, code) for size, code in ((1, "B"), (2, "H"),
                                                      (4, "I"), (8, "Q"))
                      if 8 * size >= len(planes))
    zero, one = bytes(size), bytes(size - 1) + b"\1"
    packed = sum(int.from_bytes(format(plane, "b").encode()
                                .replace(b"0", zero).replace(b"1", one), "big") << i
                 for i, plane in enumerate(planes))
    n = max(plane.bit_length() for plane in planes)
    # native byte order for cast; big-endian bytes hold the last field first
    fields = memoryview(packed.to_bytes(n * size, sys.byteorder)).cast(code)
    return fields if sys.byteorder == "little" else fields[::-1]


def _members(first: int, bits: int) -> list[int]:
    """The indices in a window: first + k for the set bits k of bits."""
    out = []
    while bits:  # peel the lowest set bit, index first + k - 1
        k = (bits & -bits).bit_length()
        first += k
        out.append(first - 1)
        bits >>= k
    return out


# ----------------------------------------------------------------------
# builders


def _check_dim(d: int, low: int):
    if count_exact(d, "dimension", low) > MAX_DIMENSION:
        raise DeskScaleExceeded(
            f"dimension {d} exceeds the supported bound {MAX_DIMENSION}")


def _simplicial_lattice(d: int, n: int, facets) -> FaceLattice:
    """The lattice of a simplicial d-polytope on vertices 0..n-1, closed from
    its facets rank by rank: the faces of a rank are the r-subsets of the
    faces of the rank above, each kept once in the order first made, so each
    rank is nearly sorted.  A facet whose labels do not ascend, and the faces
    made from it, are sorted by the constructor."""
    def faces():
        yield from ((-1, ()), (d, tuple(range(n))))
        rank = dict.fromkeys(facets)
        for r in range(d - 1, -1, -1):
            yield from ((r, f) for f in rank)
            rank = dict.fromkeys(itertools.chain.from_iterable(
                itertools.combinations(f, r) for f in rank))
    return FaceLattice(d, faces())


def build_simplex(d: int) -> FaceLattice:
    """Face lattice of the d-simplex, closed from its facets: the d-subsets
    of its d+1 vertices."""
    _check_dim(d, 0)
    _check_face_budget(1 << (d + 1))
    return _simplicial_lattice(d, d + 1, itertools.combinations(range(d + 1), d))


def _gale_facets(d: int, n: int):
    """The d-subsets of 0..n-1 obeying Gale's evenness condition, read as
    runs of consecutive vertices: a run from 0 or to n - 1 may have any
    length, every other run is even and is laid down as adjacent pairs."""
    def runs(start, k):
        # the k-subsets of start..n-1 whose runs are even, but for one
        # ending at n - 1: a pair (s, s + 1) first, or that run alone
        for s in range(start, n - k) if k >= 2 else ():
            for rest in runs(s + 2, k - 2):
                yield (s, s + 1) + rest
        if start <= n - k:
            yield tuple(range(n - k, n))

    yield from runs(0, d)  # the run from 0, if any, is even
    for rest in runs(1, d - 1):  # the run from 0 is odd
        yield (0,) + rest


def build_cyclic(d: int, n: int) -> FaceLattice:
    """Cyclic d-polytope on n vertices via Gale's evenness condition.

    Facets are the d-subsets S of the vertex line 0 < 1 < ... < n-1 such that
    any two vertices outside S have evenly many elements of S between them
    (Gale 1963; Ziegler, Lectures on Polytopes, Thm 0.7).  They are generated
    run by run (``_gale_facets``), so no other subset is tested; all proper
    faces are subsets of facets since the polytope is simplicial.  The
    dimension bound, ``cyclic_f``'s refusal of n <= d and the face budget on
    its closed-form face count all come before any facet is made.
    """
    _check_dim(d, 2)
    _check_face_budget(sum(cyclic_f(d, n)) + 2)
    return _simplicial_lattice(d, n, _gale_facets(d, n))


def build_cube(d: int) -> FaceLattice:
    """Face lattice of the d-cube; faces are boxes fixing a sign pattern.

    Vertex v is the 0/1 point whose coordinate i is bit i of v.  The face
    with free axes ``free`` (a bit mask) through the corner ``base`` (a
    submask of the fixed axes) holds the vertices base | s for the
    submasks s of ``free``.
    """
    _check_dim(d, 1)
    _check_face_budget(3 ** d + 1)
    full = (1 << d) - 1

    def faces():  # each face's labels ascend, as the submasks of free do
        yield -1, ()
        for free in range(full + 1):
            rank, spans = free.bit_count(), list(_submasks(free))
            for base in _submasks(full ^ free):
                yield rank, tuple([base | s for s in spans])
    return FaceLattice(d, faces())


def _submasks(mask: int):
    """Every submask of ``mask``, from 0 up to ``mask`` itself."""
    s = 0
    while s != mask:
        yield s
        s = (s - mask) & mask
    yield mask


def build_crosspolytope(d: int) -> FaceLattice:
    """Face lattice of the d-cross-polytope (dual of the cube).

    Vertices 2i and 2i+1 are the antipodal pair on axis i.  The lattice is
    closed from its facets, which take one vertex of each pair.
    """
    _check_dim(d, 1)
    _check_face_budget(3 ** d + 1)
    return _simplicial_lattice(d, 2 * d, itertools.product(
        *((2 * i, 2 * i + 1) for i in range(d))))


def build_polygon(n: int) -> FaceLattice:
    """Face lattice of the n-gon, closed from its facets: the n edges
    (i, i+1 mod n)."""
    count_exact(n, "vertex count", 3)
    _check_face_budget(2 * n + 2)
    return _simplicial_lattice(2, n, ((i, (i + 1) % n) for i in range(n)))
