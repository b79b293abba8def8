"""Flag vectors and the linear relations between their entries.

The generalized Dehn-Sommerville relations say that for an index set S and a
gap (i, k) of S (both endpoints in S together with -1 and d, k - i >= 2, no
element of S strictly between them)

    sum_{j=i+1}^{k-1} (-1)^(j-i-1) f_{S + j}  =  f_S * (1 - (-1)^(k-i-1)).

The S = {} gap (-1, d) case is Euler's relation.  Every index set S of
{0,...,d-1} comes from ``index_sets(d)``, by size and then lexicographically.
A set is sparse when it has no offender, an element p with p + 1 in S or
p = d - 1.  One relation holds f_S, for p the smallest offender, with
coefficient +-1, so solving it for f_S and recursing rewrites f_S over the
Fibonacci-sized sparse basis with integer coefficients.  ``sparse_basis(d)``
lists its sets in the same order without enumerating all 2^d.
"""

import itertools
import json
from functools import lru_cache

from .errors import IncompleteBasis, InvalidParams, MissingEntry
from .rational import (
    count_exact,
    count_from_str,
    is_json_int,
    load_json,
    normalize,
    rat_exact,
    rat_from_json,
    rat_to_str,
)

# ----------------------------------------------------------------------
# value containers


class FVector:
    """Face-count vector (f_0, ..., f_{d-1}) of a d-polytope.  Each component
    is an int, or a Fraction equal to one; a float, a bool, a str or any
    other Fraction raises InvalidParams naming the component's index."""

    __slots__ = ("d", "components")

    def __init__(self, components):
        self.components = tuple(map(_face_count, itertools.count(), components))
        self.d = len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return self.d

    def __getitem__(self, i):
        return self.components[i]

    def __eq__(self, other):
        if isinstance(other, FVector):
            return self.components == other.components
        try:
            return self.components == tuple(other)
        except TypeError:  # not iterable
            return NotImplemented

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"FVector{self.components}"

    def reversed(self) -> "FVector":
        return FVector(self.components[::-1])


def _face_count(i: int, value) -> int:
    """Component i of an FVector, refused unless it is an integer."""
    value = normalize(value)
    if not is_json_int(value):
        raise InvalidParams(f"component f_{i}: {value!r} is not an integer;"
                            " give an int or a Fraction equal to one")
    return value


@lru_cache(maxsize=None)
def _canonical(d: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Every index set inside {0,...,d-1}, by size and then lexicographically,
    each mapped to itself: the one tuple that every table of d holds."""
    return {S: S for k in range(d + 1) for S in itertools.combinations(range(d), k)}


@lru_cache(maxsize=None)
def index_sets(d: int) -> tuple[tuple[int, ...], ...]:
    """Every index set inside {0,...,d-1}, by size and then lexicographically."""
    return tuple(_canonical(d))


def index_set(S, d: int) -> tuple[int, ...]:
    """S as a sorted tuple, refused unless it is of ints inside {0,...,d-1}."""
    S = tuple(S)
    if not all(type(x) is int for x in S):  # a bool or 1.0 too
        raise InvalidParams(f"index set {S} has an element that is not an int")
    S = tuple(sorted(set(S)))
    if S and not (0 <= S[0] and S[-1] < d):
        raise InvalidParams(f"index set {S} outside 0..{d - 1}")
    return S


def subset_key(S) -> str:
    """Index set as a concatenated digit string ('' for the empty set)."""
    return "".join(str(i) for i in S)


def parse_subset_key(key: str) -> tuple[int, ...]:
    """The index set a key spells, one element per decimal digit."""
    if key:
        count_from_str(key, "index-set key")
    S = tuple(map(int, key))
    if any(a >= b for a, b in zip(S, S[1:])):
        raise InvalidParams(f"index-set key {key!r} is not strictly increasing")
    return S


def read_flag_json(text: str, body: str) -> tuple[int, dict]:
    """The dimension and the exact entries of ``{"d": D, body: {...}}``.

    D must be a JSON integer and the body an object from index-set keys to
    exact numbers; anything else raises InvalidParams.
    """
    doc = load_json(text)
    d = doc.get("d") if isinstance(doc, dict) else None
    if not is_json_int(d):
        raise InvalidParams(f'"d" must be an integer, got {json.dumps(d)}')
    entries = doc.get(body)
    if not isinstance(entries, dict):
        raise InvalidParams(
            f'"{body}" must be an object, got {json.dumps(entries)}')
    return d, {parse_subset_key(key): rat_from_json(value, key)
               for key, value in entries.items()}


def write_flag_json(d: int, body: str, entries: dict) -> str:
    """``{"d": d, body: {...}}`` with the entries by size and then
    lexicographically, as read_flag_json reads it.  A key has one digit per
    element, so a set with an element above 9 raises InvalidParams."""
    for S in entries:
        if S and S[-1] > 9:
            raise InvalidParams(
                f"index set {S} has an element above 9, which a JSON key"
                " of one digit per element cannot spell")
    return json.dumps({"d": d, body: {
        subset_key(S): rat_to_str(v)
        for S, v in sorted(entries.items(), key=lambda kv: (len(kv[0]), kv[0]))}})


class FlagVector:
    """Mapping from index sets S in {0,...,d-1} to the chain counts f_S.

    f_empty is pinned to 1.  ``complete`` marks that all 2^d entries are
    present, which is what the Dehn-Sommerville residuals require.  Computed
    data pass in one step: int values and, given all 2^d, cached set keys.
    """

    __slots__ = ("d", "entries")

    def __init__(self, d: int, entries: dict):
        self.d = count_exact(d, "dimension")
        canonical = _canonical(d) if len(entries) >> d else {}
        norm: dict[tuple[int, ...], object] = {}
        for S, value in entries.items():
            if canonical.get(S) is not S:  # identity: (1.0,) equals (1,)
                S = index_set(S, d)
            norm[S] = value if type(value) is int else normalize(rat_exact(value, S))
        if norm.setdefault((), 1) != 1:
            raise InvalidParams("f_empty must equal 1")
        self.entries = norm

    @property
    def complete(self) -> bool:
        return len(self.entries) == 1 << self.d

    def get(self, S):
        """f_S, with S read as ``index_set`` reads it; a tuple of ints that
        is a stored key takes one lookup."""
        if type(S) is tuple and all(type(x) is int for x in S):
            value = self.entries.get(S)
            if value is not None:
                return value
        S = index_set(S, self.d)
        try:
            return self.entries[S]
        except KeyError:
            raise MissingEntry(
                f"flag entry f_{{{subset_key(S)}}} is not present") from None

    def f_vector(self) -> FVector:
        return FVector(self.get((i,)) for i in range(self.d))

    def to_json(self) -> str:
        return write_flag_json(self.d, "entries", self.entries)

    @classmethod
    def from_json(cls, text: str) -> "FlagVector":
        return cls(*read_flag_json(text, "entries"))

    def __eq__(self, other):
        if not isinstance(other, FlagVector):
            return NotImplemented
        return self.d == other.d and self.entries == other.entries

    def __repr__(self):
        return f"FlagVector(d={self.d}, entries={len(self.entries)})"


# ----------------------------------------------------------------------
# sparse basis


@lru_cache(maxsize=None, typed=True)  # typed: True must not find 1's entry
def sparse_basis(d: int) -> tuple[tuple[int, ...], ...]:
    """Index sets inside {0,...,d-2} with no two consecutive elements.

    There are Fibonacci-many of them (2, 3, 5, 8, 13, 21 for d = 2..7) and
    flag-vector entries on these sets determine everything else.
    """
    count_exact(d, "dimension")

    def spaced(start, k):
        # the k-subsets of start..d-2 with no two consecutive, lexicographically
        if k == 0:
            yield ()
            return
        for s in range(start, d - 2 * k + 1):
            for rest in spaced(s + 2, k - 1):
                yield (s,) + rest

    return tuple(S for k in range(d // 2 + 1) for S in spaced(0, k))


def _min_offender(S: tuple[int, ...], d: int):
    """The smallest p in the sorted set S with p + 1 in S or p = d - 1."""
    return next((p for p, q in zip(S, S[1:] + (d,)) if q == p + 1), None)


# ----------------------------------------------------------------------
# Dehn-Sommerville relations


def gds_pairs(d: int) -> tuple:
    """All (S, (i, k)) relation labels for dimension d, in a fixed order."""
    count_exact(d, "dimension")
    pairs = []
    for S in index_sets(d):
        bounds = (-1,) + S + (d,)
        pairs.extend((S, (i, k)) for i, k in zip(bounds, bounds[1:]) if k - i >= 2)
    return tuple(pairs)


def gds_relation(S, gap: tuple[int, int], d: int) -> dict[tuple[int, ...], int]:
    """Coefficients of one relation, as a combination that must vanish.

    ``gap`` must be two consecutive elements of (-1,) + S + (d,) at least 2
    apart, as ``gds_pairs`` gives them; anything else raises InvalidParams.
    """
    S = index_set(S, count_exact(d, "dimension"))
    bounds = (-1,) + S + (d,)
    i, k = gap
    if (i, k) not in zip(bounds, bounds[1:]) or k - i < 2:
        raise InvalidParams(
            f"{gap} is not a gap of index set {S} for d={d}: need consecutive"
            f" elements of {bounds} at least 2 apart")
    combo = {tuple(sorted(S + (j,))): -1 if (j - i - 1) % 2 else 1
             for j in range(i + 1, k)}
    if (k - i) % 2 == 0:
        combo[S] = -2
    return combo


@lru_cache(maxsize=None)
def _relations(d: int) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
    """Every relation of ``gds_pairs(d)``, as (set, coefficient) pairs."""
    return tuple(tuple(gds_relation(S, gap, d).items()) for S, gap in gds_pairs(d))


def gds_residuals(v: FlagVector) -> list:
    """One residual per (S, gap) pair; all zero iff v satisfies the relations."""
    if not v.complete:
        raise MissingEntry("residuals need a complete flag vector")
    f = v.entries
    return [normalize(sum(c * f[T] for T, c in rel)) for rel in _relations(v.d)]


# ----------------------------------------------------------------------
# reduction to the sparse basis


@lru_cache(maxsize=None)
def _reduce(S: tuple[int, ...], d: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """f_S over the sparse basis, as (T, integer coefficient) pairs.

    For p the smallest offender of S and i the largest element of S below p
    (or -1), gap (i, p + 1) of S - p holds f_S with coefficient +-1; that
    relation is solved for f_S.  Every other set in it is smaller than S in
    the descending lexicographic order, so the recursion terminates.
    """
    p = _min_offender(S, d)
    if p is None:
        return ((S, 1),)
    rest = tuple(x for x in S if x != p)
    i = max((x for x in rest if x < p), default=-1)
    relation = gds_relation(rest, (i, p + 1), d)
    sign = relation.pop(S)
    combo: dict[tuple[int, ...], int] = {}
    for T, c in relation.items():
        for U, cu in _reduce(T, d):
            combo[U] = combo.get(U, 0) - sign * c * cu
    return tuple(sorted(((U, c) for U, c in combo.items() if c),
                        key=lambda item: (len(item[0]), item[0])))


def reduce_index(S, d: int) -> dict[tuple[int, ...], int]:
    """Express f_S over the sparse basis, valid on every relation-satisfying
    flag vector.  Idempotent on sparse sets."""
    return dict(_reduce(index_set(S, count_exact(d, "dimension")), d))


def complete_from_sparse(values: dict, d: int) -> FlagVector:
    """Fill in all 2^d flag entries from values on the sparse basis."""
    norm: dict[tuple[int, ...], object] = {}
    for S, value in values.items():
        S = index_set(S, d)
        if _min_offender(S, d) is not None:
            raise InvalidParams(f"{S} is not a sparse index set for d={d}")
        norm[S] = normalize(rat_exact(value, S))
    if norm.setdefault((), 1) != 1:
        raise InvalidParams("f_empty must equal 1")
    missing = [S for S in sparse_basis(d) if S not in norm]
    if missing:
        raise IncompleteBasis(
            f"missing sparse values for {[subset_key(S) for S in missing]}")
    return FlagVector(d, {S: sum(c * norm[T] for T, c in _reduce(S, d))
                          for S in index_sets(d)})


def euler_check(f) -> bool:
    """Does the alternating sum of face counts equal 1 - (-1)^d?"""
    f = FVector(f)
    return sum(-fi if i % 2 else fi for i, fi in enumerate(f)) == (2 if f.d % 2 else 0)

