"""Closed-form f-vectors, connected sums, and the f-vector properties.

The four properties checked on a positive vector (f_0, ..., f_{d-1}):

    convex       2 f_k >= f_{k-1} + f_{k+1}        for interior k
    log-convex   f_k^2 >= f_{k-1} f_{k+1}          for interior k
    unimodal     rises to some peak, then falls
    barany       f_k >= min(f_0, f_{d-1})          for interior k

Each one implies the next on positive integer vectors.
"""

from fractions import Fraction
from math import comb

from .errors import DimensionMismatch, InvalidParams
from .flagalg import FVector
from .rational import count_exact
from .records import Record


def cyclic_f(d: int, n: int) -> FVector:
    """f-vector of the cyclic d-polytope on n vertices, from the Upper Bound
    Theorem: its h-vector is h_i = C(n-d-1+i, i) for i <= d/2, then
    symmetric, and f_(j-1) = sum over i of C(d-i, j-i) h_i."""
    count_exact(d, "dimension", 2)
    if count_exact(n, "vertex count") <= d:
        raise InvalidParams(f"cyclic polytope needs n >= d+1, got n={n}, d={d}")
    h = [comb(n - d - 1 + min(i, d - i), min(i, d - i)) for i in range(d + 1)]
    return FVector(tuple(sum(comb(d - i, j - i) * h[i] for i in range(j + 1))
                         for j in range(1, d + 1)))


def connected_sum_f(fP, fQ) -> FVector:
    """f-vector of a connected sum: componentwise sum, one less at both ends.

    Only the dimensions are validated; whether the pair is actually gluable
    (simplicial with simple) is the caller's concern.
    """
    fP, fQ = FVector(fP), FVector(fQ)
    if fP.d != fQ.d:
        raise DimensionMismatch(f"cannot glue dimensions {fP.d} and {fQ.d}")
    d = fP.d
    if d < 3:
        raise InvalidParams(f"connected sums need dimension >= 3, got {d}")
    return FVector(tuple(
        p + q - (1 if i in (0, d - 1) else 0)
        for i, (p, q) in enumerate(zip(fP, fQ))))


def cyclic_sum_f(d: int, n: int, m: int | None = None) -> FVector:
    """f-vector of the connected sum of the cyclic d-polytope on n vertices
    with the dual of the one on m vertices; m defaults to n, which gives a
    palindromic vector."""
    f = cyclic_f(d, n)
    return connected_sum_f(f, (f if m is None else cyclic_f(d, m)).reversed())


def simplicial_flag_number(f, S) -> int:
    """f_S of a simplicial polytope with f-vector f: f_(max S) times
    C(b + 1, a + 1), the number of a-faces of a b-simplex, for each pair
    a < b adjacent in S; f_() = 1."""
    S = sorted(S)
    value = f[S[-1]] if S else 1
    for a, b in zip(S, S[1:]):
        value *= comb(b + 1, a + 1)
    return value


class PropertyReport(Record):
    """Verdicts for the four properties with a violating index per failure."""

    __slots__ = ("convex", "log_convex", "unimodal", "barany", "witnesses")

    def __init__(self, convex: bool, log_convex: bool, unimodal: bool,
                 barany: bool, witnesses: dict[str, int] | None = None):
        self.convex = convex
        self.log_convex = log_convex
        self.unimodal = unimodal
        self.barany = barany
        self.witnesses = {} if witnesses is None else witnesses

    def as_dict(self) -> dict:
        letters = {"C": "convex", "L": "log_convex", "U": "unimodal", "B": "barany"}
        return {
            letter: {"holds": getattr(self, attr),
                     "witness": self.witnesses.get(attr)}
            for letter, attr in letters.items()
        }


def _unimodal(f: FVector) -> tuple[bool, int | None]:
    comps = f.components
    peak = comps.index(max(comps))
    for j in range(peak):
        if comps[j] > comps[j + 1]:
            return False, j + 1
    for j in range(peak, len(comps) - 1):
        if comps[j] < comps[j + 1]:
            return False, j
    return True, None


def properties(f) -> PropertyReport:
    """Check the four properties on a positive integer vector."""
    f = FVector(f)
    if f.d < 1 or any(c <= 0 for c in f):
        raise InvalidParams("need a nonempty vector of positive integers")
    comps = f.components
    witnesses: dict[str, int] = {}

    convex = True
    log_convex = True
    barany = True
    end_min = min(comps[0], comps[-1])
    for k in range(1, f.d - 1):
        if convex and 2 * comps[k] < comps[k - 1] + comps[k + 1]:
            convex, witnesses["convex"] = False, k
        if log_convex and comps[k] ** 2 < comps[k - 1] * comps[k + 1]:
            log_convex, witnesses["log_convex"] = False, k
        if barany and comps[k] < end_min:
            barany, witnesses["barany"] = False, k

    unimodal, u_witness = _unimodal(f)
    if not unimodal:
        witnesses["unimodal"] = u_witness

    report = PropertyReport(convex, log_convex, unimodal, barany, witnesses)
    assert (not convex or log_convex) and (not log_convex or unimodal) \
        and (not unimodal or barany), report
    return report


def neighborly_gap(f0: int) -> int:
    """f_0 + f_2 - 2 f_1 for a 2-neighbourly polytope with f0 vertices:
    f0 (f0-2) (f0-7) / 6, positive as soon as f0 >= 8.  One factor is even
    and one is divisible by 3, so the division is exact."""
    count_exact(f0, "vertex count", 1)
    return f0 * (f0 - 2) * (f0 - 7) // 6


def logconv_scan(d: int, n_min: int, n_max: int) -> list[tuple[int, tuple]]:
    """(n, ratios) per n for the connected sums ``cyclic_sum_f(d, n)``.  The
    ratios are f_k^2 / (f_(k-1) f_(k+1)) for k = 1..(d-1)//2, exactly: the
    distinct log-convexity ratios of a palindromic vector."""
    count_exact(d, "dimension", 2)
    n_min, n_max = count_exact(n_min, "n_min"), count_exact(n_max, "n_max")
    if not d + 1 <= n_min <= n_max:
        raise InvalidParams(
            f"need {d + 1} <= n_min <= n_max, got {n_min}..{n_max}")
    rows = []
    for n in range(n_min, n_max + 1):
        f = cyclic_sum_f(d, n)
        rows.append((n, tuple(Fraction(f[k] ** 2, f[k - 1] * f[k + 1])
                              for k in range(1, (d - 1) // 2 + 1))))
    return rows


def candidate_6d(ell: int) -> dict[tuple[int, ...], int]:
    """Sparse flag data of the 6-dimensional candidate family; every member
    satisfies the full battery while f_1 always exceeds f_2."""
    count_exact(ell, "family parameter")
    return {
        (): 1,
        (0,): 22 + ell,
        (1,): 111 + 3 * ell,
        (2,): 110 + 2 * ell,
        (3,): 35 + 4 * ell,
        (4,): 21 + 6 * ell,
        (0, 2): 780 + 15 * ell,
        (0, 3): 1340 + 50 * ell,
        (0, 4): 1080 + 51 * ell,
        (1, 3): 2010 + 90 * ell,
        (1, 4): 2160 + 132 * ell,
        (2, 4): 1260 + 114 * ell,
        (0, 2, 4): 6480 + 396 * ell,
    }


def candidate_7d() -> dict[tuple[int, ...], int]:
    """Sparse flag data of the 7-dimensional candidate vector; it passes the
    battery yet its f_3 drops below both f_0 and f_6."""
    return {
        (): 1,
        (0,): 134,
        (1,): 469,
        (2,): 371,
        (3,): 70,
        (4,): 371,
        (5,): 469,
        (0, 2): 2814,
        (0, 3): 6580,
        (0, 4): 10360,
        (0, 5): 8484,
        (1, 3): 9870,
        (1, 4): 20720,
        (1, 5): 21210,
        (2, 4): 13790,
        (2, 5): 20720,
        (3, 5): 9870,
        (0, 2, 4): 62160,
        (0, 2, 5): 84840,
        (0, 3, 5): 84840,
        (1, 3, 5): 127260,
    }
