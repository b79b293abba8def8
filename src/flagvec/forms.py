"""Linear forms on flag vectors and their convolution calculus.

Forms are finitely supported rational coefficient vectors indexed by subsets
of {0,...,d-1}; constants are carried as multiples of f_empty so that the
convolution stays a purely index-based bilinear operation.  Two forms are
considered equivalent when their difference reduces to zero against the
Dehn-Sommerville relations, which is how the classical identities are stated.
"""

from fractions import Fraction
from math import comb, gcd

from .errors import DimensionMismatch, InvalidParams, MissingEntry, UnsupportedDimension
from .flagalg import (
    FlagVector,
    complete_from_sparse,
    euler_check,
    gds_residuals,
    index_set,
    read_flag_json,
    reduce_index,
    sparse_basis,
    subset_key,
    write_flag_json,
)
from .families import PropertyReport, cyclic_f, properties, simplicial_flag_number
from .rational import count_exact, normalize, rat_exact
from .records import Record


class FlagForm:
    """A linear functional sum_S c_S f_S on flag vectors of d-polytopes."""

    __slots__ = ("d", "coeffs")

    def __init__(self, d: int, coeffs: dict):
        self.d = count_exact(d, "dimension")
        norm: dict[tuple[int, ...], Fraction] = {}
        for S, c in coeffs.items():
            S = index_set(S, d)
            c = Fraction(rat_exact(c, S))
            if c:
                norm[S] = norm.get(S, Fraction(0)) + c
        self.coeffs = {S: c for S, c in norm.items() if c}

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "FlagForm") -> "FlagForm":
        if self.d != other.d:
            raise DimensionMismatch(f"cannot add forms of dims {self.d} and {other.d}")
        out = dict(self.coeffs)
        for S, c in other.coeffs.items():
            out[S] = out.get(S, Fraction(0)) + c
        return FlagForm(self.d, out)

    def __sub__(self, other: "FlagForm") -> "FlagForm":
        return self + (-other)

    def __neg__(self) -> "FlagForm":
        return FlagForm(self.d, {S: -c for S, c in self.coeffs.items()})

    def __mul__(self, scalar) -> "FlagForm":
        scalar = rat_exact(scalar, "scalar")
        return FlagForm(self.d, {S: c * scalar for S, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlagForm):
            return NotImplemented
        return self.d == other.d and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.d, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        terms = " ".join(
            f"{'+' if c > 0 else '-'} {abs(c)}*f_{{{subset_key(S) or 'empty'}}}"
            for S, c in sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0])))
        return f"FlagForm(d={self.d}: {terms or '0'})"

    def evaluate(self, v: FlagVector):
        """Apply the form; falls back to the sparse reduction when entries
        are missing but the vector is completable."""
        if self.d != v.d:
            raise DimensionMismatch(
                f"form at d={self.d} applied to vector at d={v.d}")
        try:
            return normalize(sum((c * Fraction(v.get(S))
                                  for S, c in self.coeffs.items()),
                                 start=Fraction(0)))
        except MissingEntry:
            red = self.reduced()
            if red.coeffs == self.coeffs:
                raise
            return red.evaluate(v)

    def reduced(self) -> "FlagForm":
        """The equivalent form supported on the sparse basis."""
        out: dict[tuple[int, ...], Fraction] = {}
        for S, c in self.coeffs.items():
            for T, ct in reduce_index(S, self.d).items():
                out[T] = out.get(T, Fraction(0)) + c * ct
        return FlagForm(self.d, out)

    def gds_equal(self, other: "FlagForm") -> bool:
        if self.d != other.d:
            return False
        return (self - other).reduced().is_zero()

    def to_json(self) -> str:
        return write_flag_json(self.d, "coeffs", self.coeffs)

    @classmethod
    def from_json(cls, text: str) -> "FlagForm":
        return cls(*read_flag_json(text, "coeffs"))


def dual_form(m: FlagForm) -> FlagForm:
    """Index reversal s -> d-1-s, the combinatorial polarity on forms."""
    return FlagForm(m.d, {tuple(sorted(m.d - 1 - s for s in S)): c
                          for S, c in m.coeffs.items()})


def convolve(m1: FlagForm, m2: FlagForm) -> FlagForm:
    """Bilinear convolution: f_S at d1 times f_T at d2 becomes
    f_{S + {d1} + (T shifted by d1+1)} at d1 + d2 + 1."""
    d1, d2 = m1.d, m2.d
    out: dict[tuple[int, ...], Fraction] = {}
    for S, c1 in m1.coeffs.items():
        for T, c2 in m2.coeffs.items():
            U = tuple(sorted(S + (d1,) + tuple(t + d1 + 1 for t in T)))
            out[U] = out.get(U, Fraction(0)) + c1 * c2
    return FlagForm(d1 + d2 + 1, out)


def evaluate_by_face_sum(m1: FlagForm, m2: FlagForm, lattice):
    """Evaluate the convolution of m1 and m2 on a lattice directly, as the sum
    over faces F of dimension m1.d of m1(F) * m2(P/F)."""
    d1, d2 = m1.d, m2.d
    if d1 + d2 + 1 != lattice.d:
        raise DimensionMismatch(
            f"convolution of dims {d1} and {d2} does not match a {lattice.d}-lattice")
    total = Fraction(0)
    for face in lattice.faces(d1):
        below = lattice.restriction(face).flag_vector()
        above = lattice.quotient(face).flag_vector()
        total += Fraction(m1.evaluate(below)) * Fraction(m2.evaluate(above))
    return normalize(total)


def g_forms(d: int) -> tuple[FlagForm, FlagForm | None]:
    """The toric forms g_0 = f_empty and g_1 = f_0 - (d+1) f_empty."""
    g0 = FlagForm(d, {(): 1})
    if d < 1:
        return g0, None
    g1 = FlagForm(d, {(0,): 1, (): -(d + 1)})
    return g0, g1


def kalai_5d_splits() -> tuple[tuple[FlagForm, FlagForm], ...]:
    """The three (left, right) splits of toric g forms that cover dimension
    5: g0^1 | g1^2 * g0^0,  g0^0 | g1^2 * g0^1  and  g1^2 | g1^2."""
    g0_0, _ = g_forms(0)
    g0_1, _ = g_forms(1)
    _, g1_2 = g_forms(2)
    return ((g0_1, convolve(g1_2, g0_0)), (g0_0, convolve(g1_2, g0_1)),
            (g1_2, g1_2))


def kalai_5d_summands() -> tuple[FlagForm, FlagForm, FlagForm]:
    """The convolutions of the three splits of ``kalai_5d_splits``."""
    return tuple(convolve(left, right) for left, right in kalai_5d_splits())


def kalai_5d_form() -> FlagForm:
    """Sum of the three g-convolution summands, reduced: 9f_2 - 6f_1 - 6f_3."""
    s1, s2, s3 = kalai_5d_summands()
    return (s1 + s2 + s3).reduced()


class BatteryMember(Record):
    """One named form of a battery and where its nonnegativity comes from."""

    __slots__ = ("name", "form", "source")

    def __init__(self, name: str, form: FlagForm, source: str):
        self.name = name
        self.form = form
        self.source = source


def _dual_member(member: BatteryMember, source: str = "") -> BatteryMember:
    """The index reversal of a battery member, named after it."""
    return BatteryMember(member.name + "-dual", dual_form(member.form),
                         source or f"index reversal of {member.name}")


def battery(d: int) -> tuple[BatteryMember, ...]:
    """The linear inequalities asserted at d = 5, 6, 7, each bound with its
    index reversal: every vertex meets at least d edges (2f_1 >= d f_0); at
    d = 5, Kalai's sum of nonnegative g1 convolutions; at d = 6, 7, the
    cd-index coefficient of c^2dc^(d-4) is at least the d-simplex's
    (f_0 - f_1 + f_2 - 2 minus its value on the simplex, whose f_i is
    C(d+1, i+1))."""
    if count_exact(d, "dimension") not in (5, 6, 7):
        raise UnsupportedDimension(f"no inequality battery for d={d}")
    g = gcd(2, d)
    edge = BatteryMember("edge-vertex-bound",
                         FlagForm(d, {(1,): 2 // g, (0,): -d // g}),
                         f"every vertex of a {d}-polytope meets at least {d} edges")
    if d == 5:
        second = BatteryMember("g1-convolution", kalai_5d_form(),
                               "sum of the three nonnegative g1 convolution"
                               " splittings of dimension 5")
    else:
        c2dc = FlagForm(d, {(0,): 1, (1,): -1, (2,): 1, (): -2})
        simplex_f = [comb(d + 1, i + 1) for i in range(d)]
        least = sum(c * simplicial_flag_number(simplex_f, S)
                    for S, c in c2dc.coeffs.items())
        second = BatteryMember(f"cd-c2dc{d - 4}-bound",
                               c2dc - FlagForm(d, {(): least}),
                               "nonnegativity of the cd-index coefficient"
                               f" <c^2dc^{d - 4} - {least}c^{d}>")
    return (edge, second,
            _dual_member(edge, f"dual form: every facet has at least {d} ridges"),
            _dual_member(second))


class CandidateReport(Record):
    """The battery values and the verdicts of one screened flag vector."""

    __slots__ = ("d", "f", "battery_values", "battery_ok", "euler_ok", "gds_ok",
                 "properties")

    def __init__(self, d: int, f: tuple[int, ...], battery_values: dict[str, object],
                 battery_ok: bool, euler_ok: bool, gds_ok: bool,
                 properties: PropertyReport):
        self.d = d
        self.f = f
        self.battery_values = battery_values
        self.battery_ok = battery_ok
        self.euler_ok = euler_ok
        self.gds_ok = gds_ok
        self.properties = properties


def check_candidate(v) -> CandidateReport:
    """Screen a complete or completable flag vector against the battery of
    its dimension and the f-vector property predicates; a dimension without
    a battery is refused before any completion."""
    if isinstance(v, dict):
        raise InvalidParams("pass a FlagVector; complete sparse data first")
    bat = battery(v.d)
    if not v.complete:
        v = complete_from_sparse(dict(v.entries), v.d)
    values = {m.name: m.form.evaluate(v) for m in bat}
    f = v.f_vector()
    return CandidateReport(
        d=v.d,
        f=tuple(f),
        battery_values=values,
        battery_ok=all(val >= 0 for val in values.values()),
        euler_ok=euler_check(f),
        gds_ok=all(r == 0 for r in gds_residuals(v)),
        properties=properties(f),
    )


def feasible_sample_boxes() -> dict[tuple[int, ...], tuple[int, int]]:
    """Integer sampling boxes for sparse 5-dimensional flag data, scaled to
    bracket the cyclic polytopes with 8 to 12 vertices."""
    lo, hi = cyclic_f(5, 8), cyclic_f(5, 12)
    return {S: (max(1, simplicial_flag_number(lo, S) // 2),
                2 * simplicial_flag_number(hi, S)) for S in sparse_basis(5) if S}


def sample_feasible_5d(rng, count: int) -> list[FlagVector]:
    """Rejection-sample, in at most 20000 draws, complete 5-dimensional flag
    vectors with positive face counts that pass the whole battery.  A draw
    is screened before it is completed: each f_i - 1 (f_i is an int) and each
    battery form, reduced once per call, must be >= 0 on the sparse values."""
    count_exact(count, "sample count")
    boxes = feasible_sample_boxes()
    screens = [FlagForm(5, {(i,): 1, (): -1}) for i in range(5)]
    screens += [m.form for m in battery(5)]
    screens = [[(S, normalize(c)) for S, c in form.reduced().coeffs.items()]
               for form in screens]
    out: list[FlagVector] = []
    for _ in range(20000):
        if len(out) >= count:
            break
        values = {S: rng.randint(a, b) for S, (a, b) in boxes.items()}
        point = {(): 1} | values
        if all(sum(c * point[S] for S, c in form) >= 0 for form in screens):
            out.append(complete_from_sparse(values, 5))
    return out
