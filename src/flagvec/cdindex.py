"""ab-index and cd-index over exact rational coefficients, plus the toric h-
and g-vectors; all of them are read from a flag vector.

The ab-index collects the flag quantities k_S = sum_{T subset S} (-1)^{|S\\T|} f_T
as coefficients of words in the noncommuting letters a, b (letter b at the
positions in S), listed by word mask (b = 1, the first letter the top bit):
one Moebius pass per bit turns f into k.  For Eulerian flag data the
polynomial rewrites uniquely in c = a + b and d = ab + ba.  The rewrite peels
off the first letter: writing P = c*A + d*B, the list's halves (after a
leading a, b) are A + b*B and A + a*B; their difference fixes B, then A.
Every ab-word equation is checked, so inconsistency is detected.

The rewrite is linear, so each cd-coefficient is a linear form on the flag
vector as well.  Its coefficient at a sparse set B is the numeric
cd-coefficient of column B of the sparse-basis reduction, the flag data
whose entry at S is the coefficient of f_B in f_S reduced.

Stanley's toric h-vector is a fixed linear form on the flag vector too:
its recursion reads only ranks, so toric h sums f_S times one weight vector
per rank set S, computed once per dimension.
"""

import itertools
import operator
import re
from functools import lru_cache

from .errors import DegreeMismatch, InvalidParams, MissingEntry, NotEulerian
from .flagalg import FlagVector, index_sets, reduce_index, sparse_basis
from .forms import FlagForm
from .rational import count_exact, count_from_str, normalize, rat_to_str, shown


_DEGREE = {"c": 1, "d": 2}  # the degree each letter of a cd-word counts


def cd_degree(word: str) -> int:
    """Degree of a cd-word: c counts 1, d counts 2."""
    if any(ch not in "cd" for ch in word):
        raise InvalidParams(f"not a cd-word: {word!r}")
    return sum(_DEGREE[ch] for ch in word)


def _rev_key(word: str) -> tuple[int, ...]:
    return tuple(1 if ch == "d" else 0 for ch in reversed(word))


@lru_cache(maxsize=None, typed=True)  # typed: True must not find 1's entry
def cd_words(degree: int) -> tuple[str, ...]:
    """All cd-words of a degree, reverse-lexicographic with c < d.

    There are Fibonacci-many, matching the sparse basis size.
    """
    count_exact(degree, "degree")
    # grow degree one at a time: append a c, or upgrade a trailing c to a d
    words = [""]
    for _ in range(degree):
        words = [w + "c" for w in words] + [
            w[:-1] + "d" for w in words if w.endswith("c")]
    return tuple(sorted(words, key=_rev_key))


def word_for_set(S, degree: int) -> str:
    return "".join("b" if i in S else "a" for i in range(degree))


class AbPolynomial:
    """Homogeneous polynomial in noncommuting a, b with exact coefficients."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict):
        self.degree = count_exact(degree, "degree")
        clean = {}
        for word, coeff in terms.items():
            if type(word) is not str or len(word) != degree or word.strip("ab"):
                raise InvalidParams(f"bad ab-word {word!r} for degree {degree}")
            if coeff != 0:
                clean[word] = coeff
        self.terms = clean

    def coefficient(self, word: str):
        return self.terms.get(word, 0)

    def __eq__(self, other):
        if not isinstance(other, AbPolynomial):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __repr__(self):
        return f"AbPolynomial(degree={self.degree}, terms={len(self.terms)})"


class CdPolynomial:
    """Homogeneous cd-polynomial; prints in a canonical form."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict):
        self.degree = count_exact(degree, "degree")
        clean = {}
        for word, coeff in terms.items():
            _check_degree(word, cd_degree(word), degree)
            if coeff != 0:
                clean[word] = coeff
        self.terms = clean

    def coefficient(self, word: str):
        _check_degree(word, cd_degree(word), self.degree)
        return self.terms.get(word, 0)

    def ordered_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _rev_key(kv[0]))

    def canonical_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for word, coeff in self.ordered_terms():
            coeff = normalize(coeff)
            body = _pretty_word(word)
            text = body if abs(coeff) == 1 and word else rat_to_str(abs(coeff)) + body
            parts.append(("- " if coeff < 0 else "+ ") + text)
        head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])

    def __eq__(self, other):
        if not isinstance(other, CdPolynomial):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __repr__(self):
        return f"CdPolynomial({self.canonical_str()!r})"


def _pretty_word(word: str) -> str:
    out = []
    for letter, run in itertools.groupby(word):
        count = len(list(run))
        out.append(letter if count == 1 else f"{letter}^{count}")
    return "".join(out)


def _pretty_runs(text: str) -> list[tuple[str, int]]:
    """The (letter, count) runs of a cd-word written as c^2d, c2d or ccd,
    with ASCII spaces, and no other whitespace, allowed between runs."""
    if not re.fullmatch(r"(?:[cd](?:\^?[0-9]+)? *)*", text):
        raise InvalidParams(f"cannot parse cd-word {text!r}")
    try:
        return [(letter, count_from_str(exponent or "1", "exponent"))
                for letter, exponent in re.findall(r"([cd])(?:\^?([0-9]+))?", text)]
    except InvalidParams:  # an exponent of more digits than a count has
        raise InvalidParams(
            f"cd-word {shown(text)} has an exponent too long to read") from None


def _check_degree(text: str, degree: int, d: int) -> None:
    """Raise DegreeMismatch naming the cd-word ``text`` unless its degree
    is d."""
    if degree != d:
        try:
            message = f"{shown(text)} has degree {degree}, need {d}"
        except ValueError:  # a degree of more digits than str() may write
            message = f"{shown(text)} has a degree far above the {d} needed"
        raise DegreeMismatch(message)


def read_cd_word(text: str, d: int) -> str:
    """The cd-word ``text``, written as ``_pretty_runs`` reads it, spelled
    out once its degree, read from the exponents, is known to be d."""
    runs = _pretty_runs(text)
    degree = sum(count * _DEGREE[letter] for letter, count in runs)
    if not degree:
        raise InvalidParams(f"empty cd-word {text!r}")
    _check_degree(text, degree, d)
    return "".join(letter * count for letter, count in runs)


# ----------------------------------------------------------------------
# ab-index and the cd rewrite


@lru_cache(maxsize=None)
def _ab_words(d: int) -> tuple[tuple[tuple[int, ...], ...], tuple[str, ...]]:
    """Per word mask m, the index set and the ab-word of m; the mask reads
    the word as binary with b = 1, its first letter the top bit."""
    sets = sorted(index_sets(d), key=lambda S: sum(1 << (d - 1 - i) for i in S))
    return tuple(sets), tuple(word_for_set(S, d) for S in sets)


def _ab_terms(k: list) -> list:
    """k turned in place from f into k_S = sum over T inside S of
    (-1)^{|S|-|T|} f_T, both by word mask: per bit, each mask holding it
    subtracts the one without it, a C-level slice per block of masks."""
    bit = 1
    while bit < len(k):
        for m in range(bit, len(k), 2 * bit):
            k[m:m + bit] = map(operator.sub, k[m:m + bit], k[m - bit:m])
        bit *= 2
    return k


def ab_index(v: FlagVector) -> AbPolynomial:
    """Flag k-polynomial of a complete flag vector."""
    if not v.complete:
        raise MissingEntry("the ab-index needs all flag entries")
    sets, words = _ab_words(v.d)
    k = _ab_terms(list(map(v.entries.__getitem__, sets)))
    return AbPolynomial(v.d, dict(zip(words, map(normalize, k))))


def _peel(k: list) -> dict:
    """cd-word -> coefficient of the ab-polynomial whose coefficients by
    word mask are k."""
    h = len(k) // 2
    if h <= 1:  # degree 0, or degree 1, where P = c*A needs P_a = P_b
        if k[:h] != k[h:2 * h]:
            raise NotEulerian("flag data violates the Eulerian relations")
        return {"c" * h: k[0]} if k else {}
    # P = c*A + d*B gives P_a = A + b*B and P_b = A + a*B, the two halves
    # of k; so B = (P_a - P_b) after b, which after a must be -B
    q = h // 2
    B = list(map(operator.sub, k[q:h], k[h + q:]))
    if B != list(map(operator.sub, k[h:h + q], k[:q])):
        raise NotEulerian("flag data violates the Eulerian relations")
    out = {"c" + u: c for u, c in _peel(k[:q] + k[h + q:]).items()}
    out.update(("d" + u, c) for u, c in _peel(B).items())
    return out


def ab_to_cd(p: AbPolynomial) -> CdPolynomial:
    """Rewrite an ab-polynomial in c = a+b, d = ab+ba by first-letter peeling;
    raises NotEulerian when some ab-word equation fails."""
    terms = _peel(list(map(p.terms.get, _ab_words(p.degree)[1], itertools.repeat(0))))
    return CdPolynomial(p.degree, {u: normalize(c) for u, c in terms.items()})


def _as_flag_vector(source) -> FlagVector:
    if isinstance(source, FlagVector):
        return source
    return source.flag_vector()


def cd_index(source) -> CdPolynomial:
    """cd-index of a lattice or complete flag vector."""
    return ab_to_cd(ab_index(_as_flag_vector(source)))


def cd_coefficient(source, word: str):
    """Coefficient of one cd-monomial in the cd-index."""
    return cd_index(source).coefficient(word)


@lru_cache(maxsize=None)
def _symbolic_cd_index(d: int) -> dict[str, FlagForm]:
    """cd-word -> its flag form over the sparse basis.  The coefficient at f_B
    is the cd-coefficient of column B, the flag data whose entry at S is f_B's
    coefficient in f_S reduced; it satisfies every relation, so it peels."""
    reduced = [reduce_index(S, d) for S in _ab_words(d)[0]]
    coeffs: dict[str, dict] = {u: {} for u in cd_words(d)}
    for B in sparse_basis(d):
        for u, c in _peel(_ab_terms([r.get(B, 0) for r in reduced])).items():
            coeffs[u][B] = c
    return {u: FlagForm(d, form) for u, form in coeffs.items()}


def cd_word_to_flag_form(word: str, d: int) -> FlagForm:
    """The flag form whose value on every Eulerian flag vector equals the
    cd-coefficient of the word; returned reduced to the sparse basis."""
    _check_degree(word, cd_degree(word), count_exact(d, "dimension"))
    return _symbolic_cd_index(d)[word]


def stanley_nonneg_check(lattice) -> bool:
    """All cd-index coefficients nonnegative; a failure here means a bug."""
    return all(c >= 0 for c in cd_index(lattice).terms.values())


# ----------------------------------------------------------------------
# toric h and g


def _h_vector(g, m: int, r: int) -> tuple[int, ...]:
    """(h_0, ..., h_r) of g (x - 1)^m, g lowest power first and h_i the
    coefficient of x^(r - i)."""
    p = [*g, *[0] * (r + 1 - len(g))]
    for _ in range(m):
        p = [lo - hi for lo, hi in zip([0, *p], p)]  # p (x - 1)
    return tuple(reversed(p))


@lru_cache(maxsize=None)
def _toric_weights(d: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per rank set S, the toric h-vector that one chain of rank set S adds.

    A rank-b face's h-polynomial is the sum of g(G) (x - 1)^(b - 1 - rank G)
    over its proper faces G, the empty face having g = 1, and a face's g keeps
    g_i = h_i - h_(i-1) of its own h for i <= rank / 2.  Unrolled, the top's h
    is one term per chain of proper faces: g = 1 carried from the empty face
    up the chain through both linear steps at each face, so it depends on the
    chain's rank set alone (Bayer and Ehrenborg 2000).
    """
    weights = {}

    def extend(S, a, g):  # g: the g-polynomial at the chain's last face, rank a
        weights[S] = _h_vector(g, d - 1 - a, d)
        for b in range(a + 1, d):
            h = _h_vector(g, b - 1 - a, b)
            extend((*S, b), b, [p - q for p, q in zip(h[:b // 2 + 1], (0, *h))])

    extend((), -1, [1])
    return tuple(weights.items())


def toric_h(source) -> tuple[int, ...]:
    """Toric h-vector (h_0, ..., h_d) of a lattice or complete flag vector,
    as the sum of f_S times the weight of S; palindromic on Eulerian
    lattices."""
    v = _as_flag_vector(source)
    terms = []
    for S, weight in _toric_weights(v.d):
        f_S = v.get(S)  # once per set, not once per weight entry
        terms.append([f_S * w for w in weight])
    return tuple(normalize(sum(column)) for column in zip(*terms))


def toric_g(source) -> tuple[int, ...]:
    """Toric g-vector (g_0, ..., g_(d // 2)) of a lattice or complete flag
    vector: g_i = h_i - h_(i-1)."""
    h = toric_h(source)
    return tuple(normalize(p - q) for p, q in zip(h[:source.d // 2 + 1], (0, *h)))
