"""Reference computations the benchmark checks flagvec's outputs against.

Nothing here imports flagvec: every value comes from a closed form or a
definition, so a fault in the program cannot hide in its own reference.

Conventions match the program's output: flag numbers are keyed by sorted
rank tuples S inside {0, ..., d-1}, f_() = 1, and the ab-word of S has the
letter b exactly at the positions in S.
"""

import itertools
import re
from fractions import Fraction
from math import comb


# ----------------------------------------------------------------------
# f-vectors


def cyclic_f(d: int, n: int) -> tuple[int, ...]:
    """f-vector of the cyclic d-polytope on n vertices, from the Upper Bound
    Theorem h-vector h_i = C(n-d-1+i, i) for i <= d/2, symmetric above."""
    if not 2 <= d < n:
        raise ValueError(f"cyclic polytope needs 2 <= d < n, got d={d}, n={n}")
    h = [comb(n - d - 1 + i, i) for i in range(d // 2 + 1)]
    h += [h[d - i] for i in range(d // 2 + 1, d + 1)]
    return tuple(sum(comb(d - i, j - i) * h[i] for i in range(j + 1))
                 for j in range(1, d + 1))


def connected_sum(fp, fq) -> tuple[int, ...]:
    """f-vector of a connected sum: componentwise sum, one less at both ends
    (the glued facet of one side and the cut vertex of the other)."""
    d = len(fp)
    return tuple(p + q - (1 if i in (0, d - 1) else 0)
                 for i, (p, q) in enumerate(zip(fp, fq)))


def p7n(n: int) -> tuple[int, ...]:
    """The cyclic 7-polytope on n vertices glued to its dual."""
    f = cyclic_f(7, n)
    return connected_sum(f, f[::-1])


# ----------------------------------------------------------------------
# full flag vectors in closed form


def index_sets(d: int):
    for size in range(d + 1):
        yield from itertools.combinations(range(d), size)


def simplicial_flags(f) -> dict[tuple[int, ...], int]:
    """Flag numbers of a simplicial polytope from its f-vector: a chain
    ending in an s_k-face extends downwards by choosing s_i + 1 of the
    s_{i+1} + 1 vertices of the face above."""
    out = {}
    for S in index_sets(len(f)):
        value = f[S[-1]] if S else 1
        for a, b in zip(S, S[1:]):
            value *= comb(b + 1, a + 1)
        out[S] = value
    return out


def simplex_flags(d: int) -> dict[tuple[int, ...], int]:
    return simplicial_flags(tuple(comb(d + 1, k + 1) for k in range(d)))


def cube_flags(d: int) -> dict[tuple[int, ...], int]:
    """f_S = 2^(d-s_k) C(d, s_k) * prod over consecutive a < b in S of
    2^(b-a) C(b, a): a b-face of the cube is a b-cube."""
    out = {}
    for S in index_sets(d):
        value = 2 ** (d - S[-1]) * comb(d, S[-1]) if S else 1
        for a, b in zip(S, S[1:]):
            value *= 2 ** (b - a) * comb(b, a)
        out[S] = value
    return out


def mirror(flags: dict, d: int) -> dict[tuple[int, ...], int]:
    """Flag vector of the dual polytope: index set S becomes d-1-S."""
    return {tuple(sorted(d - 1 - s for s in S)): v for S, v in flags.items()}


def cross_flags(d: int) -> dict[tuple[int, ...], int]:
    return mirror(cube_flags(d), d)


def cube_faces(d: int) -> list[tuple[int, list[int]]]:
    """(rank, vertices) of every face of the d-cube, vertices as bitmasks:
    a face frees some coordinates and fixes the others."""
    full = (1 << d) - 1
    faces = [(-1, [])]
    for free in range(1 << d):
        fixed = full & ~free
        sub = fixed
        while True:
            faces.append((bin(free).count("1"),
                          [v for v in range(1 << d) if v & fixed == sub]))
            if sub == 0:
                break
            sub = (sub - 1) & fixed
    return faces


# ----------------------------------------------------------------------
# ab- and cd-indices


def ab_from_flags(flags: dict, d: int) -> dict[str, int]:
    """ab-index: the word with b at S carries sum_{T in S} (-1)^|S-T| f_T."""
    out = {}
    for S in index_sets(d):
        k = sum((-1) ** (len(S) - len(T)) * flags[T]
                for size in range(len(S) + 1)
                for T in itertools.combinations(S, size))
        out["".join("b" if i in S else "a" for i in range(d))] = k
    return out


def flags_from_ab(ab: dict[str, int], d: int) -> dict[tuple[int, ...], int]:
    """Inverse of ab_from_flags: f_S = sum over T inside S of k_T."""
    k = {tuple(i for i, ch in enumerate(w) if ch == "b"): c for w, c in ab.items()}
    return {S: sum(k.get(T, 0) for size in range(len(S) + 1)
                   for T in itertools.combinations(S, size))
            for S in index_sets(d)}


def expand_cd(cd: dict[str, int]) -> dict[str, int]:
    """Substitute c = a + b and d = ab + ba into a cd-polynomial."""
    out: dict[str, int] = {}
    for word, coeff in cd.items():
        partial = {"": coeff}
        for ch in word:
            pieces = ("a", "b") if ch == "c" else ("ab", "ba")
            partial = {w + p: c for w, c in partial.items() for p in pieces}
        for w, c in partial.items():
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def _strip(poly: dict[str, int], letter: str) -> dict[str, int]:
    return {w[1:]: c for w, c in poly.items() if w[0] == letter}


def _sub(p: dict, q: dict) -> dict:
    out = dict(p)
    for w, c in q.items():
        out[w] = out.get(w, 0) - c
    return {w: c for w, c in out.items() if c}


def cd_from_ab(ab: dict[str, int], degree: int) -> dict[str, int]:
    """Rewrite an ab-polynomial in c and d by peeling off the first letter.

    Writing P = c A + d B gives P_a = A + bB and P_b = A + aB for the parts
    after a leading a or b, so B is the b-part of P_a - P_b, whose a-part
    must be -B, and A = P_a - bB.  Raises ValueError on non-Eulerian data.
    """
    ab = {w: c for w, c in ab.items() if c}
    if degree == 0:
        return {"": ab.get("", 0)} if ab.get("", 0) else {}
    pa, pb = _strip(ab, "a"), _strip(ab, "b")
    diff = _sub(pa, pb)
    if degree == 1:
        if diff:
            raise ValueError("not a cd-polynomial")
        return {"c" + w: c for w, c in cd_from_ab(pa, 0).items()}
    B = _strip(diff, "b")
    if _sub(_strip(diff, "a"), {w: -c for w, c in B.items()}):
        raise ValueError("not a cd-polynomial")
    A = _sub(pa, {"b" + w: c for w, c in B.items()})
    out = {"c" + w: c for w, c in cd_from_ab(A, degree - 1).items()}
    out.update({"d" + w: c for w, c in cd_from_ab(B, degree - 2).items()})
    return out


def cd_words(degree: int) -> list[str]:
    """All cd-words of a degree (c counts 1, d counts 2), sorted."""
    if degree < 0:
        return []
    if degree == 0:
        return [""]
    return sorted(["c" + w for w in cd_words(degree - 1)]
                  + ["d" + w for w in cd_words(degree - 2)])


def compact_word(word: str) -> str:
    """'ccdcccc' -> 'c2dc4', the exponent form the CLI accepts."""
    return "".join(ch + (str(len(run)) if len(run) > 1 else "")
                   for ch, run in ((k, list(g)) for k, g in itertools.groupby(word)))


_TERM = re.compile(r"([+-])\s*(\d+(?:/\d+)?)?\s*((?:[cd](?:\^\d+)?)*)")


def parse_cd(text: str) -> dict[str, Fraction]:
    """Parse a printed cd-polynomial such as 'c^3 + 2dc + 2cd'."""
    text = text.replace(" ", "")
    if not text.startswith(("+", "-")):
        text = "+" + text
    out: dict[str, Fraction] = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError(f"cannot parse cd-polynomial {text!r} at {pos}")
        coeff = Fraction(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
        word = "".join(ch * int(exp or 1)
                       for ch, exp in re.findall(r"([cd])(?:\^(\d+))?", m.group(3)))
        out[word] = out.get(word, 0) + coeff
        pos = m.end()
    return out


# ----------------------------------------------------------------------
# f-vector properties, from their definitions


def verdicts(f) -> dict[str, bool]:
    """Convex, log-convex, unimodal and Barany on a positive vector."""
    inner = range(1, len(f) - 1)
    low = min(f[0], f[-1])
    return {
        "C": all(2 * f[k] >= f[k - 1] + f[k + 1] for k in inner),
        "L": all(f[k] ** 2 >= f[k - 1] * f[k + 1] for k in inner),
        "U": any(all(f[i] <= f[i + 1] for i in range(p))
                 and all(f[i] >= f[i + 1] for i in range(p, len(f) - 1))
                 for p in range(len(f))),
        "B": all(f[k] >= low for k in inner),
    }


def euler_holds(f) -> bool:
    d = len(f)
    return sum((-1) ** i * c for i, c in enumerate(f)) == 1 - (-1) ** d


def euler_last(f_head, d: int) -> int:
    """The f_{d-1} that Euler's relation forces given f_0 .. f_{d-2}."""
    partial = sum((-1) ** i * c for i, c in enumerate(f_head))
    return (1 - (-1) ** d - partial) * (-1) ** (d - 1)


# ----------------------------------------------------------------------
# flag forms


def g_form(which: int, d: int) -> dict[tuple[int, ...], int]:
    """Toric g_0 = f_empty and g_1 = f_0 - (d+1) f_empty at dimension d."""
    return {(): 1} if which == 0 else {(0,): 1, (): -(d + 1)}


def convolve(m1: dict, d1: int, m2: dict, d2: int) -> dict[tuple[int, ...], int]:
    """Kalai's convolution: f_S (dim d1) times f_T (dim d2) is the flag
    number of chains through a d1-face, S below it and T above it."""
    out: dict[tuple[int, ...], int] = {}
    for S, a in m1.items():
        for T, b in m2.items():
            U = S + (d1,) + tuple(d1 + 1 + t for t in T)
            out[U] = out.get(U, 0) + a * b
    return {U: c for U, c in out.items() if c}
