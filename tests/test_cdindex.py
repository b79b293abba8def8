import itertools
import random
import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flagvec import (
    CdPolynomial,
    DegreeMismatch,
    FlagForm,
    FlagVector,
    InvalidParams,
    MissingEntry,
    NotEulerian,
    ab_index,
    ab_to_cd,
    build_crosspolytope,
    build_cube,
    build_cyclic,
    build_polygon,
    build_simplex,
    cd_coefficient,
    cd_index,
    cd_word_to_flag_form,
    cd_words,
    sparse_basis,
    stanley_nonneg_check,
    toric_g,
    toric_h,
)
from flagvec.cdindex import (
    AbPolynomial,
    _pretty_runs,
    cd_degree,
    read_cd_word,
    word_for_set,
)
from flagvec.forms import FlagForm
from flagvec.rational import normalize

# the benchmark's stdlib-only reference reader, an oracle independent of flagvec
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference  # noqa: E402


def _expand_cd(word: str) -> dict[str, int]:
    """ab-expansion of a cd-word with c = a + b and d = ab + ba."""
    expansion = {"": 1}
    for ch in word:
        nxt: dict[str, int] = {}
        pieces = ("a", "b") if ch == "c" else ("ab", "ba")
        for w, c in expansion.items():
            for piece in pieces:
                nxt[w + piece] = nxt.get(w + piece, 0) + c
        expansion = nxt
    return expansion


def _expand(terms: dict) -> dict:
    """The ab-coefficients of a cd-polynomial given as word -> coefficient."""
    out: dict = {}
    for u, coeff in terms.items():
        for w, c in _expand_cd(u).items():
            out[w] = out[w] + c * coeff if w in out else c * coeff
    return out


def _ab_index_oracle(d: int) -> dict[str, dict]:
    """Test oracle: the ab-index by the defining triple loop, as the word of
    each S -> {T: (-1)^{|S|-|T|} for T inside S}."""
    out = {}
    for size in range(0, d + 1):
        for S in itertools.combinations(range(d), size):
            out[word_for_set(S, d)] = {
                T: (-1) ** (size - tsize)
                for tsize in range(0, size + 1)
                for T in itertools.combinations(S, tsize)}
    return out


def test_ab_index_matches_the_inclusion_exclusion_oracle():
    # arbitrary integer entries, so the data is not Eulerian
    rng = random.Random(20)
    for d in range(0, 9):
        for _ in range(3):
            v = FlagVector(d, {S: rng.randint(-99, 99)
                               for size in range(1, d + 1)
                               for S in itertools.combinations(range(d), size)})
            p = ab_index(v)
            for word, combo in _ab_index_oracle(d).items():
                assert p.coefficient(word) == sum(
                    c * v.get(T) for T, c in combo.items()), (d, word)


def test_cd_word_counts_are_fibonacci():
    for d in range(0, 9):
        assert len(cd_words(d)) == len(sparse_basis(d))


def test_cd_word_order_matches_canonical_printing():
    assert cd_words(3) == ("ccc", "dc", "cd")
    assert cd_words(4) == ("cccc", "dcc", "cdc", "ccd", "dd")


def test_ab_index_square():
    v = build_polygon(4).flag_vector()
    p = ab_index(v)
    # k_S by inclusion-exclusion: (1, 3, 3, 1); consistent with the
    # cd-index c^2 + 2d and with k_01 = f_01 - f_0 - f_1 + 1 = 1
    assert p.terms == {"aa": 1, "ba": 3, "ab": 3, "bb": 1}


def test_ab_index_simplex3():
    p = ab_index(build_simplex(3).flag_vector())
    by_set = {w: c for w, c in p.terms.items()}
    assert [by_set[w] for w in
            ("aaa", "baa", "aba", "aab", "bba", "bab", "abb", "bbb")] \
        == [1, 3, 5, 3, 3, 5, 3, 1]


def test_ab_index_segment():
    p = ab_index(build_simplex(1).flag_vector())
    assert p.terms == {"a": 1, "b": 1}


def test_cd_index_polygons():
    for n in range(3, 9):
        poly = cd_index(build_polygon(n))
        assert poly.terms == {"cc": 1, "d": n - 2}
    assert cd_index(build_polygon(5)).canonical_str() == "c^2 + 3d"


def test_cd_index_simplex3():
    assert cd_index(build_simplex(3)).canonical_str() == "c^3 + 2dc + 2cd"


def test_non_eulerian_data_is_rejected():
    v = build_simplex(3).flag_vector()
    entries = dict(v.entries)
    entries[(1,)] = 7
    with pytest.raises(NotEulerian):
        ab_to_cd(ab_index(FlagVector(3, entries)))


def test_cd_index_expands_back_to_the_ab_index(small_corpus):
    for L in small_corpus + [build_simplex(8), build_cube(6), build_crosspolytope(6)]:
        want = ab_index(L.flag_vector()).terms
        got = {w: c for w, c in _expand(cd_index(L).terms).items() if c != 0}
        assert got == want, L


def test_symbolic_cd_index_expands_back_to_the_ab_index():
    # the forms are reduced, so their expansion must be the reduced oracle
    # itself, not merely agree with it modulo the relations
    for d in range(0, 9):
        got = _expand({u: cd_word_to_flag_form(u, d) for u in cd_words(d)})
        assert got == {w: FlagForm(d, combo).reduced()
                       for w, combo in _ab_index_oracle(d).items()}, d


def test_any_single_entry_change_is_not_eulerian():
    for L in (build_simplex(3), build_simplex(4), build_cube(4)):
        v = L.flag_vector()
        for S in v.entries:
            if not S:
                continue
            entries = dict(v.entries)
            entries[S] += 1
            with pytest.raises(NotEulerian):
                cd_index(FlagVector(L.d, entries))


def _sub(p: dict, q: dict) -> dict:
    """p - q on word -> coefficient dicts, dropping the zero coefficients."""
    out = dict(p)
    for w, c in q.items():
        out[w] = out[w] - c if w in out else -c
    return {w: c for w, c in out.items() if c != 0}


def _after(terms: dict, letter: str) -> dict:
    """The words that start with the letter, with that letter removed."""
    return {w[1:]: c for w, c in terms.items() if w[:1] == letter}


def _dict_peel(terms: dict, degree: int) -> dict:
    """Test oracle: the first-letter peel on word -> coefficient dicts."""
    if not terms or degree == 0:
        return dict(terms)
    p_a = _after(terms, "a")
    diff = _sub(p_a, _after(terms, "b"))
    B = _after(diff, "b")
    rest = {w: c for w, c in diff.items() if w[:1] != "b"}
    if _sub(rest, {"a" + w: -c for w, c in B.items()}):
        raise NotEulerian("flag data violates the Eulerian relations")
    A = _sub(p_a, {"b" + w: c for w, c in B.items()})
    out = {"c" + u: c for u, c in _dict_peel(A, degree - 1).items()}
    out.update(("d" + u, c) for u, c in _dict_peel(B, degree - 2).items())
    return out


def _cd_by_dict_peel(v: FlagVector) -> CdPolynomial:
    p = ab_index(v)
    return CdPolynomial(v.d, {u: normalize(c)
                              for u, c in _dict_peel(p.terms, v.d).items()})


def test_the_list_peel_equals_the_dict_peel_on_the_corpus_and_its_duals():
    from flagvec.verify import corpus

    for name, L in corpus():
        for M in (L, L.dual()):
            v = M.flag_vector()
            assert cd_index(v) == _cd_by_dict_peel(v), name


def test_both_peels_refuse_each_raised_entry_of_the_4_simplex():
    v = build_simplex(4).flag_vector()
    for S in v.entries:
        if S:
            raised = FlagVector(4, {**v.entries, S: v.entries[S] + 1})
            with pytest.raises(NotEulerian):
                cd_index(raised)
            with pytest.raises(NotEulerian):
                _cd_by_dict_peel(raised)
    # one raised ab-word: a cd-polynomial is unchanged by swapping a and b,
    # and a single word is not; a raised f_S raises the word b^4 among others
    p = ab_index(v)
    for word in p.terms:
        raised = {**p.terms, word: p.terms[word] + 1}
        with pytest.raises(NotEulerian):
            ab_to_cd(AbPolynomial(4, raised))
        with pytest.raises(NotEulerian):
            _dict_peel(raised, 4)


def test_an_ab_word_must_be_a_string():
    assert ab_to_cd(AbPolynomial(1, {"a": 1, "b": 1})).terms == {"c": 1}
    for word in (("a",), ("b",), 1):
        with pytest.raises(InvalidParams, match="bad ab-word"):
            AbPolynomial(1, {word: 1})
    with pytest.raises(InvalidParams, match=r"bad ab-word \('a',\) for degree 1"):
        AbPolynomial(1, {("a",): 1, ("b",): 1})


def test_ab_index_needs_complete_data():
    from flagvec import MissingEntry, candidate_6d

    with pytest.raises(MissingEntry):
        ab_index(FlagVector(6, candidate_6d(0)))


def test_cd_coefficient_examples():
    for L in (build_simplex(6), build_cube(6)):
        assert cd_coefficient(L, "c" * 6) == 1
    assert cd_coefficient(build_simplex(6), "ccdcc") == 19
    for n in (3, 5, 8):
        assert cd_coefficient(build_polygon(n), "d") == n - 2
    with pytest.raises(DegreeMismatch):
        cd_coefficient(build_simplex(4), "ccdcc")


def test_every_cd_degree_refusal_reads_the_same():
    # one check names a word of the wrong degree, whichever entry point
    # meets it first
    refusals = [
        lambda: cd_coefficient(build_simplex(4), "ccdcc"),
        lambda: cd_index(build_simplex(4)).coefficient("ccdcc"),
        lambda: CdPolynomial(4, {"ccdcc": 1}),
        lambda: cd_word_to_flag_form("ccdcc", 4),
    ]
    for refuse in refusals:
        with pytest.raises(DegreeMismatch, match=r"^'ccdcc' has degree 6, need 4$"):
            refuse()


def test_cd_word_forms_match_worked_values():
    want = FlagForm(6, {(0,): 1, (1,): -1, (2,): 1, (): -2})
    assert cd_word_to_flag_form("ccdcc", 6).gds_equal(want)
    want7 = FlagForm(7, {(0,): 1, (1,): -1, (2,): 1, (): -2})
    assert cd_word_to_flag_form("ccdccc", 7).gds_equal(want7)
    assert cd_word_to_flag_form("c" * 7, 7) == FlagForm(7, {(): 1})
    with pytest.raises(DegreeMismatch):
        cd_word_to_flag_form("dd", 5)


def test_symbolic_and_numeric_paths_agree(small_corpus):
    for L in small_corpus + [build_cyclic(7, 9), build_cyclic(8, 12)]:
        v = L.flag_vector()
        poly = cd_index(v)
        for u in cd_words(L.d):
            assert cd_word_to_flag_form(u, L.d).evaluate(v) \
                == poly.coefficient(u), (L, u)


def test_stanley_nonnegativity(small_corpus):
    for L in small_corpus:
        assert stanley_nonneg_check(L), L
    assert stanley_nonneg_check(build_cyclic(7, 10))


def test_toric_g_simplices():
    for d in range(0, 8):
        g = toric_g(build_simplex(d))
        assert g[0] == 1 and all(x == 0 for x in list(g)[1:])


def test_toric_g_values():
    g = toric_g(build_cyclic(5, 8))
    assert type(g) is tuple and g == (1, 2, 3)
    assert toric_h(build_cyclic(5, 8)) == (1, 3, 6, 6, 3, 1)
    assert tuple(toric_g(build_cube(3))) == (1, 4)
    assert tuple(toric_g(build_polygon(7))) == (1, 4)


def test_toric_h_reads_a_complete_flag_vector():
    v = build_cube(4).flag_vector()
    assert toric_h(v) == toric_h(build_cube(4)) == (1, 12, 14, 12, 1)
    g = toric_g(v)
    assert type(g) is tuple and g == (1, 11, 2)
    with pytest.raises(MissingEntry):
        toric_h(FlagVector(2, {(0,): 4, (1,): 4}))


def test_toric_g1_identity(small_corpus):
    for L in small_corpus:
        if L.d < 2:
            continue
        g = toric_g(L)
        assert g[1] == L.n_vertices() - (L.d + 1), L


def test_toric_h_palindromic(small_corpus):
    for L in small_corpus:
        h = toric_h(L)
        assert h == h[::-1], L


def test_toric_g_nonnegative(small_corpus):
    for L in small_corpus + [build_cyclic(7, 9), build_crosspolytope(5)]:
        assert all(x >= 0 for x in toric_g(L)), L


def test_canonical_string_round_trip(small_corpus):
    for L in small_corpus:
        poly = cd_index(L)
        assert reference.parse_cd(poly.canonical_str()) == poly.terms, L
    assert CdPolynomial(2, {"cc": 1, "d": 2}).canonical_str() == "c^2 + 2d"
    assert CdPolynomial(6, {"cccccc": -19, "ccdcc": 1}).canonical_str() \
        == "-19c^6 + c^2dc^2"


def test_a_word_of_another_degree_is_refused_before_it_is_spelled():
    tracemalloc.start()
    try:
        with pytest.raises(DegreeMismatch, match="has degree 10000000, need 3"):
            read_cd_word("c10000000", 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # spelled out, c^(10^7) alone would take about 10 MiB


# an ASCII space may stand between the runs of a cd-word, and no other
# whitespace may stand anywhere
@pytest.mark.parametrize("text", ["2\u3000cc", "\u3000cc", "c\u3000c", "cc\u3000",
                                  "c\tc", "\tcc", "cc\n", "2\xa0cc"])
def test_cd_words_take_ascii_spaces_only(text):
    with pytest.raises(InvalidParams, match="cannot parse"):
        _pretty_runs(text.lstrip("2"))
    spaced = re.sub(r"\s", " ", text)
    assert _pretty_runs(spaced.lstrip("2 ")) == [("c", 1), ("c", 1)]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_cd_polynomials_round_trip(data):
    degree = data.draw(st.integers(min_value=1, max_value=6))
    words = cd_words(degree)
    coeffs = data.draw(st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=9),
        min_size=len(words), max_size=len(words)))
    assume(any(coeffs))
    poly = CdPolynomial(degree, dict(zip(words, coeffs)))
    assert reference.parse_cd(poly.canonical_str()) == poly.terms


def test_cd_degrees():
    assert cd_degree("ccdcc") == 6
    assert cd_degree("dd") == 4
