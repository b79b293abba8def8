import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagvec import (
    FlagVector,
    IncompleteBasis,
    InvalidParams,
    MissingEntry,
    build_cyclic,
    build_simplex,
    candidate_6d,
    candidate_7d,
    complete_from_sparse,
    euler_check,
    gds_pairs,
    gds_relation,
    gds_residuals,
    reduce_index,
    sparse_basis,
)
from flagvec.flagalg import (
    _min_offender,
    index_sets,
    parse_subset_key,
    subset_key,
)
from flagvec.forms import FlagForm


def test_index_sets_are_every_subset_by_size_then_lex():
    for d in range(0, 9):
        sets = index_sets(d)
        assert len(sets) == len(set(sets)) == 2 ** d
        assert all(set(S) <= set(range(d)) and list(S) == sorted(S) for S in sets)
        assert list(sets) == sorted(sets, key=lambda S: (len(S), S))


def test_sparse_basis_sizes_are_fibonacci():
    assert [len(sparse_basis(d)) for d in range(2, 8)] == [2, 3, 5, 8, 13, 21]


def test_sparse_basis_matches_candidate_index_sets():
    assert set(sparse_basis(6)) == set(candidate_6d(0))
    assert set(sparse_basis(7)) == set(candidate_7d())


def test_gds_relation_examples():
    # S = {1}, gap (1,5) at d=5: f_12 - f_13 + f_14 - 2 f_1 = 0
    combo = gds_relation((1,), (1, 5), 5)
    assert combo == {(1, 2): 1, (1, 3): -1, (1, 4): 1, (1,): -2}
    # S = {}, gap (-1,d) is Euler's relation; the constant term
    # 1 - (-1)^d survives only in odd dimension
    assert gds_relation((), (-1, 4), 4) == {(0,): 1, (1,): -1, (2,): 1, (3,): -1}
    assert gds_relation((), (-1, 3), 3) == {(0,): 1, (1,): -1, (2,): 1, (): -2}


@pytest.mark.parametrize("S, gap", [((), (3, 1)), ((2,), (0, 4))])
def test_gds_relation_refuses_what_is_not_a_gap(S, gap):
    # (3, 1) runs backwards, and 0 lies inside the gap (-1, 2) of {2}
    with pytest.raises(InvalidParams, match=re.escape(f"{gap} is not a gap")):
        gds_relation(S, gap, 4)


def test_gds_relation_accepts_every_gap_of_gds_pairs():
    for d in range(0, 9):
        for S, gap in gds_pairs(d):
            assert all(isinstance(c, int) for c in gds_relation(S, gap, d).values())


def test_sparse_basis_is_the_filter_of_every_index_set():
    for d in range(0, 13):
        assert sparse_basis(d) == tuple(
            S for S in index_sets(d) if _min_offender(S, d) is None)


def test_sparse_basis_does_not_enumerate_every_index_set():
    index_sets.cache_clear()
    sparse_basis.cache_clear()
    assert len(sparse_basis(20)) == 10946
    assert index_sets.cache_info().currsize == 0


def test_gds_residuals_vanish_on_lattices(small_corpus):
    for L in small_corpus:
        res = gds_residuals(L.flag_vector())
        assert len(res) == len(gds_pairs(L.d))
        assert all(r == 0 for r in res), L


def test_gds_residuals_detect_perturbation():
    v = build_simplex(3).flag_vector()
    entries = dict(v.entries)
    entries[(1,)] = 7
    assert any(r != 0 for r in gds_residuals(FlagVector(3, entries)))


def _residuals_by_relation(v: FlagVector) -> list:
    """Test oracle: each residual summed over ``gds_relation`` of its pair."""
    return [sum(c * v.get(T) for T, c in gds_relation(S, gap, v.d).items())
            for S, gap in gds_pairs(v.d)]


def test_gds_residuals_equal_the_sum_over_each_relation():
    from flagvec.verify import corpus

    for name, L in corpus():
        assert gds_residuals(L.flag_vector()) == _residuals_by_relation(
            L.flag_vector()), name
    # data that breaks the relations, so the residuals are mostly nonzero
    rng = random.Random(25)
    for d in range(0, 9):
        for _ in range(3):
            v = FlagVector(d, {S: rng.choice([rng.randint(-99, 99),
                                              Fraction(rng.randint(-99, 99), 7)])
                               for S in index_sets(d)[1:]})
            assert v.complete
            res = gds_residuals(v)
            assert res == _residuals_by_relation(v), d
            assert d == 0 or any(res), d


def test_gds_residuals_need_complete_vector():
    with pytest.raises(MissingEntry):
        gds_residuals(FlagVector(6, candidate_6d(0)))


def test_reduce_index_identity_on_sparse():
    for d in range(2, 8):
        for S in sparse_basis(d):
            assert reduce_index(S, d) == {S: 1}


def test_reduce_index_appendix_chain():
    # f_14 = 2 f_1 - f_12 + f_13 and f_12 = f_02
    assert reduce_index((1, 4), 5) == {(1,): 2, (0, 2): -1, (1, 3): 1}
    # f_124 = f_123, and both collapse to 2 f_13
    assert reduce_index((1, 2, 4), 5) == reduce_index((1, 2, 3), 5) == {(1, 3): 2}
    assert reduce_index((0, 1, 3), 5) == {(1, 3): 2}


def test_reduce_index_coefficients_are_ints():
    # f_S has coefficient +-1 in the relation that is solved for it
    for d in range(0, 9):
        for S in index_sets(d):
            assert all(type(c) is int for c in reduce_index(S, d).values()), S


def test_reduce_index_rejects_bad_sets():
    with pytest.raises(InvalidParams):
        reduce_index((5,), 5)


@pytest.mark.parametrize("make", [
    lambda: build_simplex(5),
    lambda: build_cyclic(5, 8),
    lambda: build_simplex(6),
    lambda: build_cyclic(7, 9),
])
def test_reduction_is_a_homomorphism_on_lattices(make):
    L = make()
    v = L.flag_vector()
    for size in range(0, L.d + 1):
        for S in itertools.combinations(range(L.d), size):
            combo = reduce_index(S, L.d)
            value = sum(c * Fraction(v.get(T)) for T, c in combo.items())
            assert value == v.get(S), S


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_reduction_support_is_sparse(data):
    d = data.draw(st.integers(min_value=2, max_value=7))
    S = tuple(sorted(data.draw(
        st.sets(st.integers(min_value=0, max_value=d - 1), max_size=d))))
    for T in reduce_index(S, d):
        assert _min_offender(T, d) is None


def test_complete_from_sparse_round_trips_lattice_data():
    for L in (build_simplex(7), build_cyclic(6, 9)):
        v = L.flag_vector()
        again = complete_from_sparse({S: v.get(S) for S in sparse_basis(L.d)}, L.d)
        assert again == v


def test_candidate_completions():
    for ell in range(0, 11):
        v = complete_from_sparse(candidate_6d(ell), 6)
        assert v.get((5,)) == 7 + 2 * ell
        assert all(r == 0 for r in gds_residuals(v))
    v7 = complete_from_sparse(candidate_7d(), 7)
    assert v7.get((6,)) == 134
    assert all(r == 0 for r in gds_residuals(v7))


def test_complete_from_sparse_validation():
    values = dict(candidate_6d(0))
    del values[(0, 2, 4)]
    with pytest.raises(IncompleteBasis):
        complete_from_sparse(values, 6)
    with pytest.raises(InvalidParams):
        complete_from_sparse({(0, 1): 3}, 6)
    bad = dict(candidate_6d(0))
    bad[()] = 2
    with pytest.raises(InvalidParams):
        complete_from_sparse(bad, 6)
    # a key outside 0..d-1 is refused, not ignored
    for key in ((-1,), (-3, 0), (7,)):
        with pytest.raises(InvalidParams, match="outside 0..5"):
            complete_from_sparse({**candidate_6d(0), key: 12345}, 6)


def test_completing_one_raised_sparse_value_satisfies_every_relation():
    for d in range(0, 9):
        for T in sparse_basis(d)[1:]:
            values = {S: 1 for S in sparse_basis(d)}
            values[T] = 2
            v = complete_from_sparse(values, d)
            assert all(r == 0 for r in gds_residuals(v)), (d, T)


def test_euler_check():
    assert euler_check((8, 28, 52, 50, 20))
    assert euler_check((22, 111, 110, 35, 21, 7))
    assert not euler_check((4, 7, 4))


def test_subset_keys():
    assert subset_key(()) == ""
    assert subset_key((0, 2, 4)) == "024"
    assert parse_subset_key("024") == (0, 2, 4)
    with pytest.raises(InvalidParams):
        parse_subset_key("042")


def test_sparse_json_parsing():
    doc = json.dumps({"d": 3, "entries": {"": 1, "0": 4, "1": "6"}})
    v = FlagVector.from_json(doc)
    assert v.d == 3 and v.get((0,)) == 4 and v.get((1,)) == 6


def test_json_numbers_must_be_exact():
    for value in (0.5, True, "1/0"):
        doc = json.dumps({"d": 3, "entries": {"": 1, "0": value}})
        with pytest.raises(InvalidParams, match="'0'"):
            FlagVector.from_json(doc)


def test_json_integers_too_long_to_read_are_named():
    # int() refuses a literal of more than 4300 digits naming no entry
    for doc, entry in (('{"d": 3, "entries": {"": 1, "0": -%s}}', '["entries"]["0"]'),
                       ('{"d": %s, "entries": {}}', '["d"]'),
                       ("%s", "(the document)")):
        with pytest.raises(InvalidParams, match=re.escape(
                f"JSON entry {entry}: an integer of 4301 digits")):
            FlagVector.from_json(doc % ("9" * 4301))
    # 4300 digits are read
    doc = '{"d": 1, "entries": {"": 1, "0": %s}}' % ("9" * 4300)
    assert FlagVector.from_json(doc).get((0,)) == 10**4300 - 1


def test_json_header_must_be_exact():
    for doc in ({"d": True, "entries": {"": 1}}, {"d": 2.5, "entries": {"": 1}},
                {"d": 3, "entries": [1]}, {"entries": {"": 1}}, [3]):
        with pytest.raises(InvalidParams):
            FlagVector.from_json(json.dumps(doc))


def test_flag_vector_json_round_trip(c58):
    v = c58.flag_vector()
    again = FlagVector.from_json(v.to_json())
    assert again == v


def test_json_keys_refuse_an_element_above_9():
    # a key spells one digit per element: {9, 10} would be written "910"
    with pytest.raises(InvalidParams, match=r"\(9, 10\)"):
        FlagVector(11, {(9, 10): 5}).to_json()
    with pytest.raises(InvalidParams, match=r"\(10,\)"):
        FlagForm(11, {(10,): 1}).to_json()
    doc = FlagVector(10, {(0, 9): 5}).to_json()
    assert FlagVector.from_json(doc) == FlagVector(10, {(0, 9): 5})


def test_flag_vector_guards():
    with pytest.raises(InvalidParams):
        FlagVector(3, {(): 2})
    with pytest.raises(InvalidParams):
        FlagVector(3, {(3,): 1})
    v = FlagVector(3, {(0,): 4})
    assert not v.complete
    with pytest.raises(MissingEntry):
        v.get((1,))


@pytest.mark.parametrize("value", [0.5, 4.0, True, False, "4", "1/2", None])
@pytest.mark.parametrize("make", [
    lambda value: FlagVector(3, {(0,): value}),
    lambda value: FlagForm(3, {(0,): value}),
    lambda value: complete_from_sparse({(): 1, (0,): value}, 2),
], ids=["FlagVector", "FlagForm", "complete_from_sparse"])
def test_python_values_must_be_exact(make, value):
    with pytest.raises(InvalidParams, match=r"entry \(0,\): .* not an exact number"):
        make(value)


def test_a_form_scalar_must_be_exact():
    form = FlagForm(3, {(0,): 1, (): Fraction(1, 2)})
    for scalar in (0.1, True, "1/3"):
        with pytest.raises(InvalidParams, match=r"entry 'scalar': .* not an exact number"):
            form * scalar
        with pytest.raises(InvalidParams, match=r"entry 'scalar': .* not an exact number"):
            scalar * form
    assert form * 2 == 2 * form == FlagForm(3, {(0,): 2, (): 1})
    assert form * Fraction(2, 3) == Fraction(2, 3) * form == FlagForm(
        3, {(0,): Fraction(2, 3), (): Fraction(1, 3)})


def test_python_ints_and_fractions_are_accepted():
    assert FlagVector(3, {(0,): Fraction(8, 2)}).get((0,)) == 4
    assert FlagForm(3, {(0,): 2, (1,): Fraction(1, 2)}).coeffs == {
        (0,): 2, (1,): Fraction(1, 2)}
    assert complete_from_sparse({(0,): Fraction(3)}, 2).get((1,)) == 3


@pytest.mark.parametrize("make", [
    lambda: FlagVector(3, {(1.0,): 5, (True, 2): 7}),
    lambda: FlagVector(3, {(True, 2): 7}),
    lambda: FlagForm(3, {(0.0,): 1}),
    lambda: complete_from_sparse({(Fraction(0),): 4}, 2),
    lambda: reduce_index((1, 2.0), 4),
], ids=["FlagVector-float", "FlagVector-bool", "FlagForm", "complete_from_sparse",
        "reduce_index"])
def test_index_sets_refuse_an_element_that_is_not_an_int(make):
    with pytest.raises(InvalidParams, match="index set .* not an int"):
        make()


def test_a_complete_vector_takes_no_float_key_for_an_int_one():
    # (1.0,) hashes and compares equal to (1,), so a complete vector, whose
    # keys are looked up in the per-dimension table, must test identity
    entries = dict(build_simplex(3).flag_vector().entries)
    entries[(1.0,)] = entries.pop((1,))
    assert len(entries) == 8
    with pytest.raises(InvalidParams, match=r"index set \(1.0,\)"):
        FlagVector(3, entries)
    # the same keys as new tuples, and a set, are canonicalised as before
    again = FlagVector(3, {tuple(reversed(S)): 1 for S in index_sets(3)})
    assert again.complete and again.get({2, 0}) == again.get((0, 2)) == 1


@pytest.mark.parametrize("key", [(1.0,), (True,), [2, 1.0], (3,), {0, 5}],
                         ids=["float", "bool", "list-with-float", "above-d", "set-above-d"])
def test_get_refuses_what_index_set_refuses(key):
    # a float or bool element equals an int one, so it used to find f_1 or f_12
    v = build_simplex(3).flag_vector()
    with pytest.raises(InvalidParams, match="index set"):
        v.get(key)


def test_get_reads_any_spelling_of_an_index_set():
    v = build_simplex(3).flag_vector()
    assert v.get({2, 0}) == v.get([2, 0, 2]) == v.get((2, 0)) == v.get((0, 2)) == 12
    assert v.get(()) == v.get(set()) == 1
    sparse = FlagVector(3, {(0,): 4})
    for key in ((1,), [2, 1], (0, 2)):
        with pytest.raises(MissingEntry, match="is not present"):
            sparse.get(key)
