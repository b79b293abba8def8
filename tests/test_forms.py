import itertools
import random
from fractions import Fraction

import pytest

from flagvec import (
    DimensionMismatch,
    FlagForm,
    FlagVector,
    UnsupportedDimension,
    battery,
    build_crosspolytope,
    build_cube,
    build_cyclic,
    build_polygon,
    candidate_6d,
    candidate_7d,
    check_candidate,
    complete_from_sparse,
    convolve,
    dual_form,
    evaluate_by_face_sum,
    forms,
    g_forms,
    kalai_5d_form,
    kalai_5d_summands,
    sample_feasible_5d,
)


def test_evaluate_on_lattice_vectors(simplex5, simplex6, c58):
    g0, g1 = g_forms(5)
    assert g1.evaluate(simplex5.flag_vector()) == 0
    assert g1.evaluate(c58.flag_vector()) == 2
    form = FlagForm(5, {(2,): 3, (1,): -2, (3,): -2})
    assert form.evaluate(c58.flag_vector()) == 0  # 156 - 56 - 100
    bound = FlagForm(6, {(0,): 1, (1,): -1, (2,): 1, (): -21})
    assert bound.evaluate(simplex6.flag_vector()) == 0


def test_evaluate_dimension_mismatch(simplex5):
    with pytest.raises(DimensionMismatch):
        FlagForm(4, {(0,): 1}).evaluate(simplex5.flag_vector())


def test_evaluate_completes_sparse_vectors():
    sparse = FlagVector(6, candidate_6d(0))
    form = FlagForm(6, {(5,): 1})
    assert form.evaluate(sparse) == 7


def test_evaluate_raises_when_sparse_entries_are_missing():
    from flagvec import MissingEntry

    v = FlagVector(5, {(0,): 6})
    with pytest.raises(MissingEntry):
        FlagForm(5, {(1,): 1}).evaluate(v)
    with pytest.raises(MissingEntry):
        FlagForm(5, {(1, 2): 1}).evaluate(v)


def test_convolution_smallest_case():
    e = FlagForm(0, {(): 1})
    assert convolve(e, e) == FlagForm(1, {(0,): 1})


def test_convolution_matches_worked_examples():
    # f_empty^1 * (f_0^2 - 3) = f_12^4 - 3 f_1^4
    left = FlagForm(1, {(): 1})
    g12 = FlagForm(2, {(0,): 1, (): -3})
    assert convolve(left, g12) == FlagForm(4, {(1, 2): 1, (1,): -3})
    # (f_0^2 - 3) * (f_0^2 - 3) = f_023 - 3 f_02 - 3 f_23 + 9 f_2
    assert convolve(g12, g12) == FlagForm(
        5, {(0, 2, 3): 1, (0, 2): -3, (2, 3): -3, (2,): 9})


def test_convolution_associativity_on_g_forms():
    pool = []
    for d in range(0, 3):
        g0, g1 = g_forms(d)
        pool.append(g0)
        if g1 is not None:
            pool.append(g1)
    for m1, m2, m3 in itertools.product(pool, repeat=3):
        if m1.d + m2.d + m3.d + 2 > 7:
            continue
        assert convolve(convolve(m1, m2), m3) == convolve(m1, convolve(m2, m3))


def test_face_sum_counts_faces():
    e = FlagForm(0, {(): 1})
    L = build_cube(3)
    for d1 in range(0, 3):
        m2 = FlagForm(L.d - d1 - 1, {(): 1})
        assert evaluate_by_face_sum(FlagForm(d1, {(): 1}), m2, L) \
            == len(L.faces(d1))
    assert convolve(e, e).d == 1


def test_face_sum_agrees_with_index_shift(small_corpus):
    g0_0, _ = g_forms(0)
    g0_1, _ = g_forms(1)
    _, g1_2 = g_forms(2)
    for L in small_corpus:
        if L.d != 5:
            continue
        v = L.flag_vector()
        for m1, m2 in [
            (g0_1, convolve(g1_2, g0_0)),
            (g0_0, convolve(g1_2, g0_1)),
            (g1_2, g1_2),
            (convolve(g0_1, g1_2), g0_0),
        ]:
            assert evaluate_by_face_sum(m1, m2, L) == convolve(m1, m2).evaluate(v)


def test_face_sum_vanishes_for_simplex_quotients(simplex5):
    _, g1_2 = g_forms(2)
    assert evaluate_by_face_sum(g1_2, g1_2, simplex5) == 0


def test_g_forms_on_polygons():
    _, g1 = g_forms(2)
    for n in range(3, 9):
        assert g1.evaluate(build_polygon(n).flag_vector()) == n - 3


def test_kalai_summands_reduce_to_the_worked_rows():
    s1, s2, s3 = kalai_5d_summands()
    assert s1.reduced() == FlagForm(5, {(1,): -6, (0, 2): 3, (1, 3): -1})
    assert s2.reduced() == FlagForm(5, {(1, 3): 2, (0, 3): -3})
    assert s3.reduced() == FlagForm(
        5, {(2,): 9, (3,): -6, (0, 2): -3, (0, 3): 3, (1, 3): -1})
    assert kalai_5d_form() == FlagForm(5, {(1,): -6, (2,): 9, (3,): -6})


def test_kalai_form_is_tight_on_cyclic():
    k = kalai_5d_form()
    for n in range(6, 13):
        assert k.evaluate(build_cyclic(5, n).flag_vector()) == 0


def test_gds_equivalence_of_forms():
    # f_124 and f_123 define the same functional on Eulerian data
    a = FlagForm(5, {(1, 2, 4): 1})
    b = FlagForm(5, {(1, 2, 3): 1})
    assert a != b
    assert a.gds_equal(b)
    assert not a.gds_equal(FlagForm(5, {(1, 3): 1}))


def test_dual_form_reverses_indices():
    m = FlagForm(6, {(0,): 1, (1,): -1, (2,): 1, (): -21})
    assert dual_form(m) == FlagForm(6, {(5,): 1, (4,): -1, (3,): 1, (): -21})


def test_battery_nonnegative_on_corpus(small_corpus):
    extra = [build_cube(5), build_crosspolytope(5), build_cyclic(7, 9)]
    for L in small_corpus + extra:
        if L.d not in (5, 6, 7):
            continue
        v = L.flag_vector()
        values = {m.name: m.form.evaluate(v) for m in battery(L.d)}
        assert all(v >= 0 for v in values.values()), (L, values)


# The batteries typed member by member, the oracle for battery(d), which
# computes each bound and takes the cd constants from the simplex.
TYPED_BATTERIES = {
    5: [("edge-vertex-bound", {(1,): 2, (0,): -5},
         "every vertex of a 5-polytope meets at least 5 edges"),
        ("edge-vertex-bound-dual", {(3,): 2, (4,): -5},
         "dual form: every facet has at least 5 ridges"),
        ("g1-convolution", {(1,): -6, (2,): 9, (3,): -6},
         "sum of the three nonnegative g1 convolution splittings of dimension 5"),
        ("g1-convolution-dual", {(3,): -6, (2,): 9, (1,): -6},
         "index reversal of g1-convolution")],
    6: [("edge-vertex-bound", {(1,): 1, (0,): -3},
         "every vertex of a 6-polytope meets at least 6 edges"),
        ("cd-c2dc2-bound", {(0,): 1, (1,): -1, (2,): 1, (): -21},
         "nonnegativity of the cd-index coefficient <c^2dc^2 - 19c^6>"),
        ("edge-vertex-bound-dual", {(4,): 1, (5,): -3},
         "dual form: every facet has at least 6 ridges"),
        ("cd-c2dc2-bound-dual", {(5,): 1, (4,): -1, (3,): 1, (): -21},
         "index reversal of cd-c2dc2-bound")],
    7: [("edge-vertex-bound", {(1,): 2, (0,): -7},
         "every vertex of a 7-polytope meets at least 7 edges"),
        ("cd-c2dc3-bound", {(0,): 1, (1,): -1, (2,): 1, (): -36},
         "nonnegativity of the cd-index coefficient <c^2dc^3 - 34c^7>"),
        ("edge-vertex-bound-dual", {(5,): 2, (6,): -7},
         "dual form: every facet has at least 7 ridges"),
        ("cd-c2dc3-bound-dual", {(6,): 1, (5,): -1, (4,): 1, (): -36},
         "index reversal of cd-c2dc3-bound")],
}


@pytest.mark.parametrize("d", sorted(TYPED_BATTERIES))
def test_battery_equals_the_typed_oracle(d):
    members = list(battery(d))
    assert sorted((m.name, m.form.coeffs, m.source) for m in members) \
        == sorted((name, FlagForm(d, coeffs).coeffs, source)
                  for name, coeffs, source in TYPED_BATTERIES[d])
    # each bound, then each bound's index reversal
    names = [m.name for m in members]
    assert names[2:] == [name + "-dual" for name in names[:2]]


def test_battery_unsupported_dimension():
    for d in (4, 8):
        with pytest.raises(UnsupportedDimension, match=f"^no inequality battery for d={d}$"):
            battery(d)


def test_prop3_combination_reduces_to_constant_21():
    bat = {m.name: m.form for m in battery(6)}
    combined = 3 * bat["cd-c2dc2-bound"] + bat["edge-vertex-bound"]
    assert combined.reduced() == FlagForm(6, {(2,): 3, (1,): -2, (): -63})


def test_check_candidate_6d_family():
    for ell in (0, 2, 8, 10):
        rep = check_candidate(complete_from_sparse(candidate_6d(ell), 6))
        assert rep.battery_ok and rep.euler_ok and rep.gds_ok
        assert rep.f[1] > rep.f[2]
        # the cd bound and its dual are tight on this family
        assert rep.battery_values["cd-c2dc2-bound"] == 0
        assert rep.battery_values["edge-vertex-bound-dual"] == 0
    assert check_candidate(complete_from_sparse(candidate_6d(0), 6)).properties.unimodal
    assert not check_candidate(complete_from_sparse(candidate_6d(8), 6)).properties.unimodal


def test_check_candidate_7d():
    rep = check_candidate(complete_from_sparse(candidate_7d(), 7))
    assert rep.battery_ok and rep.euler_ok and rep.gds_ok
    assert not rep.properties.barany
    assert rep.properties.witnesses["barany"] == 3
    assert rep.f[3] == 70 < rep.f[0] == rep.f[6] == 134


def test_check_candidate_accepts_sparse_vectors():
    rep = check_candidate(FlagVector(6, candidate_6d(1)))
    assert rep.f[5] == 9


def test_check_candidate_refuses_a_dimension_without_a_battery_first(monkeypatch):
    def complete(*args):
        raise AssertionError("completed a vector that has no battery")

    monkeypatch.setattr(forms, "complete_from_sparse", complete)
    with pytest.raises(UnsupportedDimension, match="no inequality battery for d=20"):
        check_candidate(FlagVector(20, {(0,): 21}))


def test_check_candidate_on_lattice_data():
    L = build_cyclic(6, 10)
    rep = check_candidate(L.flag_vector())
    assert rep.battery_ok
    assert rep.properties.unimodal and rep.properties.barany


def test_form_json_round_trip():
    m = FlagForm(6, {(0, 2): Fraction(-3, 2), (): 7})
    again = FlagForm.from_json(m.to_json())
    assert again == m


def test_feasible_sampling_is_deterministic_and_unimodal():
    from flagvec.families import properties

    rng = random.Random(7)
    samples = sample_feasible_5d(rng, count=12)
    assert len(samples) == 12
    again = sample_feasible_5d(random.Random(7), count=12)
    assert [v.entries for v in again] == [v.entries for v in samples]
    for v in samples:
        f = v.f_vector()
        assert properties(f).unimodal
        assert all(c > 0 for c in f)


def _sample_by_completing_first(rng, count):
    """Test oracle: complete every draw, then screen its face counts and the
    battery on the complete vector."""
    boxes = forms.feasible_sample_boxes()
    bat = battery(5)
    out = []
    for _ in range(20000):
        if len(out) >= count:
            break
        values = {S: rng.randint(a, b) for S, (a, b) in boxes.items()}
        v = complete_from_sparse(values, 5)
        if any(v.get((i,)) <= 0 for i in range(5)):
            continue
        if any(m.form.evaluate(v) < 0 for m in bat):
            continue
        out.append(v)
    return out


def test_feasible_sampling_completes_only_the_draws_it_keeps(monkeypatch):
    completed = []

    def counted(values, d):
        completed.append(d)
        return complete_from_sparse(values, d)

    monkeypatch.setattr(forms, "complete_from_sparse", counted)
    for seed in range(40):
        completed.clear()
        samples = sample_feasible_5d(random.Random(seed), 20)
        assert len(completed) == len(samples) == 20, seed
        assert samples == _sample_by_completing_first(random.Random(seed), 20), seed
