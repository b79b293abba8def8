from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagvec import (
    DimensionMismatch,
    FVector,
    InvalidParams,
    build_cyclic,
    candidate_6d,
    candidate_7d,
    euler_check,
    connected_sum_f,
    cyclic_f,
    cyclic_sum_f,
    logconv_scan,
    neighborly_gap,
    properties,
    toric_h,
)

from paper_formulas import p7n, r3_closed_form


def cyclic_f5(n: int) -> FVector:
    """Test oracle: the f-vector of the cyclic 5-polytope as explicit
    polynomials, (n, n(n-1)/2, 2(n^2-6n+10), 5(n-3)(n-4)/2, (n-3)(n-4))."""
    return FVector((n, n * (n - 1) // 2, 2 * (n * n - 6 * n + 10),
                    5 * (n - 3) * (n - 4) // 2, (n - 3) * (n - 4)))


def cyclic_f7(n: int) -> FVector:
    """Test oracle: the f-vector of the cyclic 7-polytope as explicit
    polynomials."""
    return FVector((n, n * (n - 1) // 2, n * (n - 1) * (n - 2) // 6,
                    5 * (n - 4) * (n * n - 8 * n + 21) // 6,
                    (n - 4) * (3 * n * n - 31 * n + 84) // 2,
                    7 * (n - 4) * (n - 5) * (n - 6) // 6,
                    (n - 4) * (n - 5) * (n - 6) // 3))


def _ubt_h(d, n):
    """The Upper Bound Theorem h-vector of the cyclic polytope, to d/2."""
    return tuple(comb(n - d - 1 + i, i) for i in range(d // 2 + 1))


def test_cyclic_closed_forms_match_reference_values():
    assert cyclic_f(5, 8) == (8, 28, 52, 50, 20)
    assert cyclic_f(7, 8) == (8, 28, 56, 70, 56, 28, 8)
    assert cyclic_f(2, 3) == (3, 3)
    with pytest.raises(InvalidParams, match="n >= d"):
        cyclic_f(5, 5)
    with pytest.raises(InvalidParams, match="n >= d"):
        cyclic_f(7, 7)
    with pytest.raises(InvalidParams, match="dimension"):
        cyclic_f(1, 5)


@pytest.mark.parametrize("d,make", [(5, cyclic_f5), (7, cyclic_f7)])
def test_cyclic_closed_forms_match_lattices(d, make):
    for n in range(d + 1, 61):
        assert cyclic_f(d, n) == make(n), n
    for n in range(d + 1 if d == 5 else 8, 13):
        assert make(n) == build_cyclic(d, n).f_vector(), n


@pytest.mark.parametrize("d,n", [(2, 6), (3, 7), (4, 9), (5, 8), (6, 10),
                                 (7, 12), (8, 14)])
def test_cyclic_f_and_ubt_h_match_enumeration(d, n):
    L = build_cyclic(d, n)
    assert cyclic_f(d, n) == L.f_vector()
    assert toric_h(L)[:d // 2 + 1] == _ubt_h(d, n)


def test_connected_sum_arithmetic():
    assert connected_sum_f((4, 6, 4), (4, 6, 4)) == (7, 12, 7)
    assert connected_sum_f((4, 6, 4), (8, 12, 6)) == (11, 18, 9)
    with pytest.raises(DimensionMismatch):
        connected_sum_f((4, 6, 4), (5, 10, 10, 5))
    with pytest.raises(InvalidParams):
        connected_sum_f((4, 4), (4, 4))


def test_p7n_reference_values():
    assert cyclic_sum_f(7, 8) == p7n(8) == (15, 56, 112, 140, 112, 56, 15)
    assert cyclic_sum_f(7, 9)[0] == p7n(9)[0] == 28
    with pytest.raises(InvalidParams):
        cyclic_sum_f(7, 7)
    with pytest.raises(InvalidParams):
        cyclic_sum_f(2, 5)  # no connected sum below dimension 3


def test_p7n_agrees_with_connected_sum_route():
    # the paper's polynomials against the composition in every dimension
    for n in range(8, 201):
        composed = cyclic_sum_f(7, n)
        assert composed == p7n(n), n
        assert composed == connected_sum_f(cyclic_f(7, n), cyclic_f(7, n).reversed())
        assert composed == composed.reversed()


def test_p7n_euler_relation_over_the_whole_range():
    for d in (3, 4, 7, 8, 9):
        for n in range(d + 1, 201):
            f = cyclic_sum_f(d, n)
            assert sum((-1) ** i * fi for i, fi in enumerate(f)) == 1 - (-1) ** d, (d, n)


def test_properties_on_reference_vectors():
    rep = properties((8, 28, 52, 50, 20))
    assert not rep.convex and rep.witnesses["convex"] == 1
    assert rep.log_convex and rep.unimodal and rep.barany

    rep = properties([int(x) for x in cyclic_f(7, 8)])  # the 7-simplex
    assert not rep.convex
    assert rep.log_convex

    rep = properties((22, 111, 110, 35, 21, 7))
    assert rep.unimodal  # rises once, then falls: peak at f_1
    assert not rep.log_convex
    assert rep.barany

    # deeper in the family a genuine dip appears between f_2 and f_4
    rep = properties((30, 135, 126, 67, 69, 23))
    assert not rep.unimodal and rep.witnesses["unimodal"] == 3
    assert rep.barany  # still above min(f_0, f_5) = 23

    rep = properties((134, 469, 371, 70, 371, 469, 134))
    assert not rep.barany and rep.witnesses["barany"] == 3


def test_properties_plateau_edge_cases():
    assert properties((1, 5, 5, 1)).unimodal
    assert not properties((5, 3, 3, 4)).unimodal  # dip-free but not unimodal
    assert properties((2, 2, 2)).convex


def _has_strict_dip(f) -> bool:
    """Test oracle: some interior entry is below both of its neighbours."""
    return any(f[k] < f[k - 1] and f[k] < f[k + 1] for k in range(1, len(f) - 1))


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=9))
@settings(max_examples=400, deadline=None)
def test_unimodal_vectors_have_no_strict_dip(components):
    # rising to the first maximum and falling after it leaves no room for a
    # dip, so the shape test alone decides unimodality
    if properties(components).unimodal:
        assert not _has_strict_dip(components)


def test_properties_validation():
    with pytest.raises(InvalidParams):
        properties((3, 0, 3))
    with pytest.raises(InvalidParams):
        properties(())


@given(st.lists(st.integers(min_value=1, max_value=80), min_size=3, max_size=9))
@settings(max_examples=300, deadline=None)
def test_property_implication_chain(components):
    rep = properties(components)
    if rep.convex:
        assert rep.log_convex
    if rep.log_convex:
        assert rep.unimodal
    if rep.unimodal:
        assert rep.barany


def test_convexity_fails_at_k1_for_large_cyclic5():
    # 2-neighbourliness pushes f_1 below the convexity bound from n = 8 on
    for n in (6, 7):
        assert properties(cyclic_f(5, n)).convex
    for n in range(8, 15):
        rep = properties(cyclic_f(5, n))
        assert not rep.convex and rep.witnesses["convex"] == 1, n


def test_neighborly_gap():
    assert neighborly_gap(7) == 0
    assert neighborly_gap(8) == 8
    assert neighborly_gap(10) == 40
    from math import comb
    for f0 in range(3, 30):
        assert neighborly_gap(f0) == f0 + comb(f0, 3) - 2 * comb(f0, 2)


def test_logconv_scan_reference_ratios():
    rows = logconv_scan(7, 8, 200)
    assert [n for n, _ in rows] == list(range(8, 201))
    n, (r1, _, r3) = rows[0]
    assert r1 == Fraction(28, 15)
    assert r3 == Fraction(25, 16)
    for n, ratios in rows:
        f = p7n(n)
        assert ratios == tuple(Fraction(f[k] ** 2, f[k - 1] * f[k + 1])
                               for k in (1, 2, 3)), n
        assert all(r > 1 for r in ratios)
        assert ratios[2] == r3_closed_form(n)
    # the distinct ratios of a palindromic vector: k = 1..(d-1)//2
    for d in (3, 4, 8, 9):
        assert len(logconv_scan(d, d + 1, d + 1)[0][1]) == (d - 1) // 2
    with pytest.raises(InvalidParams):
        logconv_scan(7, 5, 7)
    with pytest.raises(InvalidParams):
        logconv_scan(8, 8, 20)


def test_r3_limit_behaviour():
    [(_, (_, _, r3))] = logconv_scan(7, 10**4, 10**4)
    assert r3 == r3_closed_form(10**4)
    assert r3 - 1 < Fraction(1, 100)
    assert r3 > 1


def test_connected_sums_of_cyclic_polytopes_by_dimension():
    # first n < 400 at which C(d, n) glued to its dual is not log-convex, and
    # the first at which it is not unimodal; Barany holds throughout
    first_failures = {}
    for d in range(7, 14):
        for n in range(d + 1, 400):
            rep = properties(cyclic_sum_f(d, n))
            assert rep.barany, (d, n)
            if not rep.unimodal:
                first_failures[d] = n
                break
            assert rep.log_convex, (d, n)  # log-convexity fails no earlier
    assert first_failures == {8: 25, 9: 18, 10: 18, 11: 18, 12: 19, 13: 20}
    f = cyclic_sum_f(8, 25)
    assert f == (7149, 28800, 46800, 46400, 46400, 46800, 28800, 7149)
    rep = properties(f)
    assert rep.witnesses["log_convex"] == 3 and rep.witnesses["unimodal"] == 4


def test_log_convexity_fails_on_a_window_of_asymmetric_sums():
    # C(6, n) glued to the dual of C(6, 11) fails log-convexity, at k = 1,
    # exactly for n = 29..126; both ends of the window are tested
    for n, holds in ((28, True), (29, False), (126, False), (127, True)):
        f = cyclic_sum_f(6, n, 11)
        assert f == connected_sum_f(cyclic_f(6, n), cyclic_f(6, 11).reversed())
        rep = properties(f)
        assert rep.log_convex is holds, n
        assert rep.witnesses.get("log_convex") == (None if holds else 1), n
        assert (f[1] ** 2 >= f[0] * f[2]) is holds, n
    assert cyclic_sum_f(6, 29, 11) == (105, 637, 3929, 9242, 8755, 2910)
    f7 = cyclic_sum_f(7, 32, 12)
    assert f7 == (143, 888, 5536, 18870, 30516, 22998, 6563)
    assert properties(f7).witnesses["log_convex"] == 1
    # m = n is the symmetric sum
    assert cyclic_sum_f(7, 9, 9) == cyclic_sum_f(7, 9) == p7n(9)


def test_candidate_data_values():
    assert candidate_6d(0)[(0, 2, 4)] == 6480
    assert candidate_6d(2)[(4,)] == 33
    assert candidate_7d()[(1, 3, 5)] == 127260
    with pytest.raises(InvalidParams):
        candidate_6d(-1)


def test_fvector_helpers():
    f = FVector((1, 2, 3))
    assert f.reversed() == (3, 2, 1)
    assert f[1] == 2 and len(f) == 3
    assert FVector((Fraction(8), 28)).components == (8, 28)
    assert type(FVector((Fraction(8), 28))[0]) is int


def test_fvector_equals_what_is_not_iterable_as_false():
    f = FVector((1, 2))
    assert (f == None) is False and f != None  # noqa: E711
    assert None not in [f] and f in [None, f]
    assert f == (1, 2) and f == [1, 2]


@pytest.mark.parametrize("components, index", [
    ((8.7, 28, 52, 50, 20), 0),
    ((8, 28.0, 52), 1),
    (("8", 28, 52), 0),
    ((8, True, 52), 1),
    ((8, 28, Fraction(103, 2)), 2),
])
@pytest.mark.parametrize("use", [FVector, properties, connected_sum_f, euler_check])
def test_fvector_refuses_what_is_not_an_integer(components, index, use):
    args = (components, components) if use is connected_sum_f else (components,)
    with pytest.raises(InvalidParams, match=f"component f_{index}: "):
        use(*args)
