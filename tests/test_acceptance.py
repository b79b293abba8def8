"""Acceptance suite: one test per criterion, each printed as a pass/fail line.

Everything here is exact; there are no tolerances anywhere (the single
"limit" statement is itself an exact rational comparison against 1/100).
"""

import itertools
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import flagvec as fv
from flagvec.verify import corpus

from paper_formulas import p7n, r3_closed_form


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def simplicial_flag_formula(L, S):
    # independent oracle: each rank-b face of a simplicial lattice is a
    # simplex on b+1 vertices, so chains multiply binomially
    value = len(L.faces(S[-1]))
    for a, b in zip(S, S[1:]):
        value *= comb(b + 1, a + 1)
    return value


def is_simplicial(L):
    return L.d >= 1 and all(len(f) == L.d for f in L.faces(L.d - 1))


def test_criterion_1_cyclic5_nonconvexity():
    with criterion("1 cyclic-5 non-convexity"):
        closed = fv.cyclic_f(5, 8)
        assert closed == (8, 28, 52, 50, 20)
        assert fv.build_cyclic(5, 8).f_vector() == closed
        assert closed[1] == 28
        assert Fraction(closed[0] + closed[2], 2) == 30
        assert closed[1] < Fraction(closed[0] + closed[2], 2)


def test_criterion_2_kalai_derivation():
    with criterion("2 convolution derivation"):
        s1, s2, s3 = fv.kalai_5d_summands()
        assert s1.reduced() == fv.FlagForm(5, {(1,): -6, (0, 2): 3, (1, 3): -1})
        assert s2.reduced() == fv.FlagForm(5, {(1, 3): 2, (0, 3): -3})
        assert s3.reduced() == fv.FlagForm(
            5, {(2,): 9, (3,): -6, (0, 2): -3, (0, 3): 3, (1, 3): -1})
        total = (s1 + s2 + s3).reduced()
        assert total == fv.FlagForm(5, {(2,): 9, (1,): -6, (3,): -6})
        for n in range(6, 13):
            value = total.evaluate(fv.build_cyclic(5, n).flag_vector())
            assert value >= 0
            assert value == 0


def test_criterion_3_cd_flag_forms():
    with criterion("3 cd-words as flag forms"):
        want = {(0,): 1, (1,): -1, (2,): 1, (): -2}
        assert fv.cd_word_to_flag_form("ccdcc", 6).gds_equal(
            fv.FlagForm(6, want))
        assert fv.cd_word_to_flag_form("ccdccc", 7).gds_equal(
            fv.FlagForm(7, want))
        bound6 = fv.FlagForm(6, {(0,): 1, (1,): -1, (2,): 1, (): -21})
        bound7 = fv.FlagForm(7, {(0,): 1, (1,): -1, (2,): 1, (): -36})
        assert bound6.evaluate(fv.build_simplex(6).flag_vector()) == 0
        assert bound7.evaluate(fv.build_simplex(7).flag_vector()) == 0


def test_criterion_4_candidate_completions():
    with criterion("4 candidate completions"):
        unimodal_flags = []
        for ell in range(0, 11):
            rep = fv.check_candidate(
                fv.complete_from_sparse(fv.candidate_6d(ell), 6))
            assert rep.f[5] == 7 + 2 * ell
            assert rep.battery_ok and rep.euler_ok and rep.gds_ok
            unimodal_flags.append(rep.properties.unimodal)
        # the family breaks unimodality once the dip opens up (ell >= 8)
        assert unimodal_flags[8:] == [False, False, False]
        assert not all(unimodal_flags)

        rep7 = fv.check_candidate(
            fv.complete_from_sparse(fv.candidate_7d(), 7))
        assert rep7.f[6] == 134
        assert rep7.battery_ok and rep7.euler_ok and rep7.gds_ok
        assert not rep7.properties.barany


def test_criterion_5_p7n_log_convexity():
    with criterion("5 connected-sum log-convexity"):
        rows = fv.logconv_scan(7, 8, 200)
        assert all(r > 1 for _, ratios in rows for r in ratios)
        r3 = [ratios[2] for _, ratios in rows]
        assert r3[0] == Fraction(25, 16)
        assert all(a > b for a, b in zip(r3, r3[1:]))
        assert r3 == [r3_closed_form(n) for n, _ in rows]
        [(_, (_, _, r3_far))] = fv.logconv_scan(7, 10**4, 10**4)
        assert r3_far == r3_closed_form(10**4)
        assert 0 < r3_far - 1 < Fraction(1, 100)


def test_criterion_6_oracle_equivalence_battery():
    with criterion("6 oracle equivalence battery"):
        names = []
        for name, L in corpus():
            names.append(name)
            assert L.d <= 7 and L.face_count() <= 10**5
            v = L.flag_vector()
            # (a) Dehn-Sommerville residuals vanish
            assert all(r == 0 for r in fv.gds_residuals(v)), name
            # (b) simplicial product formula matches chain enumeration
            if is_simplicial(L):
                for size in range(1, L.d + 1):
                    for S in itertools.combinations(range(L.d), size):
                        assert v.get(S) == simplicial_flag_formula(L, S), (name, S)
            # (c) dual flag identity
            w = L.dual().flag_vector()
            for S, value in v.entries.items():
                mirrored = tuple(sorted(L.d - 1 - s for s in S))
                assert w.get(mirrored) == value, (name, S)
            # (d) toric g
            g = fv.toric_g(L)
            assert g[0] == 1
            assert all(x >= 0 for x in g), name
            if L.d >= 2:
                assert g[1] == L.n_vertices() - (L.d + 1), name
            # (e) cd-index exists with nonnegative coefficients
            assert fv.stanley_nonneg_check(L), name
        assert len(names) >= 30
        # (f) dual-path equality for the three convolution splittings
        c58 = fv.build_cyclic(5, 8)
        g0_0, _ = fv.g_forms(0)
        g0_1, _ = fv.g_forms(1)
        _, g1_2 = fv.g_forms(2)
        for m1, m2 in [
            (g0_1, fv.convolve(g1_2, g0_0)),
            (g0_0, fv.convolve(g1_2, g0_1)),
            (g1_2, g1_2),
        ]:
            assert fv.evaluate_by_face_sum(m1, m2, c58) \
                == fv.convolve(m1, m2).evaluate(c58.flag_vector())


def test_criterion_7_theorem_1_on_data():
    with criterion("7 unimodality and the 6d bound chain"):
        seen5 = seen6 = 0
        for name, L in corpus():
            if L.d == 5:
                seen5 += 1
                assert fv.properties(L.f_vector()).unimodal, name
            if L.d == 6:
                seen6 += 1
                f = L.f_vector()
                lhs = Fraction(f[2])
                mid = Fraction(2, 3) * f[1] + 21
                low = 2 * f[0] + 21
                assert lhs >= mid >= low > f[0], name
                assert fv.properties(f).barany, name
        assert seen5 >= 6 and seen6 >= 6


def test_criterion_8_connected_sum_arithmetic():
    with criterion("8 connected-sum arithmetic"):
        assert fv.connected_sum_f((4, 6, 4), (4, 6, 4)) == (7, 12, 7)
        for n in range(8, 201):
            direct = p7n(n)
            composed = fv.connected_sum_f(
                fv.cyclic_f(7, n), fv.cyclic_f(7, n).reversed())
            assert fv.cyclic_sum_f(7, n) == composed == direct
            assert direct == direct.reversed()


def test_verification_command_passes():
    with criterion("verify-paper exit status"):
        report = fv.run_verification(seed=0)
        assert report.passed, [c.name for c in report.checks if not c.passed]
