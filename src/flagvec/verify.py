"""Executable verification suite.

Every identity, reference value and sanity property the library is supposed
to reproduce, bundled into one deterministic report: closed forms against
lattice enumeration, the convolution and cd-index identities, candidate
completions, the connected-sum family, and the per-lattice oracle battery.
The summary table mirrors the property-by-dimension overview; a cell without
a computed witness is marked as a literature claim or as open.
"""

import random
from fractions import Fraction
from functools import lru_cache

from . import cdindex, families, flagalg, forms, lattice
from .rational import rat_to_str
from .records import Record


class CheckResult(Record):
    __slots__ = ("name", "passed", "expected", "computed", "note")

    def __init__(self, name: str, passed: bool, expected: str, computed: str,
                 note: str = ""):
        self.name = name
        self.passed = passed
        self.expected = expected
        self.computed = computed
        self.note = note


class TableCell(Record):
    __slots__ = ("prop", "dims", "status", "evidence")

    def __init__(self, prop: str, dims: str, status: str, evidence: str):
        self.prop = prop
        self.dims = dims
        self.status = status  # holds | fails | open
        self.evidence = evidence


class VerificationReport(Record):
    __slots__ = ("checks", "table")

    def __init__(self, checks: list[CheckResult] | None = None,
                 table: list[TableCell] | None = None):
        self.checks = [] if checks is None else checks
        self.table = [] if table is None else table

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status} {c.name}: expected {c.expected}, computed {c.computed}"
            if c.note:
                line += f" ({c.note})"
            lines.append(line)
        lines.append("")
        lines.append("property/dimension summary (computed evidence unless"
                     " marked literature):")
        for cell in self.table:
            lines.append(f"  {cell.prop:<12} d {cell.dims:>4}: {cell.status:<6} {cell.evidence}")
        lines.append("")
        n_fail = sum(1 for c in self.checks if not c.passed)
        lines.append(f"{len(self.checks) - n_fail}/{len(self.checks)} checks passed")
        return lines

    def to_dict(self) -> dict:
        return {
            "checks": [
                {"name": c.name, "passed": c.passed, "expected": c.expected,
                 "computed": c.computed, "note": c.note}
                for c in self.checks
            ],
            "table": [
                {"property": t.prop, "dimensions": t.dims,
                 "status": t.status, "evidence": t.evidence}
                for t in self.table
            ],
            "passed": self.passed,
        }


@lru_cache(maxsize=1)
def corpus() -> tuple[tuple[str, object], ...]:
    """Named lattices forming the desk-scale test corpus (d <= 7); the
    report reads every lattice it checks from here."""
    items: list[tuple[str, object]] = []
    for d in range(0, 8):
        items.append((f"simplex-{d}", lattice.build_simplex(d)))
    for n in (3, 4, 5, 6, 7, 8, 12):
        items.append((f"polygon-{n}", lattice.build_polygon(n)))
    for d in range(1, 7):
        items.append((f"cube-{d}", lattice.build_cube(d)))
    for d in range(1, 7):
        items.append((f"crosspolytope-{d}", lattice.build_crosspolytope(d)))
    for d, n in ((5, 6), (5, 7), (5, 8), (5, 9), (5, 10), (5, 11), (5, 12),
                 (6, 8), (6, 9), (6, 10), (6, 12),
                 (7, 8), (7, 9), (7, 10), (7, 12)):
        items.append((f"cyclic-{d}-{n}", lattice.build_cyclic(d, n)))
    return tuple(items)


def _is_simplicial(L) -> bool:
    return L.d >= 1 and all(len(f) == L.d for f in L.faces(L.d - 1))


# f-vector of cyclic(8,25) glued to its dual, the d = 8 witness of the table
WITNESS_8 = (7149, 28800, 46800, 46400, 46400, 46800, 28800, 7149)
# (d, n, m, f-vector) of cyclic(d,n) glued to the dual of cyclic(d,m): the
# log-convexity witnesses at d = 6 and 7, both failing at k = 1
WITNESSES_6_7 = ((6, 29, 11, (105, 637, 3929, 9242, 8755, 2910)),
                 (7, 32, 12, (143, 888, 5536, 18870, 30516, 22998, 6563)))


def run_verification(seed: int = 0) -> VerificationReport:
    report = VerificationReport()
    ok = report.checks.append

    def check(name, passed, expected, computed, note=""):
        ok(CheckResult(name, bool(passed), str(expected), str(computed), note))

    lattices = dict(corpus())

    # ---- cyclic 5-polytopes: closed form, enumeration, convexity failure
    closed = families.cyclic_f(5, 8)
    enumerated = lattices["cyclic-5-8"].f_vector()
    check("cyclic5-8-closed-form", closed == (8, 28, 52, 50, 20),
          "(8, 28, 52, 50, 20)", str(tuple(closed)))
    check("cyclic5-8-enumeration", enumerated == closed,
          str(tuple(closed)), str(tuple(enumerated)), "lattice oracle")
    gap = Fraction(closed[0] + closed[2], 2) - closed[1]
    check("cyclic5-8-convexity-gap", gap == 2, "(f0+f2)/2 - f1 = 2", rat_to_str(gap),
          "f1 = 28 < 30, so convexity fails at k=1")

    # ---- the three g1-convolution summands and their sum
    s1, s2, s3 = forms.kalai_5d_summands()
    targets = [
        ("kalai-summand-1", s1, {(1,): -6, (0, 2): 3, (1, 3): -1}),
        ("kalai-summand-2", s2, {(1, 3): 2, (0, 3): -3}),
        ("kalai-summand-3", s3,
         {(2,): 9, (3,): -6, (0, 2): -3, (0, 3): 3, (1, 3): -1}),
    ]
    for name, summand, expect in targets:
        got = summand.reduced()
        check(name, got == forms.FlagForm(5, expect),
              repr(forms.FlagForm(5, expect)), repr(got))
    total = forms.kalai_5d_form()
    check("kalai-form-reduction", total == forms.FlagForm(5, {(1,): -6, (2,): 9, (3,): -6}),
          "9f_2 - 6f_1 - 6f_3", repr(total))
    kalai_vals = [total.evaluate(lattices[f"cyclic-5-{n}"].flag_vector())
                  for n in range(6, 13)]
    check("kalai-on-cyclic5", all(val == 0 for val in kalai_vals),
          "0 for n = 6..12", str([rat_to_str(v) for v in kalai_vals]),
          "cyclic 5-polytopes are tight for the convolution bound")

    # ---- cd-words as flag forms
    form6 = cdindex.cd_word_to_flag_form("ccdcc", 6)
    want6 = forms.FlagForm(6, {(0,): 1, (1,): -1, (2,): 1, (): -2})
    check("cd-c2dc2-flag-form", form6.gds_equal(want6),
          "f_0 - f_1 + f_2 - 2", repr(form6))
    form7 = cdindex.cd_word_to_flag_form("ccdccc", 7)
    want7 = forms.FlagForm(7, {(0,): 1, (1,): -1, (2,): 1, (): -2})
    check("cd-c2dc3-flag-form", form7.gds_equal(want7),
          "f_0 - f_1 + f_2 - 2", repr(form7),
          "the trailing c has no effect")
    for d, member in ((6, "cd-c2dc2-bound"), (7, "cd-c2dc3-bound")):
        simplex = lattices[f"simplex-{d}"].flag_vector()
        value = next(m.form for m in forms.battery(d) if m.name == member).evaluate(simplex)
        check(f"cd-bound-tight-on-simplex-{d}", value == 0, "0", rat_to_str(value))

    # ---- candidate completions
    f5_ok, battery_ok, u_flags, star_gaps = [], [], [], []
    for ell in range(0, 11):
        v = flagalg.complete_from_sparse(families.candidate_6d(ell), 6)
        rep = forms.check_candidate(v)
        f5_ok.append(v.get((5,)) == 7 + 2 * ell)
        battery_ok.append(rep.battery_ok and rep.euler_ok and rep.gds_ok)
        u_flags.append(rep.properties.unimodal)
        star_gaps.append(rep.f[2] - rep.f[1])
    check("candidate-6d-f5", all(f5_ok), "f_5 = 7 + 2*ell for ell = 0..10",
          str([7 + 2 * e if okv else "bad" for e, okv in enumerate(f5_ok)]))
    check("candidate-6d-battery", all(battery_ok),
          "battery, Euler and Dehn-Sommerville pass for all ell", str(all(battery_ok)))
    check("candidate-6d-f1-exceeds-f2", all(g < 0 for g in star_gaps),
          "f_2 - f_1 < 0 for all ell", str(star_gaps),
          "the would-be unimodality route f_1 <= f_2 fails on the whole family")
    check("candidate-6d-unimodality-breaks", not all(u_flags),
          "a non-unimodal member exists (ell >= 8)",
          f"unimodal flags {u_flags}")
    v7 = flagalg.complete_from_sparse(families.candidate_7d(), 7)
    rep7 = forms.check_candidate(v7)
    check("candidate-7d-f6", v7.get((6,)) == 134, "134", rat_to_str(v7.get((6,))))
    check("candidate-7d-battery", rep7.battery_ok and rep7.euler_ok and rep7.gds_ok,
          "battery, Euler and Dehn-Sommerville pass", str(rep7.battery_ok))
    check("candidate-7d-barany-fails", not rep7.properties.barany,
          "f_3 = 70 below min(f_0, f_6) = 134",
          f"barany={rep7.properties.barany}, witness k={rep7.properties.witnesses.get('barany')}")

    # ---- connected sums and log-convexity of the 7-dimensional family
    tetra = families.connected_sum_f((4, 6, 4), (4, 6, 4))
    check("connected-sum-tetrahedra", tetra == (7, 12, 7), "(7, 12, 7)",
          str(tuple(tetra)))
    p7n_8 = families.cyclic_sum_f(7, 8)
    check("p7n-at-8", p7n_8 == (15, 56, 112, 140, 112, 56, 15),
          "(15, 56, 112, 140, 112, 56, 15)", str(tuple(p7n_8)),
          "the 7-simplex glued to its dual")
    rows = families.logconv_scan(7, 8, 200)
    all_above_one = all(r > 1 for _, ratios in rows for r in ratios)
    check("p7n-log-convexity", all_above_one,
          "all three ratios > 1 for n = 8..200", str(all_above_one))
    r3 = [ratios[2] for _, ratios in rows]
    check("p7n-r3-at-8", r3[0] == Fraction(25, 16), "25/16", rat_to_str(r3[0]))
    decreasing = all(a > b for a, b in zip(r3, r3[1:]))
    check("p7n-r3-decreasing", decreasing, "strictly decreasing on 8..200",
          str(decreasing))
    r3_far = families.logconv_scan(7, 10**4, 10**4)[0][1][2]
    check("p7n-r3-limit", 0 < r3_far - 1 < Fraction(1, 100),
          "0 < r3(10^4) - 1 < 1/100", rat_to_str(r3_far - 1))
    f8 = families.cyclic_sum_f(8, 25)
    rep8 = families.properties(f8)
    found8 = (rep8.witnesses.get("log_convex"), rep8.witnesses.get("unimodal"),
              rep8.barany)
    check("cyclic-sum-8-25", f8 == WITNESS_8 and found8 == (3, 4, True),
          f"f = {WITNESS_8}: log-convexity fails at k=3, unimodality at k=4,"
          " Barany holds",
          f"f = {tuple(f8)}: log-convex witness {found8[0]},"
          f" unimodal witness {found8[1]}, barany={found8[2]}",
          "cyclic(8,25) glued to its dual")
    for d, n, m, witness in WITNESSES_6_7:
        f = families.cyclic_sum_f(d, n, m)
        k = families.properties(f).witnesses.get("log_convex")
        check(f"cyclic-sum-{d}-{n}-{m}", f == witness and k == 1,
              f"f = {witness}: log-convexity fails at k=1",
              f"f = {tuple(f)}: log-convex witness {k}",
              f"cyclic({d},{n}) glued to the dual of cyclic({d},{m})")

    # ---- per-lattice oracle battery
    gds_bad, closed_bad, dual_bad, toric_bad, cd_bad = [], [], [], [], []
    five_d_unimodal, six_d_chain = [], []
    min_prop3_gap = None
    for name, L in lattices.items():
        v = L.flag_vector()
        if any(r != 0 for r in flagalg.gds_residuals(v)):
            gds_bad.append(name)
        if _is_simplicial(L):
            f = L.f_vector()
            for S in flagalg.index_sets(L.d)[1:]:
                if v.get(S) != families.simplicial_flag_number(f, S):
                    closed_bad.append((name, S))
                    break
        dual_v = L.dual().flag_vector()
        for S, value in v.entries.items():
            mirrored = tuple(sorted(L.d - 1 - s for s in S))
            if dual_v.get(mirrored) != value:
                dual_bad.append((name, S))
                break
        g = cdindex.toric_g(L)
        h = cdindex.toric_h(L)
        g1_expect = L.n_vertices() - (L.d + 1)
        if (g[0] != 1 or any(x < 0 for x in g)
                or (L.d >= 2 and g[1] != g1_expect)
                or any(h[i] != h[L.d - i] for i in range(L.d + 1))):
            toric_bad.append(name)
        if not cdindex.stanley_nonneg_check(L):
            cd_bad.append(name)
        if L.d == 5:
            five_d_unimodal.append(families.properties(L.f_vector()).unimodal)
        if L.d == 6:
            f = L.f_vector()
            chain = (Fraction(f[2]) >= Fraction(2, 3) * f[1] + 21
                     and f[1] >= 3 * f[0]
                     and families.properties(f).barany)
            six_d_chain.append(chain)
            gap = Fraction(f[2]) - Fraction(2, 3) * f[1]
            if min_prop3_gap is None or gap < min_prop3_gap:
                min_prop3_gap = gap
    check("oracle-gds-residuals", not gds_bad, "zero on every corpus lattice",
          str(gds_bad or "zero"))
    check("oracle-simplicial-closed-form", not closed_bad,
          "chain counts match the product formula", str(closed_bad or "match"))
    check("oracle-dual-flag-identity", not dual_bad,
          "dual flag vector is the index mirror", str(dual_bad or "match"))
    check("oracle-toric-g", not toric_bad,
          "g_0 = 1, g_1 = f_0 - (d+1), g >= 0, h palindromic",
          str(toric_bad or "all good"))
    check("oracle-cd-nonnegative", not cd_bad,
          "all cd coefficients >= 0", str(cd_bad or "all good"))

    c58 = lattices["cyclic-5-8"]
    dual_path_ok = all(
        forms.evaluate_by_face_sum(left, right, c58)
        == forms.convolve(left, right).evaluate(c58.flag_vector())
        for left, right in forms.kalai_5d_splits())
    check("oracle-convolution-dual-path", dual_path_ok,
          "face-sum evaluation equals index-shift evaluation on cyclic(5,8)",
          str(dual_path_ok))

    # ---- unimodality and the Barany chain on the corpus
    check("unimodal-5d-corpus", all(five_d_unimodal),
          "every 5-dimensional corpus f-vector is unimodal",
          str(all(five_d_unimodal)))
    rng = random.Random(seed)
    samples = forms.sample_feasible_5d(rng, count=20)
    sampled_ok = bool(samples) and all(
        families.properties(v.f_vector()).unimodal for v in samples)
    check("unimodal-5d-random-feasible", sampled_ok,
          "battery-feasible random completions have no dip",
          f"{len(samples)} samples, all unimodal: {sampled_ok}",
          f"seed {seed}")
    check("barany-6d-chain", all(six_d_chain),
          "f_2 >= (2/3) f_1 + 21 >= 2 f_0 + 21 > f_0 on the 6d corpus",
          str(all(six_d_chain)))
    check("prop3-empirical-minimum", min_prop3_gap == 21,
          "min of f_2 - (2/3) f_1 over the 6d corpus is 21 (simplex)",
          rat_to_str(min_prop3_gap),
          "supports the derivable constant 21, not 63")

    # ---- summary table
    t = report.table.append
    cyc6_gap = families.neighborly_gap(10)
    t(TableCell("convex", "<=4", "holds",
                "no violation on the corpus (d <= 4 members)"))
    t(TableCell("convex", "5", "fails", "cyclic(5,8): f_1 = 28 < 30"))
    t(TableCell("convex", "6", "fails",
                f"2-neighbourly gap f_0+f_2-2f_1 = {cyc6_gap} > 0 at f_0 = 10"))
    t(TableCell("convex", "7", "fails",
                f"simplex: f_0+f_2-2f_1 = {families.neighborly_gap(8)} > 0"))
    t(TableCell("convex", ">=8", "fails", "simplex witness, same gap formula"))
    t(TableCell("log-convex", "<=4", "holds", "no violation on the corpus"))
    t(TableCell("log-convex", "5", "open", "no counterexample known"))
    t(TableCell("log-convex", "6..7", "fails",
                "checks cyclic-sum-6-29-11 and cyclic-sum-7-32-12: f_1^2 < f_0 f_2"))
    t(TableCell("log-convex", "8", "fails",
                "check cyclic-sum-8-25: f_3^2 < f_2 f_4"))
    t(TableCell("log-convex", ">=9", "fails",
                "literature (Bjorner; Eckhoff), no computed witness"))
    t(TableCell("unimodal", "<=5", "holds",
                "corpus and random battery-feasible completions"))
    t(TableCell("unimodal", "6..7", "open",
                "candidate flag vectors break the inequality route"))
    t(TableCell("unimodal", "8", "fails",
                "check cyclic-sum-8-25: f_2 > f_3 = f_4 < f_5"))
    t(TableCell("unimodal", ">=9", "fails",
                "literature (Bjorner; Eckhoff), no computed witness"))
    t(TableCell("barany", "<=6", "holds", "corpus plus the 6d bound chain"))
    t(TableCell("barany", "7", "open",
                "candidate with f_3 = 70 < f_0 = f_6 = 134 passes all bounds"))
    t(TableCell("barany", "8", "open",
                "holds in check cyclic-sum-8-25; no counterexample known"))
    t(TableCell("barany", ">=9", "open", "no witness either way"))
    return report
