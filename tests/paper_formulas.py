"""The paper's displayed formulas for the d = 7 connected-sum family, kept as
test oracles for ``cyclic_sum_f`` and ``logconv_scan``."""

from fractions import Fraction

from flagvec import FVector


def p7n(n: int) -> FVector:
    """Test oracle: the paper's displayed f-vector of the connected sum of
    the cyclic 7-polytope on n vertices with its dual, palindromic, with

        f_0 = (n-3)(n^2-12n+41)/3         f_1 = (7n^3-102n^2+515n-840)/6
        f_2 = (5n^3-66n^2+313n-504)/3     f_3 = 5(n-4)(n^2-8n+21)/3
    """
    f0, r0 = divmod((n - 3) * (n * n - 12 * n + 41), 3)
    f1, r1 = divmod(7 * n**3 - 102 * n * n + 515 * n - 840, 6)
    f2, r2 = divmod(5 * n**3 - 66 * n * n + 313 * n - 504, 3)
    f3, r3 = divmod(5 * (n - 4) * (n * n - 8 * n + 21), 3)
    assert r0 == r1 == r2 == r3 == 0, n
    return FVector((f0, f1, f2, f3, f2, f1, f0))


def r3_closed_form(n: int) -> Fraction:
    """Test oracle: the paper's middle log-convexity ratio f_3^2 / (f_2 f_4)
    of the same family, 25 (n-4)^2 (n^2-8n+21)^2 / (5n^3-66n^2+313n-504)^2."""
    num = 25 * (n - 4) ** 2 * (n * n - 8 * n + 21) ** 2
    den = (5 * n**3 - 66 * n * n + 313 * n - 504) ** 2
    return Fraction(num, den)
