"""Hand-checkable cases for the benchmark's reference computations.

Run with `python3 -m pytest perfbench`; stdlib only, flagvec not needed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402


def test_cyclic_f_from_upper_bound_theorem():
    assert ref.cyclic_f(5, 8) == (8, 28, 52, 50, 20)
    assert ref.cyclic_f(3, 6) == (6, 12, 8)
    assert ref.cyclic_f(7, 8) == (8, 28, 56, 70, 56, 28, 8)  # simplex(7)
    assert ref.cyclic_f(4, 6) == (6, 15, 18, 9)


def test_p7n_is_a_connected_sum_with_the_reverse():
    # the simplex(7) glued to itself loses one vertex and one facet
    assert ref.p7n(8) == (15, 56, 112, 140, 112, 56, 15)
    assert ref.connected_sum((4, 6, 4), (4, 6, 4)) == (7, 12, 7)
    assert all(ref.p7n(n) == ref.p7n(n)[::-1] for n in range(8, 20))


def test_chain_formulas():
    cube3 = ref.cube_flags(3)
    assert [cube3[(i,)] for i in range(3)] == [8, 12, 6]
    assert cube3[(0, 2)] == 24  # 6 squares with 4 vertices each
    assert cube3[(0, 1, 2)] == 48
    tetra = ref.simplex_flags(3)
    assert [tetra[(i,)] for i in range(3)] == [4, 6, 4]
    assert tetra[(0, 1)] == 12 and tetra[(0, 1, 2)] == 24
    octa = ref.cross_flags(3)
    assert [octa[(i,)] for i in range(3)] == [6, 12, 8]
    assert octa[(0, 2)] == 24  # 8 triangles with 3 vertices each
    c58 = ref.simplicial_flags(ref.cyclic_f(5, 8))
    assert c58[(0, 4)] == 20 * 5


def test_cd_index_of_the_tetrahedron_round_trips():
    cd = ref.parse_cd("c^3 + 2dc + 2cd")
    assert cd == {"ccc": 1, "dc": 2, "cd": 2}
    ab = ref.expand_cd(cd)
    assert ref.flags_from_ab(ab, 3) == ref.simplex_flags(3)
    assert ref.cd_from_ab(ref.ab_from_flags(ref.simplex_flags(3), 3), 3) == cd


def test_cd_from_ab_on_the_square_and_the_cube():
    # polygon: c^2 + (n-2) d
    assert ref.cd_from_ab(ref.ab_from_flags(ref.cube_flags(2), 2), 2) == {
        "cc": 1, "d": 2}
    cube = ref.cd_from_ab(ref.ab_from_flags(ref.cube_flags(3), 3), 3)
    assert cube == {"ccc": 1, "cd": 4, "dc": 6}


def test_cd_from_ab_refuses_non_eulerian_data():
    flags = dict(ref.simplex_flags(3))
    flags[(1,)] += 1
    try:
        ref.cd_from_ab(ref.ab_from_flags(flags, 3), 3)
    except ValueError:
        pass
    else:
        raise AssertionError("non-Eulerian flag data was rewritten")


def test_cd_words_and_compact_form():
    assert ref.cd_words(3) == ["ccc", "cd", "dc"]
    assert len(ref.cd_words(8)) == 34
    assert ref.compact_word("ccdcccc") == "c2dc4"
    assert ref.parse_cd("c^2dc^4 - 3/2d^2") == {"ccdcccc": 1, "dd": -1.5}


def test_property_verdicts():
    assert ref.verdicts((8, 28, 52, 50, 20)) == {
        "C": False, "L": True, "U": True, "B": True}
    assert ref.verdicts((4, 6, 4)) == {"C": True, "L": True, "U": True, "B": True}
    assert ref.verdicts((2, 3, 5)) == {"C": False, "L": False, "U": True, "B": True}
    assert ref.verdicts((10, 12, 11, 12, 10)) == {
        "C": False, "L": False, "U": False, "B": True}
    assert not any(ref.verdicts((10, 9, 12)).values())
    assert ref.verdicts((4, 5, 5, 4))["U"]


def test_euler_relation():
    assert ref.euler_holds((8, 28, 52, 50, 20))
    assert not ref.euler_holds((8, 28, 52, 50, 21))
    assert ref.euler_last((8, 28, 52, 50), 5) == 20
    assert ref.euler_last((8, 12), 3) == 6


def test_convolution_of_g_forms():
    g0, g1 = ref.g_form(0, 1), ref.g_form(1, 2)
    assert ref.convolve(g0, 1, g1, 2) == {(1, 2): 1, (1,): -3}
    assert ref.convolve(g1, 2, g1, 2) == {
        (0, 2, 3): 1, (0, 2): -3, (2, 3): -3, (2,): 9}


def test_cube_faces():
    faces = ref.cube_faces(3)
    ranks = [r for r, _ in faces]
    assert [ranks.count(r) for r in range(-1, 4)] == [1, 8, 12, 6, 1]
    assert all(len(v) == 2 ** r for r, v in faces if r >= 0)
