import gc
import hashlib
import itertools
import json
import random
import re
import sys
import tracemalloc
from math import comb

import pytest

from flagvec import (
    AbPolynomial,
    CdPolynomial,
    DeskScaleExceeded,
    FaceLattice,
    FaceNotInLattice,
    FlagForm,
    InvalidParams,
    battery,
    build_crosspolytope,
    build_cube,
    build_cyclic,
    build_polygon,
    build_simplex,
    candidate_6d,
    cd_word_to_flag_form,
    cd_words,
    complete_from_sparse,
    cyclic_f,
    g_forms,
    gds_pairs,
    gds_relation,
    logconv_scan,
    neighborly_gap,
    reduce_index,
    sample_feasible_5d,
    sparse_basis,
    toric_g,
    toric_h,
)
from flagvec import lattice as lattice_module
from flagvec.flagalg import FlagVector
from flagvec.lattice import MAX_FACES_ENV, _gale_facets, _members

# the triangle whose top face also holds a vertex 3 that lies in no edge
NON_GRADED = [(-1, []), (0, [0]), (0, [1]), (0, [2]), (0, [3]),
              (1, [0, 1]), (1, [1, 2]), (1, [0, 2]), (2, [0, 1, 2, 3])]
# three points under a 2-face, with no edges: rank 1 is empty
EMPTY_RANK = [(-1, []), (0, [0]), (0, [1]), (0, [2]), (2, [0, 1, 2])]
# a rank-r face with r + 1 vertices need not be a simplex: [0, 1, 2] has the
# edge [0, 1] alone, so neither it nor the faces over it are simplices
FALSE_SIMPLICES = [(-1, []), *((0, [v]) for v in range(6)), (1, [0, 1]),
                   (2, [0, 1, 2]), (3, [0, 1, 2, 3]), (4, [0, 1, 2, 3, 4]),
                   (5, range(6))]


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _masks(L):
    return {r: [_mask(f) for f in L.faces(r)] for r in range(-1, L.d + 1)}


def _faces_below_oracle(masks, a, b):
    """Test oracle: for each rank-b face, the rank-a faces inside it, by
    testing every pair of faces of the two ranks."""
    return tuple(tuple(i for i, ma in enumerate(masks[a]) if ma | mb == mb)
                 for mb in masks[b])


def _flag_vector_oracle(L, masks):
    """Test oracle: all 2^d flag numbers by depth-first chain extension over
    the all-pairs incidence, each index set's counts built from its prefix's."""
    below = {}
    entries = {(): 1}

    def extend(prefix, counts):
        for r in range(prefix[-1] + 1, L.d):
            key = (prefix[-1], r)
            if key not in below:
                below[key] = _faces_below_oracle(masks, *key)
            nxt = [sum(counts[i] for i in idxs) for idxs in below[key]]
            entries[prefix + (r,)] = sum(nxt)
            extend(prefix + (r,), nxt)

    for r0 in range(L.d):
        entries[(r0,)] = len(masks[r0])
        extend((r0,), [1] * len(masks[r0]))
    return FlagVector(L.d, entries)


def _dual_faces_oracle(L, masks):
    """Test oracle: each face of the dual is the set of facets over a face."""
    return [(L.d - 1 - r, [j for j, g in enumerate(masks[L.d - 1]) if m & ~g == 0])
            for r in masks for m in masks[r]]


def _is_eulerian_oracle(masks):
    """Test oracle: every interval of rank >= 2 balances even and odd ranks,
    with up- and down-sets from testing every pair of faces."""
    faces = [(r, m) for r in masks for m in masks[r]]
    up = [sum(1 << j for j, (_, mj) in enumerate(faces) if mi & ~mj == 0)
          for _, mi in faces]
    down = [sum(1 << i for i, (_, mi) in enumerate(faces) if mi & ~mj == 0)
            for _, mj in faces]
    even = sum(1 << j for j, (r, _) in enumerate(faces) if r % 2 == 0)
    for i, (ri, _) in enumerate(faces):
        for j, (rj, _) in enumerate(faces):
            if rj - ri >= 2 and up[i] >> j & 1:
                inner = up[i] & down[j]
                if 2 * (inner & even).bit_count() != inner.bit_count():
                    return False
    return True


def _toric_h_oracle(L, masks):
    """Test oracle: the toric h-vector by the pull recursion over the
    all-pairs incidence.  A rank-b face's h-polynomial is the sum of g(G)
    (x - 1)^(b - 1 - rank G) over its proper faces G, each g memoized per face
    and read from that face's own h; a simplex, a rank-a face with a + 1
    vertices whose facets are all faces and simplices, has g = 1."""
    below, g_memo = {}, {}
    index = {m: (r, i) for r in masks for i, m in enumerate(masks[r])}
    simplex_memo = {}

    def is_simplex(a, i):
        if a == -1:
            return True
        if (a, i) not in simplex_memo:
            m = masks[a][i]
            facets = [m & ~(1 << v) for v in range(m.bit_length()) if m >> v & 1]
            simplex_memo[a, i] = len(facets) == a + 1 and all(
                index.get(f, (None,))[0] == a - 1 and is_simplex(*index[f])
                for f in facets)
        return simplex_memo[a, i]

    def face_h(b, j):
        h = [0] * (b + 1)  # h[i] is the coefficient of x^(b - i)
        for a in range(-1, b):
            if (a, b) not in below:
                below[a, b] = _faces_below_oracle(masks, a, b)
            g = [0] * (a // 2 + 2)  # the sum of g over the rank-a faces under j
            for i in below[a, b][j]:
                for p, gp in enumerate(face_g(a, i)):
                    g[p] += gp
            m = b - 1 - a
            for p, gp in enumerate(g):
                for q in range(m + 1):
                    h[b - p - q] += gp * (-1) ** (m - q) * comb(m, q)
        return h

    def face_g(a, i):
        if (a, i) not in g_memo:
            if is_simplex(a, i):
                g_memo[a, i] = [1]
            else:
                h = face_h(a, i)
                g_memo[a, i] = [h[k] - (h[k - 1] if k else 0)
                                for k in range(a // 2 + 1)]
        return g_memo[a, i]

    return tuple(face_h(L.d, 0))


def _cube_oracle(d):
    """Test oracle: the d-cube by coordinate loops, vertex v being the 0/1
    point whose coordinate i is bit i of v."""
    faces = [(-1, [])]
    for size in range(d + 1):
        for free in itertools.combinations(range(d), size):
            fixed = [i for i in range(d) if i not in free]
            for bits in itertools.product((0, 1), repeat=len(fixed)):
                verts = []
                for extra in itertools.product((0, 1), repeat=len(free)):
                    coord = [0] * d
                    for i, b in zip(fixed, bits):
                        coord[i] = b
                    for i, b in zip(free, extra):
                        coord[i] = b
                    verts.append(sum(b << i for i, b in enumerate(coord)))
                faces.append((len(free), verts))
    return FaceLattice(d, faces)


def _interval_oracle(L, lower, upper):
    """Test oracle: [lower, upper] from testing every pair of faces, its
    atoms numbered in increasing mask order."""
    lo, up = _mask(lower), _mask(upper)
    rl = L.rank(lower)
    members = [(r, m) for r, f in L.all_faces()
               if lo & ~(m := _mask(f)) == 0 and m & ~up == 0]
    atoms = sorted(m for r, m in members if r == rl + 1)
    return FaceLattice(L.rank(upper) - rl - 1, [
        (r - rl - 1, [k for k, a in enumerate(atoms) if a & ~m == 0])
        for r, m in members])


def _prism(L):
    """The prism L x [0, 1]; vertex (v, t) is labelled 2v + t."""
    faces = [(-1, [])]
    for r, f in L.all_faces():
        if f:
            faces += [(r, [2 * v for v in f]), (r, [2 * v + 1 for v in f]),
                      (r + 1, [2 * v + t for v in f for t in (0, 1)])]
    return FaceLattice(L.d + 1, faces)


def _relabel(L, label):
    return FaceLattice(L.d, [(r, [label[v] for v in f]) for r, f in L.all_faces()])


def _oracle_lattices(small_corpus):
    # polygon(9): vertex 8 lies in the edges {0, 8} near the start of rank 1
    # and {7, 8} at its end, so its window spans almost the whole rank;
    # NON_GRADED has a vertex in no edge
    return [*small_corpus, build_cube(6), build_crosspolytope(6),
            build_cyclic(7, 12), build_polygon(9), build_cube(4).dual(),
            FaceLattice(2, NON_GRADED)]


def test_simplex_f_vectors():
    assert tuple(build_simplex(0).f_vector()) == ()
    assert build_simplex(0).face_count() == 2  # empty face and the point
    assert tuple(build_simplex(3).f_vector()) == (4, 6, 4)
    assert tuple(build_simplex(6).f_vector()) == (7, 21, 35, 35, 21, 7)


def _simplex_oracle(d):
    """Test oracle: the d-simplex as every subset of its d+1 vertices."""
    return FaceLattice(d, [(size - 1, sub) for size in range(d + 2)
                           for sub in itertools.combinations(range(d + 1), size)])


def _crosspolytope_oracle(d):
    """Test oracle: the d-cross-polytope, whose proper faces are the vertex
    sets avoiding every antipodal pair {2i, 2i+1}."""
    return FaceLattice(d, [(-1, ()), (d, range(2 * d)), *(
        (size - 1, sub) for size in range(1, d + 1)
        for sub in itertools.combinations(range(2 * d), size)
        if len({v // 2 for v in sub}) == size)])


def _polygon_oracle(n):
    """Test oracle: the n-gon as its vertices and its cyclic edges."""
    return FaceLattice(2, [(-1, ()), (2, range(n)), *((0, (i,)) for i in range(n)),
                           *((1, (i, (i + 1) % n)) for i in range(n))])


def test_simplex_is_all_subsets():
    for d in range(9):
        L = build_simplex(d)
        assert L.face_count() == 2 ** (d + 1)
        for r in range(-1, d + 1):
            assert len(L.faces(r)) == comb(d + 1, r + 1)
        oracle = _simplex_oracle(d)
        assert L == oracle and L.to_json() == oracle.to_json(), d


def test_crosspolytope_faces_avoid_every_antipodal_pair():
    for d in range(1, 9):
        L, oracle = build_crosspolytope(d), _crosspolytope_oracle(d)
        assert L == oracle and L.to_json() == oracle.to_json(), d


def test_polygon_is_its_vertices_and_cyclic_edges():
    for n in range(3, 61):
        L, oracle = build_polygon(n), _polygon_oracle(n)
        assert L == oracle and L.to_json() == oracle.to_json(), n


@pytest.mark.parametrize("build, args, value", [
    (build_simplex, (True,), "True"), (build_cube, (True,), "True"),
    (build_crosspolytope, (True,), "True"), (build_simplex, (2.0,), "2.0"),
    (build_cube, (3.0,), "3.0"), (build_crosspolytope, (3.0,), "3.0"),
    (build_polygon, (4.0,), "4.0"), (build_cyclic, (5, 8.0), "8.0"),
    (build_cyclic, (5.0, 8), "5.0"), (cyclic_f, (5, 8.0), "8.0"),
    (cyclic_f, (True, 8), "True"), (FlagVector, (True, {}), "True"),
    (FlagVector, (2.0, {}), "2.0"), (FlagForm, (True, {}), "True"),
    (g_forms, (True,), "True"),
    # the int call fills the cache first, which must not answer for True
    (lambda d: (sparse_basis(1), sparse_basis(d)), (True,), "True"),
    (lambda d: (cd_words(1), cd_words(d)), (True,), "True"),
    (battery, (5.0,), "5.0"), (candidate_6d, (1.5,), "1.5"),
    (neighborly_gap, (8.0,), "8.0"), (reduce_index, ((0, 1), 3.0), "3.0"),
    (gds_pairs, (2.0,), "2.0"), (cd_word_to_flag_form, ("cc", 2.0), "2.0"),
    (logconv_scan, (7, 8.0, 9), "8.0"), (logconv_scan, ("7", 8, 9), "'7'"),
    (complete_from_sparse, ({}, 2.0), "2.0"),
    (gds_relation, ((), (-1, 2), 2.0), "2.0"), (AbPolynomial, (2.0, {}), "2.0"),
    (CdPolynomial, (True, {}), "True"),
    (sample_feasible_5d, (random.Random(1), 2.5), "2.5")])
def test_a_dimension_or_vertex_count_must_be_an_int(build, args, value):
    with pytest.raises(InvalidParams, match=f"must be an int, got {re.escape(value)}$"):
        build(*args)


def test_cyclic_f_vectors():
    assert tuple(build_cyclic(5, 8).f_vector()) == (8, 28, 52, 50, 20)
    # n = d+1 degenerates to the simplex
    assert tuple(build_cyclic(7, 8).f_vector()) == (8, 28, 56, 70, 56, 28, 8)
    # 2-neighbourly in dimension 6
    f = build_cyclic(6, 10).f_vector()
    assert f[1] == comb(10, 2) == 45
    assert f[2] == comb(10, 3) == 120


def test_cyclic_on_minimal_vertices_is_the_simplex():
    for d in range(2, 8):
        assert build_cyclic(d, d + 1) == build_simplex(d)
        assert (build_cyclic(d, d + 1).flag_vector()
                == build_simplex(d).flag_vector())


def _gale_even(sub, n):
    # the oracle: any two elements outside sub have an even number of
    # elements of sub strictly between them; consecutive outside pairs suffice
    inside = set(sub)
    outside = [i for i in range(n) if i not in inside]
    return all(sum(1 for s in sub if x < s < y) % 2 == 0
               for x, y in zip(outside, outside[1:]))


def test_cyclic_facets_match_the_gale_scan_oracle():
    for d in range(2, 9):
        for n in range(d + 1, d + 9):
            scan = [sub for sub in itertools.combinations(range(n), d)
                    if _gale_even(sub, n)]
            assert sorted(_gale_facets(d, n)) == scan, (d, n)


def _closure_oracle(d, n):
    # every nonempty subset of every facet, one frozenset each
    proper = {frozenset(sub) for facet in _gale_facets(d, n)
              for size in range(1, d + 1)
              for sub in itertools.combinations(facet, size)}
    return FaceLattice(d, [(-1, ()), (d, range(n)),
                           *((len(f) - 1, f) for f in proper)])


def test_cyclic_closure_matches_the_subset_oracle():
    for d in range(2, 9):
        for n in (d + 1, d + 2, d + 3, d + 5, 2 * d + 1):
            assert build_cyclic(d, n) == _closure_oracle(d, n), (d, n)


@pytest.mark.parametrize("d, n", [(3, 1000), (5, 60)])
def test_cyclic_builds_past_the_old_subset_count(d, n):
    # C(1000, 3) and C(60, 5) subsets are far more than a scan could test
    assert build_cyclic(d, n).f_vector() == cyclic_f(d, n)


def test_cyclic_needs_enough_vertices():
    with pytest.raises(InvalidParams):
        build_cyclic(5, 5)
    with pytest.raises(InvalidParams,
                       match=re.escape("cyclic polytope needs n >= d+1, got n=3, d=3")):
        build_cyclic(3, 3)
    with pytest.raises(InvalidParams):
        build_cyclic(1, 5)


def test_a_vertex_set_at_two_ranks_is_refused():
    faces = [(-1, []), (0, [0]), (0, [1]), (0, [2]),
             (1, [0, 1]), (1, [1, 2]), (1, [0, 2]), (1, [0]), (2, [0, 1, 2])]
    with pytest.raises(InvalidParams, match=r"\[0\]"):
        FaceLattice(2, faces)
    # at two ranks far apart, as the top again, and as the empty face again
    simplex = list(build_simplex(4).all_faces())
    triangle = list(build_simplex(2).all_faces())
    for d, faces, shown in [(4, simplex + [(3, (1, 0))], [0, 1]),
                            (2, triangle + [(1, (2, 1, 0))], [0, 1, 2]),
                            (4, simplex + [(2, ())], [])]:
        with pytest.raises(InvalidParams, match=re.escape(
                f"vertex set {shown} appears at two ranks")):
            FaceLattice(d, faces)


def test_a_strict_inclusion_must_raise_the_rank():
    faces = [(-1, []), (0, [0]), (0, [1]), (0, [2]), (0, [3]),
             (1, [0, 1]), (1, [0, 1, 2]), (2, [0, 1, 2, 3])]
    with pytest.raises(InvalidParams, match=r"\[0, 1\].*\[0, 1, 2\]"):
        FaceLattice(2, faces)
    # and so is a face inside a face of lower rank
    faces = [(-1, []), (0, [0]), (0, [1]), (0, [2]), (0, [3]),
             (1, [0, 1, 2]), (2, [0, 1]), (3, [0, 1, 2, 3])]
    with pytest.raises(InvalidParams, match="rank 2 lies strictly inside"):
        FaceLattice(3, faces)


# a lattice whose dual is refused only by the strict-inclusion check: the
# dual's face [0, 1, 4] of rank 2 lies inside its face [0, 1, 2, 4] of rank 2
DUAL_NEEDS_STRICT_CHECK = [
    (-1, ()), (3, (0, 1, 2, 3, 4, 5)), *((0, (v,)) for v in range(6)),
    (1, (0, 3)), (1, (0, 2, 5)), (1, (1, 4, 5)), (2, (1, 2, 3, 4, 5)),
    (2, (0, 1, 3, 4, 5)), (2, (0, 2, 4, 5)), (2, (0, 2, 3, 5)), (2, (0, 1, 2, 3, 4))]


def test_a_dual_goes_through_every_construction_check():
    L = FaceLattice(3, DUAL_NEEDS_STRICT_CHECK)
    assert tuple(L.f_vector()) == (6, 3, 5)
    with pytest.raises(InvalidParams, match=re.escape(
            "face [0, 1, 4] of rank 2 lies strictly inside face [0, 1, 2, 4]")):
        L.dual()


@pytest.mark.parametrize("label", ["a", -1, 1.5, 2.0, True, None, (0,), [0]])
def test_a_vertex_label_that_is_not_an_int_is_refused(label):
    triangle = [(-1, []), (0, [0]), (0, [1]), (0, [2]),
                (1, [0, 1]), (1, [1, 2]), (1, [0, 2]), (2, [0, 1, 2])]
    for bad in ((0, [label]), (1, [0, label]), (2, [0, 1, 2, label])):
        with pytest.raises(InvalidParams, match=re.escape(
                f"rank {bad[0]} has a vertex label that is not an int >= 0")) as exc:
            FaceLattice(2, triangle + [bad])
        assert repr(label) in str(exc.value)


@pytest.mark.parametrize("face", [
    (1, "a"), ("a",), ([0],), ({0},), (0, None), 5, None, (0, 3), (0, 8)])
def test_a_non_face_raises_face_not_in_lattice(face):
    cube = build_cube(3)
    calls = [cube.rank, cube.restriction, cube.quotient,
             lambda f: cube.interval(f, cube.top()), lambda f: cube.interval((), f)]
    for call in calls:
        with pytest.raises(FaceNotInLattice, match="is not a face"):
            call(face)


def _canonical_order_oracle(faces):
    """Test oracle: a rank's faces in the order of their sorted label lists,
    each as its sorted tuple."""
    return [tuple(sorted(f)) for f in sorted(map(frozenset, faces), key=sorted)]


def _face_sum_lattices(L):
    """L, its dual, and the restriction and quotient that
    ``evaluate_by_face_sum`` takes of each face of rank 0..d-1."""
    yield L
    yield L.dual()
    for r in range(L.d):
        for f in L.faces(r):
            yield L.restriction(f)
            yield L.quotient(f)


# sha256 of the to_json documents of _face_sum_lattices over small_corpus,
# each followed by a newline, as written when faces were stored as frozensets
FROZENSET_DOCUMENTS_SHA256 = (
    "bb6b91791b16260106277f30fdb69c6b69f297607b72c13d0e7f220637dfecf7")


def test_faces_are_sorted_tuples_in_the_canonical_order(small_corpus):
    digest = hashlib.sha256()
    for L in small_corpus:
        for M in _face_sum_lattices(L):
            for r in range(-1, M.d + 1):
                assert list(M.faces(r)) == _canonical_order_oracle(M.faces(r)), (M, r)
            digest.update(M.to_json().encode() + b"\n")
    assert digest.hexdigest() == FROZENSET_DOCUMENTS_SHA256


def _over_each(L, a, b):
    """The rank-b faces over each rank-a face, read from ``_above``."""
    return [_members(*window) for window in L._above(a, b)]


def test_incidence_matches_the_all_pairs_oracle(small_corpus):
    for L in _oracle_lattices(small_corpus):
        masks = _masks(L)
        for a in masks:
            for b in masks:
                inside = _faces_below_oracle(masks, a, b)
                want = [[j for j, below in enumerate(inside) if i in below]
                        for i in range(len(masks[a]))]
                assert _over_each(L, a, b) == want, (L, a, b)


def test_dual_and_eulerian_match_the_oracles(small_corpus):
    for L in _oracle_lattices(small_corpus):
        masks = _masks(L)
        try:
            want = FaceLattice(L.d, _dual_faces_oracle(L, masks)).to_json()
        except InvalidParams as exc:
            with pytest.raises(InvalidParams, match=re.escape(str(exc))):
                L.dual()
        else:
            assert L.dual().to_json() == want, L
        assert L.is_eulerian() == _is_eulerian_oracle(masks), L


def _single_face_deletions(L, rng, count):
    """``count`` lattices that are L less one proper face of rank >= 1."""
    faces = list(L.all_faces())
    # a vertex, the empty face or the top cannot go alone
    proper = [f for r, f in faces if 0 < r < L.d]
    return [FaceLattice(L.d, [(r, f) for r, f in faces if f != removed])
            for removed in rng.sample(proper, count)]


def test_flag_vector_matches_the_all_pairs_chain_oracle(small_corpus):
    # a field width from the product of the face counts, 0 on EMPTY_RANK,
    # would be one bit wide and let its f_0 = 3 carry into f_1
    empty_rank = FaceLattice(2, EMPTY_RANK)
    assert empty_rank.flag_number((0,)) == 3
    # duals of cyclic polytopes have several chain counts per rank, single
    # face deletions put bit-sliced and peeled windows into one group, and
    # FALSE_SIMPLICES and the polygon peel every window; on the deletions from
    # a dual, faces with different multiplicity keys over many groups below
    # share one chain count, so their keys merge into one group
    rng = random.Random(13)
    for L in [*_oracle_lattices(small_corpus), empty_rank,
              build_cyclic(6, 10).dual(), build_cyclic(7, 10).dual(),
              FaceLattice(5, FALSE_SIMPLICES),
              *_single_face_deletions(build_cube(4), rng, 4),
              *_single_face_deletions(build_cyclic(5, 8), rng, 4),
              *_single_face_deletions(build_cyclic(6, 10).dual(), rng, 4)]:
        want = _flag_vector_oracle(L, _masks(L))
        got = L.flag_vector()
        assert got == want, L
        assert list(got.entries) == list(want.entries), L


def test_toric_h_and_g_match_the_pull_recursion_oracle(small_corpus):
    oracle = _oracle_lattices(small_corpus)
    # NON_GRADED, the last of them, and EMPTY_RANK have no dual: faces under
    # no facet would put the empty vertex set at two ranks of it
    false_simplices = FaceLattice(5, FALSE_SIMPLICES)
    assert toric_h(false_simplices) == (1, 1, -13, 15, -17, 5)
    for L in [*oracle, FaceLattice(2, EMPTY_RANK), false_simplices,
              *(L.dual() for L in oracle[:-1]),
              build_cube(8), build_crosspolytope(8), build_cyclic(8, 14)]:
        want = _toric_h_oracle(L, _masks(L))
        assert toric_h(L) == want, L
        assert tuple(toric_g(L)) == tuple(
            want[i] - (want[i - 1] if i else 0) for i in range(L.d // 2 + 1)), L


def test_non_graded_lattice_keeps_inclusion_semantics():
    L = FaceLattice(2, NON_GRADED)
    assert not L.is_eulerian()
    assert _over_each(L, 0, 2) == [[0]] * 4  # vertex 3 lies in the top alone
    assert L.flag_number((0, 1)) == 6


def test_polygon_windows_wrap_around():
    L = build_polygon(9)
    edges = [sorted(e) for e in L.faces(1)]
    assert edges.index([0, 8]) == 1 and edges.index([7, 8]) == 8
    edges_over = _over_each(L, 0, 1)
    assert [i for i, over in enumerate(edges_over) if 1 in over] == [0, 8]
    # vertex 8's window starts at edge 1, and bit k stands for edge 1 + k
    assert L._vertex_windows(1)[8] == (1, 1 << 0 | 1 << 7)
    assert edges_over[8] == [1, 8]


def test_cube_builder_matches_the_coordinate_loop_oracle():
    for d in range(1, 9):
        assert build_cube(d).to_json() == _cube_oracle(d).to_json(), d


def cube_flag_formula(d, S):
    """f_S of the d-cube: 2^(d-s_k) C(d, s_k) faces of the top rank s_k,
    and 2^(b-a) C(b, a) faces of rank a in each face of rank b."""
    value = 2 ** (d - S[-1]) * comb(d, S[-1])
    for a, b in zip(S, S[1:]):
        value *= 2 ** (b - a) * comb(b, a)
    return value


@pytest.mark.parametrize("d", range(1, 9))
def test_cube_and_crosspolytope_chains_match_the_cube_formula(d):
    cube = build_cube(d).flag_vector()
    cross = build_crosspolytope(d).flag_vector()
    for size in range(1, d + 1):
        for S in itertools.combinations(range(d), size):
            mirrored = tuple(d - 1 - s for s in reversed(S))
            assert cube.get(S) == cube_flag_formula(d, S), (d, S)
            assert cross.get(mirrored) == cube_flag_formula(d, S), (d, S)


def test_cube_crosspolytope_polygon():
    assert tuple(build_cube(3).f_vector()) == (8, 12, 6)
    assert tuple(build_crosspolytope(4).f_vector()) == (8, 24, 32, 16)
    assert tuple(build_polygon(5).f_vector()) == (5, 5)
    with pytest.raises(InvalidParams):
        build_polygon(2)
    with pytest.raises(InvalidParams):
        build_cube(0)


def test_crosspolytope_is_dual_of_cube():
    for d in (2, 3, 4):
        assert (build_crosspolytope(d).flag_vector()
                == build_cube(d).dual().flag_vector())


def test_euler_relation_on_builders(small_corpus):
    for L in small_corpus:
        f = L.f_vector()
        assert sum((-1) ** i * fi for i, fi in enumerate(f)) == 1 - (-1) ** L.d


def test_dual_basics():
    s4 = build_simplex(4)
    assert tuple(s4.dual().f_vector()) == tuple(s4.f_vector())
    assert tuple(build_cube(3).dual().f_vector()) == (6, 12, 8)
    # the vertex count of the dual is the facet count of the original
    assert build_cyclic(5, 8).dual().flag_number((0,)) == 20


def test_each_dual_label_is_one_object():
    # an int above 256 is a new object each time it is computed, so labels
    # computed per incidence cost one object per face holding them
    D = build_cyclic(6, 20).dual()
    assert D.n_vertices() == 800
    assert len({id(v) for _, f in D.all_faces() for v in f}) == D.n_vertices()


def test_dual_flag_identity(small_corpus):
    for L in small_corpus:
        v = L.flag_vector()
        w = L.dual().flag_vector()
        for S, value in v.entries.items():
            mirrored = tuple(sorted(L.d - 1 - s for s in S))
            assert w.get(mirrored) == value, (L, S)


def test_quotient_by_empty_face_is_identity():
    L = build_cube(3)
    assert L.quotient(()) == L


def test_quotient_examples():
    tetra = build_simplex(3)
    vertex_figure = tetra.quotient((0,))
    assert tuple(vertex_figure.f_vector()) == (3, 3)
    cube = build_cube(3)
    edge = next(iter(cube.faces(1)))
    assert tuple(cube.quotient(edge).f_vector()) == (2,)


def test_quotient_rank_arithmetic():
    L = build_cyclic(5, 7)
    for r in range(0, L.d):
        face = L.faces(r)[0]
        assert L.quotient(face).d == L.d - 1 - r


@pytest.mark.parametrize("rank, message", [
    (-5, "rank -5 outside -1..3"), (4, "rank 4 outside -1..3"),
    # True used to give the edges, 1.0 and "1" a bare TypeError
    (True, "rank must be an int, got True"), (1.0, "rank must be an int, got 1.0"),
    ("1", "rank must be an int, got '1'"), (None, "rank must be an int, got None")])
def test_faces_refuses_a_rank_that_is_not_an_int_in_range(rank, message):
    cube = build_cube(3)
    with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
        cube.faces(rank)
    assert [len(cube.faces(r)) for r in range(-1, 4)] == [1, 8, 12, 6, 1]


def test_quotient_rejects_foreign_faces():
    cube = build_cube(2)
    with pytest.raises(FaceNotInLattice):
        cube.quotient((0, 3))  # a diagonal of the square is not a face
    with pytest.raises(InvalidParams):
        cube.quotient(cube.top())


def _relabelled_octahedral_prism(seed):
    """The octahedral prism with its labels a random injection into 0..47."""
    prism = _prism(build_crosspolytope(3))
    vertices = sorted(v for (v,) in prism.faces(0))
    return _relabel(prism, dict(zip(vertices, random.Random(seed).sample(range(48), 12))))


@pytest.mark.parametrize("seed", range(4))
def test_interval_atoms_are_numbered_in_mask_order(seed):
    # the octahedral prism is neither simple nor simplicial, so its vertex
    # figures (square pyramids) and facets (octahedra, square prisms) depend
    # on the atom order
    L = _relabelled_octahedral_prism(seed)
    for r, f in L.all_faces():
        if r < L.d:
            assert L.quotient(f).to_json() == _interval_oracle(L, f, L.top()).to_json()
        if r > -1:
            assert L.restriction(f).to_json() == _interval_oracle(L, (), f).to_json()


def _interval_json(make):
    """make()'s document, or InvalidParams when it raises that."""
    try:
        return make().to_json()
    except InvalidParams:
        return InvalidParams


@pytest.mark.parametrize("L, pairs", [
    (build_cube(3), None), (build_cyclic(4, 7), None),
    (FaceLattice(2, NON_GRADED), None), (FaceLattice(5, FALSE_SIMPLICES), None),
    (_relabelled_octahedral_prism(0), 200),
], ids=["cube3", "cyclic4-7", "non-graded", "false-simplices", "octahedral-prism"])
def test_general_intervals_match_the_oracle(L, pairs):
    # both ends proper: neither a quotient nor a restriction
    proper = [(r, f) for r, f in L.all_faces() if -1 < r < L.d]
    below = [(x, y) for rx, x in proper for ry, y in proper
             if rx < ry and set(x) <= set(y)]
    if pairs is not None:
        below = random.Random(0).sample(below, pairs)
    for x, y in below:
        assert (_interval_json(lambda: L.interval(x, y))
                == _interval_json(lambda: _interval_oracle(L, x, y))), (x, y)


def test_interval_counts_an_atom_only_where_all_of_it_lies():
    # not a polytope: over the vertex 0, the face {0, 1, 3, 4} holds the atom
    # {0, 1, 2} in part, so meeting an atom is not lying over it
    faces = [(-1, []), *((0, [v]) for v in range(5)), (1, [0, 1, 2]), (1, [0, 3]),
             (1, [0, 4]), (2, [0, 1, 3, 4]), (3, range(5))]
    L = FaceLattice(3, faces)
    assert L.quotient([0]).to_json() == _interval_oracle(L, [0], L.top()).to_json()


def test_huge_vertex_labels_behave_like_small_ones():
    big = 2 ** 70
    faces = [(-1, []), (0, [big]), (0, [big + 1]), (0, [3]),
             (1, [big, big + 1]), (1, [3, big]), (1, [3, big + 1]),
             (2, [3, big, big + 1])]
    L, triangle = FaceLattice(2, faces), build_simplex(2)
    assert L.flag_vector() == triangle.flag_vector()
    assert L.dual().to_json() == triangle.dual().to_json()
    assert L.is_eulerian() and triangle.is_eulerian()
    assert L.rank([big]) == 0
    assert FaceLattice.from_json(L.to_json()) == L


def test_flag_vector_memory_grows_linearly_on_polygons():
    def peak(n):
        tracemalloc.start()
        try:
            build_polygon(n).flag_vector()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # linear growth gives about 4x for 4x the vertices; per-face vertex
    # bitmasks as wide as the highest label would give about 6x
    assert peak(8000) <= 5 * peak(2000)


@pytest.mark.parametrize("build, args", [(build_crosspolytope, (8,)),
                                         (build_cyclic, (8, 14))])
def test_flag_vector_peak_is_small_beside_the_lattice(build, args):
    build(*args)  # fill the caches a build uses, such as index_sets
    gc.collect()  # a full collection empties the free lists earlier tests left
    tracemalloc.start()
    try:
        L = build(*args)
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        L.flag_vector()
        peak = tracemalloc.get_traced_memory()[1] - size
    finally:
        tracemalloc.stop()
    # a packed chain count per face, width * 2^rank bits, peaked at about the
    # lattice's own size; a small key per face and a count per group at 0.15
    assert peak <= size / 2, (peak, size)


def test_cube_build_holds_no_copy_of_its_faces():
    build_cube(8)
    gc.collect()
    tracemalloc.start()
    try:
        L = build_cube(8)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a list of every face as a list, copied to a tuple and then to a sorted
    # tuple, peaked at 1.57 times the lattice; ascending tuples, made as the
    # constructor reads them and kept as given, at 1.05 times
    assert peak <= 1.25 * size, (peak, size)
    assert L.face_count() == 3 ** 8 + 1


def test_a_canonical_face_tuple_is_kept_as_given():
    edge, top = (0, 2), (0, 1, 2)
    L = FaceLattice(2, [(-1, ()), (0, (0,)), (0, [1]), (0, (2, 2)), (1, edge),
                        (1, (2, 1)), (1, [1, 0, 1]), (1, (0, 1)), (2, top)])
    assert L.faces(1)[1] is edge and L.top() is top
    assert L.faces(0) == ((0,), (1,), (2,)) and L.faces(1) == ((0, 1), (0, 2), (1, 2))
    assert L == build_simplex(2)


@pytest.mark.parametrize("build, args", [(build_cube, (8,)), (build_cyclic, (8, 14)),
                                         (build_crosspolytope, (8,))])
def test_a_lattice_holds_little_beside_its_faces(build, args):
    build(*args)  # fill the caches a build uses, such as index_sets
    gc.collect()
    tracemalloc.start()
    try:
        L = build(*args)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    faces = sum(sys.getsizeof(f) for _, f in L.all_faces())
    ranks = sum(sys.getsizeof(L.faces(r)) for r in range(-1, L.d + 1))
    # a dict from each face to its rank and index, beside the sorted ranks,
    # made the lattice 1.96 to 2.54 times this; without it, 1.00 to 1.19
    assert size <= 1.25 * (faces + ranks), (size, faces + ranks)


def test_rank_finds_every_face_in_any_order(small_corpus):
    for L in _oracle_lattices(small_corpus):
        try:
            dual = [L.dual()]
        except InvalidParams:  # NON_GRADED's dual would hold [] at two ranks
            dual = []
        for M in [L, *dual]:
            for r, f in M.all_faces():
                assert M.rank([*f[::-1], *f[:1]]) == r, (M, f)


def test_is_eulerian_memory_grows_linearly_on_polygons():
    def peak(n):
        L = build_polygon(n)
        tracemalloc.start()
        try:
            assert L.is_eulerian()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # linear growth gives about 4x for 4x the vertices; up and down bitsets
    # over all faces, as wide as the lattice, give about 12x
    assert peak(8000) <= 5 * peak(2000)


def test_restriction_gives_face_as_polytope():
    cube = build_cube(3)
    square = next(f for f in cube.faces(2))
    R = cube.restriction(square)
    assert R.d == 2
    assert tuple(R.f_vector()) == (4, 4)


def test_flag_numbers_against_hand_counts(simplex5):
    # 2-faces of the 5-simplex times vertices per triangle
    two_faces = comb(6, 3)
    assert simplex5.flag_number((0, 2)) == two_faces * 3 == 60
    # full flags of the tetrahedron boundary
    assert build_simplex(3).flag_number((0, 1, 2)) == 4 * 3 * 2
    assert build_cyclic(5, 8).flag_number((0,)) == 8
    assert build_simplex(4).flag_number(()) == 1


def simplicial_flag_formula(L, S):
    value = len(L.faces(S[-1]))
    for a, b in zip(S, S[1:]):
        value *= comb(b + 1, a + 1)
    return value


@pytest.mark.parametrize("builder,args", [
    (build_simplex, (5,)),
    (build_simplex, (7,)),
    (build_crosspolytope, (5,)),
    (build_cyclic, (5, 12)),
    (build_cyclic, (6, 9)),
    (build_cyclic, (7, 12)),
])
def test_chain_enumeration_matches_simplicial_formula(builder, args):
    import itertools

    L = builder(*args)
    v = L.flag_vector()
    for size in range(1, L.d + 1):
        for S in itertools.combinations(range(L.d), size):
            assert v.get(S) == simplicial_flag_formula(L, S), S


def test_flag_vector_is_cached_and_complete(c58):
    v = c58.flag_vector()
    assert v is c58.flag_vector()
    assert v.complete
    assert len(v.entries) == 2 ** 5


def test_is_eulerian():
    assert build_simplex(4).is_eulerian()
    assert build_polygon(7).is_eulerian()
    assert build_cyclic(7, 10).is_eulerian()


def test_broken_lattice_is_not_eulerian():
    cube = build_cube(4)
    for L, rank in [(build_simplex(4), 3), (cube, 1), (cube, 2), (cube, 3)]:
        removed = L.faces(rank)[0]
        faces = [(r, f) for r, f in L.all_faces()
                 if not (r == rank and f == removed)]
        assert not FaceLattice(L.d, faces).is_eulerian(), (L, rank)
    # every vertex lies in two edges, so only the intervals from the empty
    # face are unbalanced: one edge has three vertices
    faces = [(-1, []), *((0, [v]) for v in range(6)),
             (1, [0, 1, 2]), (1, [3, 4, 5]), (1, [0, 3]), (1, [1, 4]),
             (1, [2, 5]), (2, range(6))]
    assert not FaceLattice(2, faces).is_eulerian()
    # a segment with three end points: its one interval of gap >= 2 is
    # [empty, top], of even gap, so the odd gaps alone would pass it
    faces = [(-1, []), (0, [0]), (0, [1]), (0, [2]), (1, [0, 1, 2])]
    assert not FaceLattice(1, faces).is_eulerian()


@pytest.mark.parametrize("seed", range(3))
def test_eulerian_test_on_single_face_deletions_matches_the_oracle(seed):
    # the oracle tests every rank gap >= 2, is_eulerian only the even ones
    rng = random.Random(seed)
    for L in (build_cube(4), build_crosspolytope(4), build_cyclic(5, 8),
              build_simplex(5)):
        faces = list(L.all_faces())
        # a vertex, the empty face or the top cannot go alone
        proper = [f for r, f in faces if 0 < r < L.d]
        for removed in rng.sample(proper, 8):
            broken = FaceLattice(L.d, [(r, f) for r, f in faces if f != removed])
            assert broken.is_eulerian() == _is_eulerian_oracle(_masks(broken)), (
                L, sorted(removed))


def test_json_round_trip(c58):
    text = c58.to_json()
    again = FaceLattice.from_json(text)
    assert again == c58
    assert json.loads(text)["d"] == 5


@pytest.mark.parametrize("doc,message", [
    ({"d": 2, "faces": 5}, '"faces" must be a list'),
    ({"d": True, "faces": []}, '"d" must be an integer'),
    ({"d": 1.0, "faces": []}, '"d" must be an integer'),
    ({"faces": []}, '"d" must be an integer'),
    ([1], '"d" must be an integer'),
    ({"d": 1, "faces": [[-1, []]]}, "face 0 must be"),
    ({"d": 1, "faces": [{"rank": -1, "vertices": []}, {"rank": 0}]}, "face 1 must be"),
    ({"d": 1, "faces": [{"rank": False, "vertices": [0]}]}, "face 0 must be"),
    ({"d": 1, "faces": [{"rank": 0, "vertices": [1.5]}]}, "face 0 must be"),
    ({"d": 1, "faces": [{"rank": 0, "vertices": [-1]}]}, "face 0 must be"),
])
def test_from_json_refuses_a_malformed_document(doc, message):
    with pytest.raises(InvalidParams, match=re.escape(message)):
        FaceLattice.from_json(json.dumps(doc))


def test_from_json_names_an_integer_too_long_to_read():
    doc = ('{"d": 0, "faces": [{"rank": -1, "vertices": []},'
           ' {"rank": 0, "vertices": [%s]}]}' % ("1" * 4301))
    with pytest.raises(InvalidParams, match=re.escape(
            'JSON entry ["faces"][1]["vertices"][0]: an integer of 4301 digits')):
        FaceLattice.from_json(doc)


def test_desk_scale_guards(monkeypatch):
    with pytest.raises(DeskScaleExceeded):
        build_simplex(9)
    monkeypatch.setenv(MAX_FACES_ENV, "10")
    with pytest.raises(DeskScaleExceeded):
        build_cube(3)
    monkeypatch.delenv(MAX_FACES_ENV)
    build_cube(3)


def test_cyclic_is_refused_before_its_facets_are_enumerated(monkeypatch):
    L = build_cyclic(4, 7)
    monkeypatch.setenv(MAX_FACES_ENV, str(L.face_count() - 1))
    with pytest.raises(DeskScaleExceeded) as from_faces:
        FaceLattice(L.d, L.all_faces())

    def never(d, n):
        raise AssertionError("a facet was made before the face budget")

    monkeypatch.setattr(lattice_module, "_gale_facets", never)
    with pytest.raises(DeskScaleExceeded) as from_closed_form:
        build_cyclic(4, 7)
    assert str(from_closed_form.value) == str(from_faces.value)
    monkeypatch.setenv(MAX_FACES_ENV, "1000")
    with pytest.raises(DeskScaleExceeded,
                       match="^129152 faces exceed the enumeration budget 1000 "):
        build_cyclic(8, 25)



@pytest.mark.parametrize("build, arg", [
    (build_polygon, 7), (build_cube, 3), (build_crosspolytope, 3), (build_simplex, 3)])
def test_families_are_refused_before_any_face_is_made(monkeypatch, build, arg):
    L = build(arg)
    monkeypatch.setenv(MAX_FACES_ENV, str(L.face_count() - 1))
    with pytest.raises(DeskScaleExceeded) as from_faces:
        FaceLattice(L.d, L.all_faces())

    def never(d, faces):
        raise AssertionError("a lattice was made before the face budget")

    monkeypatch.setattr(lattice_module, "FaceLattice", never)
    with pytest.raises(DeskScaleExceeded) as from_closed_form:
        build(arg)
    assert str(from_closed_form.value) == str(from_faces.value)

def test_lattice_validation():
    with pytest.raises(InvalidParams):
        FaceLattice(1, [(0, (0,)), (1, (0, 1))])  # no empty face
    with pytest.raises(InvalidParams):
        FaceLattice(1, [(-1, ()), (0, (0, 1)), (1, (0, 1))])  # fat vertex
