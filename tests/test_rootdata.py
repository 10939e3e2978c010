import random
from fractions import Fraction

import pytest

from oracles import act_covector, fraction_root_closure, pairwise_reduced

from gradedhecke.linalg import dot, mat, mat_vec, nullspace, solve
from gradedhecke.rootdata import (RootDatumError, build_root_datum,
                                  in_antidual, make_root_datum, pairing,
                                  parabolic)
from gradedhecke.weyl import enumerate_group

Q = Fraction


def test_a1_defining_normalization():
    d = build_root_datum("A1", 1)
    assert pairing(d.simple_roots[0], d.simple_coroots[0]) == 2


def test_a2_cartan_from_reflection_closure():
    d = build_root_datum("A2", 2)
    # reflection closure reproduces the standard Cartan matrix
    assert d.cartan() == mat([[2, -1], [-1, 2]])
    assert len(d.roots) == 6
    assert pairing(d.simple_roots[0], d.simple_coroots[1]) == -1


@pytest.mark.parametrize("label,ambient,count", [
    ("A1", 1, 2), ("A2", 2, 6), ("B2", 2, 8), ("C2", 2, 8),
    ("G2", 2, 12), ("A3", 3, 12), ("B3", 3, 18), ("C3", 3, 18),
    ("D4", 4, 24), ("F4", 4, 48), ("A1xA1", 2, 4),
])
def test_root_counts_by_enumeration(label, ambient, count):
    assert len(build_root_datum(label, ambient).roots) == count


def test_unknown_label_and_rank_errors():
    with pytest.raises(RootDatumError):
        build_root_datum("Z9", 2)
    with pytest.raises(RootDatumError):
        build_root_datum("A3", 2)


def test_empty_datum():
    d = build_root_datum("empty", 2)
    assert d.roots == () and d.rank == 0
    assert len(enumerate_group(d)) == 1


def test_pairing_examples():
    d = build_root_datum("A2", 2)
    assert pairing(d.simple_roots[0], d.simple_coroots[0]) == 2
    zero = (Q(0), Q(0))
    assert pairing(zero, d.simple_coroots[1]) == 0
    assert pairing(d.simple_roots[0], d.simple_coroots[1]) == -1
    with pytest.raises(ValueError):
        dot((Q(1),), (Q(1), Q(2)))


def test_ambient_larger_than_rank():
    d = build_root_datum("A1", 3)
    assert d.ambient_dim == 3 and d.rank == 1
    assert len(d.roots) == 2


def test_reflection_closure_is_fixed_point():
    for label, amb in [("A2", 2), ("B2", 2), ("G2", 2)]:
        d = build_root_datum(label, amb)
        group = enumerate_group(d)
        roots = set(d.roots)
        for w in group:
            for r in d.roots:
                assert act_covector(group, w, r) in roots


def test_pairing_invariance_under_group():
    rng = random.Random(5)
    d = build_root_datum("B2", 2)
    group = enumerate_group(d)
    for _ in range(25):
        x = tuple(Q(rng.randint(-4, 4)) for _ in range(2))
        lam = tuple(Q(rng.randint(-4, 4)) for _ in range(2))
        for w in group:
            wx = act_covector(group, w, x)
            wlam = mat_vec(w.matrix, lam)
            assert pairing(wx, wlam) == pairing(x, lam)


def test_cone_antidual_examples():
    d = build_root_datum("A1", 1)
    av = d.simple_coroots[0]
    assert in_antidual(d, tuple(-c for c in av))
    assert not in_antidual(d, av)
    assert in_antidual(d, (Q(0),))  # boundary
    assert not in_antidual(d, (Q(0),), strict=True)


def test_antidual_matches_direct_inequalities():
    # a^- must equal the antidual of a^{*+}: compare the coroot-coefficient
    # test against <x_i, lam> <= 0 on a generating set x_i of a^{*+}
    rng = random.Random(11)
    for label, amb in [("A2", 2), ("B2", 2), ("A1", 2)]:
        d = build_root_datum(label, amb)
        gens = []
        for i in range(d.rank):  # fundamental-weight style generators
            rows = mat(d.simple_coroots)
            target = [Q(1 if j == i else 0) for j in range(d.rank)]
            w = solve(rows, target, amb)
            assert w is not None
            gens.append(tuple(w))
        comp = []
        from gradedhecke.linalg import nullspace
        for u in nullspace(mat(d.simple_coroots), amb):
            comp.append(u)
            comp.append(tuple(-c for c in u))
        for _ in range(200):
            lam = tuple(Q(rng.randint(-6, 6), rng.randint(1, 3))
                        for _ in range(amb))
            direct = all(pairing(x, lam) <= 0 for x in gens) and \
                all(pairing(x, lam) == 0 for x in comp)
            assert in_antidual(d, lam) == direct


def test_parabolic_extremes():
    d = build_root_datum("A2", 2)
    p_empty = parabolic(d, [])
    assert p_empty.sub_datum.rank == 0
    assert p_empty.in_t_upP(d.simple_coroots[0])
    p_full = parabolic(d, [0, 1])
    assert p_full.sub_datum.cartan() == d.cartan()
    assert p_full.in_t_upP((Q(0), Q(0)))
    assert not p_full.in_t_upP(d.simple_coroots[1])


def test_parabolic_one_root():
    d = build_root_datum("A2", 2)
    pd = parabolic(d, [0])
    assert pd.P == (0,) and pd.sub_datum.rank == 1
    # t^P kills the root alpha, per the defining equations
    (lam,) = nullspace(mat([d.simple_roots[0]]), 2)
    assert pd.in_t_upP(lam) and pairing(d.simple_roots[1], lam) != 0
    assert not pd.in_t_upP(d.simple_coroots[0])


def test_gram_override():
    d = build_root_datum("A1", 1, gram_override=[[Fraction(4)]])
    assert d.gram == mat([[4]])


@pytest.mark.parametrize("label, ambient, gram", [
    ("A1", 1, [[-1]]),
    ("A1", 1, [[0]]),
    ("A2", 2, [[1, 0], [0, -1]]),
    ("A2", 2, [[-1, 0], [0, -1]]),  # positive determinant, negative minor
    ("A2", 2, [[1, 2], [2, 1]]),
])
def test_gram_override_must_be_positive_definite(label, ambient, gram):
    with pytest.raises(RootDatumError,
                       match="Gram matrix is not positive definite"):
        build_root_datum(label, ambient, gram_override=gram)


def test_nonreduced_closure_rejected():
    # asymmetric rescaling of odd-linked nodes closes to proportional roots
    with pytest.raises(RootDatumError):
        make_root_datum("scaledA2", 2, [[4, -1], [-1, 1]],
                        [(2, Fraction(-1, 2)), (-2, 2)],
                        [(1, 0), (0, 1)])
    roots, _, _ = fraction_root_closure([(2, Fraction(-1, 2)), (-2, 2)],
                                        [(1, 0), (0, 1)])
    assert not pairwise_reduced(roots)


def test_sub_datum_invariants():
    d = build_root_datum("G2", 2)
    for P in ([], [0], [1], [0, 1]):
        pd = parabolic(d, P)
        sub = pd.sub_datum
        for a, av in zip(sub.simple_roots, sub.simple_coroots):
            assert pairing(a, av) == 2


def test_gram_override_must_keep_reflections_orthogonal():
    # a Gram override that the Weyl group does not preserve is rejected
    with pytest.raises(RootDatumError,
                       match="reflection s_0 does not preserve the Gram form"):
        build_root_datum("A2", 2, gram_override=[[1, 0], [0, 5]])


@pytest.mark.parametrize("label,rank", [
    ("empty", 0), ("EMPTY", 0), ("A10", 10), ("A1xB2", 3)])
def test_label_grammar_accepts(label, rank):
    assert build_root_datum(label, 10).rank == rank
