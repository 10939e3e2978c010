import random
from fractions import Fraction

import pytest
from oracles import matrix_conjugacy_census

from gradedhecke import weyl
from gradedhecke.linalg import identity, mat_mul
from gradedhecke.rootdata import build_root_datum, pairing
from gradedhecke.weyl import (AssociationError, WeylError, association_action,
                              conjugacy_census, coset_reps,
                              elements_mapping_parabolic, enumerate_group,
                              make_diagram_automorphism,
                              parabolic_subgroup_elements)

Q = Fraction


def swap_datum():
    d = build_root_datum("A1xA1", 2)
    g = make_diagram_automorphism(d, "swap", [[0, 1], [1, 0]])
    return d, g


def test_group_orders():
    assert len(enumerate_group(build_root_datum("A1", 1))) == 2
    assert len(enumerate_group(build_root_datum("A2", 2))) == 6
    d, g = swap_datum()
    assert len(enumerate_group(d, [g])) == 8


def test_size_bound():
    with pytest.raises(WeylError):
        enumerate_group(build_root_datum("A2", 2), bound=3)


def test_length_equals_inversions():
    d = build_root_datum("B2", 2)
    group = enumerate_group(d)
    pos = d.positive_roots()
    for w in group:
        sent_neg = sum(1 for a in pos
                       if group.act_covector(w, a) not in set(pos))
        assert sent_neg == w.length


def test_census_a1():
    census = conjugacy_census(enumerate_group(build_root_datum("A1", 1)))
    assert len(census) == 2
    assert [e.fixed_dim for e in census.entries] == [1, 0]


@pytest.mark.parametrize("label,amb,gammas,classes", [
    ("A1", 1, False, 2), ("A2", 2, False, 3), ("B2", 2, False, 5),
    ("G2", 2, False, 6), ("A1xA1", 2, True, 5),
])
def test_class_counts(label, amb, gammas, classes):
    d = build_root_datum(label, amb)
    gs = [make_diagram_automorphism(d, "swap", [[0, 1], [1, 0]])] \
        if gammas else []
    census = conjugacy_census(enumerate_group(d, gs))
    assert len(census) == classes


def test_census_invariants():
    d, g = swap_datum()
    group = enumerate_group(d, [g])
    census = conjugacy_census(group)
    assert sum(e.size for e in census.entries) == len(group)
    for e in census.entries:
        assert e.size * len(e.centralizer) == len(group)
    # conjugation invariance of fixed dimensions
    for e in census.entries:
        for h in group:
            conj = group.mult(group.mult(h, e.rep), group.inv(h))
            n = d.ambient_dim
            rows = [[conj.matrix[i][j] - (1 if i == j else 0)
                     for j in range(n)] for i in range(n)]
            from gradedhecke.linalg import nullspace
            assert len(nullspace(rows, n)) == e.fixed_dim


def test_coset_reps():
    a1 = enumerate_group(build_root_datum("A1", 1))
    assert coset_reps(a1, [0]) == [a1.identity]
    a2 = enumerate_group(build_root_datum("A2", 2))
    assert len(coset_reps(a2, [])) == 6
    reps = coset_reps(a2, [0])
    assert len(reps) == 3
    wp = parabolic_subgroup_elements(a2, [0])
    for u in reps:
        for v in wp:
            assert u.length <= a2.mult(u, v).length


def test_coset_reps_extended():
    d, g = swap_datum()
    group = enumerate_group(d, [g])
    reps = coset_reps(group, [0, 1])
    assert len(reps) == 2  # |W'| / |W_P| = 8 / 4


def test_association_identity():
    a2 = enumerate_group(build_root_datum("A2", 2))
    assert association_action(a2, a2.identity, (0,)) == (0,)


def test_association_simple_reflection_fails():
    # s_beta sends alpha to alpha + beta, which is not simple
    a2 = enumerate_group(build_root_datum("A2", 2))
    s_beta = a2.simple(1)
    with pytest.raises(AssociationError):
        association_action(a2, s_beta, (0,))


def test_association_longest_element_a2():
    # w0(alpha) = -beta is not simple, so w0 is not in W'(P, Q); the element
    # s_alpha s_beta is the one carrying {alpha} to {beta}
    a2 = enumerate_group(build_root_datum("A2", 2))
    w0 = max(a2.elements, key=lambda e: e.length)
    assert w0.length == 3
    with pytest.raises(AssociationError):
        association_action(a2, w0, (0,))
    mappers = elements_mapping_parabolic(a2, (0,), (1,))
    assert mappers
    s1s2 = a2.mult(a2.simple(0), a2.simple(1))
    assert s1s2 in mappers
    for w in mappers:
        assert association_action(a2, w, (0,)) == (1,)


def test_gamma_requires_valid_matrix():
    d = build_root_datum("A1xA1", 2)
    with pytest.raises(WeylError):
        make_diagram_automorphism(d, "bad", [[0, 2], [1, 0]])


def test_gamma_stabilizes_dominant_cone():
    # diagram automorphisms permute Pi, hence stabilize a^{*+} setwise
    d, g = swap_datum()
    group = enumerate_group(d, [g])
    ge = group.gamma_element("swap")
    rng = random.Random(2)
    for _ in range(40):
        coeffs = [Q(rng.randint(0, 5)) for _ in range(2)]
        x = tuple(sum(c * r[i] for c, r in zip(coeffs, d.simple_roots))
                  for i in range(2))
        if all(pairing(x, cv) >= 0 for cv in d.simple_coroots):
            img = group.act_covector(ge, x)
            assert all(pairing(img, cv) >= 0 for cv in d.simple_coroots)


def test_gamma_closure_required():
    # a 3-cycle without its square is not closed under composition
    d = build_root_datum("A1xA1xA1", 3)
    rot = make_diagram_automorphism(
        d, "rot", [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    from gradedhecke.weyl import GammaGroup
    with pytest.raises(WeylError):
        GammaGroup(d, [rot])
    rot2 = make_diagram_automorphism(
        d, "rot2", [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    group = enumerate_group(d, GammaGroup(d, [rot, rot2]))
    assert len(group) == 24  # |Gamma| * |W| = 3 * 8


def test_lex_least_words():
    a2 = enumerate_group(build_root_datum("A2", 2))
    for e in a2.elements:
        m = identity(2)
        for i in e.word:
            m = mat_mul(m, a2.datum.reflection_matrix(i))
        assert m == e.matrix
    w0 = max(a2.elements, key=lambda e: e.length)
    assert w0.word == (0, 1, 0)  # lex-least of the two reduced words


def indexed_group(label):
    """A small W' by name; 'A1xA1-swap' and 'A1^3-rot' carry a Gamma."""
    from gradedhecke.weyl import GammaGroup
    if label == "A1xA1-swap":
        d, g = swap_datum()
        return enumerate_group(d, [g])
    if label == "A1^3-rot":
        # a 3-cycle: perm^-1 != perm, so conjugating words by Gamma is tested
        d = build_root_datum("A1xA1xA1", 3)
        rot = make_diagram_automorphism(
            d, "rot", [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        rot2 = make_diagram_automorphism(
            d, "rot2", [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        return enumerate_group(d, GammaGroup(d, [rot, rot2]))
    return enumerate_group(build_root_datum(label, int(label[1])))


TABLE_GROUPS = ("A1", "A2", "B2", "G2", "A3", "A1xA1-swap", "A1^3-rot")


@pytest.mark.parametrize("label", TABLE_GROUPS)
def test_tables_match_matrix_products(label):
    from gradedhecke.linalg import inverse
    group = indexed_group(label)
    assert [e.index for e in group] == list(range(len(group)))
    for a in group:
        assert group.inv(a).matrix == inverse(a.matrix)
        for b in group:
            assert group.mult(a, b).matrix == mat_mul(a.matrix, b.matrix)
    d = group.datum
    for i in range(d.rank):
        assert group.simple(i).matrix == d.reflection_matrix(i)
    for g in group.gamma.elements:
        assert group.gamma_element(g.label).matrix == g.matrix


@pytest.mark.parametrize("label", TABLE_GROUPS + ("B3",))
def test_census_matches_matrix_keyed_oracle(label):
    group = indexed_group(label)
    got = conjugacy_census(group).entries
    want = matrix_conjugacy_census(group).entries
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.rep is w.rep
        assert g.size == w.size
        assert g.centralizer == w.centralizer
        assert [h.index for h in g.centralizer] == \
            [h.index for h in w.centralizer]
        assert g.fixed_basis == w.fixed_basis
        assert g.fixed_dim == w.fixed_dim


def test_census_d4():
    group = enumerate_group(build_root_datum("D4", 4))
    census = group.census
    assert len(group) == 192
    assert len(census) == 13
    assert sum(e.size for e in census.entries) == 192


def test_census_computed_once_per_group(monkeypatch):
    import gradedhecke.weyl as weyl_mod
    from gradedhecke.hecke import HeckeAlgebra
    from gradedhecke.homology import (crossed_product_census,
                                      hp_census_hecke, verify_basis_theorem)
    calls = []
    original = weyl_mod.conjugacy_census

    def counting(group):
        calls.append(id(group))
        return original(group)

    monkeypatch.setattr(weyl_mod, "conjugacy_census", counting)
    d, g = swap_datum()
    alg = HeckeAlgebra(d, 1, gammas=[g])
    assert verify_basis_theorem(alg, warn_rank2=False).passed
    hp_census_hecke(alg)
    crossed_product_census(d, truncation=4, group=alg.group)
    assert alg.group.census is alg.group.census
    assert id(alg.group) in calls
    assert len(calls) == len(set(calls))


def test_coset_decomposition_splits_every_element():
    from gradedhecke.weyl import coset_decomposition
    d, g = swap_datum()
    group = enumerate_group(d, [g])
    for P in ([], [0], [1], [0, 1]):
        reps, split = coset_decomposition(group, P)
        assert reps == coset_reps(group, P)
        wp = parabolic_subgroup_elements(group, P)
        for e in group:
            pos, h = split[e.index]
            assert h in wp
            assert group.mult(reps[pos], h) is e


def test_wrong_word_length_is_caught(monkeypatch):
    # negative control for the inversion count taken on transpose(matrix)
    real = weyl._enumerate_weyl_words

    def one_wrong_word(datum, bound):
        mats, words, right = real(datum, bound)
        words[1] = words[1] + (0, 0)  # same element, length off by two
        return mats, words, right

    monkeypatch.setattr(weyl, "_enumerate_weyl_words", one_wrong_word)
    with pytest.raises(WeylError, match="word length"):
        enumerate_group(build_root_datum("B2", 2))
