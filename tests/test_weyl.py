import functools
import itertools
import random
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (act_covector, bfs_parabolic_subgroup_elements,
                     fixed_basis, fraction_element_matrices,
                     fraction_reflection_perms, fraction_root_closure,
                     matrix_braid_order, matrix_check_parameters_conjugation,
                     matrix_conjugacy_census, matrix_enumerate_group,
                     matrix_gram_preserved, pairwise_reduced,
                     solve_positive_roots)

from gradedhecke import weyl
from gradedhecke.linalg import identity, mat_mul
from gradedhecke.rootdata import build_root_datum, pairing
from gradedhecke.weyl import (AssociationError, WeylError, association_action,
                              conjugacy_census, coset_decomposition,
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
                       if act_covector(group, w, a) not in set(pos))
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
            from gradedhecke.linalg import mat_comb, nullspace
            rows = mat_comb(((1, conj.matrix), (-1, identity(n))), n)
            assert len(nullspace(rows, n)) == e.fixed_dim


def coset_reps(group, P):
    return coset_decomposition(group, P)[0]


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
            img = act_covector(group, ge, x)
            assert all(pairing(img, cv) >= 0 for cv in d.simple_coroots)


def test_gamma_closure_required():
    # GammaGroup closes what it is given: a 3-cycle brings its square,
    # labelled after the product that first gives it
    d = build_root_datum("A1xA1xA1", 3)
    rot = make_diagram_automorphism(
        d, "rot", [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    from gradedhecke.weyl import GammaGroup
    gamma = GammaGroup(d, [rot])
    assert [a.label for a in gamma.elements] == ["e", "rot", "rot*rot"]
    assert gamma.by_label["rot*rot"].matrix == mat_mul(rot.matrix, rot.matrix)
    group = enumerate_group(d, gamma)
    assert len(group) == 24  # |Gamma| * |W| = 3 * 8


def test_gamma_identity_is_e_and_closure_is_bounded():
    from gradedhecke.weyl import GammaGroup
    d, swap = swap_datum()
    ident = make_diagram_automorphism(d, "id", [[1, 0], [0, 1]])
    assert [a.label for a in GammaGroup(d, [ident]).elements] == ["e"]
    assert [a.label for a in GammaGroup(d, [swap, ident, swap]).elements] \
        == ["e", "swap"]
    for gens, message in (([swap._replace(label="e")], "labels"),
                          ([swap, swap._replace(label="flip")], "matrices")):
        with pytest.raises(WeylError, match=f"automorphism {message}$"):
            GammaGroup(d, gens)
    # an orthogonal map of infinite order on the complement of the roots
    a1 = build_root_datum("A1", 3)
    rot = make_diagram_automorphism(
        a1, "rot", [[1, 0, 0], [0, Q(3, 5), Q(-4, 5)], [0, Q(4, 5), Q(3, 5)]])
    with pytest.raises(WeylError, match="closure too large"):
        GammaGroup(a1, [rot])


ROOT = Path(__file__).resolve().parent.parent
TABLE_CONFIGS = sorted((ROOT / "bench" / "configs").glob("*.cfg")) + \
    [ROOT / "tests" / "golden" / "d4-triality.cfg"]


@pytest.mark.parametrize("path", TABLE_CONFIGS, ids=lambda p: p.stem)
def test_braid_orders_and_parabolics_match_matrix_oracles(path):
    # m_ij and W_P read off the group tables agree with matrix powering and
    # a BFS; m_ij is 2, 3, 4 or 6 as a_ij a_ji is 0, 1, 2 or 3
    from gradedhecke.config import load_config
    from gradedhecke.modules import _braid_order
    group = load_config(path.read_text()).build_algebra().group
    d = group.datum
    cartan = [dict(row) for row in d.cartan()]
    for i, j in itertools.combinations(range(d.rank), 2):
        m = _braid_order(group, i, j)
        assert m == matrix_braid_order(d, i, j)
        assert m == {0: 2, 1: 3, 2: 4, 3: 6}[
            cartan[i].get(j, 0) * cartan[j].get(i, 0)]
    for n in range(d.rank + 1):
        for P in itertools.combinations(range(d.rank), n):
            assert parabolic_subgroup_elements(group, P) == \
                bfs_parabolic_subgroup_elements(group, P)


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
DIFF_GROUPS = ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2",
               "A1xA1-swap", "A1^3-rot")


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


@pytest.mark.parametrize("label", DIFF_GROUPS)
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
        assert fixed_basis(g.rep, group.datum.ambient_dim) == w.fixed_basis
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
                                      verify_basis_theorem)
    calls = []
    original = weyl_mod.conjugacy_census

    def counting(group):
        calls.append(id(group))
        return original(group)

    monkeypatch.setattr(weyl_mod, "conjugacy_census", counting)
    d, g = swap_datum()
    alg = HeckeAlgebra(d, 1, gammas=[g])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert verify_basis_theorem(alg).passed
    crossed_product_census(d, truncation=4, group=alg.group)
    assert alg.group.census is alg.group.census
    assert id(alg.group) in calls
    assert len(calls) == len(set(calls))


def test_coset_decomposition_splits_every_element():
    d, g = swap_datum()
    group = enumerate_group(d, [g])
    for P in ([], [0], [1], [0, 1]):
        reps, split = coset_decomposition(group, P)
        wp = parabolic_subgroup_elements(group, P)
        for e in group:
            pos, h = split[e.index]
            assert h in wp
            assert group.mult(reps[pos], h) is e


def test_wrong_word_length_is_caught(monkeypatch):
    # negative control for the inversion count taken on the root tables
    real = weyl.permutation_bfs

    def one_wrong_word(gens, bound):
        perms, words, right = real(gens, bound)
        words[1] = words[1] + (0, 0)  # same element, length off by two
        return perms, words, right

    monkeypatch.setattr(weyl, "permutation_bfs", one_wrong_word)
    with pytest.raises(WeylError, match="word length"):
        enumerate_group(build_root_datum("B2", 2))


# Negative controls for the k-conjugation and Gamma-collision checks: these
# pin the accepted inputs and the exact messages of the rejected ones.

@pytest.mark.parametrize("label,amb,k,pair", [
    ("A2", 2, (1, 2), (1, 0)),
    ("D4", 4, (1, 1, 1, 2), (3, 1)),
    ("B3", 3, (1, 2, 3), (1, 0)),
])
def test_k_must_agree_on_conjugate_simple_roots(label, amb, k, pair):
    from gradedhecke.hecke import HeckeAlgebra
    from gradedhecke.rootdata import RootDatumError
    msg = "k must agree on conjugate simple roots %d and %d" % pair
    with pytest.raises(RootDatumError) as info:
        HeckeAlgebra(build_root_datum(label, amb), k)
    assert str(info.value) == msg


@pytest.mark.parametrize("label,k", [
    ("B2", (1, 2)), ("G2", (1, 3)), ("A1xA1", (1, 2))])
def test_k_on_unconjugate_simple_roots_is_accepted(label, k):
    from gradedhecke.hecke import HeckeAlgebra
    alg = HeckeAlgebra(build_root_datum(label, 2), k)
    assert tuple(alg.kmap.values) == k


def test_gamma_meeting_w_is_rejected():
    # -I acts on the roots of A1xA1 as w0 does: Gamma meets W
    from gradedhecke.linalg import mat
    from gradedhecke.weyl import DiagramAutomorphism
    d = build_root_datum("A1xA1", 2)
    neg = DiagramAutomorphism("neg", (0, 1), mat([[-1, 0], [0, -1]]))
    with pytest.raises(WeylError, match="Gamma must meet W trivially"):
        enumerate_group(d, [neg])


# The root-permutation enumeration against the matrix BFS it replaced.

@pytest.mark.parametrize("label", DIFF_GROUPS)
def test_root_permutation_enumeration_matches_matrix_oracle(label):
    from gradedhecke.linalg import inverse, mat_vec, transpose
    group = indexed_group(label)
    d = group.datum
    want = matrix_enumerate_group(d, group.gamma)
    assert [(e.gamma, e.word, e.matrix, e.length) for e in group] == want
    at = {m: n for n, (_, _, m, _) in enumerate(want)}
    for i in range(d.rank):
        s = d.reflection_matrix(i)
        assert list(group._rmul_simple[i]) == \
            [at[mat_mul(m, s)] for _, _, m, _ in want]
    for c in group.gamma.elements:
        assert list(group._rmul_gamma[c.label]) == \
            [at[mat_mul(m, c.matrix)] for _, _, m, _ in want]
    assert group._inv == [at[inverse(m)] for _, _, m, _ in want]
    pos = {r: n for n, r in enumerate(d.roots)}
    for e in group:
        assert group.root_perm[e.index] == tuple(
            pos[mat_vec(transpose(e.matrix, d.ambient_dim), r)]
            for r in d.roots)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(["B3", "C3", "D4"]), st.data())
def test_k_check_on_permutations_matches_matrix_check(label, data):
    from gradedhecke.rootdata import (RootDatumError,
                                      check_parameters_conjugation,
                                      make_parameter_map)
    group = indexed_group(label)
    rank = group.datum.rank
    kmap = make_parameter_map(group.datum, data.draw(
        st.lists(st.integers(0, 2), min_size=rank, max_size=rank)))

    def outcome(check, table):
        try:
            check(group.datum, kmap, table)
        except RootDatumError as exc:
            return str(exc)
        return None

    assert outcome(check_parameters_conjugation, group.root_perm) == \
        outcome(matrix_check_parameters_conjugation, group.elements)


def triality(d):
    """The five non-identity permutations of the outer D4 nodes 0, 2, 3."""
    out = []
    for p in itertools.permutations((0, 2, 3)):
        sigma = {1: 1, **dict(zip((0, 2, 3), p))}
        if p != (0, 2, 3):
            m = [[1 if r == sigma[c] else 0 for c in range(4)]
                 for r in range(4)]
            out.append(make_diagram_automorphism(
                d, "t" + "".join(map(str, p)), m))
    return out


def test_d4_triality_is_w_f4():
    # W(D4) x| S3 is the automorphism group of the D4 roots, which is W(F4)
    d = build_root_datum("D4", 4)
    ext = enumerate_group(d, triality(d))
    f4 = enumerate_group(build_root_datum("F4", 4))
    assert len(ext) == len(f4) == 1152
    assert len(ext.census) == len(f4.census) == 25
    for attr in ("size", "fixed_dim"):
        assert sorted(getattr(e, attr) for e in ext.census.entries) == \
            sorted(getattr(e, attr) for e in f4.census.entries)


def count_calls(monkeypatch, name):
    """Route every loaded gradedhecke module's `name` from linalg through a
    counter; returns the list that grows by one per call."""
    from gradedhecke import linalg
    original = getattr(linalg, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "gradedhecke" and \
                vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.mark.parametrize("with_triality,products", [(False, 191),
                                                    (True, 1151)])
def test_enumeration_operation_counts(monkeypatch, with_triality, products):
    # one matrix product per element but the identity, and root images
    # taken once per generator: no count grows with |W| beyond that
    from gradedhecke.weyl import GammaGroup
    d = build_root_datum("D4", 4)
    gamma = GammaGroup(d, triality(d) if with_triality else ())
    mat_muls = count_calls(monkeypatch, "mat_mul")
    dots = count_calls(monkeypatch, "dot")
    mat_vecs = count_calls(monkeypatch, "mat_vec")
    group = enumerate_group(d, gamma)
    assert len(group) - 1 == products
    assert len(mat_muls) <= products
    # a root image is a dot per coordinate or one mat_vec
    assert len(dots) + d.ambient_dim * len(mat_vecs) <= \
        (d.rank + len(gamma)) * len(d.roots) * d.ambient_dim


# Root closure and element products run on int values; the Fraction
# references they replaced must agree, and every stored value must still be
# a Fraction (a report writes an int as a JSON number, a Fraction as text).

CONFIG_DIRS = (Path(__file__).parents[1] / "bench" / "configs",
               Path(__file__).parent / "golden")


def _config_data():
    """{"dir/name": config path}, one per distinct (type, ambient, gram,
    gamma blocks)."""
    from gradedhecke.config import load_config
    out = {}
    for path in sorted(p for d in CONFIG_DIRS for p in d.glob("*.cfg")):
        cfg = load_config(path.read_text(encoding="utf-8"))
        key = repr((cfg.datum_type, cfg.ambient, cfg.gram, cfg.gammas))
        out.setdefault(key, path)
    return {f"{p.parent.name}/{p.stem}": p for p in out.values()}


CONFIG_DATA = _config_data()
DATA = sorted(CONFIG_DATA) + ["F4", "B2-rational"]


def datum_and_subdata(name):
    """The named datum with its Gamma, then each parabolic sub-datum."""
    from gradedhecke.config import load_config
    from gradedhecke.rootdata import make_root_datum, parabolic
    if name == "F4":
        d, gamma = build_root_datum("F4", 4), ()
    elif name == "B2-rational":
        # Cartan entries -1/2 and -4: reduced, W of order 8, and not
        # crystallographic, so the closure mixes int and Fraction values
        d, gamma = make_root_datum(
            "B2-rational", 2, [[2, Q(-1, 2)], [Q(-1, 2), Q(1, 4)]],
            [(2, Q(-1, 2)), (-4, 2)], [(1, 0), (0, 1)]), ()
        assert not d.crystallographic and len(d.roots) == 8
    else:
        built = load_config(
            CONFIG_DATA[name].read_text(encoding="utf-8")).build_group()
        d, gamma = built.datum, built.group.gamma
    subs = [parabolic(d, P).sub_datum for size in range(d.rank + 1)
            for P in itertools.combinations(range(d.rank), size)]
    return [(d, gamma)] + [(sub, ()) for sub in subs]


@pytest.mark.parametrize("name", DATA)
def test_integer_root_closure_matches_fraction_reference(name):
    for d, _ in datum_and_subdata(name):
        roots, coroots, crys = fraction_root_closure(d.simple_roots,
                                                     d.simple_coroots)
        assert (d.roots, d.coroots, d.crystallographic) == \
            (roots, coroots, crys)
        assert pairwise_reduced(roots)
        assert all(pairing(a, av) == 2 for a, av in zip(roots, coroots))
        values = [x for vectors in (d.simple_roots, d.simple_coroots,
                                    d.roots, d.coroots) for v in vectors
                  for x in v] + [x for row in d.gram for _, x in row]
        assert all(type(x) is Fraction for x in values)


@pytest.mark.parametrize("name", DATA)
def test_integer_element_products_match_fraction_reference(name):
    for d, gamma in datum_and_subdata(name):
        group = enumerate_group(d, gamma)
        assert [e.matrix for e in group] == fraction_element_matrices(group)
        assert all(type(x) is Fraction for e in group
                   for row in e.matrix for _, x in row)


# The root tables the datum keeps, against the routes they replaced: one
# `solve` per root for the signs, Fraction reflections for the
# permutations, and s^T G s == G for the Gram check.

@pytest.mark.parametrize("name", DATA)
def test_root_tables_match_solve_and_fraction_reflections(name):
    for d, _ in datum_and_subdata(name):
        assert d.positive == solve_positive_roots(d)
        assert d.reflection_perm == fraction_reflection_perms(d)
        assert d.root_index == {r: n for n, r in enumerate(d.roots)}
        assert d.simple_pos == tuple(map(d.roots.index, d.simple_roots))
        assert all(matrix_gram_preserved(d, i) for i in range(d.rank))


@functools.lru_cache(maxsize=None)
def top_datum(name):
    return datum_and_subdata(name)[0][0]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(DATA), st.data())
def test_vector_gram_check_matches_matrix_check(name, data):
    # G' = t G + c (E_ij + E_ji): symmetric, and preserved by every s_i
    # exactly when the matrix check says so, unless it is not definite
    from gradedhecke.linalg import mat
    from gradedhecke.rootdata import RootDatum, RootDatumError, _validate
    d = top_datum(name)
    n = d.ambient_dim
    i, j = (data.draw(st.integers(0, n - 1)) for _ in range(2))
    t = data.draw(st.sampled_from([Q(1), Q(2), Q(1, 3)]))
    c = data.draw(st.sampled_from([Q(0), Q(1, 2), Q(-1, 3), Q(1)]))
    dense = [[t * dict(row).get(col, 0) + c * ((r, col) in ((i, j), (j, i)))
              for col in range(n)] for r, row in enumerate(d.gram)]
    fake = RootDatum(d.label, n, mat(dense), d.simple_roots,
                     d.simple_coroots, d.roots, d.coroots,
                     d.crystallographic)
    try:
        _validate(fake)
        outcome = None
    except RootDatumError as exc:
        outcome = str(exc)
    if outcome == "Gram matrix is not positive definite":
        return
    bad = [k for k in range(d.rank) if not matrix_gram_preserved(fake, k)]
    assert outcome == (f"reflection s_{bad[0]} does not preserve the Gram "
                       "form" if bad else None)


def test_hecke_datum_d4_takes_no_per_root_solve(monkeypatch):
    # the signs and permutations come from the closure, and the Gram check
    # multiplies no matrix: _validate's only products are the n of
    # Faddeev-LeVerrier in charpoly(gram)
    from gradedhecke import rootdata
    from gradedhecke.weyl import HeckeDatum
    assert not hasattr(rootdata.RootDatum, "reflect_covector")
    assert not hasattr(rootdata, "mat_mul")
    d = build_root_datum("D4", 4)
    mat_muls = count_calls(monkeypatch, "mat_mul")
    rootdata._validate(d)
    assert len(mat_muls) == d.ambient_dim
    # a root image by a Fraction reflection was one dot per root and
    # generator, and a sign one solve per root
    solves = count_calls(monkeypatch, "solve")
    dots = count_calls(monkeypatch, "dot")
    HeckeDatum(d, 1)
    assert solves == [] and dots == []
