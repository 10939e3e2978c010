import functools
import random
import warnings
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (basis_lift_weights, dense_hom_space, densify,
                     multiply_induce, rebuild_decompose, reflect_covector)

from gradedhecke import modules
from gradedhecke.catalog import CatalogError, load_catalog
from gradedhecke.hecke import HeckeAlgebra
from gradedhecke.linalg import (QI, identity, mat, mat_mul, mat_vec, nullspace,
                                zero_vec)
from gradedhecke.modules import (DSCatalogEntry, FieldExtensionNeeded,
                                 FinModule, InductionDatum, ModuleError,
                                 UnsplitSpectrumError, association_classes,
                                 auto_catalog, cc_norm2, central_character,
                                 commutant, decompose, hom_space, induce,
                                 irr0_census,
                                 is_discrete_series, is_irreducible,
                                 is_tempered, one_dim_modules,
                                 parabolic_algebra, submodule,
                                 transport_module, weights)
from gradedhecke.homology import verify_basis_theorem
from gradedhecke.rootdata import RootDatum, build_root_datum, pairing
from gradedhecke.weyl import (HeckeDatum, elements_mapping_parabolic,
                              make_diagram_automorphism)

Q = Fraction


def algebra(label="A1", amb=1, k=1, gammas=()):
    return HeckeAlgebra(build_root_datum(label, amb), k, gammas)


def t_upP_basis(datum, P):
    """A basis of t^P, the annihilator of the P-roots in `a`."""
    return nullspace(mat([datum.simple_roots[i] for i in P]), datum.ambient_dim)


def principal_series(alg, lam_re=None, lam_im=None, extended=True):
    _, sub = parabolic_algebra(alg, [])
    triv = one_dim_modules(sub)[0]
    d = alg.datum.ambient_dim
    xi = InductionDatum(P=(), delta=triv,
                        lam_re=lam_re or zero_vec(d),
                        lam_im=lam_im or zero_vec(d))
    return induce(alg, xi, extended=extended)


def steinberg_module(alg):
    P = tuple(range(alg.datum.rank))
    _, sub = parabolic_algebra(alg, P)
    sts = [m for m in one_dim_modules(sub) if m.name == "steinberg"]
    xi = InductionDatum(P=P, delta=sts[0],
                        lam_re=zero_vec(alg.datum.ambient_dim),
                        lam_im=zero_vec(alg.datum.ambient_dim))
    return induce(alg, xi, extended=True)


def test_one_dim_modules_a1():
    alg = algebra(k=1)
    mods = {m.name: m for m in one_dim_modules(alg)}
    assert set(mods) == {"trivial", "steinberg"}
    a = alg.datum.simple_roots[0]
    st_lambda = mods["steinberg"].meta["lambda"]
    assert pairing(a, st_lambda) == -1
    assert mods["steinberg"].refl[0] == mat([[-1]])
    assert pairing(a, mods["trivial"].meta["lambda"]) == 1
    assert mods["trivial"].refl[0] == mat([[1]])


def test_one_dim_modules_k0():
    alg = algebra(k=0)
    mods = one_dim_modules(alg)
    assert len(mods) == 2
    for m in mods:
        assert m.meta["lambda"] == (Q(0),)
        assert m.refl[0] in (mat([[1]]), mat([[-1]]))


def test_one_dim_modules_b2():
    # two braid-even-linked nodes admit all four sign patterns
    alg = algebra("B2", 2, 1)
    assert len(one_dim_modules(alg)) == 4


def test_one_dim_modules_a2_signs_linked():
    # odd braid order forces equal signs: only trivial and steinberg
    alg = algebra("A2", 2, 1)
    assert {m.name for m in one_dim_modules(alg)} == {"trivial", "steinberg"}


@pytest.mark.parametrize("rank0", ["A2 at P = ()", "empty"])
def test_one_dim_modules_rank0_is_the_trivial_module(rank0):
    # the general path builds what a rank-0 special case once built: one
    # trivial module, no reflections, lambda = 0 on every ambient direction
    if rank0 == "empty":
        alg = algebra("empty", 2, [])
    else:
        alg = parabolic_algebra(algebra("A2", 2, 1), ())[1]
    n = alg.datum.ambient_dim
    expected = FinModule(algebra=alg, dim=1, refl={}, gammas={},
                         coord=(((),),) * n, name="trivial",
                         meta={"lambda": zero_vec(n)})
    assert one_dim_modules(alg) == [expected]


def test_induce_dimensions():
    a1 = algebra(k=1)
    V = principal_series(a1)
    assert V.dim == 2
    a2 = algebra("A2", 2, 1)
    _, sub = parabolic_algebra(a2, [0])
    st = [m for m in one_dim_modules(sub) if m.name == "steinberg"][0]
    V3 = induce(a2, InductionDatum(P=(0,), delta=st, lam_re=zero_vec(2),
                                   lam_im=zero_vec(2)), extended=True)
    assert V3.dim == 3  # index [W' : W_P] = 6 / 2


@pytest.mark.parametrize("field", ["lam_re", "lam_im"])
def test_induce_rejects_lambda_off_t_upP(field):
    # <alpha_1, (1, 0)> = 2: the point is not in t^P for P = {alpha_1}
    a2 = algebra("A2", 2, 1)
    _, sub = parabolic_algebra(a2, [0])
    st = [m for m in one_dim_modules(sub) if m.name == "steinberg"][0]
    lam = {"lam_re": zero_vec(2), "lam_im": zero_vec(2), field: (Q(1), Q(0))}
    with pytest.raises(ModuleError, match="lambda does not lie in t"):
        induce(a2, InductionDatum(P=(0,), delta=st, **lam))


def test_induce_from_whole_algebra_returns_delta():
    a2 = algebra("A2", 2, 1)
    _, sub = parabolic_algebra(a2, [0, 1])
    st = [m for m in one_dim_modules(sub) if m.name == "steinberg"][0]
    V = induce(a2, InductionDatum(P=(0, 1), delta=st, lam_re=zero_vec(2),
                                  lam_im=zero_vec(2)), extended=False)
    assert V.dim == 1
    assert V.refl[0] == mat([[-1]]) and V.refl[1] == mat([[-1]])


def test_induced_weights_generic():
    a1 = algebra(k=1)
    V = principal_series(a1, lam_re=(Q(3),))
    wts = weights(V)
    assert sorted(re[0] for (re, _), m in wts) == [Q(-3), Q(3)]
    group = a1.group
    lam = (Q(3),)
    expected = sorted(mat_vec(w.matrix, lam) for w in group)
    assert sorted(re for (re, _), m in wts for _ in range(m)) == \
        [tuple(v) for v in expected]


def test_induced_weights_at_zero_nilpotent():
    V = principal_series(algebra(k=1))
    assert weights(V) == [(((Q(0),), (Q(0),)), 2)]


def test_weights_of_steinberg():
    V = steinberg_module(algebra(k=1))
    (re, im), mult = weights(V)[0]
    assert mult == 1 and im == (Q(0),)
    assert pairing(algebra().datum.simple_roots[0], re) == -1


def test_unsplit_spectrum_error():
    # sqrt(2) weights on an empty-root-system module
    alg = algebra("empty", 1, [])
    mod = FinModule(algebra=alg, dim=2, refl={}, gammas={},
                    coord=(mat([[0, 2], [1, 0]]),), name="sqrt2")
    mod.verify()
    with pytest.raises(UnsplitSpectrumError) as err:
        weights(mod)
    assert err.value.poly  # names the offending characteristic factor
    with pytest.raises(FieldExtensionNeeded) as err2:
        decompose(mod)
    # carries the polynomial to adjoin: x^2 - 2, highest degree first
    assert tuple(err2.value.poly) == (1, 0, -2)


def test_central_character_examples():
    a1 = algebra(k=1)
    st = steinberg_module(a1)
    orbit, real = central_character(st)
    assert real
    assert len(orbit) == 2  # {lambda_St, -lambda_St}
    V = principal_series(a1, lam_im=(Q(1),))
    orbit, real = central_character(V)
    assert not real
    assert orbit == (((Q(0),), (Q(-1),)), ((Q(0),), (Q(1),)))


def test_central_character_formula():
    # cc(pi'(P, delta, lam)) = W'(cc_P(delta) + lam), 20 random rational lam
    rng = random.Random(15)
    a2 = algebra("A2", 2, 1)
    group = a2.group
    for P in ((), (0,), (1,)):
        _, sub = parabolic_algebra(a2, P)
        basis = t_upP_basis(a2.datum, P)
        for delta in one_dim_modules(sub):
            cc_p = [Q(0)] * 2  # cc_P(delta) as a point of a_P in `a`
            for c, i in zip(delta.meta["lambda"], P):
                cc_p[i] = c
            for _ in range(20 // 3 + 1):
                coeffs = [Q(rng.randint(-3, 3), rng.randint(1, 2))
                          for _ in basis]
                lam = zero_vec(2)
                for c, b in zip(coeffs, basis):
                    lam = tuple(x + c * y for x, y in zip(lam, b))
                xi = InductionDatum(P=P, delta=delta, lam_re=lam,
                                    lam_im=zero_vec(2))
                V = induce(a2, xi, extended=True)
                orbit, real = central_character(V)
                assert real
                target = tuple(x + y for x, y in zip(cc_p, lam))
                expected = sorted({(mat_vec(w.matrix, target), (Q(0), Q(0)))
                                   for w in group})
                assert orbit == tuple(expected)


def test_multiple_central_characters_error():
    # direct sum of two different characters on the empty datum
    alg = algebra("empty", 1, [])
    mod = FinModule(algebra=alg, dim=2, refl={}, gammas={},
                    coord=(mat([[1, 0], [0, 2]]),), name="sum")
    with pytest.raises(ModuleError):
        central_character(mod)


def test_temperedness():
    a1 = algebra(k=1)
    mods = {m.name: m for m in one_dim_modules(a1)}
    assert is_tempered(mods["steinberg"]) and \
        is_discrete_series(mods["steinberg"])
    assert not is_tempered(mods["trivial"])
    # pi'(xi) at unitary xi is tempered
    V = principal_series(a1, lam_im=(Q(2),))
    assert is_tempered(V)


def test_discrete_series_requires_spanning():
    # ambient strictly larger than the span: interior is empty, never DS
    alg = HeckeAlgebra(build_root_datum("A1", 2), 1)
    mods = one_dim_modules(alg)
    assert all(not is_discrete_series(m) for m in mods)


def test_commutant_examples():
    a1_one = algebra(k=1)
    st = steinberg_module(a1_one)
    assert len(commutant(st)) == 1
    V0 = principal_series(algebra(k=0))
    assert len(commutant(V0)) == 2  # #classes of the stabilizer W at x = 0
    V1 = principal_series(a1_one)
    assert len(commutant(V1)) == 1 and is_irreducible(V1)


def test_decompose_examples():
    V0 = principal_series(algebra(k=0))
    dec = decompose(V0)
    assert sorted((m.dim, c) for m, c in dec) == [(1, 1), (1, 1)]
    chars = sorted(m.restriction_character() for m, c in dec)
    assert chars == [(Q(1), Q(-1)), (Q(1), Q(1))]  # sign (+) trivial of C[W]
    V1 = principal_series(algebra(k=1))
    assert [(m.dim, c) for m, c in decompose(V1)] == [(2, 1)]
    a2 = algebra("A2", 2, 1)
    _, sub = parabolic_algebra(a2, [0])
    st = [m for m in one_dim_modules(sub) if m.name == "steinberg"][0]
    V3 = induce(a2, InductionDatum(P=(0,), delta=st, lam_re=zero_vec(2),
                                   lam_im=zero_vec(2)), extended=True)
    assert [(m.dim, c) for m, c in decompose(V3)] == [(3, 1)]


@pytest.mark.parametrize("label,amb", [("B2", 2), ("A3", 3)])
def test_decompose_takes_no_charpoly_larger_than_the_commutant(
        monkeypatch, label, amb):
    # a commutant element's eigenvalues come from its left multiplication on
    # the commutant (m x m), not from its charpoly on the module
    alg = algebra(label, amb, 0)
    _, sub = parabolic_algebra(alg, [0])
    V = induce(alg, InductionDatum(P=(0,), delta=one_dim_modules(sub)[0],
                                   lam_re=zero_vec(amb), lam_im=zero_vec(amb)),
               extended=True)
    m = len(commutant(V))
    sizes = []
    charpoly = modules.charpoly
    monkeypatch.setattr(modules, "charpoly",
                        lambda a: sizes.append(len(a)) or charpoly(a))
    dec = decompose(V)
    assert 1 < m < V.dim and sizes and max(sizes) <= m
    assert sum(c * x.dim for x, c in dec) == V.dim


def test_submodule_verifies():
    V0 = principal_series(algebra(k=0))
    basis = [(Q(1), Q(1))]
    sub = submodule(V0, basis)
    assert sub.dim == 1


def test_intertwiner_dimension_identities():
    for label, amb in (("A1", 1), ("A2", 2)):
        alg = algebra(label, amb, 1)
        for P in ((), tuple(range(alg.datum.rank))):
            _, sub = parabolic_algebra(alg, P)
            cands = [m for m in one_dim_modules(sub)
                     if is_discrete_series(m)]
            if not cands:
                continue
            delta = cands[0]
            d = alg.datum.ambient_dim
            xi = InductionDatum(P=P, delta=delta, lam_re=zero_vec(d),
                                lam_im=zero_vec(d))
            V = induce(alg, xi, extended=True)
            end = hom_space(V, V)
            dec = decompose(V)
            assert len(end) == sum(c * c for _, c in dec)


def test_intertwiners_vanish_across_central_characters():
    a1 = algebra(k=1)
    st = steinberg_module(a1)
    V = principal_series(a1)
    assert central_character(st)[0] != central_character(V)[0]
    assert hom_space(st, V) == []


def test_intertwiner_with_associate_datum():
    # xi and w(xi) at unitary xi admit a nonzero intertwiner
    a2 = algebra("A2", 2, 1)
    _, sub0 = parabolic_algebra(a2, [0])
    _, sub1 = parabolic_algebra(a2, [1])
    st0 = [m for m in one_dim_modules(sub0) if m.name == "steinberg"][0]
    w = elements_mapping_parabolic(a2.group, (0,), (1,))[0]
    moved = transport_module(a2, (0,), st0, w, (1,), sub1)
    xi = InductionDatum(P=(0,), delta=st0, lam_re=zero_vec(2),
                        lam_im=zero_vec(2))
    eta = InductionDatum(P=(1,), delta=moved, lam_re=zero_vec(2),
                         lam_im=zero_vec(2))
    basis = hom_space(induce(a2, xi), induce(a2, eta))
    assert len(basis) >= 1


def test_restriction_characters():
    a1 = algebra(k=1)
    st = steinberg_module(a1)
    assert st.restriction_character() == (Q(1), Q(-1))
    V = principal_series(a1)
    assert V.restriction_character() == (Q(2), Q(0))


def test_association_invariance_of_characters():
    # pi'(w xi) and pi'(xi) restrict to the same W'-representation
    a2 = algebra("A2", 2, 1)
    _, sub0 = parabolic_algebra(a2, [0])
    _, sub1 = parabolic_algebra(a2, [1])
    st0 = [m for m in one_dim_modules(sub0) if m.name == "steinberg"][0]
    for w in elements_mapping_parabolic(a2.group, (0,), (1,)):
        moved = transport_module(a2, (0,), st0, w, (1,), sub1)
        V = induce(a2, InductionDatum(P=(0,), delta=st0,
                                      lam_re=zero_vec(2),
                                      lam_im=zero_vec(2)), extended=True)
        W = induce(a2, InductionDatum(P=(1,), delta=moved,
                                      lam_re=zero_vec(2),
                                      lam_im=zero_vec(2)), extended=True)
        assert V.restriction_character() == W.restriction_character()


def test_auto_catalog_warns_on_rank2():
    a2 = algebra("A2", 2, 1)
    with pytest.warns(UserWarning):
        auto_catalog(a2)


def test_association_classes_a2():
    a2 = algebra("A2", 2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cat = auto_catalog(a2)
    classes = association_classes(a2, cat)
    # {alpha}-Steinberg and {beta}-Steinberg fall into one class
    sizes = sorted(len(c) for c in classes)
    ps = sorted(tuple(sorted({e.P for e in c})) for c in classes)
    assert ((0,), (1,)) in ps
    assert len(classes) == 3


def test_irr0_census_counts():
    for label, amb, ks, classes in (
            ("A1", 1, (0, 1, 2), 2), ("A2", 2, (0, 1, 2), 3)):
        for k in ks:
            alg = algebra(label, amb, k)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                mods = irr0_census(alg)
            assert len(mods) == classes
            for m in mods:
                assert is_tempered(m)
                assert central_character(m)[1]
                assert is_irreducible(m)


def test_irr0_census_k0_matches_group_classes():
    d = build_root_datum("A1xA1", 2)
    g = make_diagram_automorphism(d, "swap", [[0, 1], [1, 0]])
    alg = HeckeAlgebra(d, 0, [g])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mods = irr0_census(alg)
    from gradedhecke.weyl import conjugacy_census
    assert len(mods) == len(conjugacy_census(alg.group))


def test_irr0_census_order_by_cc_norm():
    alg = algebra(k=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mods = irr0_census(alg)
    norms = [cc_norm2(m) for m in mods]
    assert norms == sorted(norms, reverse=True)


def test_census_refuses_noncrystallographic():
    alg = algebra(k=1)
    d = alg.datum
    fake = RootDatum(d.label, d.ambient_dim, d.gram, d.simple_roots,
                     d.simple_coroots, d.roots, d.coroots,
                     crystallographic=False)
    fake_alg = HeckeAlgebra.__new__(HeckeAlgebra)
    fake_alg.__dict__.update(alg.__dict__)
    fake_alg.datum = fake
    with pytest.raises(ModuleError):
        irr0_census(fake_alg)
    mods = one_dim_modules(alg)
    for m in mods:
        m2 = FinModule(algebra=fake_alg, dim=m.dim, refl=m.refl,
                       gammas=m.gammas, coord=m.coord, name=m.name)
        with pytest.raises(ModuleError):
            is_tempered(m2)


def test_discrete_series_weights_real():
    # every catalog entry passes Im(weights) = 0
    for label, amb in (("A1", 1), ("A2", 2), ("B2", 2)):
        alg = algebra(label, amb, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cat = auto_catalog(alg)
        for entry in cat:
            for (re, im), _ in weights(entry.module):
                assert all(c == 0 for c in im)


def test_catalog_file_round_trip(tmp_path):
    a2 = algebra("A2", 2, 1)
    text = """
entry {
  p = ["alpha1"]
  note = "steinberg by hand"
  s1 = [[-1]]
  x1 = [[-1/2]]
}
"""
    entries = load_catalog(a2, text)
    assert len(entries) == 1
    assert entries[0].P == (0,)
    assert entries[0].module.dim == 1
    with pytest.raises(CatalogError):
        load_catalog(a2, 'entry { p = ["alpha9"], s1=[[1]], x1=[[0]] }')
    with pytest.raises(ModuleError):
        # violates the cross relation: wrong lambda for the minus sign
        load_catalog(a2, 'entry { p = ["alpha1"], s1 = [[-1]], x1 = [[3]] }')


def test_cross_relation_holds_in_every_module():
    # FinModule.verify checks the cross relations; spot-check one manually
    a1 = algebra(k=Q(3, 2))
    V = principal_series(a1)
    from gradedhecke.linalg import mat_comb, mat_mul
    x, s = V.coord[0], V.refl[0]
    sx = reflect_covector(a1.datum, 0, (Q(1),))
    lhs = mat_comb(((1, mat_mul(x, s)),
                    (-1, mat_mul(s, V.covector_matrix(sx)))), 2)
    c = Q(3, 2) * pairing((Q(1),), a1.datum.simple_coroots[0])
    assert lhs == mat([[c, 0], [0, c]])


def test_irr0_census_b2_g2_at_k0():
    for label in ("B2", "G2"):
        alg = algebra(label, 2, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mods = irr0_census(alg)
        from gradedhecke.weyl import conjugacy_census
        assert len(mods) == len(conjugacy_census(alg.group))


def test_irr0_census_b2_k1_with_auto_catalog():
    # the auto catalog warns (higher discrete series may be missing from the
    # catalog as explicit strata), yet every class is realized by a summand
    # of some lower induction and the deduplicated count is still #classes
    alg = algebra("B2", 2, 1)
    with pytest.warns(UserWarning):
        cat = auto_catalog(alg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mods = irr0_census(alg, cat)
    assert len(mods) == 5
    for m in mods:
        assert is_irreducible(m) and is_tempered(m)


def test_irr0_census_empty_datum():
    # R empty: the census is the point module alone, one class
    alg = HeckeAlgebra(build_root_datum("empty", 1), [])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mods = irr0_census(alg)
    assert len(mods) == 1 and mods[0].dim == 1
    from gradedhecke.homology import verify_basis_theorem
    rep = verify_basis_theorem(alg)
    assert rep.passed and rep.class_count == 1


@functools.lru_cache(maxsize=None)
def shared_algebra(name):
    if name == "A1xA1-swap":
        d = build_root_datum("A1xA1", 2)
        return HeckeAlgebra(d, 1, [make_diagram_automorphism(
            d, "swap", [[0, 1], [1, 0]])])
    if name == "B2-khalf3":
        return HeckeAlgebra(build_root_datum("B2", 2), [Q(1, 2), 3])
    if name == "A1xA1xA1-rot":  # a Gamma of order 3
        d = build_root_datum("A1xA1xA1", 3)
        return HeckeAlgebra(d, 1, [
            make_diagram_automorphism(d, "rot", [[0, 0, 1], [1, 0, 0],
                                                 [0, 1, 0]]),
            make_diagram_automorphism(d, "rot2", [[0, 1, 0], [0, 0, 1],
                                                  [1, 0, 0]])])
    label, _, k = name.partition("-k")
    return HeckeAlgebra(build_root_datum(label, int(label[-1])),
                        [int(c) for c in k] if k else 1)


# (algebra, P, delta): principal series and Steinberg-on-a-face inductions
INDUCTIONS = (("A1", (), "trivial"), ("A2", (), "trivial"),
              ("A2", (0,), "steinberg"), ("B2", (), "trivial"),
              ("B2", (1,), "steinberg"), ("G2-k13", (), "trivial"),
              ("A1xA1-swap", (), "trivial"))
# 0 twice: lambda = 0 (Jordan blocks) is drawn often; 1/2 and 1 are
# non-generic on A1 (at 1/2 the module is a non-split extension)
COEFFS = st.lists(st.sampled_from((0, 0, Q(1, 2), 1, -1, 2, Q(1, 3))),
                  min_size=2, max_size=2)


def case_id(case):
    return f"{case[0]}-P{list(case[1])}-{case[2]}"


def induced(case, re, im=(0, 0), extended=True):
    """pi'(P, delta, lambda) with lambda = re + i*im in coordinates of t^P."""
    name, P, delta_name = case
    alg = shared_algebra(name)
    _, sub = parabolic_algebra(alg, P)
    delta = [m for m in one_dim_modules(sub) if m.name == delta_name][0]
    basis = t_upP_basis(alg.datum, P)

    def point(coeffs):
        return tuple(sum((Q(c) * b[i] for c, b in zip(coeffs, basis)), Q(0))
                     for i in range(alg.datum.ambient_dim))

    return induce(alg, InductionDatum(P=P, delta=delta, lam_re=point(re),
                                      lam_im=point(im)), extended=extended)


def outcome(f, module):
    try:
        return f(module)
    except ModuleError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", INDUCTIONS, ids=case_id)
@settings(derandomize=True, max_examples=8, deadline=None)
@given(COEFFS)
@example([0, 0])
@example([Q(1, 2), 0])
def test_weights_match_basis_lift_oracle(case, re):
    V = induced(case, re)
    assert outcome(weights, V) == outcome(basis_lift_weights, V)


@pytest.mark.parametrize("case", INDUCTIONS, ids=case_id)
@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.lists(st.sampled_from((0, Q(1, 2), 1, -1)), min_size=2, max_size=2),
       st.lists(st.sampled_from((0, 1, -1)), min_size=2, max_size=2))
@example([Q(1, 2), 0], [1, 0])
@example([0, 0], [0, Q(1, 2)])  # eigenvalue 0 of a complex matrix
@example([0, 0], [Q(1, 3), 2])
def test_complex_weights_match_basis_lift_oracle(case, re, im):
    V = induced(case, re, im)
    wts = outcome(weights, V)
    assert wts == outcome(basis_lift_weights, V)
    if not case[1]:
        # the principal series has the weights w(lambda), w in W', with
        # multiplicity: an oracle with no root finder
        lam_re, lam_im = V.meta["lam_re"], V.meta["lam_im"]
        orbit = Counter((mat_vec(w.matrix, lam_re), mat_vec(w.matrix, lam_im))
                        for w in V.algebra.group.elements)
        assert dict(wts) == orbit


@pytest.mark.parametrize("case", INDUCTIONS, ids=case_id)
@settings(derandomize=True, max_examples=6, deadline=None)
@given(COEFFS)
@example([0, 0])
@example([Q(1, 2), 0])
def test_decompose_matches_rebuild_oracle(case, re):
    V = induced(case, re)
    name = V.name
    # FinModule equality covers name, meta and every matrix
    assert outcome(decompose, V) == outcome(rebuild_decompose, V)
    assert V.name == name


# (algebra, P, delta, extended): Hom spaces from an induced source
HOM_CASES = (("A1", (), "trivial", True), ("A2", (), "trivial", True),
             ("B2", (0,), "steinberg", True), ("B2", (1,), "steinberg", True),
             ("G2-k13", (), "trivial", True),
             ("A1xA1-swap", (), "trivial", True),
             ("A1xA1-swap", (), "trivial", False))


def hom_case_id(case):
    return case_id(case) + ("" if case[3] else "-unextended")


def assert_hom_spaces_match_dense(V, W):
    """hom_space and every commutant `_split` seeds equal the dense solve,
    as lists; W is a second module over the same algebra as V."""
    seeded = []

    def recording_submodule(*args, **kwargs):
        sub = submodule(*args, **kwargs)
        seeded.append(sub)
        return sub

    assert hom_space(V, V) == dense_hom_space(V, V)
    assert hom_space(V, W) == dense_hom_space(V, W)
    with mock.patch.object(modules, "submodule", recording_submodule):
        try:
            leaves = modules._split(V)
        except ModuleError:  # not completely reducible (e.g. G2 at (1, 0))
            leaves = []
    assert all("commutant" in m.memo for m in seeded)
    for m in seeded:
        assert commutant(m) == dense_hom_space(m, m)
    for leaf in leaves:
        assert hom_space(V, leaf) == dense_hom_space(V, leaf)
    return seeded


def partner(case, V, re, im, w_index):
    """A second induced module: the principal series at w(lambda), which
    has a nonzero Hom from V, or the induction of case at re + i*im."""
    if case[1]:
        return induced(case[:3], re, im, extended=case[3])
    elements = V.algebra.group.elements
    w = elements[w_index % len(elements)]
    alg = shared_algebra(case[0])
    triv = one_dim_modules(parabolic_algebra(alg, ())[1])[0]
    return induce(alg, InductionDatum(
        P=(), delta=triv, lam_re=mat_vec(w.matrix, V.meta["lam_re"]),
        lam_im=mat_vec(w.matrix, V.meta["lam_im"])), extended=case[3])


@pytest.mark.parametrize("case", HOM_CASES, ids=hom_case_id)
@settings(derandomize=True, max_examples=5, deadline=None)
@given(COEFFS, COEFFS, st.integers(0, 11))
@example([0, 0], [0, 0], 1)
@example([Q(1, 2), 0], [-1, 0], 1)  # A1: the non-split extension
def test_hom_space_matches_dense_oracle(case, re, re_w, w_index):
    V = induced(case[:3], re, extended=case[3])
    assert_hom_spaces_match_dense(V, partner(case, V, re_w, (0, 0), w_index))


SMALL_HOM_CASES = tuple(c for c in HOM_CASES if c[0] != "G2-k13")


@pytest.mark.parametrize("case", SMALL_HOM_CASES, ids=hom_case_id)
@settings(derandomize=True, max_examples=4, deadline=None)
@given(st.lists(st.sampled_from((0, Q(1, 2), 1, -1)), min_size=2, max_size=2),
       st.lists(st.sampled_from((0, 1, -1)), min_size=2, max_size=2),
       st.integers(0, 7))
@example([0, 0], [1, 0], 1)
def test_complex_hom_space_matches_dense_oracle(case, re, im, w_index):
    V = induced(case[:3], re, im, extended=case[3])
    assert V.dim <= 8
    assert_hom_spaces_match_dense(V, partner(case, V, re, im, w_index))


def test_summands_of_split_inductions_reuse_the_parent_commutant():
    # both data split, so the seeded commutants above are not vacuous
    for case in (("B2", (1,), "steinberg", True),
                 ("A1xA1-swap", (), "trivial", True)):
        seeded = assert_hom_spaces_match_dense(
            induced(case[:3], [0, 0]), induced(case[:3], [0, 0]))
        assert len(seeded) == 2


def test_hom_space_refuses_modules_over_other_generators():
    # the same principal series over H and over H' = swap x| H: pairing
    # their generators in order would match `swap` against x_0
    V = induced(("A1xA1-swap", (), "trivial"), [0, 0], extended=True)
    U = induced(("A1xA1-swap", (), "trivial"), [0, 0], extended=False)
    for src, dst in ((U, V), (V, U), (decompose(U)[0][0], V)):
        with pytest.raises(ModuleError, match="different algebras"):
            hom_space(src, dst)


@pytest.mark.parametrize("label, k, limit", [("B2", 1, 8), ("G2", 1, 12)],
                         ids=["B2", "G2"])
def test_basis_theorem_hom_systems_stay_small(monkeypatch, label, k, limit):
    # an induced source solves on dim W * dim delta unknowns, and its
    # summands on none: the dense system had dim W * dim V (64 and 144)
    sizes = []
    solve = modules.intertwiner_matrices

    def counting(pairs, nrows, ncols):
        sizes.append(nrows * ncols)
        return solve(pairs, nrows, ncols)

    monkeypatch.setattr(modules, "intertwiner_matrices", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        verify_basis_theorem(HeckeAlgebra(build_root_datum(label, 2), k))
    assert sizes and max(sizes) <= limit


@pytest.mark.parametrize("label, k", [("B2", 1), ("G2", [1, 3])],
                         ids=["B2", "G2-k13"])
def test_basis_theorem_computes_each_invariant_once(monkeypatch, label, k):
    # count every memo fill by module content, so that a rebuilt copy of a
    # module computing an invariant again counts as a second computation
    fills = Counter()

    class CountingMemo(dict):
        def __init__(self, module):
            super().__init__()
            self.module = module

        def __setitem__(self, key, value):
            m = self.module
            fills[key, id(m.algebra), m.dim, tuple(sorted(m.refl.items())),
                  tuple(sorted(m.gammas.items())), m.coord] += 1
            super().__setitem__(key, value)

    init = FinModule.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.memo = CountingMemo(self)

    monkeypatch.setattr(FinModule, "__init__", counting_init)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        verify_basis_theorem(HeckeAlgebra(build_root_datum(label, 2), k))
    assert {key[0] for key in fills} == {"weights", "central_character",
                                         "restriction_character",
                                         "commutant"}
    assert max(fills.values()) == 1


def test_decompose_leaves_the_module_and_reuses_its_commutant():
    V = principal_series(algebra(k=0))
    dec = decompose(V)
    assert V.name == "pi'([],trivial,lam)" and V.memo["commutant"]
    assert sorted(m.name for m, _ in dec) == [V.name + "#0", V.name + "#1"]
    assert all(m.memo is not V.memo and m.meta is not V.meta for m, _ in dec)


def _scaled(c, m):
    return tuple(tuple((j, c * x) for j, x in row) for row in m)


PS_NAME = "\"pi'([],trivial,lam)\""
# (principal series, field to perturb, perturbation, the message verify
# raises): each breaks exactly one relation, every earlier check still holds
BROKEN_RELATIONS = (
    ("A2", "refl", lambda V: {0: _scaled(2, V.refl[0]), 1: V.refl[1]},
     f"s_0^2 != 1 in module {PS_NAME}"),
    ("A2", "refl", lambda V: {0: V.refl[0], 1: _scaled(-1, V.refl[1])},
     f"braid relation (0,1) fails in {PS_NAME}"),
    ("A1xA1-swap", "gammas", lambda V: {},
     "missing matrix for gamma 'swap'"),
    ("A1xA1-swap", "gammas", lambda V: {"swap": _scaled(2, V.gammas["swap"])},
     "gamma composition fails"),
    # an involution that commutes with s_0 instead of swapping it with s_1
    ("A1xA1-swap", "gammas", lambda V: {"swap": identity(V.dim)},
     "gamma conjugation of s_i fails"),
    ("A1xA1-swap", "coord", lambda V: (V.gammas["swap"], V.coord[1]),
     "coordinate matrices do not commute"),
    ("A1xA1-swap", "coord", lambda V: (_scaled(2, V.coord[0]), V.coord[1]),
     f"cross relation (x_0, alpha_0) fails in {PS_NAME}"),
    # swap times the longest element is an involution conjugating s_0 to
    # s_1, but it moves the coordinates by w_0 as well
    ("A1xA1-swap", "gammas",
     lambda V: {"swap": mat_mul(V.gammas["swap"],
                                mat_mul(V.refl[0], V.refl[1]))},
     "gamma cross relation fails"),
)


@pytest.mark.parametrize("name, field, perturb, message", BROKEN_RELATIONS,
                         ids=[c[3].split(" in ")[0] for c in BROKEN_RELATIONS])
def test_verify_rejects_each_broken_relation(name, field, perturb, message):
    V = induced((name, (), "trivial"), [1, Q(1, 2)])
    V.verify()
    matrices = {"refl": V.refl, "gammas": V.gammas, "coord": V.coord,
                field: perturb(V)}
    broken = FinModule(algebra=V.algebra, dim=V.dim, name=V.name,
                       meta=V.meta, induced=V.induced, **matrices)
    with pytest.raises(ModuleError) as err:
        broken.verify()
    assert str(err.value) == message


def _typed(m):
    return tuple(tuple((x, type(x)) for x in row) for row in m)


def _dense_typed(m, n):
    return _typed(densify(m, n))


# the INDUCTIONS, a non-integer k, a Gamma of order 3, and an A3 face
# where lambda_im pairs to 0 with some u^-1(x_k): its diagonal entries are
# Fractions, which a sum over earlier columns would turn into QIs
ORACLE_INDUCTIONS = INDUCTIONS + (
    ("B2-khalf3", (), "trivial"), ("B2-khalf3", (0,), "steinberg"),
    ("A1xA1xA1-rot", (), "trivial"), ("A3", (2,), "trivial"))


@pytest.mark.parametrize("extended", [True, False],
                         ids=["extended", "unextended"])
@pytest.mark.parametrize("re, im", [([0, 0], (0, 0)), ([1, Q(1, 2)], (0, 0)),
                                    ([Q(1, 2), 0], (Q(1, 3), 2)),
                                    ([0, 0], (1, 0))],
                         ids=["zero", "real", "complex", "imaginary"])
@pytest.mark.parametrize("case", ORACLE_INDUCTIONS, ids=case_id)
def test_induce_matches_multiply_oracle(case, re, im, extended):
    # the same matrices, entry by entry and scalar type by scalar type
    # (Fraction or QI), as normal-ordering h * u in H'
    V = induced(case, re, im, extended=extended)
    alg = shared_algebra(case[0])
    delta = [m for m in one_dim_modules(parabolic_algebra(alg, case[1])[1])
             if m.name == case[2]][0]
    refl, gammas, coord = multiply_induce(
        alg, InductionDatum(P=case[1], delta=delta, lam_re=V.meta["lam_re"],
                            lam_im=V.meta["lam_im"]), extended)
    n = V.dim
    assert {i: _dense_typed(m, n) for i, m in V.refl.items()} == \
        {i: _typed(m) for i, m in refl.items()}
    assert {g: _dense_typed(m, n) for g, m in V.gammas.items()} == \
        {g: _typed(m) for g, m in gammas.items()}
    assert tuple(_dense_typed(m, n) for m in V.coord) == \
        tuple(map(_typed, coord))


@pytest.mark.parametrize("name", ["G2", "A1xA1-swap"])
def test_basis_theorem_forms_no_hecke_product(monkeypatch, name):
    calls = []
    multiply = HeckeAlgebra.multiply

    def counting(self, *args, **kwargs):
        calls.append(args)
        return multiply(self, *args, **kwargs)

    monkeypatch.setattr(HeckeAlgebra, "multiply", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        verify_basis_theorem(shared_algebra(name))
    assert calls == []


# -- the presentation is enough: nothing above multiplies in H' --------------

def presentation(alg):
    """The `HeckeDatum` of alg's data: its datum, k and Gamma."""
    return HeckeDatum(alg.datum, alg.kmap, alg.group.gamma)


@pytest.mark.parametrize("extended", [True, False],
                         ids=["extended", "unextended"])
@pytest.mark.parametrize("case", INDUCTIONS, ids=case_id)
def test_induce_on_the_presentation_matches_the_algebra(case, extended):
    V = induced(case, [1, Q(1, 2)], (Q(1, 3), 2), extended=extended)
    pres = presentation(shared_algebra(case[0]))
    delta = [m for m in one_dim_modules(parabolic_algebra(pres, case[1])[1])
             if m.name == case[2]][0]
    W = induce(pres, InductionDatum(P=case[1], delta=delta,
                                    lam_re=V.meta["lam_re"],
                                    lam_im=V.meta["lam_im"]), extended)
    assert (W.refl, W.gammas, W.coord) == (V.refl, V.gammas, V.coord)
    assert type(W.algebra) is HeckeDatum


@pytest.mark.parametrize("name", ["A2", "A1xA1-swap"])
def test_basis_theorem_on_the_presentation_matches_the_algebra(name):
    alg = shared_algebra(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # no rank-2 catalog entries
        assert verify_basis_theorem(presentation(alg)) == \
            verify_basis_theorem(alg)


def test_unextended_keeps_its_type_and_parabolics_are_presentations():
    # the multiply_induce oracle multiplies in alg.unextended(), while a
    # module over H_P needs only H_P's presentation
    alg = shared_algebra("A1xA1-swap")
    pres = presentation(alg)
    for a in (alg, pres):
        sub = a.unextended()
        assert type(sub) is type(a) and len(sub.group.gamma) == 1
        assert sub.unextended() is sub and a.unextended() is sub
        assert (sub.datum, sub.kmap) == (a.datum, a.kmap)
        for P in ((), (0,), (1,), (0, 1)):
            parab, sub_p = parabolic_algebra(a, P)
            assert type(sub_p) is HeckeDatum
            assert parabolic_algebra(a, P)[1] is sub_p
            assert sub_p.kmap.values == tuple(a.kmap[i] for i in parab.P)
