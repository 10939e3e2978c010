"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is tolerance-free; each test prints a single pass line on
success (run with `pytest tests/test_acceptance.py -v -s`).
"""

import random
import warnings
from fractions import Fraction

import pytest

from oracles import (POINT_MODULE_TEMPLATES, brute_force_conjugacy_count,
                     brute_force_form_dimension, densify, fixed_basis,
                     matrix_molien, permutation_closure, reflect_covector,
                     stabilizer_class_count)

from gradedhecke.cli import run as cli_run
from gradedhecke.config import load_config
from gradedhecke.hecke import HeckeAlgebra, HeckeElement, k_sensitive_part
from gradedhecke.homology import (FinDimAlgebra, crossed_point_module,
                                  crossed_product_census, cyclic_homology,
                                  group_hh0, hochschild_homology,
                                  verify_basis_theorem,
                                  verify_mixed_identities)
from gradedhecke.linalg import identity, mat, mat_mul, rank, zero_vec
from gradedhecke.modules import (InductionDatum, central_character, commutant,
                                 decompose, hom_space, induce, one_dim_modules,
                                 parabolic_algebra, transport_module, weights)
from gradedhecke.poly import Poly
from gradedhecke.rootdata import build_root_datum, pairing
from gradedhecke.weyl import (elements_mapping_parabolic, enumerate_group,
                              make_diagram_automorphism)

Q = Fraction


def _swap_datum():
    d = build_root_datum("A1xA1", 2)
    return d, [make_diagram_automorphism(d, "swap", [[0, 1], [1, 0]])]


def _test_data():
    d_swap, gs = _swap_datum()
    return [
        (build_root_datum("A1", 1), []),
        (build_root_datum("A2", 2), []),
        (build_root_datum("B2", 2), []),
        (d_swap, gs),
    ]


def _random_element(alg, rng, max_terms=2, max_deg=3):
    terms = {}
    els = alg.group.elements
    for _ in range(rng.randint(1, max_terms)):
        w = els[rng.randrange(len(els))]
        p = Poly(alg.nvars)
        for _ in range(rng.randint(1, 2)):
            e = [0] * alg.nvars
            for _ in range(rng.randint(0, max_deg)):
                e[rng.randrange(alg.nvars)] += 1
            p = p + Poly(alg.nvars, {tuple(e): Q(rng.randint(-3, 3))})
        if not p.is_zero():
            terms[w] = terms.get(w, Poly(alg.nvars)) + p
    return HeckeElement(alg, terms)


def test_criterion_1_associativity():
    """200+ random triples, deg <= 3, exact equality across data and k."""
    rng = random.Random(20240)
    triples = 0
    for datum, gammas in _test_data():
        for k in (0, 1, Q(3, 2)):
            alg = HeckeAlgebra(datum, k, gammas)
            for _ in range(17):
                a, b, c = (_random_element(alg, rng) for _ in range(3))
                left = alg.multiply(alg.multiply(a, b), c)
                right = alg.multiply(a, alg.multiply(b, c))
                assert left == right, (datum.label, k)
                triples += 1
    assert triples >= 200
    print(f"criterion 1 PASS: associativity exact on {triples} triples")


def test_criterion_2_cross_relation_and_filtration():
    """Matrix cross relation in every constructed module; strict k-part drop."""
    rng = random.Random(77)
    module_count = 0
    for datum, gammas in _test_data():
        alg = HeckeAlgebra(datum, 1, gammas)
        roster = []
        _, sub = parabolic_algebra(alg, [])
        roster.extend(one_dim_modules(sub))
        d = datum.ambient_dim
        for P in ([], [0]):
            _, sub_p = parabolic_algebra(alg, P)
            for delta in one_dim_modules(sub_p):
                xi = InductionDatum(P=tuple(P), delta=delta,
                                    lam_re=zero_vec(d), lam_im=zero_vec(d))
                roster.append(induce(alg, xi, extended=True))
        for mod in roster:
            # cross-relation identity for every simple root and coordinate
            mod.verify()
            for i in range(mod.algebra.datum.rank):
                for t in range(mod.algebra.datum.ambient_dim):
                    x = tuple(Q(1 if j == t else 0)
                              for j in range(mod.algebra.datum.ambient_dim))
                    sx = reflect_covector(mod.algebra.datum, i, x)
                    lhs_a = densify(mat_mul(mod.covector_matrix(x),
                                            mod.refl[i]), mod.dim)
                    lhs_b = densify(mat_mul(mod.refl[i],
                                            mod.covector_matrix(sx)), mod.dim)
                    c = mod.algebra.kmap[i] * pairing(
                        x, mod.algebra.datum.simple_coroots[i])
                    for r in range(mod.dim):
                        for s in range(mod.dim):
                            diff = lhs_a[r][s] - lhs_b[r][s]
                            assert diff == (c if r == s else 0)
            module_count += 1
    pairs = 0
    alg = HeckeAlgebra(build_root_datum("B2", 2), Q(3, 2))
    while pairs < 100:
        a = _random_element(alg, rng, max_deg=2)
        b = _random_element(alg, rng, max_deg=2)
        if a.is_zero() or b.is_zero():
            continue
        prod = alg.multiply(a, b)
        assert prod.degree() <= a.degree() + b.degree()
        part = k_sensitive_part(a, b)
        if not part.is_zero():
            assert part.degree() < a.degree() + b.degree()
        pairs += 1
    print(f"criterion 2 PASS: cross relation exact in {module_count} modules;"
          f" filtration strict on {pairs} pairs")


def test_criterion_3_center():
    """center_basis elements up to degree 4 commute with all generators."""
    total = 0
    for label, amb in (("A1", 1), ("A2", 2), ("B2", 2)):
        alg = HeckeAlgebra(build_root_datum(label, amb), 1)
        basis = alg.center_basis(4)
        assert basis, label
        for z in basis:
            for g in alg.generators():
                assert alg.commutator(z, g).is_zero(), label
            total += 1
    print(f"criterion 3 PASS: {total} central elements commute exactly")


def test_criterion_4_homological_oracles():
    """HH of Q, M2, Q[S3]; bB + Bb = 0; HC of Q."""
    gq = FinDimAlgebra.ground_field()
    assert hochschild_homology(gq, 2) == [1, 0, 0]
    m2 = FinDimAlgebra.matrix_algebra(2)
    assert hochschild_homology(m2, 2) == [1, 0, 0]
    s3 = FinDimAlgebra.of_weyl_group(
        enumerate_group(build_root_datum("A2", 2)))
    assert hochschild_homology(s3, 1) == [3, 0]
    verify_mixed_identities(m2, 2)
    verify_mixed_identities(s3, 1)
    assert cyclic_homology(gq, 2) == [1, 0, 1]
    print("criterion 4 PASS: HH/HC oracles and b B + B b = 0 exact")


def test_criterion_5_theorem_1_2_census_a1():
    """A1 census series against a brute-force invariant-form count."""
    datum = build_root_datum("A1", 1)
    census = crossed_product_census(enumerate_group(datum), truncation=10)
    assert census.totals[0].coeffs == (2, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)
    assert census.totals[1].coeffs == (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0)
    assert (census.hp0, census.hp1) == (2, 0)
    # degrees beyond dim t vanish identically (forms on fixed spaces)
    from gradedhecke.linalg import restrict_matrix as _rm
    from gradedhecke.weyl import conjugacy_census as _cc
    for cls in _cc(enumerate_group(datum)).entries:
        mats = [_rm(z.matrix, fixed_basis(cls.rep, datum.ambient_dim))
                for z in cls.centralizer]
        for n in (2, 3):
            assert matrix_molien(mats, n, 10)[n].coeffs == (0,) * 11
    # independent brute-force count through degree 10, summed over classes
    from gradedhecke.linalg import restrict_matrix
    from gradedhecke.weyl import conjugacy_census
    group = enumerate_group(datum)
    wcensus = conjugacy_census(group)
    for n in (0, 1):
        for deg in range(11):
            total = 0
            for cls in wcensus.entries:
                basis = fixed_basis(cls.rep, datum.ambient_dim)
                mats = [restrict_matrix(z.matrix, basis)
                        for z in cls.centralizer]
                if n <= cls.fixed_dim:
                    total += brute_force_form_dimension(mats, deg, n)
            assert census.totals[n].coeffs[deg] == total, (n, deg)
    print("criterion 5 PASS: A1 census matches brute-force forms to degree 10;"
          " HP = (2, 0)")


def test_criterion_6_hp_k_independence():
    """HP_0 = HH_0(Q[W']) identical across k; equals brute-force classes."""
    d_swap, gs = _swap_datum()
    cases = [
        (build_root_datum("A1", 1), [], 2),
        (build_root_datum("A2", 2), [], 3),
        (build_root_datum("B2", 2), [], 5),
        (build_root_datum("G2", 2), [], 6),
        (d_swap, gs, 5),
    ]
    for datum, gammas, expected in cases:
        for k in (0, 1, 2, 5):
            alg = HeckeAlgebra(datum, k, gammas)
            assert group_hh0(alg.group) == expected, datum.label
        group = enumerate_group(datum, gammas)
        brute = brute_force_conjugacy_count([e.matrix for e in group])
        assert brute == expected, datum.label
    print("criterion 6 PASS: HP identical across k in {0,1,2,5}; class counts"
          " recomputed by brute force")


def test_criterion_7_point_module_constituents():
    """Constituent counts equal #classes(G_x) on 10 randomized instances."""
    rng = random.Random(2024)
    templates = POINT_MODULE_TEMPLATES
    checked = 0
    for perms, x0 in templates:
        n = len(perms[0])
        relabel = list(range(n))
        rng.shuffle(relabel)
        inv = [relabel.index(i) for i in range(n)]
        moved = [tuple(relabel[p[inv[i]]] for i in range(n)) for p in perms]
        x = relabel[x0]
        rep = crossed_point_module(moved, x)
        # independent class count of the stabilizer, recomputed here
        classes = stabilizer_class_count(permutation_closure(moved), x)
        assert rep.constituents == classes == rep.stabilizer_classes
        assert rep.match
        checked += 1
    assert checked == 10
    print("criterion 7 PASS: 10 randomized point modules match stabilizer"
          " class counts")


def test_criterion_8_basis_theorem():
    """verify_basis_theorem for A1 (k in {0,1,2}) and A2 (k in {0,1})."""
    hand_checked = False
    for label, amb, ks in (("A1", 1, (0, 1, 2)), ("A2", 2, (0, 1))):
        for k in ks:
            alg = HeckeAlgebra(build_root_datum(label, amb), k)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rep = verify_basis_theorem(alg)
            assert rep.passed, (label, k)
            assert rep.irr0_count == rep.class_count == rep.hp0
            assert rep.matrix_rank == rep.class_count
            if label == "A1" and k == 1:
                # pinned literal matrix, rows (St, pi(0)), class order (e, s)
                assert rep.trace_matrix == ((Q(1), Q(-1)), (Q(2), Q(0)))
                # cross-check against hand-computed 2x2 module matrices:
                # on basis (1 (x) 1, s (x) 1): rho(s) = [[0,1],[1,0]],
                # rho(x1) = [[0,1],[0,0]] (alpha = 2 x1 acts by [[0,2],[0,0]])
                _, sub = parabolic_algebra(alg, [])
                triv = one_dim_modules(sub)[0]
                V = induce(alg, InductionDatum(P=(), delta=triv,
                                               lam_re=(Q(0),),
                                               lam_im=(Q(0),)),
                           extended=True)
                assert V.refl[0] == mat([[0, 1], [1, 0]])
                assert V.coord[0] == mat([[0, 1], [0, 0]])
                st = [m for m in one_dim_modules(alg)
                      if m.name == "steinberg"][0]
                assert st.refl[0] == mat([[-1]])
                hand_checked = True
    assert hand_checked
    print("criterion 8 PASS: basis theorem verified; A1 k=1 matrix"
          " [[1,-1],[2,0]] cross-checked by hand")


def test_criterion_9_intertwiners_at_unitary_data():
    """dim End = sum of multiplicities squared; W'_xi intertwiners span."""
    for label, amb in (("A1", 1), ("A2", 2)):
        alg = HeckeAlgebra(build_root_datum(label, amb), 1)
        d = alg.datum.ambient_dim
        data = []
        _, sub_empty = parabolic_algebra(alg, [])
        data.append(((), one_dim_modules(sub_empty)[0]))
        _, sub_a = parabolic_algebra(alg, [0])
        st = [m for m in one_dim_modules(sub_a) if m.name == "steinberg"][0]
        data.append(((0,), st))
        for P, delta in data:
            xi = InductionDatum(P=P, delta=delta, lam_re=zero_vec(d),
                                lam_im=zero_vec(d))
            V = induce(alg, xi, extended=True)
            end = hom_space(V, V)
            dec = decompose(V)
            assert len(end) == sum(c * c for _, c in dec), (label, P)
            # every commutant element lies in the span of intertwiners
            # transported from W'_xi (exact rank test)
            transported = []
            for w in alg.group.elements:
                try:
                    from gradedhecke.weyl import association_action
                    Qp = association_action(alg.group, w, P)
                except Exception:
                    continue
                _, sub_q = parabolic_algebra(alg, Qp)
                moved = transport_module(alg, P, delta, w, Qp, sub_q)
                eta = InductionDatum(P=Qp, delta=moved, lam_re=zero_vec(d),
                                     lam_im=zero_vec(d))
                W = induce(alg, eta, extended=True)
                homs = hom_space(V, W)
                backs = hom_space(W, V)
                if not homs:
                    continue  # w not in W'_xi
                # pick an invertible transport back (exists by invertibility
                # of the intertwiners at unitary data)
                back = next((b for b in backs if rank(b) == len(b)), None)
                assert back is not None, (label, P)
                for h in homs:
                    transported.append(mat_mul(back, h))
            flat_end = mat([{i * V.dim + j: x for i, row in enumerate(m)
                             for j, x in row} for m in end])
            flat_tr = mat([{i * V.dim + j: x for i, row in enumerate(m)
                            for j, x in row} for m in transported])
            assert rank(flat_tr) == rank(flat_end) == len(end), (label, P)
    print("criterion 9 PASS: intertwiner dimensions match multiplicities;"
          " W'_xi transports span the commutant")


def test_criterion_10_determinism(tmp_path):
    """Two consecutive verify-basis runs produce byte-identical reports."""
    cfg_text = 'datum { type="A1", ambient=1, k={alpha1=1} }\n'
    cfg = load_config(cfg_text)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli_run("verify-basis", cfg, out_dir=str(out1)) == 0
        assert cli_run("verify-basis", cfg, out_dir=str(out2)) == 0
    j1 = (out1 / "verify-basis.json").read_bytes()
    j2 = (out2 / "verify-basis.json").read_bytes()
    assert j1 == j2
    c1 = (out1 / "verify-basis.csv").read_bytes()
    c2 = (out2 / "verify-basis.csv").read_bytes()
    assert c1 == c2
    print("criterion 10 PASS: byte-identical verify-basis reports")
