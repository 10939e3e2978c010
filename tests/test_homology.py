import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (POINT_MODULE_TEMPLATES, compose_perms,
                     dense_connes_boundary, dense_hochschild_boundary,
                     dense_mixed_total_boundary, densify,
                     permutation_closure, rank_group_hh0,
                     stabilizer_class_count)

from gradedhecke import homology, modules
from gradedhecke.config import load_config
from gradedhecke.hecke import HeckeAlgebra
from gradedhecke.homology import (FinDimAlgebra, HomologyError,
                                  SizeBoundExceeded, crossed_point_module,
                                  crossed_product_census, cyclic_homology,
                                  hochschild_boundary, hochschild_homology,
                                  connes_boundary,
                                  verify_basis_theorem, verify_mixed_identities)
from gradedhecke.linalg import intertwiner_matrices, mat, rank
from gradedhecke.rootdata import build_root_datum
from gradedhecke.weyl import (ConjugacyClassCensus, enumerate_group,
                              make_diagram_automorphism, permutation_bfs)

Q = Fraction


def cyclic_group_algebra(n):
    return FinDimAlgebra.group_algebra(list(range(n)),
                                       lambda a, b: (a + b) % n,
                                       label=f"Q[Z{n}]")


def s3_algebra():
    return FinDimAlgebra.of_weyl_group(
        enumerate_group(build_root_datum("A2", 2)))


def test_structure_constant_validation():
    one = ((((0, Q(1)),),),)  # e0 e0 = e0
    for dim, table, unit, message in (
            (1, (((),),), (Q(1),), "unit laws fail"),  # e0 e0 = 0
            (1, one, (Q(1), Q(0)), "unit has 2 coordinates, not 1"),
            (1, one, (), "unit has 0 coordinates, not 1"),
            (1, ((((1, Q(1)),),),), (Q(1),), "index out of range"),
            (1, ((((-1, Q(1)),),),), (Q(1),), "index out of range"),
            (2, one, (Q(1), Q(0)), "wrong shape"),  # 1 row for dim 2
            (1, ((((0, Q(1)),), ((0, Q(1)),)),), (Q(1),), "wrong shape")):
        with pytest.raises(HomologyError, match=message):
            FinDimAlgebra(dim=dim, table=table, unit=unit)


def test_hh_ground_field():
    assert hochschild_homology(FinDimAlgebra.ground_field(), 2) == [1, 0, 0]


def test_hh_matrix_algebra():
    assert hochschild_homology(FinDimAlgebra.matrix_algebra(2), 2) == [1, 0, 0]


def test_hh_group_algebras_count_classes():
    s2 = cyclic_group_algebra(2)
    assert hochschild_homology(s2, 1) == [2, 0]
    z4 = cyclic_group_algebra(4)
    assert hochschild_homology(z4, 1)[0] == 4
    assert hochschild_homology(s3_algebra(), 1) == [3, 0]


def test_hc_ground_field():
    # periodicity of the point: HC = (1, 0, 1)
    assert cyclic_homology(FinDimAlgebra.ground_field(), 2) == [1, 0, 1]


def test_hc0_equals_hh0():
    for a in (FinDimAlgebra.ground_field(), cyclic_group_algebra(2),
              FinDimAlgebra.matrix_algebra(2)):
        assert cyclic_homology(a, 0)[0] == hochschild_homology(a, 0)[0]


def test_mixed_identities_exact():
    for a in (cyclic_group_algebra(2), FinDimAlgebra.matrix_algebra(2)):
        verify_mixed_identities(a, 2)


@pytest.mark.parametrize("a", [FinDimAlgebra.matrix_algebra(2),
                               cyclic_group_algebra(2)],
                         ids=["M2(Q)", "Q[C2]"])
def test_low_degrees_of_the_mixed_identities(a):
    # below degree 0 there is nothing to count, as in hochschild_homology;
    # b_0 = 0, so degree 0 checks b_1 B_0 = 0 alone, and a corrupt b_1 shows
    assert cyclic_homology(a, -1) == hochschild_homology(a, -1) == []
    verify_mixed_identities(a, 0)
    b1 = hochschild_boundary(a, 1)
    with pytest.raises(HomologyError, match=r"^b B \+ B b != 0$"):
        verify_mixed_identities(a, 0, b={1: _bump(b1, 0, 0)})
    with pytest.raises(HomologyError, match="start at degree 0, not -1"):
        verify_mixed_identities(a, -1)


def test_b_squared_zero():
    a = cyclic_group_algebra(3)
    rng = random.Random(3)
    b2 = hochschild_boundary(a, 2)
    b1 = hochschild_boundary(a, 1)
    for _ in range(5):
        chain = [Q(rng.randint(-3, 3)) for _ in range(a.dim ** 3)]
        bx = [sum(v * chain[c] for c, v in row) for row in b2]
        bbx = [sum(v * bx[c] for c, v in row) for row in b1]
        assert len(bx) == a.dim ** 2 and len(bbx) == a.dim
        assert not any(bbx)


def test_mixed_identities_detect_corrupt_boundary(monkeypatch):
    # the zero-skipping chain application must still expose a wrong b_n;
    # scaling every B alike would go unnoticed, so corrupt b_2 itself
    exact = hochschild_boundary

    def corrupt(algebra, n):
        b = exact(algebra, n)
        return tuple(tuple((c, 2 * x) for c, x in row) for row in b) \
            if n == 2 else b

    monkeypatch.setattr(homology, "hochschild_boundary", corrupt)
    with pytest.raises(HomologyError):
        verify_mixed_identities(FinDimAlgebra.matrix_algebra(2), 2)


def _bump(m, r, c):
    """m with 1 added to its entry (r, c)."""
    rows = [dict(row) for row in m]
    rows[r][c] = rows[r].get(c, 0) + 1
    return tuple(tuple((j, x) for j, x in sorted(row.items()) if x)
                 for row in rows)


def test_mixed_identities_detect_every_corrupt_entry(monkeypatch):
    # on Q[C2] at n = 2, adding 1 at (r, c) of b_3 adds e_r (x) (row c of
    # B_2) to b_3 B_2, and at (r, c) of B_2 adds (column r of b_3) (x) e_c:
    # the check must fail exactly when that is nonzero.  B_2 reaches 12 of
    # the 16 columns of b_3 (not 1 (x) 1 (x) a (x) a'), and 12 columns of b_3
    # are nonzero, so every column of B_2 has a corruption that shows
    a = cyclic_group_algebra(2)
    b = {m: hochschild_boundary(a, m) for m in (1, 2, 3)}
    big_b2, exact = connes_boundary(a, 2), connes_boundary
    b3_cols = {j for row in b[3] for j, _ in row}
    assert sum(map(bool, big_b2)) == len(b3_cols) == 12

    def caught(bs=b):
        try:
            verify_mixed_identities(a, 2, b=bs)
        except HomologyError as err:
            assert str(err) == "b B + B b != 0"
            return True
        return False

    assert not caught()
    for c in range(a.dim ** 4):
        for r in range(a.dim ** 3):
            assert caught({**b, 3: _bump(b[3], r, c)}) == bool(big_b2[c])
    for c in range(a.dim ** 3):
        for r in range(a.dim ** 4):
            monkeypatch.setattr(
                homology, "connes_boundary",
                lambda alg, m: _bump(exact(alg, m), r, c) if m == 2
                else exact(alg, m))
            assert caught() == (r in b3_cols)


def test_s3_bar_complex_oracles():
    # Q[S3] is semisimple with three classes: HH = HC_0 = 3, the rest vanish
    s3 = s3_algebra()
    assert hochschild_homology(s3, 2) == [3, 0, 0]
    assert cyclic_homology(s3, 1) == [3, 0]
    # 216 = dim A^(x)3 = rank b_3 + rank b_2 + HH_2 with rank b_2 = 36 - 3
    assert rank(hochschild_boundary(s3, 3)) == 183


def test_size_bound():
    with pytest.raises(SizeBoundExceeded):
        hochschild_homology(FinDimAlgebra.matrix_algebra(2), 4, bound=100)


def test_size_bound_covers_largest_boundary_matrix():
    # HH_0..HH_2 of M_2(Q) builds b_3, a 4^3 x 4^4 matrix of 16,384 entries
    # on a chain space of only 256 dimensions
    with pytest.raises(SizeBoundExceeded, match="bound 1000"):
        hochschild_homology(FinDimAlgebra.matrix_algebra(2), 2, bound=1000)
    assert hochschild_homology(FinDimAlgebra.matrix_algebra(2), 2,
                               bound=4 ** 7) == [1, 0, 0]


def test_size_bound_covers_largest_built_space():
    s3 = s3_algebra()
    # HH_0..HH_2 builds b_3 on A^(x)4, 1296 columns
    with pytest.raises(SizeBoundExceeded):
        hochschild_homology(s3, 2, bound=216)
    # HC_0 checks the mixed identities in degree 1, building b_2 on A^(x)3
    with pytest.raises(SizeBoundExceeded):
        cyclic_homology(s3, 0, bound=6)


def test_crossed_census_a1():
    census = crossed_product_census(
        enumerate_group(build_root_datum("A1", 1)), truncation=12)
    assert census.totals[0].coeffs == (2, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)
    assert census.totals[1].coeffs == (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0)
    assert (census.hp0, census.hp1) == (2, 0)
    assert len(census.entries) == 2
    # identity class contributes Q[alpha^2]; point class only constants
    assert census.entries[0].series[0].coeffs[:4] == (1, 0, 1, 0)
    assert census.entries[1].series[0].coeffs[:4] == (1, 0, 0, 0)
    assert census.entries[1].series[1].coeffs == (0,) * 13


def test_crossed_census_vanishing_above_dim():
    for label, amb in (("A1", 1), ("A2", 2), ("B2", 2)):
        census = crossed_product_census(
            enumerate_group(build_root_datum(label, amb)), truncation=8)
        for entry in census.entries:
            for n in range(entry.fixed_dim + 1, amb + 1):
                assert entry.series[n].coeffs == (0,) * 9
        assert census.totals[0].coeffs[0] == census.class_count


def test_crossed_census_empty_datum_with_gamma():
    # R empty with nontrivial Gamma: the census is driven by Gamma alone
    d = build_root_datum("empty", 2)
    g = make_diagram_automorphism(d, "swap", [[0, 1], [1, 0]])
    census = crossed_product_census(enumerate_group(d, [g]), truncation=6)
    assert census.class_count == 2
    assert (census.hp0, census.hp1) == (2, 0)
    # identity class: swap-invariants 1; x1+x2; {x1^2+x2^2, x1 x2};
    # swap class: the fixed line contributes 1; u; u^2
    assert census.totals[0].coeffs[:3] == (2, 2, 3)


@pytest.mark.parametrize("label,amb,gammas,expect", [
    ("A1", 1, False, (2, 0)), ("A2", 2, False, (3, 0)),
    ("B2", 2, False, (5, 0)), ("G2", 2, False, (6, 0)),
    ("A1xA1", 2, True, (5, 0)),
])
def test_hp_census(label, amb, gammas, expect):
    d = build_root_datum(label, amb)
    gs = [make_diagram_automorphism(d, "swap", [[0, 1], [1, 0]])] \
        if gammas else []
    census = crossed_product_census(enumerate_group(d, gs), truncation=2)
    assert (census.hp0, census.hp1) == expect


@pytest.mark.parametrize("label,amb,gammas,expect", [
    ("A1", 1, False, 2), ("A2", 2, False, 3), ("B2", 2, False, 5),
    ("G2", 2, False, 6), ("A3", 3, False, 5), ("A1xA1", 2, True, 5),
    ("empty", 2, True, 2),
])
def test_group_hh0_against_bar_boundary(label, amb, gammas, expect):
    # corank of the full b_1 : Q[W']^(x2) -> Q[W'] on the literal bar complex
    d = build_root_datum(label, amb)
    gs = [make_diagram_automorphism(d, "swap", [[0, 1], [1, 0]])] \
        if gammas else []
    group = enumerate_group(d, gs)
    assert homology.group_hh0(group) == expect == len(group.census)
    if len(group) <= 24:
        algebra = FinDimAlgebra.of_weyl_group(group)
        assert len(group) - rank(hochschild_boundary(algebra, 1)) == expect


BENCH_CONFIGS = sorted(
    (Path(__file__).resolve().parents[1] / "bench" / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", BENCH_CONFIGS, ids=lambda p: p.stem)
def test_group_hh0_components_match_rank_oracle(path):
    # the union-find count against elimination on the same rows
    group = load_config(path.read_text(encoding="utf-8")).build_algebra().group
    assert homology.group_hh0(group) == rank_group_hh0(group)


def _drop_last_class(monkeypatch, group):
    census = group.census
    monkeypatch.setattr(group, "_census",
                        ConjugacyClassCensus(census.group,
                                             census.entries[:-1]))


def test_hp0_negative_control_crossed_census(monkeypatch):
    group = enumerate_group(build_root_datum("B2", 2))
    _drop_last_class(monkeypatch, group)
    with pytest.raises(HomologyError, match="HP0 = #classes"):
        crossed_product_census(group, truncation=4)


def test_hp0_negative_control_basis_theorem(monkeypatch):
    # a census and an Irr_0 list that both lose one class agree with each
    # other; only the computed HP_0 sees the loss
    alg = HeckeAlgebra(build_root_datum("B2", 2), 1)
    _drop_last_class(monkeypatch, alg.group)
    census = modules.irr0_census
    monkeypatch.setattr(modules, "irr0_census",
                        lambda *a, **kw: census(*a, **kw)[:-1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = verify_basis_theorem(alg)
    assert (rep.class_count, rep.irr0_count, rep.hp0) == (4, 4, 5)
    assert not rep.counts_match and not rep.passed
    assert homology.group_hh0(alg.group) == 5


def test_point_module_examples():
    s2 = [(1, 0)]
    rep = crossed_point_module(s2, 0)
    assert rep.stabilizer_order == 1 and rep.constituents == 1 and rep.match
    s2_fix = [(1, 0, 2)]
    rep = crossed_point_module(s2_fix, 2)
    assert rep.stabilizer_classes == 2 and rep.constituents == 2 and rep.match
    s2_two_orbits = [(1, 0, 3, 2)]
    rep = crossed_point_module(s2_two_orbits, 2)
    assert rep.orbit == (2, 3) and rep.constituents == 1 and rep.match


def test_point_module_z4_rationality():
    # Z4 fixed point: four complex constituents although only three exist
    # over Q; the center-of-commutant count sees the complex answer
    z4 = [(1, 2, 3, 0, 4)]
    rep = crossed_point_module(z4, 4)
    assert rep.stabilizer_order == 4
    assert rep.stabilizer_classes == 4
    assert rep.constituents == 4 and rep.match


@pytest.mark.parametrize("perms,x,order,classes", [
    ([(1, 2, 3, 0), (1, 0, 2, 3)], 0, 6, 3),        # S4 on 4 points, G_x = S3
    ([(1, 2, 3, 0, 4), (1, 0, 2, 3, 4)], 4, 24, 5),  # S4 fixing x
    ([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], 0, 24, 5),  # S5 on 5 points
])
def test_point_module_symmetric_groups(perms, x, order, classes):
    rep = crossed_point_module(perms, x)
    assert rep.stabilizer_order == order
    assert rep.stabilizer_classes == rep.constituents == classes
    assert rep.match


@pytest.mark.parametrize("perms,x,classes", [
    ([(1, 2, 3, 0), (1, 0, 2, 3)], 0, 3),  # S4 fixing a point: G_x = S3
    # S3 x S3 on two orbits fixing 6: a base needs points of both orbits
    ([(1, 2, 0, 3, 4, 5, 6), (1, 0, 2, 3, 4, 5, 6), (0, 1, 2, 4, 5, 3, 6),
      (0, 1, 2, 4, 3, 5, 6)], 6, 9),
])
def test_point_module_counts_nonabelian_stabilizer_classes(perms, x, classes):
    # commuting pairs of G_x are found on a base of G_x, not on all points;
    # the oracle counts conjugation orbits on whole permutations
    rep = crossed_point_module(perms, x)
    assert rep.stabilizer_classes == rep.constituents == classes == \
        stabilizer_class_count(permutation_closure(perms), x)
    assert rep.match


@pytest.mark.parametrize("perms,x,message", [
    ([], 0, "at least one generator"),
    ([(1, 0), (1, 2, 0)], 0, r"\(1, 2, 0\) is not a permutation"),
    ([(0, 0, 1)], 0, r"\(0, 0, 1\) is not a permutation of range\(3\)"),
    ([(1, 0)], 2, r"range\(2\)"),
    ([(1, 0)], -1, r"range\(2\)"),
])
def test_point_module_rejects_bad_input(perms, x, message):
    with pytest.raises(HomologyError, match=message):
        crossed_point_module(perms, x)


def test_point_module_bound_counts_fibre_block_unknowns():
    # S4 fixing x: |G| * |G_x| = 24 * 24 = 576 unknowns
    s4_fix = [(1, 2, 3, 0, 4), (1, 0, 2, 3, 4)]
    with pytest.raises(HomologyError, match="bound of 570 fibre-block"):
        crossed_point_module(s4_fix, 4, bound=57)
    assert crossed_point_module(s4_fix, 4, bound=58).match
    # |G| = 173 is the largest order `|G| ** 2 <= bound * 10` admitted at the
    # default bound; Z173 fixing x has |G| * |G_x| = 173 ** 2 unknowns too
    z173_fix = [tuple(range(1, 173)) + (0, 173)]
    rep = crossed_point_module(z173_fix, 173)
    assert rep.stabilizer_classes == rep.constituents == 173 and rep.match
    # a group larger than the bound stops the BFS with the same error
    with pytest.raises(HomologyError, match="bound of 30000 fibre-block"):
        crossed_point_module([tuple(range(1, 9)) + (0,), (1, 0) + tuple(
            range(2, 9))], 0)


@pytest.mark.parametrize("perms,x", POINT_MODULE_TEMPLATES)
def test_point_hom_cells_match_dense_solve(perms, x):
    """Hom(I_x, I_y) from the cell classes against the nullity of the dense
    intertwiner solve on the permutation and diagonal matrices, every y."""
    group = permutation_closure(perms)
    at = {g: i for i, g in enumerate(group)}
    d = len(group)

    def point_matrices(point):
        mats = []
        for h in perms:
            m = [[Q(0)] * d for _ in range(d)]
            for g in group:
                m[at[compose_perms(h, g)]][at[g]] = Q(1)
            mats.append(m)
        mats.append([[Q(g[point] if i == j else 0) for j, g in
                      enumerate(group)] for i in range(d)])
        return mats

    elements, _, right = permutation_bfs(perms, 10 ** 4)
    assert sorted(elements) == group
    source = point_matrices(x)
    for y in range(len(perms[0])):
        dense = intertwiner_matrices(
            [(mat(a), mat(b)) for a, b in zip(point_matrices(y), source)],
            d, d)
        assert homology._hom_cells(elements, right, x, y)[1] == len(dense)


def test_verify_basis_a1():
    alg = HeckeAlgebra(build_root_datum("A1", 1), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = verify_basis_theorem(alg)
    assert rep.passed
    assert rep.trace_matrix == ((Q(1), Q(-1)), (Q(2), Q(0)))
    assert rep.matrix_rank == 2 == rep.class_count == rep.hp0


def test_verify_basis_a2():
    for k in (0, 1):
        alg = HeckeAlgebra(build_root_datum("A2", 2), k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = verify_basis_theorem(alg)
        assert rep.passed and rep.matrix_rank == 3


def test_verify_basis_k0_character_table():
    # at k = 0 the trace matrix is the character table of W': full rank by
    # orthogonality of irreducible characters
    alg = HeckeAlgebra(build_root_datum("A2", 2), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = verify_basis_theorem(alg)
    rows = sorted(rep.trace_matrix)
    assert rows == [(Q(1), Q(-1), Q(1)), (Q(1), Q(1), Q(1)),
                    (Q(2), Q(0), Q(-1))]


def test_verify_basis_falsification_flag():
    # an incomplete catalog (missing the Steinberg stratum) must trip the
    # falsification flag rather than being absorbed
    from gradedhecke.modules import DSCatalogEntry, one_dim_modules, \
        parabolic_algebra
    alg = HeckeAlgebra(build_root_datum("A1", 1), 1)
    _, sub = parabolic_algebra(alg, [])
    only_empty = [DSCatalogEntry(P=(), module=one_dim_modules(sub)[0])]
    rep = verify_basis_theorem(alg, catalog=only_empty)
    assert not rep.passed
    assert rep.irr0_count == 1 and rep.class_count == 2
    assert not rep.counts_match


# ---------------------------------------------------------------------------
# Sparse boundary columns against the dense matrices they replaced.
# ---------------------------------------------------------------------------

def rescaled(algebra, scales, label):
    """The same algebra in the basis s_i e_i: e'_i e'_j has coordinates
    s_i s_j c_ijk / s_k, and the unit has u_k / s_k."""
    table = tuple(tuple(tuple((k, scales[i] * scales[j] * c / scales[k])
                              for k, c in cell)
                        for j, cell in enumerate(row))
                  for i, row in enumerate(algebra.table))
    unit = tuple(u / s for u, s in zip(algebra.unit, scales))
    return FinDimAlgebra(dim=algebra.dim, table=table, unit=unit,
                         label=label)


ALGEBRAS = {
    "Q": FinDimAlgebra.ground_field(),
    "Q[C2]": cyclic_group_algebra(2),
    "Q[C3]": cyclic_group_algebra(3),
    "M2(Q)": FinDimAlgebra.matrix_algebra(2),
    "Q[S3]": s3_algebra(),
    # 1, g/2, g^2/3: e1 e1 = 3/4 e2, e1 e2 = 1/6 e0, e2 e2 = 2/9 e1
    "Q[C3] scaled": rescaled(cyclic_group_algebra(3),
                             (Q(1), Q(1, 2), Q(1, 3)), "Q[C3] scaled"),
}

# name -> (sparse, dense oracle, rows, columns) for an algebra of dim d
BOUNDARIES = {
    "b": (hochschild_boundary, dense_hochschild_boundary,
          lambda d, n: d ** n, lambda d, n: d ** (n + 1)),
    "B": (connes_boundary, dense_connes_boundary,
          lambda d, n: d ** (n + 2), lambda d, n: d ** (n + 1)),
    "b+B": (homology._mixed_total_boundary, dense_mixed_total_boundary,
            lambda d, n: sum(d ** (n - 2 * j) for j in range((n + 1) // 2)),
            lambda d, n: sum(d ** (n + 1 - 2 * j)
                             for j in range(n // 2 + 1))),
}


def assert_columns_match_dense(algebra, kind, n):
    sparse, dense, nrows, ncols = BOUNDARIES[kind]
    d = algebra.dim
    rows, want = sparse(algebra, n), dense(algebra, n)
    assert len(rows) == nrows(d, n) == len(want)
    assert all(0 <= c < ncols(d, n) and v for row in rows for c, v in row)
    assert densify(rows, ncols(d, n)) == tuple(map(tuple, want))


CASES = [(name, kind, n) for name, a in ALGEBRAS.items()
         for kind, (_, _, rows, cols) in BOUNDARIES.items()
         for n in (1, 2, 3)
         if rows(a.dim, n) * cols(a.dim, n) <= homology.SIZE_BOUND]


def test_boundary_cases_cover_every_algebra_and_degree():
    assert {name for name, _, _ in CASES} == set(ALGEBRAS)
    assert {(kind, n) for _, kind, n in CASES} == \
        {(k, n) for k in BOUNDARIES for n in (1, 2, 3)}


@pytest.mark.parametrize("name,kind,n", CASES)
def test_boundary_columns_equal_dense_oracle(name, kind, n):
    assert_columns_match_dense(ALGEBRAS[name], kind, n)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(["Q", "Q[C2]", "Q[C3]", "M2(Q)"]),
       st.lists(st.builds(Q, st.integers(1, 9) | st.integers(-9, -1),
                          st.integers(1, 9)), min_size=4, max_size=4),
       st.sampled_from(sorted(BOUNDARIES)), st.integers(1, 3))
def test_boundary_columns_in_rescaled_bases(name, scales, kind, n):
    # rational structure constants of every shape: the same algebra in a
    # random rescaled basis
    base = ALGEBRAS[name]
    algebra = rescaled(base, scales[:base.dim], name)
    _, _, rows, cols = BOUNDARIES[kind]
    assume(rows(algebra.dim, n) * cols(algebra.dim, n) <= 10 ** 5)
    assert_columns_match_dense(algebra, kind, n)


@pytest.mark.parametrize("name", ["Q", "M2(Q)", "Q[S3]"])
def test_integral_tables_give_integer_boundaries(name):
    # the constructors store 1 and the unit as int, and the boundaries keep
    # that type, so `rank` runs fraction-free with nothing to convert
    a = ALGEBRAS[name]
    for kind, n in (("b", 1), ("b", 2), ("b", 3), ("B", 1), ("B", 2)):
        sparse, dense, nrows, ncols = BOUNDARIES[kind]
        if nrows(a.dim, n) * ncols(a.dim, n) > homology.SIZE_BOUND:
            continue
        rows = sparse(a, n)
        assert rows == mat(dense(a, n))
        assert all(type(x) is int for row in rows for _, x in row)


def test_rescaled_algebra_has_the_same_homology():
    a = ALGEBRAS["Q[C3] scaled"]
    assert hochschild_homology(a, 2) == [3, 0, 0]
    assert cyclic_homology(a, 2) == [3, 0, 3]
    verify_mixed_identities(a, 2)
