import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedhecke import homology, linalg, poly, weyl
from gradedhecke.homology import crossed_product_census
from gradedhecke.linalg import inverse, restrict_matrix, transpose
from gradedhecke.poly import (PoincareSeries, Poly, act, divided_difference,
                              invariant_polys, monomials_of_degree,
                              parse_poly, reynolds, sum_series)
from gradedhecke.rootdata import build_root_datum
from gradedhecke.weyl import enumerate_group, make_diagram_automorphism

Q = Fraction


def alpha_poly(datum, i):
    return Poly.from_covector(datum.simple_roots[i])


def random_poly(rng, nvars, max_deg=3, terms=3):
    p = Poly(nvars)
    for _ in range(terms):
        e = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(nvars)] += 1
        p = p + Poly(nvars, {tuple(e): Q(rng.randint(-4, 4))})
    return p


def test_act_examples():
    d = build_root_datum("A2", 2)
    group = enumerate_group(d)
    a, b = alpha_poly(d, 0), alpha_poly(d, 1)
    s_a = group.simple(0)
    assert act(s_a, a) == -a
    one = Poly.constant(2, 1)
    assert act(s_a, one) == one
    assert act(s_a, b) == a + b


def test_act_is_group_action():
    d = build_root_datum("B2", 2)
    group = enumerate_group(d)
    rng = random.Random(9)
    els = list(group.elements)
    for _ in range(100):
        w1 = els[rng.randrange(len(els))]
        w2 = els[rng.randrange(len(els))]
        p = random_poly(rng, 2)
        assert act(group.mult(w1, w2), p) == act(w1, act(w2, p))


def test_divided_difference_examples():
    d = build_root_datum("A1", 1)
    a = alpha_poly(d, 0)
    assert divided_difference(d, 0, a) == Poly.constant(1, 2)
    assert divided_difference(d, 0, Poly.constant(1, 5)) == Poly(1)
    assert divided_difference(d, 0, a * a) == Poly(1)


def test_twisted_leibniz():
    # Delta(pq) = Delta(p) q + s(p) Delta(q), a direct consequence of the
    # defining quotient
    d = build_root_datum("B2", 2)
    rng = random.Random(12)
    for i in (0, 1):
        for _ in range(25):
            p = random_poly(rng, 2)
            q = random_poly(rng, 2)
            lhs = divided_difference(d, i, p * q)
            from gradedhecke.poly import act_matrix
            sp = act_matrix(d.reflection_matrix(i), p)
            rhs = divided_difference(d, i, p) * q + \
                sp * divided_difference(d, i, q)
            assert lhs == rhs


def test_reynolds():
    d = build_root_datum("A1", 1)
    group = enumerate_group(d)
    a = alpha_poly(d, 0)
    assert reynolds(a, group.elements).is_zero()
    assert reynolds(a * a, group.elements) == a * a
    rng = random.Random(3)
    for _ in range(20):
        p = random_poly(rng, 1)
        r = reynolds(p, group.elements)
        assert reynolds(r, group.elements) == r
        for h in group.elements:
            assert act(h, r) == r


from oracles import (brute_force_form_dimension, fixed_basis,  # noqa: E402
                     matrix_census, matrix_molien, pairwise_add,
                     per_element_molien)


def test_molien_a1_against_brute_force():
    d = build_root_datum("A1", 1)
    group = enumerate_group(d)
    mats = [e.matrix for e in group.elements]
    s0 = matrix_molien(mats, 0, 10)[0]
    s1 = matrix_molien(mats, 1, 10)[1]
    assert s0.coeffs == (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)
    assert s1.coeffs == (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0)
    for deg in range(11):
        assert s0.coeffs[deg] == brute_force_form_dimension(mats, deg, 0)
        assert s1.coeffs[deg] == brute_force_form_dimension(mats, deg, 1)


def test_molien_point_class():
    # the fixed space of the reflection class is a point
    s0 = matrix_molien([()], 0, 6)[0]
    assert s0.coeffs == (1, 0, 0, 0, 0, 0, 0)
    s1 = matrix_molien([()], 1, 6)[1]
    assert s1.coeffs == (0,) * 7


@pytest.mark.parametrize("label,amb,gammas", [
    ("A2", 2, False), ("B2", 2, False), ("A1xA1", 2, True)])
def test_molien_brute_force_cross_check(label, amb, gammas):
    # n = 0 and n = 1 agreement with the explicit invariant count, degree <= 6
    d = build_root_datum(label, amb)
    gs = [make_diagram_automorphism(d, "swap", [[0, 1], [1, 0]])] \
        if gammas else []
    group = enumerate_group(d, gs)
    mats = [e.matrix for e in group.elements]
    for n in (0, 1, 2):
        series = matrix_molien(mats, n, 6)[n]
        for deg in range(7):
            assert series.coeffs[deg] == \
                brute_force_form_dimension(mats, deg, n)


def test_molien_invariant_polys_agree():
    # n = 0 coefficients equal the dimension of the invariant basis
    d = build_root_datum("B2", 2)
    group = enumerate_group(d)
    mats = [e.matrix for e in group.elements]
    series = matrix_molien(mats, 0, 6)[0]
    for deg in range(7):
        basis = invariant_polys(group.elements, 2, deg)
        assert len(basis) == series.coeffs[deg]


@pytest.mark.parametrize("n_max", [0, 1, 3])
def test_molien_forms_degrees_above_dim_and_negative(n_max):
    group = enumerate_group(build_root_datum("A1", 1))
    series = matrix_molien([e.matrix for e in group.elements], n_max, 4)
    assert len(series) == n_max + 1
    for s in series[2:]:
        assert s.coeffs == (0,) * 5 and s.witness == ((), (Q(1),))
    with pytest.raises(ValueError):
        matrix_molien([e.matrix for e in group.elements], -1, 4)
    with pytest.raises(ValueError):
        matrix_molien([], 0, 4)


def _fixed_space_actions():
    """Centralizer actions on the fixed spaces, one per class and datum."""
    out = []
    for label, amb, swap in (("A2", 2, False), ("B2", 2, False),
                             ("G2", 2, False), ("A3", 3, False),
                             ("A1xA1", 2, True)):
        d = build_root_datum(label, amb)
        gs = [make_diagram_automorphism(d, "swap", [[0, 1], [1, 0]])] \
            if swap else []
        for cls in enumerate_group(d, gs).census.entries:
            basis = fixed_basis(cls.rep, amb)
            out.append((amb, [restrict_matrix(z.matrix, basis)
                              for z in cls.centralizer]))
    return out


FIXED_SPACE_ACTIONS = _fixed_space_actions()


@pytest.mark.parametrize("index", range(len(FIXED_SPACE_ACTIONS)))
@settings(derandomize=True, max_examples=5, deadline=None)
@given(st.integers(0, 12), st.randoms(use_true_random=False))
def test_molien_forms_matches_per_element_oracle(index, order, rng):
    dim_t, mats = FIXED_SPACE_ACTIONS[index]
    mats = list(mats)
    rng.shuffle(mats)
    series = matrix_molien(mats, dim_t + 1, order)
    for n in range(dim_t + 2):
        ref = per_element_molien(mats, n, order)
        assert series[n].coeffs == ref.coeffs
        assert series[n].witness == ref.witness


def test_crossed_census_takes_no_charpoly_or_restriction(monkeypatch):
    # the charpolys come from the traces of the group table: no matrix of a
    # centralizer element is restricted, reduced or given a charpoly (the
    # class census, cached on the group, finds the fixed spaces once)
    group = enumerate_group(build_root_datum("A4", 4))
    group.census
    calls = []

    def counted(name, f):
        return lambda *args: calls.append(name) or f(*args)
    for module in (linalg, poly, homology, weyl):
        for name in ("charpoly", "restrict_matrix", "rref"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    census = crossed_product_census(group, truncation=16)
    assert calls == []
    assert census.totals[0].coeffs[0] == census.class_count == 7


CENSUS_DATA = {
    "A1": ("A1", 1, ()), "A2": ("A2", 2, ()), "B2": ("B2", 2, ()),
    "G2": ("G2", 2, ()), "A3": ("A3", 3, ()), "A4": ("A4", 4, ()),
    "A1xA1-swap": ("A1xA1", 2, (("swap", [[0, 1], [1, 0]]),)),
    # a Gamma of order 3, as in test_modules
    "A1xA1xA1-rot": ("A1xA1xA1", 3, (
        ("rot", [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        ("rot2", [[0, 1, 0], [0, 0, 1], [1, 0, 0]]))),
}


@pytest.mark.parametrize("name", sorted(CENSUS_DATA))
@settings(derandomize=True, max_examples=3, deadline=None)
@given(st.integers(0, 16))
def test_crossed_census_matches_matrix_oracle(name, truncation):
    # charpolys from traces and integer witnesses against restricted
    # matrices, charpolys and Fraction witnesses element by element
    label, amb, auts = CENSUS_DATA[name]
    d = build_root_datum(label, amb)
    gammas = [make_diagram_automorphism(d, lbl, m) for lbl, m in auts]
    census = crossed_product_census(enumerate_group(d, gammas),
                                    truncation=truncation)
    entries, totals = matrix_census(d, gammas, truncation)
    assert [e.series for e in census.entries] == entries
    assert list(census.totals) == totals


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([("A2", 2, False), ("B2", 2, False), ("G2", 2, False),
                        ("A3", 3, False), ("A1xA1", 2, True),
                        ("empty", 2, True)]),
       st.integers(0, 16), st.integers(0, 3),
       st.randoms(use_true_random=False))
def test_sum_series_matches_pairwise_fold(datum, order, n, rng):
    # the census totals summed in one pass equal the fold of __add__
    label, amb, swap = datum
    d = build_root_datum(label, amb)
    gs = [make_diagram_automorphism(d, "swap", [[0, 1], [1, 0]])] \
        if swap else []
    group = enumerate_group(d, gs)
    bases = [fixed_basis(cls.rep, amb) for cls in group.census.entries]
    column = [matrix_molien([restrict_matrix(z.matrix, basis)
                            for z in cls.centralizer], amb, order)[min(n, amb)]
              for cls, basis in zip(group.census.entries, bases)]
    column = rng.sample(column, rng.randint(1, len(column)))
    fold = column[0]
    for s in column[1:]:
        fold = pairwise_add(fold, s)
    assert sum_series(column) == fold


def test_sum_series_drops_witness_like_add():
    one = PoincareSeries(order=0, coeffs=(1,), witness=((Q(1),), (Q(1),)))
    geometric = PoincareSeries(order=3, coeffs=(1, 1, 1, 1),
                               witness=((Q(1),), (Q(1), Q(-1))))
    assert geometric.witness is not None
    free = PoincareSeries(order=geometric.order, coeffs=geometric.coeffs)
    assert sum_series([one, one]).witness == ((Q(2),), (Q(1),))
    assert sum_series([geometric, geometric]) == geometric + geometric == \
        pairwise_add(geometric, geometric)
    assert sum_series([geometric, free]).witness is None
    # series of different orders add to the lower order
    assert geometric + one == pairwise_add(geometric, one)
    assert (geometric + one).coeffs == (2,)
    low = PoincareSeries(order=0, coeffs=(1,), witness=None)
    assert sum_series([one, low]) == one + low == pairwise_add(one, low)
    # 1/(1 - t) is a valid witness at order 0, but a reduced sum whose
    # denominator degree exceeds the order is dropped
    pole = PoincareSeries(order=0, coeffs=(1,),
                          witness=((Q(1),), (Q(1), Q(-1))))
    assert sum_series([pole, pole]).witness is None
    assert sum_series([pole, pole]) == pole + pole == pairwise_add(pole, pole)


def test_poincare_series_witness_and_add():
    d = build_root_datum("A1", 1)
    group = enumerate_group(d)
    mats = [e.matrix for e in group.elements]
    s = matrix_molien(mats, 0, 8)[0]
    assert s.witness is not None  # 1/(1 - t^2), checked by __post_init__
    total = s + matrix_molien([()], 0, 8)[0]
    assert total.coeffs == (2, 0, 1, 0, 1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        PoincareSeries(order=2, coeffs=(1, -1, 0))


def test_text_round_trip():
    rng = random.Random(77)
    for _ in range(50):
        p = random_poly(rng, 3)
        assert parse_poly(p.to_text(), 3) == p
    assert parse_poly("3/2*x1^2*x3 - x2", 3).to_text() == "3/2*x1^2*x3 - x2"
    assert parse_poly("0", 2).is_zero()


@pytest.mark.parametrize("text", ["1/0", "x1 - 3/0*x2"])
def test_parse_rejects_a_zero_denominator(text):
    # before, the coefficient raised ZeroDivisionError, not a parse error
    with pytest.raises(poly.PolyParseError, match=r"bad fraction '\d/0'"):
        parse_poly(text, 2)


@pytest.mark.parametrize("text", ["", "   "])
def test_parse_rejects_empty_text(text):
    # to_text writes zero as "0"; before, empty text parsed as zero
    with pytest.raises(poly.PolyParseError, match="no term in"):
        parse_poly(text, 2)
    assert parse_poly("0", 2).is_zero()


@pytest.mark.parametrize("text, message", [
    ("3/", "bad fraction at 0 in '3/'"),
    ("1/00*x1", "bad fraction '1/00' in '1/00*x1'"),
    ("x", "bad variable at 0 in 'x'"),
    ("x3", "variable x3 out of range"),
    ("x0", "variable x0 out of range"),
    ("x1^", "bad exponent at 0"),
    ("2x1", "expected '+' or '-' at 1 in '2x1'"),
    ("3/2/5", "expected '+' or '-' at 3 in '3/2/5'"),
    ("x1 +", "expected factor at 4 in 'x1 +'"),
    ("--x1", "expected factor at 1 in '--x1'"),
    ("x1*", "expected factor at 3 in 'x1*'")])
def test_parse_error_names_the_place(text, message):
    with pytest.raises(poly.PolyParseError) as err:
        parse_poly(text, 2)
    assert str(err.value) == message


def test_parse_sums_repeated_monomials_exactly():
    # text to_text never writes still parses to its exact value
    assert parse_poly("2*3/4*x1*x1 + x1^2 - 1/2*x1^2", 2) == \
        Poly(2, {(2, 0): Fraction(2)})
    assert parse_poly("x1 - x1 + 0*x2", 2).is_zero()
    assert parse_poly("007/014", 2) == Poly.constant(2, Fraction(1, 2))
