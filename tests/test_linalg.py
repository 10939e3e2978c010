import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (dense_charpoly, dense_mat_mul, dense_mat_vec,
                     dense_rank, dense_restrict_matrix, dense_rref,
                     divisor_rational_roots, kronecker_gaussian_roots)

from gradedhecke.linalg import (QI, canonical_basis, charpoly, mat_comb,
                                mat_mul, mat_vec, nullspace, poly1_mul, rank,
                                restrict_matrix, roots, rref)

Q = Fraction

fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
gaussians = st.builds(QI, fractions, fractions)


@st.composite
def matrices(draw, scalars):
    """Matrices up to 7x7 whose fill runs from all-zero to dense."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(1, 7))
    fill = draw(st.sampled_from((0.0, 0.15, 0.4, 1.0)))
    rnd = draw(st.randoms(use_true_random=False))
    return [[draw(scalars) if rnd.random() < fill else Q(0)
             for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("m", [
    [],                                            # empty input
    [[Q(0), Q(0), Q(0)]],                          # one zero row
    [[Q(0), Q(2)], [Q(0), Q(0)], [Q(0), Q(4)]],    # zero rows between
    [[Q(3), Q(0), Q(-1), Q(0), Q(5)]],             # 1 x n
    [[Q(0)], [Q(2)], [Q(-1)]],                     # n x 1
    [[Q(1), Q(2)], [Q(2), Q(4)], [Q(0), Q(1)], [Q(1), Q(0)]],  # tall
    [[QI(0, 1), Q(0), QI(2, 0)], [Q(0), QI(1, -1), Q(0)],
     [QI(1, 1), Q(0), Q(0)]],                      # mixed scalar types
])
def test_rref_matches_dense_edge_cases(m):
    assert rref(m) == dense_rref(m)
    assert rank(m) == dense_rank(m)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(matrices(fractions))
def test_rref_matches_dense_rational(m):
    assert rref(m) == dense_rref(m)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(matrices(gaussians))
def test_rref_matches_dense_gaussian(m):
    assert rref(m) == dense_rref(m)


mixed = st.one_of(fractions, gaussians)


def exactly_equal(x, y):
    """Equal entries, equal hashes: a skipped zero product may leave a
    Fraction where the dense sum made a QI with zero imaginary part."""
    return len(x) == len(y) and all(
        len(r) == len(s) and all(a == b and hash(a) == hash(b)
                                 for a, b in zip(r, s))
        for r, s in zip(x, y))


@st.composite
def filled(draw, scalars, nrows, ncols):
    fill = draw(st.sampled_from((0.0, 0.15, 0.4, 1.0)))
    rnd = draw(st.randoms(use_true_random=False))
    return tuple(tuple(draw(scalars) if rnd.random() < fill else Q(0)
                       for _ in range(ncols)) for _ in range(nrows))


@st.composite
def products(draw, scalars):
    """(a, b) with a n x k and b k x m, every size 0..6 (empty, zero-width)."""
    n, k, m = (draw(st.integers(0, 6)) for _ in range(3))
    return (draw(filled(scalars, n, k)), draw(filled(scalars, k, m)))


@pytest.mark.parametrize("a, b, expected", [
    ((), ((Q(1),),), ()),                          # no rows
    (((), ()), (), ((), ())),                      # inner size 0
    (((Q(1), Q(2)),), ((), ()), ((),)),            # zero-width b
    (((Q(0), Q(0)),), ((Q(1),), (Q(2),)), ((Q(0),),)),  # zero row
])
def test_mat_mul_edge_shapes(a, b, expected):
    assert mat_mul(a, b) == expected == dense_mat_mul(a, b)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(products(fractions))
def test_mat_mul_matches_dense_rational(ab):
    a, b = ab
    assert exactly_equal(mat_mul(a, b), dense_mat_mul(a, b))
    for v in zip(*b):
        assert exactly_equal([mat_vec(a, v)], [dense_mat_vec(a, v)])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(products(mixed))
def test_mat_mul_matches_dense_mixed(ab):
    a, b = ab
    assert exactly_equal(mat_mul(a, b), dense_mat_mul(a, b))
    for v in zip(*b):
        assert exactly_equal([mat_vec(a, v)], [dense_mat_vec(a, v)])


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       st.integers(1, 5), st.data())
def test_shape_mismatch_raises(n, k, kb, m, data):
    assume(k != kb)
    a = data.draw(filled(mixed, n, k))
    b = data.draw(filled(mixed, kb, m))
    for f in (mat_mul, dense_mat_mul):
        with pytest.raises(ValueError):
            f(a, b)
    with pytest.raises(ValueError):
        mat_vec(a, tuple(r[0] for r in b))


@st.composite
def subspaces(draw, scalars):
    """(m, basis): m is n x n; the basis is a Krylov basis of m (invariant)
    or, half the time, a random independent set (usually not invariant)."""
    n = draw(st.integers(1, 6))
    m = draw(filled(scalars, n, n))
    v = draw(filled(scalars, 1, n))[0]
    if draw(st.booleans()):
        basis = []
        while any(v) and rank(basis + [v]) > len(basis):
            basis.append(v)
            v = dense_mat_vec(m, v)
    else:
        rows = draw(filled(scalars, draw(st.integers(0, n)), n))
        basis = [r for r in rref(rows)[0] if any(r)]
    return m, basis


def restrict_agrees(m, basis):
    try:
        expected = dense_restrict_matrix(m, basis)
    except ValueError:
        with pytest.raises(ValueError, match="not invariant"):
            restrict_matrix(m, basis)
        return False
    assert exactly_equal(restrict_matrix(m, basis), expected)
    return True


@settings(derandomize=True, max_examples=200, deadline=None)
@given(subspaces(fractions))
def test_restrict_matrix_matches_dense_rational(case):
    restrict_agrees(*case)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(subspaces(mixed))
def test_restrict_matrix_matches_dense_mixed(case):
    restrict_agrees(*case)


def test_restrict_matrix_edge_cases():
    swap = ((Q(0), Q(1)), (Q(1), Q(0)))
    assert restrict_agrees(swap, [])                            # empty basis
    assert restrict_agrees(swap, [(Q(1), Q(1))])                # eigenline
    assert restrict_agrees(swap, [(Q(1), Q(0)), (Q(0), Q(1))])  # whole space
    assert not restrict_agrees(swap, [(Q(1), Q(0))])            # not invariant
    with pytest.raises(ValueError, match="not invariant"):
        restrict_matrix(swap, [(Q(0), Q(1))])
    assert restrict_matrix(((QI(0, 1),),), [(Q(2),)]) == ((QI(0, 1),),)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: filled(mixed, n, n)))
def test_charpoly_matches_dense(a):
    assert charpoly(a) == dense_charpoly(a)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: filled(fractions, n, n)))
def test_charpoly_matches_sympy(a):
    import sympy
    x = sympy.Symbol("x")
    coeffs = sympy.Matrix(len(a), len(a),
                          [sympy.Rational(c.numerator, c.denominator)
                           for row in a for c in row]).charpoly(x).all_coeffs()
    assert charpoly(a) == tuple(Q(int(c.p), int(c.q)) for c in coeffs)


def test_qi_keeps_fraction_parts_and_converts_the_rest():
    half = Q(1, 2)
    z = QI(half, half)
    assert z.re is half and z.im is half
    for x in (QI(1, 2), QI(3) / QI(2), QI(1) / 3, 1 / QI(0, 3),
              QI(1, 1) * 2 - 1, QI(True, 0)):
        assert type(x.re) is Fraction and type(x.im) is Fraction
    assert QI(1) / QI(3) == Q(1, 3) and hash(QI(1) / QI(3)) == hash(Q(1, 3))
    assert QI(0, 1) * QI(0, 1) == -1 and QI(2, 1) != QI(2)
    assert hash(QI(2, 1)) == hash((Q(2), Q(1)))
    assert QI("1/3", 0.5).re == Q(1, 3) and QI(0, 0.5).im == Q(1, 2)


@st.composite
def combinations(draw, scalars):
    """Coefficients and as many n x n matrices, n and count 0..5."""
    n, count = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    coeffs = [draw(st.one_of(st.just(Q(0)), scalars)) for _ in range(count)]
    return coeffs, [draw(filled(scalars, n, n)) for _ in range(count)], n


def dense_comb(coeffs, mats, n):
    out = tuple(tuple(Q(0) for _ in range(n)) for _ in range(n))
    for c, m in zip(coeffs, mats):
        out = tuple(tuple(x + c * y for x, y in zip(r, s))
                    for r, s in zip(out, m))
    return out


@settings(derandomize=True, max_examples=200, deadline=None)
@given(combinations(fractions))
def test_mat_comb_matches_dense_rational(case):
    assert exactly_equal(mat_comb(*case), dense_comb(*case))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(combinations(mixed))
def test_mat_comb_matches_dense_mixed(case):
    assert exactly_equal(mat_comb(*case), dense_comb(*case))


# ---------------------------------------------------------------------------
# roots: p-adic lifting against the candidate-search oracles and sympy.
# ---------------------------------------------------------------------------

def planted(lead, zeros, rootless):
    """lead * prod(x - z) * rootless, highest degree first."""
    low = (lead,)
    for z in zeros:
        low = poly1_mul(low, (-z, Q(1)))
    return tuple(reversed(poly1_mul(low, tuple(reversed(rootless)))))


small = st.sampled_from((0, 0, 1, -1, 2, Q(1, 2), Q(-2, 3)))
ROOTLESS = ((Q(1),), (Q(1), Q(0), Q(-2)), (Q(1), Q(1), Q(1)))


@st.composite
def rational_planted(draw):
    """Rational roots and conjugate pairs a +- bi (repeats and zeros
    included) times a factor with no root in Q(i); degree <= 6."""
    rootless = draw(st.sampled_from(ROOTLESS))
    room = 7 - len(rootless)
    zeros = draw(st.lists(small, max_size=room))
    for a, b in draw(st.lists(st.tuples(small, st.sampled_from((1, -2, Q(1, 2)))),
                              max_size=(room - len(zeros)) // 2)):
        zeros += [QI(a, b), QI(a, -b)]
    p = planted(draw(st.sampled_from((1, -1, 3, Q(2, 3)))), zeros, rootless)
    return tuple(QI.of(c).re for c in p)


@st.composite
def gaussian_planted(draw):
    rootless = draw(st.sampled_from(ROOTLESS))
    zeros = draw(st.lists(st.builds(QI, small, small),
                          max_size=7 - len(rootless)))
    return planted(draw(st.sampled_from((QI(1), QI(0, 1), QI(2, -1)))),
                   zeros, rootless)


def agrees(found, expected):
    """Equal roots, multiplicities and residuals, of the same scalar types:
    the repr of a QI with zero imaginary part is not that of a Fraction."""
    return repr(found) == repr(expected)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rational_planted())
def test_roots_match_candidate_search_on_rational_input(p):
    assert agrees(roots(p), divisor_rational_roots(p))
    assert agrees(roots(p, gaussian=True), kronecker_gaussian_roots(p))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(gaussian_planted())
def test_roots_match_candidate_search_on_gaussian_input(p):
    assert agrees(roots(p, gaussian=True), kronecker_gaussian_roots(p))


# numerators and denominators of up to 400 digits, of every size on the way
digits = st.integers(0, 400).map(lambda e: 10 ** e)
huge = st.builds(Fraction, digits.flatmap(lambda b: st.integers(-b, b)),
                 digits.flatmap(lambda b: st.integers(1, b)))


def to_sympy(c):
    import sympy
    c = QI.of(c)
    return (sympy.Rational(c.re.numerator, c.re.denominator)
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))


BIG = Q(10 ** 400 - 3, 10 ** 399 + 7)


# rational roots (the first one repeated) or one Gaussian root, times a
# factor with no root in Q(i); sympy's factorization over QQ<I> takes
# seconds once two Gaussian roots of this size are planted
@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.one_of(st.lists(huge, min_size=1, max_size=3).map(
                     lambda r: r + r[:1]),
                 st.builds(QI, huge, huge).map(lambda z: [z])),
       st.sampled_from(ROOTLESS[1:]))
@example([BIG, -1 / BIG, BIG], ROOTLESS[1])
@example([QI(BIG, -1 / BIG)], ROOTLESS[2])
def test_huge_planted_roots_match_sympy(zeros, rootless):
    import sympy
    cmplx = isinstance(zeros[0], QI)
    p = planted(Q(1), zeros, rootless)
    found, residual = roots(p, gaussian=cmplx)
    assert {z: m for z, m in found} == Counter(zeros)
    assert len(residual) == len(rootless)
    x = sympy.Symbol("x")
    domain = sympy.QQ_I if cmplx else sympy.QQ
    expect = sympy.Poly([to_sympy(c) for c in p], x,
                        domain=domain).ground_roots()
    assert {to_sympy(z): m for z, m in found} == expect


@pytest.mark.parametrize("coeffs, gaussian, expected", [
    ((1, 0, 10 ** 400), True, [QI(0, -10 ** 200), QI(0, 10 ** 200)]),
    ((1, 0, -10 ** 400), False, [Q(-10 ** 200), Q(10 ** 200)]),
    ((1, 0, 10 ** 400 + 1), False, []),
    ((1, 0, 10 ** 400 + 1), True, []),
])
def test_roots_of_huge_quadratics_return_at_once(coeffs, gaussian, expected):
    start = time.perf_counter()
    found, residual = roots(coeffs, gaussian=gaussian)
    assert time.perf_counter() - start < 1
    assert found == [(z, 1) for z in expected]
    assert len(residual) == (1 if expected else 3)


def test_roots_edge_cases():
    with pytest.raises(ValueError, match="zero polynomial"):
        roots((0, 0))
    assert roots((0, 3)) == ([], (Q(3),))
    assert roots((2, 0, 0, 0)) == ([(Q(0), 3)], (Q(2),))
    found, residual = roots((1, 0, 1), gaussian=True)
    assert found == [(QI(0, -1), 1), (QI(0, 1), 1)]
    assert residual == (QI(1),) and isinstance(residual[0], QI)


# ---------------------------------------------------------------------------
# rank: fraction-free elimination on sparse integer rows.
# ---------------------------------------------------------------------------

big_fractions = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                          st.integers(1, 10 ** 6))


@st.composite
def wide_matrices(draw, scalars):
    """`matrices`, sometimes with one more row that combines two others,
    so that the rank falls short of the shape."""
    m = draw(matrices(scalars))
    if m and draw(st.booleans()):
        a, b = draw(st.sampled_from(m)), draw(st.sampled_from(m))
        c = draw(scalars)
        m.insert(draw(st.integers(0, len(m))),
                 [x + c * y for x, y in zip(a, b)])
    return m


@settings(derandomize=True, max_examples=300, deadline=None)
@given(wide_matrices(big_fractions))
def test_rank_matches_dense_on_large_fractions(m):
    assert rank(m) == dense_rank(m)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(wide_matrices(fractions))
def test_rank_matches_dense_rational(m):
    assert rank(m) == dense_rank(m)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(wide_matrices(mixed))
def test_rank_matches_dense_mixed_gaussian(m):
    assert rank(m) == dense_rank(m)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(wide_matrices(st.one_of(big_fractions, gaussians)), st.randoms(
    use_true_random=False))
def test_rank_of_dict_rows(m, rnd):
    # a dict row lists its nonzero entries, in any order, possibly with
    # explicit zeros
    rows = []
    for row in m:
        items = [(j, x) for j, x in enumerate(row) if x or rnd.random() < .3]
        rnd.shuffle(items)
        rows.append(dict(items))
    assert rank(rows) == dense_rank(m)


@pytest.mark.parametrize("rows,expect", [
    ([], 0),
    ([{}], 0),
    ([{}, {5: Q(0)}], 0),
    ([[Q(0)] * 4, [Q(0)] * 4], 0),
    ([[Q(1, 3), Q(0), Q(2, 7)]], 1),                 # 1 x n
    ([[Q(0)], [Q(5, 2)], [Q(-1)]], 1),                # n x 1
    ([{0: 1, 3: -1}, {3: 1, 7: -1}, {0: 1, 7: -1}], 2),
    ([[QI(1, 1), QI(0, 1)], [QI(0, 2), QI(-1, 1)]], 1),  # row 2 = (1+i) row 1
    ([[QI(0, 1)], [1]], 1),
    ([[QI(1, 1), 1], [2, QI(1, -1)]], 1),           # det (1+i)(1-i) - 2 = 0
])
def test_rank_edge_cases(rows, expect):
    assert rank(rows) == expect


def test_qi_rational_operand_acts_on_parts():
    z = QI(Q(1, 3), Q(-2, 5))
    for q in (Q(3, 7), Q(0), 2, -1, True):
        for got, (re, im) in ((z + q, (z.re + q, z.im)),
                              (q + z, (z.re + q, z.im)),
                              (z - q, (z.re - q, z.im)),
                              (q - z, (q - z.re, -z.im)),
                              (z * q, (z.re * q, z.im * q)),
                              (q * z, (z.re * q, z.im * q))):
            assert type(got) is QI
            assert (got.re, got.im) == (re, im)
            assert type(got.re) is Fraction and type(got.im) is Fraction
    # the same values as with the operand wrapped in a QI
    w = QI.of(Q(3, 7))
    assert (z + w, w - z, z - w, z * w) == \
        (z + Q(3, 7), Q(3, 7) - z, z - Q(3, 7), z * Q(3, 7))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(matrices(st.one_of(fractions, gaussians)),
       st.lists(st.lists(st.integers(-2, 2), min_size=8, max_size=8),
                max_size=8))
def test_canonical_basis_is_the_nullspace_basis_of_any_spanning_set(m, mix):
    # the nullspace basis, mixed into a spanning set with repeats and zero
    # vectors, comes back as the same list
    ncols = len(m[0]) if m else 3
    basis = nullspace(m, ncols)
    span = basis + [tuple(sum((c * b[j] for c, b in zip(coeffs, basis)), Q(0))
                          for j in range(ncols)) for coeffs in mix]
    assert canonical_basis(span[::-1]) == basis
    assert canonical_basis(span + [(Q(0),) * ncols]) == basis
