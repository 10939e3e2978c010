import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (dense_canonical_basis, dense_charpoly, dense_identity,
                     dense_intertwiner_matrices, dense_inverse,
                     dense_mat_comb, dense_mat_mul, dense_mat_vec,
                     dense_nullspace, dense_rank, dense_restrict_matrix,
                     dense_rref, dense_solve, dense_trace, dense_transpose,
                     densify, divisor_rational_roots, euclid_gcd,
                     kronecker_gaussian_roots)

from gradedhecke.linalg import (QI, canonical_basis, charpoly, identity,
                                intertwiner_matrices, inverse, mat, mat_comb,
                                mat_mul, mat_vec, nullspace, poly1_gcd,
                                poly1_mul, rank, restrict_matrix, roots, rref,
                                solve, trace, transpose)

Q = Fraction

fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
gaussians = st.builds(QI, fractions, fractions)
mixed = st.one_of(fractions, gaussians)


@st.composite
def matrices(draw, scalars):
    """Matrices up to 7x7 whose fill runs from all-zero to dense."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(1, 7))
    fill = draw(st.sampled_from((0.0, 0.15, 0.4, 1.0)))
    rnd = draw(st.randoms(use_true_random=False))
    return [[draw(scalars) if rnd.random() < fill else Q(0)
             for _ in range(ncols)] for _ in range(nrows)]


def rows_of(m):
    return tuple(map(tuple, m))


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


# ---------------------------------------------------------------------------
# Every public matrix routine against the dense reference in `oracles`.
# ---------------------------------------------------------------------------

@st.composite
def shaped(draw, scalars, square=False):
    """(m, ncols): a dense matrix of every shape 0..7 x 0..7, square or
    not, with all-zero rows and, half the time, a row that combines two
    others, so that square ones are often singular."""
    nrows = draw(st.integers(0, 7))
    ncols = nrows if square else draw(st.integers(0, 7))
    m = list(draw(filled(scalars, nrows, ncols)))
    if nrows >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(nrows)))[:3]
        c = draw(scalars)
        m[k] = tuple(x + c * y for x, y in zip(m[i], m[j]))
    if nrows and draw(st.booleans()):
        m[draw(st.integers(0, nrows - 1))] = (Q(0),) * ncols
    return tuple(m), ncols


def matches_dense_reference(m, ncols, b, other):
    """Each routine on mat(m) against its dense reference on m; `b` is a
    vector of length nrows, `other` a matrix with ncols rows."""
    a, nrows = mat(m), len(m)
    assert densify(a, ncols) == m
    assert mat_vec(a, b[:ncols] + (Q(0),) * (ncols - len(b))) == \
        dense_mat_vec(m, b[:ncols] + (Q(0),) * (ncols - len(b)))
    width = len(other[0]) if other else 0
    expected = dense_mat_mul(m, other) if ncols and width else \
        ((Q(0),) * width,) * nrows
    assert exactly_equal(densify(mat_mul(a, mat(other)), width), expected)
    assert densify(transpose(a, ncols), nrows) == \
        (dense_transpose(m) if nrows and ncols else ((),) * ncols)
    red, pivots = rref(a)
    dense_red, dense_pivots = dense_rref(m)
    assert (densify(red, ncols), pivots) == (rows_of(dense_red), dense_pivots)
    assert rank(a) == dense_rank(m)
    assert nullspace(a, ncols) == dense_nullspace(m, ncols)
    assert densify(canonical_basis(a, ncols), ncols) == \
        tuple(dense_canonical_basis(m))
    assert solve(a, b, ncols) == (dense_solve(m, b) if m else (Q(0),) * ncols)
    if not any(isinstance(x, QI) for r in (*m, b) for x in r):
        # a report writes a Fraction as a string but an int as a number
        invertible = nrows == ncols and rank(a) == nrows
        matrices = (red, canonical_basis(a, ncols),
                    inverse(a) if invertible else ())
        vectors = nullspace(a, ncols) + [solve(a, b, ncols) or ()]
        assert all(type(x) is Fraction for x in
                   [x for mx in matrices for row in mx for _, x in row]
                   + [x for v in vectors for x in v])
    if 0 < nrows * ncols <= 16:  # M = m solves (m m^T) M = M (m^T m)
        mt = dense_transpose(m)
        pairs = [(dense_mat_mul(m, mt), dense_mat_mul(mt, m))]
        assert [densify(x, ncols) for x in intertwiner_matrices(
            [(mat(x), mat(y)) for x, y in pairs], nrows, ncols)] == \
            dense_intertwiner_matrices(pairs, nrows, ncols)
    if nrows != ncols:
        return
    n = nrows
    assert densify(identity(n), n) == dense_identity(n)
    assert trace(a) == dense_trace(m)
    assert charpoly(a) == dense_charpoly(m)
    try:
        expected = dense_inverse(m)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            inverse(a)
    else:
        assert densify(inverse(a), n) == expected
    coeffs = (b[0] if b else Q(1), Q(-1))
    assert exactly_equal(densify(mat_comb(zip(coeffs, (a, mat(other))), n),
                                 n), dense_mat_comb(coeffs, (m, other), n))
    if n <= 4:  # the system has n^2 unknowns and 2 n^2 equations
        pairs = [(m, m), (other, other)]
        assert [densify(x, n) for x in intertwiner_matrices(
            [(mat(x), mat(y)) for x, y in pairs], n, n)] == \
            dense_intertwiner_matrices(pairs, n, n)
    restrict_agrees(m, nullspace(mat_comb(((1, a), (-1, mat(other))), n), n))
    restrict_agrees(m, [v for v in dense_rref(other)[0] if any(v)])


@st.composite
def differential_cases(draw, scalars):
    m, ncols = draw(shaped(scalars, square=draw(st.booleans())))
    b = draw(filled(scalars, 1, len(m)))[0]
    width = draw(st.integers(0, 7)) if len(m) != ncols else ncols
    return m, ncols, b, draw(filled(scalars, ncols, width))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(differential_cases(fractions))
def test_every_routine_matches_dense_reference_rational(case):
    matches_dense_reference(*case)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(differential_cases(mixed))
def test_every_routine_matches_dense_reference_mixed(case):
    matches_dense_reference(*case)


@pytest.mark.parametrize("m, ncols", [
    ((), 0), ((), 3), (((),) * 2, 0),                  # no rows or no columns
    ((((Q(0),) * 3),) * 3, 3),                          # zero matrix
    (((Q(1), Q(2)), (Q(2), Q(4))), 2),                  # singular
    (((Q(0), Q(1)), (Q(1), Q(0))), 2),                  # needs a row swap
    (((QI(0, 1), Q(0)), (Q(0), QI(0, -1))), 2),         # i and -i
    (((Q(1), Q(0), Q(2)),), 3),                         # 1 x n
])
def test_every_routine_matches_dense_reference_edge_cases(m, ncols):
    for b in ((Q(1),) * len(m), (Q(0),) * len(m)):
        matches_dense_reference(m, ncols, b, (((Q(1),) * ncols),) * ncols)


def test_solve_without_a_solution_and_inverse_of_a_singular_matrix():
    assert solve(mat([[1, 1], [2, 2]]), (Q(1), Q(3)), 2) is None
    assert dense_solve([[1, 1], [2, 2]], (Q(1), Q(3))) is None
    assert solve(mat([[1, 1], [2, 2]]), (Q(1), Q(2)), 2) == (Q(1), Q(0))
    with pytest.raises(ValueError, match="singular"):
        inverse(mat([[1, 1], [2, 2]]))


def test_mat_reads_dense_rows_and_maps():
    rows = [[0, Q(1, 2), 0], {2: 3, 0: QI(0, 1), 1: 0}, {}, [QI(0), 0, 0]]
    a = mat(rows)
    assert a == (((1, Q(1, 2)),), ((0, QI(0, 1)), (2, Q(3))), (), ())
    assert all(type(x) in (Fraction, QI) for row in a for _, x in row)
    assert hash(a) == hash(mat(rows)) and a != mat(rows[:3])


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
    red, pivots = rref(mat(m))
    dense_red, dense_pivots = dense_rref(m)
    ncols = len(m[0]) if m else 0
    assert (densify(red, ncols), pivots) == (rows_of(dense_red), dense_pivots)
    assert rank(mat(m)) == dense_rank(m)


def rref_agrees(m):
    red, pivots = rref(mat(m))
    dense_red, dense_pivots = dense_rref(m)
    return (densify(red, len(m[0]) if m else 0), pivots) == \
        (rows_of(dense_red), dense_pivots)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(matrices(fractions))
def test_rref_matches_dense_rational(m):
    assert rref_agrees(m)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(matrices(gaussians))
def test_rref_matches_dense_gaussian(m):
    assert rref_agrees(m)


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
    assert expected == dense_mat_mul(a, b)
    width = len(expected[0]) if expected else 0
    assert densify(mat_mul(mat(a), mat(b)), width) == expected


def product_agrees(a, b):
    width = len(b[0]) if b else 0
    expected = dense_mat_mul(a, b) if b and width else \
        ((Q(0),) * width,) * len(a)
    assert exactly_equal(densify(mat_mul(mat(a), mat(b)), width), expected)
    for v in zip(*b):
        assert exactly_equal([mat_vec(mat(a), v)], [dense_mat_vec(a, v)])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(products(fractions))
def test_mat_mul_matches_dense_rational(ab):
    product_agrees(*ab)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(products(mixed))
def test_mat_mul_matches_dense_mixed(ab):
    product_agrees(*ab)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       st.integers(1, 5), st.data())
def test_shape_mismatch_raises(n, k, kb, m, data):
    # a matrix does not record its width, so a product can only see a
    # stored entry of a in a column past the rows of b, or of a vector
    assume(k != kb)
    a = data.draw(filled(mixed, n, k))
    b = data.draw(filled(mixed, kb, m))
    with pytest.raises(ValueError):
        dense_mat_mul(a, b)
    a = a[:-1] + (a[-1][:-1] + (Q(1),),)
    v = tuple(r[0] for r in b)
    if k > kb:
        with pytest.raises(ValueError):
            mat_mul(mat(a), mat(b))
        with pytest.raises(ValueError):
            mat_vec(mat(a), v)
    else:
        assert len(mat_mul(mat(a), mat(b))) == n


@st.composite
def subspaces(draw, scalars):
    """(m, basis): m is n x n; the basis is a Krylov basis of m (invariant)
    or, half the time, a random independent set (usually not invariant)."""
    n = draw(st.integers(1, 6))
    m = draw(filled(scalars, n, n))
    v = draw(filled(scalars, 1, n))[0]
    if draw(st.booleans()):
        basis = []
        while any(v) and dense_rank(basis + [v]) > len(basis):
            basis.append(v)
            v = dense_mat_vec(m, v)
    else:
        rows = draw(filled(scalars, draw(st.integers(0, n)), n))
        basis = [r for r in dense_rref(rows)[0] if any(r)]
    return m, basis


def restrict_agrees(m, basis):
    try:
        expected = dense_restrict_matrix(m, basis)
    except ValueError:
        with pytest.raises(ValueError, match="not invariant"):
            restrict_matrix(mat(m), basis)
        return False
    assert exactly_equal(densify(restrict_matrix(mat(m), basis), len(basis)),
                         expected)
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
        restrict_matrix(mat(swap), [(Q(0), Q(1))])
    assert restrict_matrix(mat([[QI(0, 1)]]), [(Q(2),)]) == \
        ((((0, QI(0, 1)),),))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: filled(mixed, n, n)))
def test_charpoly_matches_dense(a):
    assert charpoly(mat(a)) == dense_charpoly(a)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: filled(fractions, n, n)))
def test_charpoly_matches_sympy(a):
    import sympy
    x = sympy.Symbol("x")
    coeffs = sympy.Matrix(len(a), len(a),
                          [sympy.Rational(c.numerator, c.denominator)
                           for row in a for c in row]).charpoly(x).all_coeffs()
    assert charpoly(mat(a)) == tuple(Q(int(c.p), int(c.q)) for c in coeffs)


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


def comb_agrees(coeffs, mats, n):
    assert exactly_equal(
        densify(mat_comb(zip(coeffs, map(mat, mats)), n), n),
        dense_mat_comb(coeffs, mats, n))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(combinations(fractions))
def test_mat_comb_matches_dense_rational(case):
    comb_agrees(*case)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(combinations(mixed))
def test_mat_comb_matches_dense_mixed(case):
    comb_agrees(*case)


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


# polynomials over Z or Z[i], lowest degree first, and a common factor
int_polys = st.lists(st.integers(-30, 30), max_size=5)
gaussian_polys = st.lists(st.builds(QI, st.integers(-30, 30),
                                    st.integers(-30, 30)), max_size=5)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(st.tuples(int_polys, int_polys, int_polys),
                 st.tuples(gaussian_polys, gaussian_polys, gaussian_polys)))
@example(([], [], []))
@example(([1, 1], [-1, 1], [3, 0, -1]))
@example(([QI(0, 1), 1], [QI(0, -1), 1], [QI(2, 2), 4]))
def test_poly1_gcd_matches_euclid(polys):
    a, b, c = polys
    p, q = poly1_mul(a, c), poly1_mul(b, c)
    assert poly1_gcd(p, q) == euclid_gcd(p, q)


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
    assert rank(mat(m)) == dense_rank(m)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(wide_matrices(fractions))
def test_rank_matches_dense_rational(m):
    assert rank(mat(m)) == dense_rank(m)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(wide_matrices(mixed))
def test_rank_matches_dense_mixed_gaussian(m):
    assert rank(mat(m)) == dense_rank(m)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(wide_matrices(st.one_of(big_fractions, gaussians)), st.randoms(
    use_true_random=False))
def test_rank_of_dict_rows(m, rnd):
    # `mat` reads a dict row, which lists its nonzero entries in any order,
    # possibly with explicit zeros, as the dense row
    rows = []
    for row in m:
        items = [(j, x) for j, x in enumerate(row) if x or rnd.random() < .3]
        rnd.shuffle(items)
        rows.append(dict(items))
    assert mat(rows) == mat(m)
    assert rank(mat(rows)) == dense_rank(m)


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
    assert rank(mat(rows)) == expect


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
    basis = nullspace(mat(m), ncols)
    span = basis + [tuple(sum((c * b[j] for c, b in zip(coeffs, basis)), Q(0))
                          for j in range(ncols)) for coeffs in mix]
    assert canonical_basis(mat(span[::-1]), ncols) == mat(basis)
    assert canonical_basis(mat(span + [(Q(0),) * ncols]), ncols) == \
        mat(basis)
