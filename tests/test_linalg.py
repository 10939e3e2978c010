from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_rref

from gradedhecke.linalg import QI, rref

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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(matrices(fractions))
def test_rref_matches_dense_rational(m):
    assert rref(m) == dense_rref(m)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(matrices(gaussians))
def test_rref_matches_dense_gaussian(m):
    assert rref(m) == dense_rref(m)
