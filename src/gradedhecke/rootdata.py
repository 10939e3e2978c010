"""Degenerate root data, parameters, parabolic subdata and the antidual cone.

A root datum lives on a rational ambient space `a` of dimension d.  Simple
coroots are realized as the first standard basis vectors, simple roots as
covectors whose coordinate rows reproduce the Cartan matrix, and the inner
product on `a` is a symmetric positive-definite Gram matrix chosen so that
every reflection is orthogonal.  The ambient space may strictly contain the
coroot span; the orthocomplement is carried explicitly.  The reflection
closure runs in int arithmetic on integral data, stores Fraction values, and
is the one owner of the root tables (positions, simple reflections, signs).
"""

from __future__ import annotations

import functools
import re as _re
from fractions import Fraction
from operator import add, mul
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .linalg import (GradedHeckeError, Mat, Q, Vec, charpoly, dot, mat,
                     mat_vec, narrow, nullspace, rank, solve, transpose, vec)

ROOT_CLOSURE_BOUND = 10000


class RootDatumError(GradedHeckeError):
    pass


def pairing(x: Vec, lam: Vec) -> Q:
    """Canonical pairing of a covector with a vector (exact, bilinear)."""
    return dot(x, lam)


_FIELDS = ("label", "ambient_dim", "gram", "simple_roots", "simple_coroots",
           "roots", "coroots", "crystallographic")


class RootDatum:
    """The tuple (a*, R, a, R^vee, Pi) with rational coordinates.

    Equality and hashing read these fields only.  The root combinatorics are
    derived tables, built once by the reflection closure: `root_index[r]` is
    the position of r in `roots`, `simple_pos[i]` that of alpha_i,
    `reflection_perm[i][n]` that of s_i(roots[n]), and `positive[n]` says
    whether roots[n] has every Pi-coordinate >= 0.
    """

    __slots__ = _FIELDS + ("root_index", "simple_pos", "reflection_perm",
                           "positive")

    def __init__(self, label: str, ambient_dim: int, gram: Mat,
                 simple_roots: Tuple[Vec, ...],
                 simple_coroots: Tuple[Vec, ...], roots: Tuple[Vec, ...],
                 coroots: Tuple[Vec, ...], crystallographic: bool):
        # a cache hit when `make_root_datum` has just run the closure
        tables = _close_under_reflections(simple_roots, simple_coroots)[2]
        for name, value in zip(RootDatum.__slots__, (
                label, ambient_dim, gram, simple_roots, simple_coroots,
                roots, coroots, crystallographic) + tables):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in _FIELDS)

    def __eq__(self, other):
        return type(other) is RootDatum and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def rank(self) -> int:
        return len(self.simple_roots)

    def cartan(self) -> Mat:
        return mat([[pairing(a, bv) for bv in self.simple_coroots]
                    for a in self.simple_roots])

    def reflection_matrix(self, i: int) -> Mat:
        """Matrix of s_i acting on `a`:  lam -> lam - <alpha_i, lam> alpha_i^vee."""
        a, av = self.simple_roots[i], self.simple_coroots[i]
        n = self.ambient_dim
        return tuple(tuple((c, x) for c in range(n)
                           if (x := (r == c) - av[r] * a[c]))
                     for r in range(n))

    def positive_roots(self) -> Tuple[Vec, ...]:
        return tuple(r for r, p in zip(self.roots, self.positive) if p)

    def norm2(self, lam: Vec) -> Q:
        """Gram norm squared of a vector of `a`."""
        return dot(lam, mat_vec(self.gram, lam))


@functools.lru_cache(maxsize=1)
def _close_under_reflections(simple_roots, simple_coroots) -> tuple:
    """Reflection closure of (Pi, Pi^vee), run on the narrowed values.

    Returns the matched (roots, coroots) as sorted Fraction vectors and the
    tables `RootDatum` keeps: the closure forms s_i(r) for every root r, and
    r's Pi-coordinates as it first reaches r.  The last result is kept for
    the constructor of the datum that `make_root_datum` builds."""
    simple = [(tuple(map(narrow, a)), tuple(map(narrow, av)))
              for a, av in zip(simple_roots, simple_coroots)]
    pairs = dict(simple)
    coords = {a: tuple(int(i == j) for j in range(len(simple)))
              for i, (a, _) in enumerate(simple)}
    images: Dict[tuple, list] = {}
    frontier = list(pairs)
    while frontier:
        new = []
        for r in frontier:
            cv, n, images[r] = pairs[r], coords[r], []
            for i, (a, av) in enumerate(simple):
                c = sum(map(mul, r, av))
                r2 = tuple(x - c * y for x, y in zip(r, a))
                d = sum(map(mul, a, cv))
                cv2 = tuple(x - d * y for x, y in zip(cv, av))
                images[r].append(r2)
                if r2 not in pairs:
                    pairs[r2] = cv2
                    coords[r2] = n[:i] + (n[i] - c,) + n[i + 1:]
                    new.append(r2)
                elif pairs[r2] != cv2:
                    raise RootDatumError("inconsistent coroot closure")
        frontier = new
        if len(pairs) > ROOT_CLOSURE_BOUND:
            raise RootDatumError("reflection closure exceeds size bound")
    roots = sorted(pairs)
    # an int tuple hashes and compares as the equal Fraction tuple
    index = {vec(r): n for n, r in enumerate(roots)}
    tables = (index, tuple(index[a] for a, _ in simple),
              tuple(tuple(index[images[r][i]] for r in roots)
                    for i in range(len(simple))),
              tuple(min(coords[r], default=0) >= 0 for r in roots))
    return tuple(index), tuple(vec(pairs[r]) for r in roots), tables


def _validate(datum: RootDatum) -> None:
    d = datum.ambient_dim
    if datum.gram != transpose(datum.gram, d):
        raise RootDatumError("Gram matrix is not symmetric")
    # a symmetric form has real eigenvalues; they are all positive iff the
    # coefficients c_k of det(xI - G) alternate strictly: (-1)^k c_k > 0
    if any((-1) ** k * c <= 0 for k, c in enumerate(charpoly(datum.gram))):
        raise RootDatumError("Gram matrix is not positive definite")
    for a, av in zip(datum.simple_roots, datum.simple_coroots):
        if pairing(a, av) != 2:
            raise RootDatumError("<alpha, alpha^vee> must equal 2")
    if rank(mat(datum.simple_roots)) != len(datum.simple_roots):
        raise RootDatumError("simple roots are not linearly independent")
    # with G symmetric and <alpha, alpha^vee> = 2, s_i preserves G iff
    # G alpha^vee = (alpha^vee . G alpha^vee / 2) alpha
    for i, av in enumerate(datum.simple_coroots):
        g = mat_vec(datum.gram, av)
        half = dot(av, g) / 2
        if g != tuple(half * x for x in datum.simple_roots[i]):
            raise RootDatumError(
                f"reflection s_{i} does not preserve the Gram form")
    # reduced: a line through 0 meets R in r and -r at most (R holds no 0,
    # as each s_i is invertible and <alpha_i, alpha_i^vee> = 2)
    lines = {}
    for r in datum.roots:
        p = next(filter(None, r))
        lines.setdefault(tuple(x / p for x in r), []).append(r)
    if any(len(rs) > 2 or len(rs) == 2 and any(map(add, *rs))
           for rs in lines.values()):
        raise RootDatumError("closure produced a non-reduced root system")


def make_root_datum(label: str, ambient_dim: int, gram, simple_roots,
                    simple_coroots) -> RootDatum:
    """Construct and validate a root datum from explicit rational data."""
    sr = tuple(vec(r) for r in simple_roots)
    sc = tuple(vec(r) for r in simple_coroots)
    if len(gram) != ambient_dim or any(len(r) != ambient_dim for r in gram):
        raise RootDatumError("Gram matrix has wrong shape")
    g = mat(gram)
    roots, coroots, _ = _close_under_reflections(sr, sc)
    # an integral Cartan matrix puts R in Z Pi and R^vee in Z Pi^vee, so
    # every pairing <a, b^vee> is an integer (Bourbaki VI.1)
    crys = all(pairing(a, bv).denominator == 1 for a in sr for bv in sc)
    datum = RootDatum(label=label, ambient_dim=ambient_dim, gram=g,
                      simple_roots=sr, simple_coroots=sc,
                      roots=roots, coroots=coroots, crystallographic=crys)
    _validate(datum)
    return datum


# ---------------------------------------------------------------------------
# Standard crystallographic families.
# ---------------------------------------------------------------------------

def _family_cartan(family: str, n: int) -> Tuple[List[List[int]], List[Q]]:
    """Cartan matrix a[i][j] = <alpha_i, alpha_j^vee> and symmetrizers d_i."""
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    d = [Fraction(1)] * n

    def chain(upto):
        for i in range(upto):
            A[i][i + 1] = -1
            A[i + 1][i] = -1

    if family == "A":
        chain(n - 1)
    elif family == "B":
        if n < 2:
            raise RootDatumError("B_n needs n >= 2")
        chain(n - 2)
        A[n - 2][n - 1] = -2
        A[n - 1][n - 2] = -1
        d[n - 1] = Fraction(1, 2)
    elif family == "C":
        if n < 2:
            raise RootDatumError("C_n needs n >= 2")
        chain(n - 2)
        A[n - 2][n - 1] = -1
        A[n - 1][n - 2] = -2
        d[n - 1] = Fraction(2)
    elif family == "D":
        if n < 2:
            raise RootDatumError("D_n needs n >= 2")
        chain(n - 2)
        if n >= 3:
            A[n - 3][n - 1] = -1
            A[n - 1][n - 3] = -1
            A[n - 2][n - 1] = 0
            A[n - 1][n - 2] = 0
    elif family == "G" and n == 2:
        A[0][1] = -1
        A[1][0] = -3
        d[1] = Fraction(3)
    elif family == "F" and n == 4:
        chain(3)
        A[1][2] = -2
        A[2][1] = -1
        d[2] = Fraction(1, 2)
        d[3] = Fraction(1, 2)
    else:
        raise RootDatumError(f"unknown family {family}{n}")
    return A, d  # d_j a_ij = d_i a_ji: `_validate` finds the Gram symmetric


_LABEL_RE = _re.compile(r"([ABCDGF])([1-9][0-9]*)")


def build_root_datum(label: str, ambient_dim: int,
                     gram_override=None) -> RootDatum:
    """Standard datum for labels A_n, B_n, C_n, D_n, G2, F4, empty.

    Product labels are joined with a single 'x' (e.g. "A1xA1"), and n has no
    leading zero.  The total rank must not exceed `ambient_dim`; extra
    ambient directions are carried as an orthogonal complement with the
    identity Gram block.
    """
    cartans: List[Tuple[List[List[int]], List[Q]]] = []
    for part in [] if label.lower() == "empty" else label.split("x"):
        m = _LABEL_RE.fullmatch(part)
        if not m:
            raise RootDatumError(
                f"unknown root system label {label!r}: expected 'empty' or "
                "parts such as 'B2' joined by single 'x'")
        cartans.append(_family_cartan(m.group(1), int(m.group(2))))
    total_rank = sum(len(c[0]) for c in cartans)
    if total_rank > ambient_dim:
        raise RootDatumError(
            f"rank {total_rank} exceeds ambient dimension {ambient_dim}")
    simple_roots = []
    gram_rows = [[Fraction(0)] * ambient_dim for _ in range(ambient_dim)]
    off = 0
    for A, d in cartans:
        k = len(A)
        for i in range(k):
            row = [Fraction(0)] * ambient_dim
            for j in range(k):
                row[off + j] = Fraction(A[i][j])
            simple_roots.append(tuple(row))
            for j in range(k):
                gram_rows[off + i][off + j] = Fraction(A[i][j]) / d[i]
        off += k
    for i in range(total_rank, ambient_dim):
        gram_rows[i][i] = Fraction(1)
    gram = gram_override if gram_override is not None else gram_rows
    # nullspace((), n) is the standard basis
    simple_coroots = nullspace((), ambient_dim)[:total_rank]
    return make_root_datum(label, ambient_dim, gram, simple_roots,
                           simple_coroots)


# ---------------------------------------------------------------------------
# Parameters.
# ---------------------------------------------------------------------------

class ParameterMap:
    """Map Pi -> Q of deformation parameters k_alpha, one per simple root."""

    __slots__ = ("values",)

    def __init__(self, values: Tuple[Q, ...]):
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return type(other) is ParameterMap and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __getitem__(self, i: int) -> Q:
        return self.values[i]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


def make_parameter_map(datum: RootDatum, values) -> ParameterMap:
    if isinstance(values, (int, Fraction)):
        values = [values] * datum.rank
    elif isinstance(values, ParameterMap):
        values = values.values
    vals = tuple(Fraction(v) for v in values)
    if len(vals) != datum.rank:
        raise RootDatumError(
            f"need {datum.rank} parameter values, got {len(vals)}")
    return ParameterMap(vals)


def check_parameters_conjugation(datum: RootDatum, kmap: ParameterMap,
                                 root_perm) -> None:
    """k must be constant on W'-orbits of simple roots (as roots, up to sign),
    read off the elements' root permutations `WeylGroup.root_perm`."""
    pos = datum.simple_pos
    # alpha_i and s_i(alpha_i) = -alpha_i, by position
    simple = {p: i for i, q in enumerate(pos)
              for p in (q, datum.reflection_perm[i][q])}
    for perm in root_perm:
        for i, p in enumerate(pos):
            j = simple.get(perm[p])
            if j is not None and kmap[i] != kmap[j]:
                raise RootDatumError(
                    f"k must agree on conjugate simple roots {i} and {j}")


# ---------------------------------------------------------------------------
# Parabolic data.
# ---------------------------------------------------------------------------

class ParabolicDatum(NamedTuple):
    """The sub-datum attached to P subset of Pi, and membership in t^P."""

    datum: RootDatum
    P: Tuple[int, ...]
    sub_datum: RootDatum            # R~_P on ambient a_P

    def in_t_upP(self, lam: Vec) -> bool:
        return all(pairing(self.datum.simple_roots[i], lam) == 0
                   for i in self.P)


def parabolic(datum: RootDatum, P: Sequence[int]) -> ParabolicDatum:
    """Parabolic datum for a subset P of simple-root indices."""
    P = tuple(sorted(set(P)))
    if any(i < 0 or i >= datum.rank for i in P):
        raise RootDatumError(f"P must be a subset of the simple roots, got {P}")
    k = len(P)
    sub_cartan_roots = [tuple(pairing(datum.simple_roots[i],
                                      datum.simple_coroots[j]) for j in P)
                        for i in P]
    sub_gram = tuple(tuple(datum.norm2(datum.simple_coroots[i])
                           if i == j else
                           dot(datum.simple_coroots[i],
                               mat_vec(datum.gram, datum.simple_coroots[j]))
                           for j in P) for i in P)
    sub_coroots = nullspace((), k)
    sub_datum = make_root_datum(f"{datum.label}|P={list(P)}", k, sub_gram,
                                sub_cartan_roots, sub_coroots)
    return ParabolicDatum(datum=datum, P=P, sub_datum=sub_datum)


# ---------------------------------------------------------------------------
# The antidual cone.
# ---------------------------------------------------------------------------

def in_antidual(datum: RootDatum, lam: Vec, strict: bool = False) -> bool:
    """Membership of lam in a^- (or its interior a^-- when strict).

    lam is expanded over the simple coroots plus the Gram-orthocomplement of
    their span.  The interior is nonempty only when Pi spans a*; for strict
    membership every ambient direction must be accounted for by a negative
    coroot coefficient.
    """
    basis = list(datum.simple_coroots)
    comp = nullspace(mat([mat_vec(datum.gram, cv) for cv in basis]),
                     datum.ambient_dim)
    full = basis + comp
    c = solve(transpose(mat(full), datum.ambient_dim), vec(lam), len(full))
    if c is None:
        raise RootDatumError("antidual expansion failed")
    coeffs, rest = c[:len(basis)], c[len(basis):]
    if any(r != 0 for r in rest):
        return False
    if strict:
        return all(c < 0 for c in coeffs) and len(coeffs) == datum.ambient_dim
    return all(c <= 0 for c in coeffs)
