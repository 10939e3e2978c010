"""Sparse exact polynomials on t with the W'-action, and Molien series.

Coordinates are the dual basis of the chosen ambient basis of `a` (so the
setup works when Pi does not span).  Exponent keys are tuples, coefficients
Fractions; zero coefficients are never stored.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .linalg import (GradedHeckeError, Mat, Q, Vec, inverse, mat, poly1_add,
                     poly1_divmod, poly1_gcd, poly1_mul, poly1_scale, rank,
                     series_inverse)
from .rootdata import RootDatum


class Poly:
    """Element of S(t*): finite map from exponent multi-indices to Q."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Dict[Tuple[int, ...], Q]] = None):
        self.nvars = nvars
        self.terms: Dict[Tuple[int, ...], Q] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[tuple(e)] = \
                        c if type(c) is Fraction else Fraction(c)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def constant(nvars: int, c) -> "Poly":
        return Poly(nvars, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return Poly(nvars, {tuple(e): Fraction(1)})

    @staticmethod
    def from_covector(x: Vec) -> "Poly":
        n = len(x)
        p = Poly(n)
        for i, c in enumerate(x):
            if c:
                e = [0] * n
                e[i] = 1
                p.terms[tuple(e)] = Fraction(c)
        return p

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.nvars == other.nvars and \
            self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = Fraction(other)
            return Poly(self.nvars, {e: c * v for e, v in self.terms.items()})
        out: Dict[Tuple[int, ...], Q] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        out = Poly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- canonical text form -------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
        chunks = []
        for e, first in zip(keys, [True] + [False] * (len(keys) - 1)):
            c = self.terms[e]
            body = "*".join(
                f"x{i + 1}" + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(e) if p)
            mag = abs(c)
            if body:
                coef = "" if mag == 1 else f"{mag}*"
                text = coef + body
            else:
                text = str(mag)
            if first:
                chunks.append(("-" if c < 0 else "") + text)
            else:
                chunks.append((" - " if c < 0 else " + ") + text)
        return "".join(chunks)

    def __repr__(self):
        return f"Poly({self.to_text()})"


def substitute_linear(p: Poly, images: Sequence[Poly]) -> Poly:
    """p with each variable x_i replaced by the polynomial images[i]."""
    cache: Dict[Tuple[int, int], Poly] = {}

    def power(i: int, k: int) -> Poly:
        if (i, k) not in cache:
            cache[(i, k)] = images[i] ** k
        return cache[(i, k)]

    out = Poly(p.nvars)
    for e, c in p.terms.items():
        term = Poly.constant(p.nvars, c)
        for i, k in enumerate(e):
            if k:
                term = term * power(i, k)
        out = out + term
    return out


def act_matrix(matrix: Mat, p: Poly) -> Poly:
    """Action of a group element with the given matrix on `a`.

    Covector coordinates transform by the transpose-inverse of the matrix
    (orthogonal for the Gram form, not necessarily for the standard one, so
    the inverse is computed exactly).
    """
    n = len(matrix)
    images = [Poly(n, {tuple(int(t == j) for t in range(n)): c
                       for j, c in row}) for row in inverse(matrix)]
    return substitute_linear(p, images)


def act(element, p: Poly) -> Poly:
    """Action of an ExtendedWeylElement on a polynomial."""
    return act_matrix(element.matrix, p)


def divided_difference(datum: RootDatum, i: int, p: Poly) -> Poly:
    """Delta_i(p) = (p - s_i(p)) / alpha_i, exact.

    Implemented by a rational change of coordinates making alpha_i a
    coordinate; a nonzero remainder indicates an action bug and raises.
    """
    alpha = datum.simple_roots[i]
    s_p = act_matrix(datum.reflection_matrix(i), p)
    q = p - s_p
    if q.is_zero():
        return Poly(p.nvars)
    pivot = next(j for j, c in enumerate(alpha) if c)
    n = p.nvars
    # forward: x_pivot = (y_pivot - sum_{j != pivot} alpha_j y_j) / alpha_pivot
    fwd = []
    for j in range(n):
        if j != pivot:
            fwd.append(Poly.variable(n, j))
        else:
            img = Poly.variable(n, pivot) * (Fraction(1) / alpha[pivot])
            for jj in range(n):
                if jj != pivot and alpha[jj]:
                    img = img - Poly.variable(n, jj) * \
                        (alpha[jj] / alpha[pivot])
            fwd.append(img)
    q_y = substitute_linear(q, fwd)
    divided: Dict[Tuple[int, ...], Q] = {}
    for e, c in q_y.terms.items():
        if e[pivot] == 0:
            raise AssertionError(
                "divided difference: numerator not divisible by the root")
        e2 = list(e)
        e2[pivot] -= 1
        divided[tuple(e2)] = c
    back = [Poly.variable(n, j) if j != pivot else Poly.from_covector(alpha)
            for j in range(n)]
    out = substitute_linear(Poly(n, divided), back)
    if out.degree() >= p.degree():
        raise AssertionError("divided difference did not drop the degree")
    return out


def reynolds(p: Poly, elements) -> Poly:
    """Group average |H|^-1 sum_h h(p); idempotent, image H-invariant."""
    elements = list(elements)
    out = Poly(p.nvars)
    for h in elements:
        out = out + act(h, p)
    return out * Fraction(1, len(elements))


def monomials_of_degree(nvars: int, d: int) -> List[Tuple[int, ...]]:
    """Exponent tuples of total degree d, lexicographically descending."""
    return [e for e in itertools.product(range(d, -1, -1), repeat=nvars)
            if sum(e) == d]


def invariant_polys(elements, nvars: int, degree: int) -> List[Poly]:
    """Basis of the degree-d invariants: each Reynolds-averaged monomial
    that is independent of those kept before it."""
    monos = monomials_of_degree(nvars, degree)
    at = {e: i for i, e in enumerate(monos)}
    basis: List[Poly] = []
    rows: List[Dict[int, Q]] = []
    for e in monos:
        avg = reynolds(Poly(nvars, {e: Fraction(1)}), elements)
        row = {at[m]: c for m, c in avg.terms.items()}
        if row and rank(mat(rows + [row])) > len(rows):
            rows.append(row)
            basis.append(avg)
    return basis


# ---------------------------------------------------------------------------
# Poincare series of invariant differential forms (Molien averaging).
# ---------------------------------------------------------------------------

class PoincareSeries:
    """Truncated dimension series c_0..c_N, optionally with a rational witness.

    The witness (num, den) is in lowest-first coefficient form and, when
    present, expands to the stored coefficients.  `molien_forms` and
    `sum_series` make it integral, with den(0) = +-1 and leading coefficient 1.
    """

    __slots__ = ("order", "coeffs", "witness")

    def __init__(self, order: int, coeffs: Tuple[int, ...],
                 witness: Optional[Tuple[Tuple[int, ...],
                                         Tuple[int, ...]]] = None):
        if any(c < 0 for c in coeffs):
            raise ValueError("Poincare coefficients must be dimensions >= 0")
        if witness is not None:
            (num, den), n = witness, order + 1
            expand = poly1_mul(num, series_inverse(den, order)) + (0,) * n
            if expand[:n] != coeffs:
                raise ValueError("witness does not expand to the coefficients")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "witness", witness)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return type(other) is PoincareSeries and \
            (self.order, self.coeffs, self.witness) == \
            (other.order, other.coeffs, other.witness)

    def __add__(self, other: "PoincareSeries") -> "PoincareSeries":
        return sum_series([self, other])


# Witness arithmetic runs on integer polynomials, lowest degree first.  Every
# denominator is a product of charpolys det(1 - t h), with constant term 1 and
# leading coefficient +-1, so dividing by one and by its factors stays in Z.

def _reduce_fraction(num, den):
    """num / den in lowest terms, den with leading coefficient +-1 made 1."""
    if not num:
        return (), (1,)
    g = poly1_gcd(num, den)
    num, den = poly1_divmod(num, g)[0], poly1_divmod(den, g)[0]
    return poly1_scale(den[-1], num), poly1_scale(den[-1], den)


def _lcm(polys) -> Tuple[int, ...]:
    out: Tuple[int, ...] = (1,)
    for p in polys:
        out = poly1_mul(out, poly1_divmod(p, poly1_gcd(out, p))[0])
    return out


def sum_series(series: Sequence[PoincareSeries]) -> PoincareSeries:
    """The sum of the series to the least of their orders, in one pass.

    The coefficients are summed column by column; the witness is one
    fraction over the lcm of the denominators, reduced once, and dropped
    when any summand has none or its denominator degree exceeds the order.
    """
    order = min(s.order for s in series)
    coeffs = tuple(map(sum, zip(*(s.coeffs for s in series))))
    witness = None
    if all(s.witness is not None for s in series):
        lcm = _lcm(s.witness[1] for s in series)
        num: Tuple[int, ...] = ()
        for n, d in (s.witness for s in series):
            num = poly1_add(num, poly1_mul(n, poly1_divmod(lcm, d)[0]))
        num, den = _reduce_fraction(num, lcm)
        if len(den) - 1 <= order:
            witness = (num, den)
    return PoincareSeries(order=order, coeffs=coeffs, witness=witness)


def molien_forms(charpolys: Mapping[Tuple[int, ...], int], n_max: int,
                 order: int = 16) -> Tuple[PoincareSeries, ...]:
    """Graded dimensions of H-invariant polynomial n-forms on V, n = 0..n_max.

    `charpolys` tallies det(xI - h) = (1, c_1, .., c_dim), integer
    coefficients highest first, over the elements h of the finite group H
    acting on V.  Entry n has c_d = dim of the degree-d part of
    (S(V*) (x) Lambda^n V*)^H, by classical Molien averaging of
    det(1 + y h*)/det(1 - t h*) on the dual action.  h^-1 runs over H as h
    does and transposing keeps charpolys, so read lowest first cp is
    det(1 - t h*), and (-1)^n c_n = tr Lambda^n h*.  Each degree's witness is
    one fraction over the lcm of the distinct charpolys.
    """
    if not charpolys:
        raise ValueError("need at least the identity")
    if n_max < 0:
        raise ValueError("form degree must be >= 0")
    size = sum(charpolys.values())
    dim = len(next(iter(charpolys))) - 1
    lcm = _lcm(charpolys)
    terms = [(count, cp, series_inverse(cp, order), poly1_divmod(lcm, cp)[0])
             for cp, count in charpolys.items()]
    out = []
    for n in range(min(n_max, dim) + 1):
        total = [0] * (order + 1)
        wnum: Tuple[int, ...] = ()
        for count, cp, inv, cofactor in terms:
            numer = count * (-1) ** n * cp[n]
            total = [t + numer * x for t, x in zip(total, inv)]
            wnum = poly1_add(wnum, poly1_scale(numer, cofactor))
        if any(c % size or c < 0 for c in total):
            raise ValueError("Molien coefficient is not a dimension")
        # wnum / (size * wden) has integer coefficients and wden(0) = +-1,
        # so size divides wnum
        wnum, wden = _reduce_fraction(wnum, lcm)
        out.append(PoincareSeries(
            order=order, coeffs=tuple(c // size for c in total),
            witness=(tuple(c // size for c in wnum), wden)
            if len(wden) - 1 <= order else None))
    zero = PoincareSeries(order=order, coeffs=(0,) * (order + 1),
                          witness=((), (1,)))
    return tuple(out) + (zero,) * (n_max + 1 - len(out))


# ---------------------------------------------------------------------------
# Canonical polynomial text parsing.
# ---------------------------------------------------------------------------

class PolyParseError(GradedHeckeError):
    pass


# a factor: an integer with an optional '/denominator', or a variable with an
# optional '^power'; an empty denominator, index or power is an error below
_FACTOR = re.compile(r"([0-9]+)(?:/([0-9]*))?|x([0-9]*)(?:\^([0-9]*))?")
_SIGN = re.compile(r" *(?:([+-]) *)?")  # between terms


def scan_poly(text: str, nvars: int) -> Dict[Tuple[int, ...], Q]:
    """The exact coefficient of each exponent in the canonical sorted
    monomial form, e.g. '3/2*x1^2*x3 - x2'; zero sums are dropped.  A
    coefficient is an int, or a Fraction where the text has a '/'."""
    s = text.strip()
    if not s:
        raise PolyParseError(f"no term in {text!r}")
    terms: Dict[Tuple[int, ...], Q] = {}
    end = len(s)
    sign, pos = (-1, 1) if s[0] == "-" else (1, 0)
    while True:
        num = den = 1
        expo = [0] * nvars
        while True:
            m = _FACTOR.match(s, pos)
            if m is None:
                raise PolyParseError(f"expected factor at {pos} in {text!r}")
            digits, under, index, power = m.groups()
            if digits is not None:
                if under is not None:
                    if not under:
                        raise PolyParseError(
                            f"bad fraction at {pos} in {text!r}")
                    if not int(under):
                        raise PolyParseError(
                            f"bad fraction {m[0]!r} in {text!r}")
                    den *= int(under)
                num *= int(digits)
            else:
                if not index:
                    raise PolyParseError(f"bad variable at {pos} in {text!r}")
                i = int(index) - 1
                if not 0 <= i < nvars:
                    raise PolyParseError(f"variable x{i + 1} out of range")
                if power == "":
                    raise PolyParseError(f"bad exponent at {pos}")
                expo[i] += 1 if power is None else int(power)
            pos = m.end()
            if pos < end and s[pos] == "*":
                pos += 1
                continue
            break
        e = tuple(expo)
        terms[e] = terms.get(e, 0) + \
            (sign * num if den == 1 else Fraction(sign * num, den))
        m = _SIGN.match(s, pos)
        if not m[1]:
            if m.end() == end:
                return {e: c for e, c in terms.items() if c}
            raise PolyParseError(
                f"expected '+' or '-' at {m.end()} in {text!r}")
        sign, pos = -1 if m[1] == "-" else 1, m.end()


def parse_poly(text: str, nvars: int) -> Poly:
    """Parse the canonical sorted monomial form, e.g. '3/2*x1^2*x3 - x2'."""
    return Poly(nvars, scan_poly(text, nvars))
