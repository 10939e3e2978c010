"""Exact linear algebra over the rationals and Gaussian rationals.

Vectors are tuples of scalars.  A matrix is a tuple of rows, and a row is a
tuple of (column, value) pairs sorted by column with no zero value: module
matrices are mostly zero, so every routine reads only the stored entries.
Matrices are immutable and hashable, and `==` compares them exactly.  A
matrix does not record its width; a routine that needs it takes `ncols`.
`mat` builds one.  Scalars are `fractions.Fraction` or `QI` (Gaussian
rationals); every routine here is field-generic over those two types.  No
floating point anywhere.  There is one elimination, `_forward`: `rank` counts
its pivots, and `rref`, which every solve runs, finishes it.  It is
fraction-free on integer rows when no entry is a `QI`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import GradedHeckeError  # noqa: F401  (re-exported)

Q = Fraction

Vec = Tuple[Q, ...]
Row = Tuple[Tuple[int, Q], ...]
Mat = Tuple[Row, ...]


class QI:
    """Gaussian rational a + b*i with exact Fraction parts; a Fraction or
    int operand of +, - and * acts on the parts directly."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @staticmethod
    def of(x) -> "QI":
        if isinstance(x, QI):
            return x
        return QI(x, 0)

    def __add__(self, other):
        if isinstance(other, QI):
            return QI(self.re + other.re, self.im + other.im)
        return QI(self.re + other, self.im)

    __radd__ = __add__

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, QI):
            return QI(self.re - other.re, self.im - other.im)
        return QI(self.re - other, self.im)

    def __rsub__(self, other):
        return QI(other - self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, QI):
            return QI(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)
        return QI(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = QI.of(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QI((self.re * o.re + self.im * o.im) / n,
                  (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        return QI.of(other) / self

    def __eq__(self, other):
        if isinstance(other, QI):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        return f"({self.re}+{self.im}i)"


def vec(items) -> Vec:
    return tuple(x if isinstance(x, QI) else Fraction(x) for x in items)


def _row(acc: Dict[int, Q]) -> Row:
    """The row of the nonzero values of {column: value}."""
    return tuple((j, acc[j]) for j in sorted(acc) if acc[j])


def mat(rows) -> Mat:
    """The matrix whose rows are dense sequences or {column: value} maps."""
    return tuple(_row({j: x if type(x) in (Fraction, QI) else Fraction(x)
                       for j, x in (r.items() if isinstance(r, dict)
                                    else enumerate(r))})
                 for r in rows)


def narrow(x):
    """An integral Fraction as its int, on which exact arithmetic is faster."""
    return x.numerator if x.denominator == 1 else x


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def identity(n: int) -> Mat:
    return tuple(((i, Fraction(1)),) for i in range(n))


def dot(u: Vec, v: Vec):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def mat_vec(m: Mat, v: Vec) -> Vec:
    zero = Fraction(0)
    try:
        return tuple(sum((x * v[j] for j, x in row if v[j]), zero)
                     for row in m)
    except IndexError:
        raise ValueError(f"a column exceeds the length {len(v)}") from None


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Row i of the product is the sum of x * b[k] over the entries (k, x)
    of a[i]."""
    out = []
    try:
        for row in a:
            if len(row) == 1:  # a scaled row of b, nonzero in a field
                k, x = row[0]
                out.append(tuple((j, x * y) for j, y in b[k]))
                continue
            acc = {}
            for k, x in row:
                for j, y in b[k]:
                    acc[j] = acc[j] + x * y if j in acc else x * y
            out.append(_row(acc))
    except IndexError:
        raise ValueError(f"a column exceeds the {len(b)} rows") from None
    return tuple(out)


def mat_comb(terms, n: int) -> Mat:
    """The n-row matrix sum of c * m over the pairs (c, m) in terms."""
    out = [{} for _ in range(n)]
    for c, m in terms:
        if c:
            for acc, row in zip(out, m):
                for j, x in row:
                    acc[j] = acc[j] + c * x if j in acc else c * x
    return tuple(map(_row, out))


def transpose(a: Mat, ncols: int) -> Mat:
    cols: List[list] = [[] for _ in range(ncols)]
    for i, row in enumerate(a):
        for j, x in row:
            cols[j].append((i, x))
    return tuple(map(tuple, cols))


def trace(a: Mat):
    return sum((x for i, row in enumerate(a) for j, x in row if i == j),
               Fraction(0))


def rref(rows: Mat) -> Tuple[Mat, List[int]]:
    """Reduced row echelon form, zero rows last, and its pivot columns.

    After `_forward`, every pivot row, from the last column back, is
    cleared above the later pivots and then divided by its pivot.  The
    result is the unique reduced form, as dense Gauss-Jordan gives it.
    """
    lead, integral = _forward(rows)
    pivots = sorted(lead)
    for c in reversed(pivots):
        row = lead[c]
        for p in sorted(j for j in row if j != c and j in lead):
            row = _clear(row, lead[p], p, integral)
        lead[c] = row
    red = [tuple((j, Fraction(row[j], row[c])) for j in sorted(row))
           if integral else _row(row) for c, row in sorted(lead.items())]
    return tuple(red) + ((),) * (len(rows) - len(red)), pivots


def rank(rows: Mat) -> int:
    """Rank over Q or Q(i): the pivot count of `_forward`."""
    return len(_forward(rows)[0])


def _forward(rows: Mat) -> Tuple[Dict[int, dict], bool]:
    """Forward elimination: ({leading column: pivot row}, integral).

    Each row is reduced against the pivot rows found so far until it leads
    a new column.  Without a `QI` entry the rows are primitive integer rows
    (fraction-free, kept primitive by gcd) and `integral` is True;
    otherwise a pivot row is divided by its leading value, so every value
    keeps its type.
    """
    integral = not any(isinstance(x, QI) for row in rows for _, x in row)
    lead: Dict[int, dict] = {}
    for r in rows:
        row = integer_form(dict(r), 0)[1] if integral else dict(r)
        while row:
            c = min(row)
            prow = lead.get(c)
            if prow is None:
                pv = row[c]
                lead[c] = row if integral else {j: x / pv
                                                for j, x in row.items()}
                break
            row = _clear(row, prow, c, integral)
    return lead, integral


def _clear(row: dict, prow: dict, c: int, integral: bool) -> dict:
    """row with column c cleared by the pivot row prow; row may change.

    Integer rows: a*row - b*prow with a/b = prow[c]/row[c] in lowest
    terms, made primitive.  Otherwise prow[c] is 1: row - row[c]*prow.
    """
    b = row[c]
    if integral:
        g = math.gcd(prow[c], b)
        a, b = prow[c] // g, b // g
        if a != 1:
            row = {j: a * x for j, x in row.items()}
    for j, y in prow.items():
        v = row[j] - b * y if j in row else -(b * y)
        if v:
            row[j] = v
        else:
            del row[j]
    return integer_form(row, 0)[1] if integral else row


def integer_form(row: dict, den: int = 1) -> Tuple[int, dict]:
    """row / den (nonzero rationals) as (d, {key: integer n}) with n / d equal
    to it and gcd(d, *n) == 1, d > 0 the least common denominator; den = 0
    gives the primitive integer multiple of row instead, the row that
    fraction-free elimination works on."""
    try:
        g = math.gcd(den, *row.values())
    except TypeError:  # not all integers: scale by the lcm of denominators
        m = math.lcm(*(x.denominator for x in row.values()))
        row = {j: x.numerator * (m // x.denominator) for j, x in row.items()}
        den *= m
        g = math.gcd(den, *row.values())
    if g > 1:
        return den // g, {j: x // g for j, x in row.items()}
    return den, row


def nullspace(rows: Mat, ncols: int) -> List[Vec]:
    """Basis of {x : A x = 0}, canonical (one free column set to 1 each)."""
    red, pivots = rref(rows)
    bound = set(pivots)
    free = {f: [Fraction(0)] * ncols for f in range(ncols) if f not in bound}
    for f, x in free.items():
        x[f] = Fraction(1)
    for row, p in zip(red, pivots):
        for j, y in row[1:]:
            free[j][p] = -y
    return [tuple(x) for x in free.values()]


def canonical_basis(vectors: Mat, ncols: int) -> Mat:
    """The basis `nullspace` gives for the span of the rows, from any
    spanning set, as the rows of a matrix.

    That basis is the reduced row echelon form taken with the columns in
    reverse order: each vector is 1 at its last nonzero column (the free
    column of `nullspace`) and 0 at the others' last nonzero columns.
    """
    last = ncols - 1
    red, pivots = rref(tuple(tuple((last - j, x) for j, x in reversed(v))
                             for v in vectors))
    return tuple(tuple((last - j, x) for j, x in reversed(red[i]))
                 for i in reversed(range(len(pivots))))


def solve(a: Mat, b: Vec, ncols: int) -> Optional[Vec]:
    """One exact solution x of A x = b in ncols unknowns, or None if
    inconsistent."""
    red, pivots = rref(tuple(row + ((ncols, y),) if y else row
                             for row, y in zip(a, b)))
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        if row[-1][0] == ncols:
            x[p] = row[-1][1]
    return tuple(x)


def inverse(a: Mat) -> Mat:
    n = len(a)
    red, pivots = rref(tuple(row + ((n + i, Fraction(1)),)
                             for i, row in enumerate(a)))
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple((j - n, x) for j, x in row[1:]) for row in red)


def charpoly(a: Mat) -> Tuple:
    """Characteristic polynomial det(xI - A), coefficients highest first.

    Faddeev-LeVerrier; exact over any characteristic-zero field.
    """
    n = len(a)
    coeffs = [Fraction(1)]
    ident = identity(n)
    m = ident
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        ck = -trace(m) / k
        coeffs.append(ck)
        m = mat_comb(((1, m), (ck, ident)), n)
    return tuple(coeffs)


def restrict_matrix(m: Mat, basis: Sequence[Vec]) -> Mat:
    """Matrix of m on span(basis); raises if the span is not invariant.

    One elimination of [basis | m * basis]: a pivot in the image columns
    is an image outside the span.
    """
    d = len(basis)
    if not d:
        return ()
    images = [mat_vec(m, b) for b in basis]
    red, pivots = rref(tuple(
        _row({**{j: b[i] for j, b in enumerate(basis)},
              **{d + j: v[i] for j, v in enumerate(images)}})
        for i in range(len(basis[0]))))
    if pivots and pivots[-1] >= d:
        raise ValueError("subspace is not invariant")
    out = [()] * d
    for row, p in zip(red, pivots):
        out[p] = tuple((j - d, x) for j, x in row if j >= d)
    return tuple(out)


def intertwiner_matrices(pairs: Sequence[Tuple[Mat, Mat]], nrows: int,
                         ncols: int) -> List[Mat]:
    """Basis of {M : X M = M Y for all (X, Y) in pairs}; M is nrows x ncols.

    Entry (i, j) of X M - M Y is one equation in the unknowns M[a][b], at
    a * ncols + b: X[i][a] at (a, j) and -Y[b][j] at (i, b), so it has at
    most nrows + ncols terms.
    """
    sys_rows = []
    for x, y in pairs:
        y_cols = transpose(y, ncols)
        for i in range(nrows):
            for j in range(ncols):
                acc = {a * ncols + j: v for a, v in x[i]}
                for b, v in y_cols[j]:
                    k = i * ncols + b
                    acc[k] = acc[k] - v if k in acc else -v
                row = _row(acc)
                if row:
                    sys_rows.append(row)
    return [tuple(_row(dict(enumerate(v[i * ncols:(i + 1) * ncols])))
                  for i in range(nrows))
            for v in nullspace(sys_rows, nrows * ncols)]


# ---------------------------------------------------------------------------
# Univariate polynomials: dense coefficient tuples, lowest degree first.
# ---------------------------------------------------------------------------

def poly1_trim(p: Sequence) -> Tuple:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def poly1_add(p, q):
    n = max(len(p), len(q))
    return poly1_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                       for i in range(n)])


def poly1_scale(c, p):
    return poly1_trim([c * a for a in p])


def poly1_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return poly1_trim(out)


def _unit_inverse(c):
    """1 / c, an integer when c is 1 or -1."""
    return c if c in (1, -1) else Fraction(1) / c


def poly1_divmod(p, q):
    """Quotient and remainder; integer p and q with leading coefficient
    1 or -1 in q give integer ones."""
    q = poly1_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(poly1_trim(p))
    quo = [0] * max(0, len(r) - len(q) + 1)
    u = _unit_inverse(q[-1])
    while len(r) >= len(q):
        f = r[-1] * u
        d = len(r) - len(q)
        quo[d] = f
        for i, b in enumerate(q):
            r[d + i] = r[d + i] - f * b
        while r and not r[-1]:
            r.pop()
    return poly1_trim(quo), poly1_trim(r)


def _parts(x) -> Tuple:
    return (x.re, x.im) if isinstance(x, QI) else (x,)


def poly1_gcd(p, q):
    """The gcd with leading coefficient 1 of polynomials over Z, or over
    Z[i] as `QI` with integer parts: a primitive pseudo-remainder sequence,
    each remainder divided by the gcd of its coefficients' parts.  The gcd
    is integral when its primitive form has leading coefficient 1 or -1."""
    p, q = poly1_trim(p), poly1_trim(q)
    while q:
        r = list(p)
        while len(r) >= len(q):
            c, d = r[-1], len(r) - len(q)
            r = [x * q[-1] for x in r]
            for i, b in enumerate(q):
                r[d + i] -= c * b
            r = list(poly1_trim(r))
        g = math.gcd(*(int(y) for x in r for y in _parts(x))) if r else 1
        p, q = q, tuple(QI(x.re / g, x.im / g) if isinstance(x, QI)
                        else x // g for x in r)
    if p:
        u = _unit_inverse(p[-1])
        p = tuple(a * u for a in p)
    return p


def series_inverse(p: Sequence, order: int) -> Tuple:
    """Power series inverse of p to the given order; p[0] must be nonzero,
    and integer p with p[0] = 1 or -1 gives an integer inverse."""
    if not p or not p[0]:
        raise ValueError("series has no inverse (zero constant term)")
    u = _unit_inverse(p[0])
    inv = [u] + [0] * order
    for n in range(1, order + 1):
        inv[n] = -u * sum(p[k] * inv[n - k]
                          for k in range(1, min(n, len(p) - 1) + 1))
    return tuple(inv)


# ---------------------------------------------------------------------------
# Root extraction for characteristic polynomials.
# ---------------------------------------------------------------------------

def roots(coeffs_highest_first, gaussian: bool = False) -> Tuple[List, Tuple]:
    """Roots in Q (as Fraction), or in Q(i) (as QI) when `gaussian`, sorted,
    with multiplicities, plus the rootless residual.

    Input and residual are highest-degree-first coefficients.  Candidates
    come from p-adic lifting (`_lifted_candidates`); each is confirmed and
    counted by synthetic division of the input.
    """
    p = [QI.of(c) if gaussian else Fraction(c) for c in coeffs_highest_first]
    while p and not p[0]:
        p.pop(0)
    if not p:
        raise ValueError("zero polynomial")
    found = []
    key = (lambda z: (z.re, z.im)) if gaussian else None
    for z in sorted(_lifted_candidates(p, gaussian), key=key):
        mult = 0
        while len(p) > 1:
            # synthetic division by (x - z)
            out = [p[0]]
            for c in p[1:-1]:
                out.append(c + out[-1] * z)
            if p[-1] + out[-1] * z:
                break
            p = out
            mult += 1
        if mult:
            found.append((z, mult))
    return found, tuple(p)


def _lifted_candidates(p: List, gaussian: bool) -> set:
    """A superset of the roots of p in Q, or Q(i), by p-adic lifting.

    The square-free part, scaled by y = D*x to a monic polynomial g over Z
    or Z[i], has integral roots of size at most a bound B.  At an odd prime
    q (q = 1 mod 4, with iota^2 = -1, for Q(i)) where each root of g mod q
    is simple, Newton's method lifts those roots, and iota, to a modulus
    m = q^(2^t) > 2B^2.  A root a + bi of g maps to the roots a + b*iota and
    a - b*iota of the images of g under i -> +iota and i -> -iota.
    """
    low = tuple(reversed(p))
    den = math.lcm(*(x.denominator for c in low for x in _parts(c)))
    scaled = [c * den if gaussian else c.numerator * (den // c.denominator)
              for c in low]  # over Z or Z[i]
    low = poly1_divmod(low, poly1_gcd(scaled, [j * c for j, c in
                                              enumerate(scaled)][1:]))[0]
    f = [QI.of(c / low[-1]) for c in reversed(low)]
    if len(f) < 3:  # a constant has no root, a linear factor one
        return {-f[1] if gaussian else -f[1].re} if f[1:] else set()
    den = math.lcm(*(x.denominator for c in f for x in (c.re, c.im)))
    g = [((c.re * den ** j).numerator, (c.im * den ** j).numerator)
         for j, c in enumerate(f)]
    # Fujiwara's bound 2 max |g_j|^(1/j) on |roots|, rounded up to 2^e
    bound = 2 ** max(2 + (abs(a) + abs(b)).bit_length() // j
                     for j, (a, b) in enumerate(g) if j)
    signs = (1, -1) if gaussian else (1,)
    for q in itertools.count(3, 2):
        if any(q % d == 0 for d in range(3, math.isqrt(q) + 1, 2)) or \
                gaussian and q % 4 != 1:
            continue
        iota = next((t for t in range(q) if t * t % q == q - 1), 0)
        images = [[(a + s * b * iota) % q for a, b in g] for s in signs]
        lifted = [[r for r in range(q) if not _horner(h, r, q)[0]]
                  for h in images]
        if all(_horner(h, r, q)[1] for h, rs in zip(images, lifted)
               for r in rs):
            break
    m = q
    while m <= 2 * bound * bound:
        m *= m
        if gaussian:
            iota = _newton((1, 0, 1), iota, m)
        images = [[(a + s * b * iota) % m for a, b in g] for s in signs]
        lifted = [[_newton(h, r, m) for r in rs]
                  for h, rs in zip(images, lifted)]
    found = set()
    half, half_iota = pow(2, -1, m), pow(2 * iota, -1, m) if gaussian else 0
    pairs = itertools.product(*lifted) if gaussian else \
        ((r, r) for r in lifted[0])
    for r1, r2 in pairs:
        # symmetric residues of (r1 + r2) / 2 and (r1 - r2) / (2 iota)
        a, b = ((x + m // 2) % m - m // 2
                for x in ((r1 + r2) * half, (r1 - r2) * half_iota))
        if abs(a) <= bound and abs(b) <= bound:
            found.add(QI(Fraction(a, den), Fraction(b, den)) if gaussian
                      else Fraction(a, den))
    return found


def _horner(h: Sequence[int], r: int, m: int) -> Tuple[int, int]:
    """(h(r), h'(r)) mod m for integer coefficients h, highest first."""
    v = d = 0
    for c in h:
        d = (d * r + v) % m
        v = (v * r + c) % m
    return v, d


def _newton(h: Sequence[int], r: int, m: int) -> int:
    """The root mod m lifting a simple root r of h mod a square root of m."""
    v, d = _horner(h, r, m)
    return (r - v * pow(d, -1, m)) % m
