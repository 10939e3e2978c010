"""Exact linear algebra over the rationals and Gaussian rationals.

Vectors are tuples of scalars, matrices are tuples of row tuples.  Scalars
are `fractions.Fraction` or `QI` (Gaussian rationals); every routine here is
field-generic over those two types.  No floating point anywhere.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import GradedHeckeError  # noqa: F401  (re-exported)

Q = Fraction

Vec = Tuple[Q, ...]
Mat = Tuple[Vec, ...]


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


def mat(rows) -> Mat:
    return tuple(vec(r) for r in rows)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                 for i in range(n))


def scalar_matrix(c, n: int) -> Mat:
    return tuple(tuple(c if i == j else Fraction(0) for j in range(n))
                 for i in range(n))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def dot(u: Vec, v: Vec):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Row i of the product is the sum of a[i][k] * b[k] over nonzero
    a[i][k], each taken over the nonzero entries of b[k] only."""
    width = len(b[0]) if b else 0
    if not width:
        return tuple(() for _ in a)
    support = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    zero = Fraction(0)
    out = []
    for row in a:
        if len(row) != len(b):
            raise ValueError(f"dimension mismatch: {len(row)} vs {len(b)}")
        acc = {}
        for x, bk in zip(row, support):
            if x:
                for j, y in bk:
                    acc[j] = acc[j] + x * y if j in acc else x * y
        out.append(tuple(acc.get(j, zero) for j in range(width)))
    return tuple(out)


def mat_comb(coeffs: Sequence, mats: Sequence[Mat], n: int) -> Mat:
    """The n x n matrix sum of coeffs[k] * mats[k], over nonzero
    coefficients and nonzero entries only."""
    out = [[Fraction(0)] * n for _ in range(n)]
    for c, m in zip(coeffs, mats):
        if c:
            for acc, row in zip(out, m):
                for j, x in enumerate(row):
                    if x:
                        acc[j] = acc[j] + c * x
    return tuple(tuple(r) for r in out)


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(vec_sub(r, s) for r, s in zip(a, b))


def transpose(a: Mat) -> Mat:
    if not a:
        return ()
    return tuple(zip(*a))


def trace(a: Mat):
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def rref(rows: Sequence[Sequence]) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column list).

    Only the pivot row's nonzero columns are normalised and eliminated, so
    the work follows the fill, not the width.  Values equal those of dense
    Gauss-Jordan elimination; a skipped zero keeps its input scalar type.
    """
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        pv = prow[c]
        support = [j for j, x in enumerate(prow) if x]
        for j in support:
            prow[j] = prow[j] / pv
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Sequence) -> int:
    """Rank over Q or Q(i); a row is a sequence or a {column: value} map.

    Fraction-free forward elimination on sparse integer rows: each row is
    scaled to integers by the lcm of its denominators and reduced by
    a*row - b*pivot_row against pivot rows kept primitive (divided by their
    gcd content).  Gaussian-rational rows are realified: the Q(i)-rank of
    A + iB is half the Q-rank of the rows [Re | -Im] and [Im | Re].
    """
    items = (row.items() if isinstance(row, dict) else enumerate(row)
             for row in rows)
    sparse = [{j: x for j, x in row if x} for row in items]
    if not any(isinstance(x, QI) for row in sparse for x in row.values()):
        return _integer_rank(sparse)
    shift = 1 + max(j for row in sparse for j in row)
    real = []
    for row in sparse:
        row = [(j, QI.of(x)) for j, x in row.items()]
        real.append({**{j: z.re for j, z in row},
                     **{j + shift: -z.im for j, z in row}})
        real.append({**{j: z.im for j, z in row},
                     **{j + shift: z.re for j, z in row}})
    return _integer_rank(real) // 2


def _integer_rank(rows: Sequence[dict]) -> int:
    pivots = {}  # leading column -> primitive integer row
    for row in rows:
        row = integer_form({j: x for j, x in row.items() if x}, 0)[1]
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = row
                break
            g = math.gcd(prow[lead], row[lead])
            a, b = prow[lead] // g, row[lead] // g
            if a != 1:
                row = {j: a * x for j, x in row.items()}
            for j, x in prow.items():
                y = row.get(j, 0) - b * x
                if y:
                    row[j] = y
                else:
                    row.pop(j, None)
            row = integer_form(row, 0)[1]
    return len(pivots)


def integer_form(row: dict, den: int = 1) -> Tuple[int, dict]:
    """row / den (nonzero rationals) as (d, {key: integer n}) with n / d equal
    to it and gcd(d, *n) == 1, d > 0 the least common denominator; den = 0
    gives the primitive integer multiple of row instead, all a rank needs."""
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


def nullspace(rows: Sequence[Sequence], ncols: Optional[int] = None) -> List[Vec]:
    """Basis of {x : A x = 0}, canonical (one free column set to 1 each)."""
    rows = [list(r) for r in rows]
    if ncols is None:
        if not rows:
            raise ValueError("nullspace of empty system needs ncols")
        ncols = len(rows[0])
    if not rows:
        return list(identity(ncols))
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for i, p in enumerate(pivots):
            x[p] = -red[i][f]
        basis.append(tuple(x))
    return basis


def canonical_basis(vectors: Sequence[Sequence]) -> List[Vec]:
    """The basis `nullspace` gives for span(vectors), from any spanning set.

    That basis is the reduced row echelon form taken with the columns in
    reverse order: each vector is 1 at its last nonzero column (the free
    column of `nullspace`) and 0 at the others' last nonzero columns.
    """
    red, pivots = rref([list(reversed(v)) for v in vectors])
    return [tuple(reversed(red[i])) for i in reversed(range(len(pivots)))]


def solve(a: Sequence[Sequence], b: Sequence) -> Optional[Vec]:
    """One exact solution of A x = b, or None if inconsistent."""
    rows = [list(r) + [bb] for r, bb in zip(a, b)]
    if not rows:
        return ()
    n = len(rows[0]) - 1
    red, pivots = rref(rows)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, p in enumerate(pivots):
        x[p] = red[i][n]
    return tuple(x)


def inverse(a: Mat) -> Mat:
    n = len(a)
    rows = [list(r) + list(e) for r, e in zip(a, identity(n))]
    red, pivots = rref(rows)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


def det(a: Mat):
    n = len(a)
    m = [list(r) for r in a]
    d = Fraction(1)
    for c in range(n):
        pr = None
        for i in range(c, n):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            d = -d
        d = d * m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d


def charpoly(a: Mat) -> Tuple:
    """Characteristic polynomial det(xI - A), coefficients highest first.

    Faddeev-LeVerrier; exact over any characteristic-zero field.
    """
    n = len(a)
    coeffs = [Fraction(1)]
    m = identity(n)
    for k in range(1, n + 1):
        m = [list(r) for r in mat_mul(a, m)]
        ck = -trace(m) / k
        coeffs.append(ck)
        for i in range(n):
            m[i][i] = m[i][i] + ck
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
    rows = [[b[i] for b in basis] + [v[i] for v in images]
            for i in range(len(basis[0]))]
    red, pivots = rref(rows)
    if pivots and pivots[-1] >= d:
        raise ValueError("subspace is not invariant")
    out = [zero_vec(d)] * d
    for row, p in zip(red, pivots):
        out[p] = tuple(row[d:])
    return tuple(out)


def intertwiner_matrices(pairs: Sequence[Tuple[Mat, Mat]], nrows: int,
                         ncols: int) -> List[Mat]:
    """Basis of {M : X M = M Y for all (X, Y) in pairs}; M is nrows x ncols."""
    sys_rows = []
    for x, y in pairs:
        for i in range(nrows):
            for j in range(ncols):
                row = [Fraction(0)] * (nrows * ncols)
                for a in range(nrows):
                    row[a * ncols + j] = row[a * ncols + j] + x[i][a]
                for b in range(ncols):
                    row[i * ncols + b] = row[i * ncols + b] - y[b][j]
                sys_rows.append(row)
    basis = nullspace(sys_rows, nrows * ncols)
    out = []
    for v in basis:
        out.append(tuple(tuple(v[i * ncols + j] for j in range(ncols))
                         for i in range(nrows)))
    return out


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
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return poly1_trim(out)


def poly1_divmod(p, q):
    q = poly1_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(poly1_trim(p))
    quo = [Fraction(0)] * max(0, len(r) - len(q) + 1)
    while len(r) >= len(q):
        f = r[-1] / q[-1]
        d = len(r) - len(q)
        quo[d] = f
        for i, b in enumerate(q):
            r[d + i] = r[d + i] - f * b
        while r and not r[-1]:
            r.pop()
    return poly1_trim(quo), poly1_trim(r)


def poly1_gcd(p, q):
    p, q = poly1_trim(p), poly1_trim(q)
    while q:
        p, q = q, poly1_divmod(p, q)[1]
    if p:
        lead = p[-1]
        p = tuple(a / lead for a in p)
    return p


def series_inverse(p: Sequence, order: int) -> Tuple:
    """Power series inverse of p to the given order; p[0] must be nonzero."""
    if not p or not p[0]:
        raise ValueError("series has no inverse (zero constant term)")
    inv = [Fraction(0)] * (order + 1)
    inv[0] = 1 / p[0]
    for n in range(1, order + 1):
        s = Fraction(0)
        for k in range(1, min(n, len(p) - 1) + 1):
            s += p[k] * inv[n - k]
        inv[n] = -s / p[0]
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
    low = poly1_divmod(low, poly1_gcd(low, [j * c for j, c in
                                           enumerate(low)][1:]))[0]
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
