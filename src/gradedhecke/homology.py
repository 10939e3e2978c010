"""Hochschild/cyclic homology engines, point modules and the basis theorem.

Finite-dimensional algebras get the literal bar and mixed complexes with
exact rank computations.  The crossed product W' x| S(t*) is handled through
its closed-form census: per-conjugacy-class Molien series of invariant forms
on the fixed spaces, with HP_1 = 0 forced by the contractibility of each
fixed space and HP_0 = HH_0(Q[W']) checked against the class count.  Point
modules of A x| G are solved on fibre blocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .hecke import HeckeAlgebra
from .linalg import (GradedHeckeError, Mat, Q, Vec, mat, mat_vec, rank,
                     restrict_matrix)
from .poly import PoincareSeries, molien_forms, sum_series
from .rootdata import RootDatum
from .weyl import WeylGroup, enumerate_group, permutation_bfs

if TYPE_CHECKING:
    from .modules import DSCatalogEntry

SIZE_BOUND = 10 ** 6


class HomologyError(GradedHeckeError):
    pass


class SizeBoundExceeded(HomologyError):
    pass


@dataclass
class FinDimAlgebra:
    """A finite-dimensional unital algebra by structure constants over Q.

    mult[i][j] is the coordinate vector of e_i * e_j; associativity and the
    unit laws are checked at construction.
    """

    dim: int
    mult: Tuple[Tuple[Vec, ...], ...]
    unit: Vec
    label: str = ""

    def __post_init__(self):
        d = self.dim
        for i in range(d):
            for j in range(d):
                if len(self.mult[i][j]) != d:
                    raise HomologyError("structure constants have wrong shape")
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    left = self._mul_vec(self.mult[i][j],
                                         self._basis_vec(k))
                    right = self._mul_vec(self._basis_vec(i),
                                          self.mult[j][k])
                    if left != right:
                        raise HomologyError(
                            f"associativity fails at ({i},{j},{k})")
        for i in range(d):
            if self._mul_vec(self.unit, self._basis_vec(i)) != \
                    self._basis_vec(i) or \
                    self._mul_vec(self._basis_vec(i), self.unit) != \
                    self._basis_vec(i):
                raise HomologyError("unit laws fail")

    @cached_property
    def table(self) -> Tuple[Tuple[Tuple[Tuple[int, Q], ...], ...], ...]:
        """Sparse structure constants: table[i][j] lists the (k, c) with
        c = (e_i * e_j)_k nonzero."""
        return tuple(tuple(tuple((k, c) for k, c in enumerate(v) if c)
                           for v in row) for row in self.mult)

    def _basis_vec(self, i: int) -> Vec:
        return tuple(Fraction(1 if t == i else 0) for t in range(self.dim))

    def _mul_vec(self, a: Vec, b: Vec) -> Vec:
        out = [Fraction(0)] * self.dim
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if not cb:
                    continue
                for k, c in self.table[i][j]:
                    out[k] += ca * cb * c
        return tuple(out)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def ground_field() -> "FinDimAlgebra":
        one = (Fraction(1),)
        return FinDimAlgebra(dim=1, mult=((one,),), unit=one, label="Q")

    @staticmethod
    def matrix_algebra(n: int) -> "FinDimAlgebra":
        d = n * n

        def idx(r, c):
            return r * n + c

        mult = [[None] * d for _ in range(d)]
        for r1 in range(n):
            for c1 in range(n):
                for r2 in range(n):
                    for c2 in range(n):
                        out = [Fraction(0)] * d
                        if c1 == r2:
                            out[idx(r1, c2)] = Fraction(1)
                        mult[idx(r1, c1)][idx(r2, c2)] = tuple(out)
        unit = [Fraction(0)] * d
        for r in range(n):
            unit[idx(r, r)] = Fraction(1)
        return FinDimAlgebra(dim=d, mult=tuple(tuple(r) for r in mult),
                             unit=tuple(unit), label=f"M{n}(Q)")

    @staticmethod
    def group_algebra(elements, mult_fn, label="Q[G]") -> "FinDimAlgebra":
        """Group algebra from an element list and a multiplication callback."""
        elements = list(elements)
        index = {g: i for i, g in enumerate(elements)}
        d = len(elements)
        mult = []
        for a in elements:
            row = []
            for b in elements:
                out = [Fraction(0)] * d
                out[index[mult_fn(a, b)]] = Fraction(1)
                row.append(tuple(out))
            mult.append(tuple(row))
        identity_idx = next((i for i, g in enumerate(elements)
                             if all(mult_fn(g, h) == h and mult_fn(h, g) == h
                                    for h in elements)), None)
        if identity_idx is None:
            raise HomologyError("group has no identity element")
        unit = [Fraction(0)] * d
        unit[identity_idx] = Fraction(1)
        return FinDimAlgebra(dim=d, mult=tuple(mult), unit=tuple(unit),
                             label=label)

    @staticmethod
    def of_weyl_group(group: WeylGroup) -> "FinDimAlgebra":
        return FinDimAlgebra.group_algebra(
            list(group.elements), group.mult,
            label=f"Q[W'({group.datum.label})]")


# ---------------------------------------------------------------------------
# Bar and mixed complexes.
# ---------------------------------------------------------------------------

def check_size_bound(dim: int, n_max: int, bound: int, cyclic=False) -> None:
    """Reject a run to degree n_max whose largest boundary matrix,
    A^{(x)power} to A^{(x)(power-1)}, has more than bound entries: b_{n_max+1}
    or, in a cyclic run's identity check, b_{min(3, n_max+2)}."""
    power = max(n_max, min(2, n_max + 1) if cyclic else 0) + 2
    if dim ** (2 * power - 1) > bound:
        raise SizeBoundExceeded(
            f"boundary matrix of {dim}**{power - 1} x {dim}**{power} "
            f"entries exceeds bound {bound}")


def _tensor_basis(dim: int, n: int) -> List[Tuple[int, ...]]:
    out = [()]
    for _ in range(n):
        out = [t + (i,) for t in out for i in range(dim)]
    return out


def _basis_index(dim: int, t: Tuple[int, ...]) -> int:
    out = 0
    for i in t:
        out = out * dim + i
    return out


def _add(rows: List[Dict[int, Q]], r: int, c: int, v: Q) -> None:
    """rows[r][c] += v."""
    row = rows[r]
    row[c] = row[c] + v if c in row else v


def hochschild_boundary(algebra: FinDimAlgebra, n: int) -> Mat:
    """The matrix of b : A^{(x)(n+1)} -> A^{(x)n} on tensor basis vectors.

    b(a_0 (x) ... (x) a_n) = sum_{i=0}^{n-1} (-1)^i ... a_i a_{i+1} ...
                             + (-1)^n a_n a_0 (x) a_1 (x) ... (x) a_{n-1}.
    Column c is the image of the c-th basis tensor.
    """
    d, table = algebra.dim, algebra.table
    rows: List[Dict[int, Q]] = [{} for _ in range(d ** n)]
    for col, t in enumerate(_tensor_basis(d, n + 1)):
        for i in range(n):
            for k, c in table[t[i]][t[i + 1]]:
                _add(rows, _basis_index(d, t[:i] + (k,) + t[i + 2:]), col,
                     -c if i % 2 else c)
        for k, c in table[t[n]][t[0]]:
            _add(rows, _basis_index(d, (k,) + t[1:n]), col,
                 -c if n % 2 else c)
    return mat(rows)


def connes_boundary(algebra: FinDimAlgebra, n: int) -> Mat:
    """The matrix of B = (1 - t) s N : A^{(x)(n+1)} -> A^{(x)(n+2)}."""
    d = algebra.dim
    unit = [(u, c) for u, c in enumerate(algebra.unit) if c]
    sgn_t = -1 if (n + 1) % 2 else 1  # sign of t on n+2 tensor factors
    rows: List[Dict[int, Q]] = [{} for _ in range(d ** (n + 2))]
    for col, t in enumerate(_tensor_basis(d, n + 1)):
        # N = sum_i t^i with t(a_0...a_n) = (-1)^n a_n (x) a_0 ... a_{n-1}
        for i in range(n + 1):
            shifted = t[n + 1 - i:] + t[:n + 1 - i]
            sgn_n = -1 if n * i % 2 else 1
            # s: prepend the unit; then (1 - t') on n+2 tensor factors
            for u, u_c in unit:
                s_t = (u,) + shifted
                _add(rows, _basis_index(d, s_t), col, sgn_n * u_c)
                _add(rows, _basis_index(d, s_t[-1:] + s_t[:-1]), col,
                     -sgn_n * sgn_t * u_c)
    return mat(rows)


def hochschild_homology(algebra: FinDimAlgebra, n_max: int,
                        bound: int = SIZE_BOUND) -> List[int]:
    """Exact Betti numbers HH_0..HH_{n_max} of the Hochschild complex."""
    check_size_bound(algebra.dim, n_max, bound)
    d = algebra.dim
    ranks = [0]  # rank of b_0 = 0
    for n in range(1, n_max + 2):
        ranks.append(rank(hochschild_boundary(algebra, n)))
    out = []
    for n in range(n_max + 1):
        dim_cn = d ** (n + 1)
        out.append(dim_cn - ranks[n] - ranks[n + 1])
    return out


def _mixed_total_boundary(algebra: FinDimAlgebra, n: int) -> Mat:
    """The matrix of the total differential b + B : B_n -> B_{n-1} of the
    mixed bicomplex; source block j is A^{(x)(n+1-2j)}, target block j is
    A^{(x)(n-2j)}.  Target block j is the image of b on source block j and
    of B on source block j + 1, so each of its rows is a row of b followed
    by a row of B."""
    d = algebra.dim
    src_off = [0]
    for j in range(n // 2):
        src_off.append(src_off[-1] + d ** (n + 1 - 2 * j))
    rows = []
    for j in range((n - 1) // 2 + 1):
        b = hochschild_boundary(algebra, n - 2 * j)
        big_b = connes_boundary(algebra, n - 2 * j - 2) if 2 * j + 2 <= n \
            else ((),) * len(b)
        rows += [tuple((src_off[j] + c, v) for c, v in rb)
                 + tuple((src_off[j + 1] + c, v) for c, v in rB)
                 for rb, rB in zip(b, big_b)]
    return tuple(rows)


def verify_mixed_identities(algebra: FinDimAlgebra, n: int,
                            trials: int = 5, seed: int = 7) -> None:
    """Check b b = 0 and b B + B b = 0 exactly on random chains."""
    rng = random.Random(seed)
    d = algebra.dim
    b_n = hochschild_boundary(algebra, n)
    b_nm1 = hochschild_boundary(algebra, n - 1) if n >= 2 else None
    b_np1 = hochschild_boundary(algebra, n + 1)
    big_b = connes_boundary(algebra, n)
    small_b = connes_boundary(algebra, n - 1)
    for _ in range(trials):
        chain = [Fraction(rng.randint(-3, 3)) for _ in range(d ** (n + 1))]
        bx = mat_vec(b_n, chain)
        if b_nm1 is not None:
            if any(mat_vec(b_nm1, bx)):
                raise HomologyError("b o b != 0")
        bBx = mat_vec(b_np1, mat_vec(big_b, chain))
        Bbx = mat_vec(small_b, bx)
        if any(x + y for x, y in zip(bBx, Bbx)):
            raise HomologyError("b B + B b != 0")


def cyclic_homology(algebra: FinDimAlgebra, n_max: int,
                    bound: int = SIZE_BOUND) -> List[int]:
    """HC_0..HC_{n_max} from the mixed bicomplex with total differential b + B."""
    check_size_bound(algebra.dim, n_max, bound, cyclic=True)
    verify_mixed_identities(algebra, min(2, n_max + 1))
    d = algebra.dim

    def dim_b(n: int) -> int:
        return sum(d ** (n + 1 - 2 * j) for j in range((n // 2) + 1))

    ranks = [0] + [rank(_mixed_total_boundary(algebra, n))
                   for n in range(1, n_max + 2)]
    return [dim_b(n) - ranks[n] - ranks[n + 1] for n in range(n_max + 1)]


# ---------------------------------------------------------------------------
# Crossed-product censuses: closed forms from fixed-space invariant forms.
# ---------------------------------------------------------------------------

@dataclass
class CensusClassEntry:
    rep_word: str
    size: int
    fixed_dim: int
    series: Tuple[PoincareSeries, ...]  # per form degree 0..dim t


@dataclass
class HomologyCensus:
    datum_label: str
    group_order: int
    class_count: int
    truncation: int
    entries: Tuple[CensusClassEntry, ...]
    totals: Tuple[PoincareSeries, ...]
    hp0: int
    hp1: int

    def __post_init__(self):
        if self.hp0 != self.class_count:
            raise HomologyError("HP census must satisfy HP0 = #classes")


def crossed_product_census(datum: RootDatum, gammas=(), truncation: int = 16,
                           group: Optional[WeylGroup] = None) -> HomologyCensus:
    """Per-class Poincare series of invariant forms on fixed spaces.

    HH_n of W' x| S(t*) is the sum over conjugacy classes of the degree-n
    invariant-form series on t^w under the centralizer; HH_n vanishes for
    n > dim t and HP_1 = 0.  HP_0 = HH_0(Q[W']) is computed by `group_hh0`
    and must equal the class count.
    """
    if group is None:
        group = enumerate_group(datum, gammas)
    census = group.census
    entries = []
    for cls in census.entries:
        restricted = [restrict_matrix(z.matrix, cls.fixed_basis)
                      for z in cls.centralizer]
        entries.append(CensusClassEntry(
            rep_word=repr(cls.rep), size=cls.size, fixed_dim=cls.fixed_dim,
            series=molien_forms(restricted, datum.ambient_dim, truncation)))
    totals = [sum_series(column)
              for column in zip(*(e.series for e in entries))]
    if totals[0].coeffs[0] != len(census.entries):
        raise HomologyError("degree-0 census must count one constant per class")
    return HomologyCensus(datum_label=datum.label, group_order=len(group),
                          class_count=len(census.entries),
                          truncation=truncation, entries=tuple(entries),
                          totals=tuple(totals), hp0=group_hh0(group),
                          hp1=0)


def group_hh0(group: WeylGroup) -> int:
    """dim HH_0(Q[W']) = |W'| - rank of the commutator span, the image of b_1.

    x - h x h^-1 telescopes along a word for h, so the rows x - s x s^-1 with
    s a simple reflection or a Gamma element span it.
    """
    gens = [group.simple(i) for i in range(group.datum.rank)] + \
        [group.gamma_element(c.label) for c in group.gamma.elements]
    rows = []
    for s in gens:
        for x in group.elements:
            y = group.mult(group.mult(s, x), group.inv(s)).index
            if y != x.index:
                rows.append({x.index: 1, y: -1})
    return len(group) - rank(mat(rows))


# ---------------------------------------------------------------------------
# Crossed-product point modules (induced from a point of a finite orbit).
# ---------------------------------------------------------------------------

@dataclass
class PointModuleReport:
    orbit: Tuple[int, ...]
    stabilizer_order: int
    stabilizer_classes: int
    constituents: int
    match: bool


def _hom_cells(perms: Sequence[Tuple[int, ...]], right, x: int, y: int):
    """Hom(I_x, I_y): M commutes with the functions iff it lives on the
    cells (a, b) with a(y) = b(x), the fibres of a -> a(y) against those of
    b -> b(x), and with a generator h iff M[h a, h b] = M[a, b]; Hom is
    spanned by the indicators of the cell classes the `right` maps join.
    Each class meets the row of the identity (index 0) once, (a, b) ~
    (1, a^-1 b).  Returns {cell: class} and the number of classes."""
    cls: Dict[Tuple[int, int], int] = {}
    count = 0
    for b, p in enumerate(perms):
        if p[x] != y:
            continue
        cls[0, b], stack = count, [(0, b)]
        while stack:
            a, c = stack.pop()
            for r in right:
                if (r[a], r[c]) not in cls:
                    cls[r[a], r[c]] = count
                    stack.append((r[a], r[c]))
        count += 1
    return cls, count


def crossed_point_module(perms: Sequence[Tuple[int, ...]], x: int,
                         bound: int = 3000) -> PointModuleReport:
    """Build I_x for functions on the orbit Gx, count its constituents.

    G is generated by `perms` (p[i] the image of i); I_x has the basis v_g,
    h v_g = v_{hg}, f v_g = f(g(x)) v_g.  The number of inequivalent
    irreducible constituents is the dimension of the center of the commutant
    (a field-independent count of the complex constituents); it must equal
    the number of conjugacy classes of G_x, counted apart as commuting pairs
    over |G_x|.  The commutant has |G| * |G_x| unknowns, at most bound * 10.
    """
    if not perms:
        raise HomologyError("a point module needs at least one generator")
    n = len(perms[0])
    bad = next((p for p in perms if sorted(p) != list(range(n))), None)
    if bad is not None:
        raise HomologyError(f"generator {tuple(bad)} is not a permutation "
                            f"of range({n})")
    if not 0 <= x < n:
        raise HomologyError(f"the point must lie in range({n})")
    group, _, right = permutation_bfs(perms, bound * 10)
    stab = [k for k, g in enumerate(group) if g[x] == x]
    if len(group) * len(stab) > bound * 10:  # also if the BFS stopped early
        raise HomologyError(f"point module exceeds the bound of {bound * 10} "
                            "fibre-block unknowns |G| * |G_x|")
    orbit = tuple(sorted({g[x] for g in group}))
    members = [group[k] for k in stab]  # Burnside: commuting pairs / |G_x|
    classes = sum(tuple(map(g.__getitem__, h)) == tuple(map(h.__getitem__, g))
                  for g in members for h in members) // len(stab)
    cls, dim = _hom_cells(group, right, x, x)
    # c_i c_j at the cell (1, s) of class k sums c_i[1, m] c_j[m, s], m in G_x;
    # row i holds [c_i, c_j] at column j * dim + k: the center is its kernel
    brackets: List[Dict[int, int]] = [{} for _ in range(dim)]
    for s in stab:
        for m in stab:
            i, j, k = cls[0, m], cls[m, s], cls[0, s]
            brackets[i][j * dim + k] = brackets[i].get(j * dim + k, 0) + 1
            brackets[j][i * dim + k] = brackets[j].get(i * dim + k, 0) - 1
    constituents = dim - rank(mat(brackets))
    return PointModuleReport(
        orbit=orbit, stabilizer_order=len(stab), stabilizer_classes=classes,
        constituents=constituents, match=(constituents == classes))


# ---------------------------------------------------------------------------
# The main theorem at desk scale.
# ---------------------------------------------------------------------------

@dataclass
class BasisTheoremReport:
    datum_label: str
    k_values: Tuple[Q, ...]
    class_count: int
    hp0: int
    irr0_count: int
    module_names: Tuple[str, ...]
    module_dims: Tuple[int, ...]
    trace_matrix: Tuple[Tuple[Q, ...], ...]
    matrix_rank: int
    counts_match: bool
    full_rank: bool
    passed: bool


def verify_basis_theorem(algebra: HeckeAlgebra,
                         catalog: Optional[Sequence[DSCatalogEntry]] = None
                         ) -> BasisTheoremReport:
    """Check #Irr_0 = #classes(W') = HP_0 and full rank of the trace matrix.

    HP_0(H') = HH_0(Q[W']) for every k, Q[W'] being semisimple.  A rank or
    count failure is reported as a falsification flag, never silently
    absorbed.
    """
    from .modules import auto_catalog, irr0_census
    if catalog is None:
        catalog = auto_catalog(algebra)
    census = algebra.group.census
    hp0 = group_hh0(algebra.group)
    modules = irr0_census(algebra, catalog)
    matrix = tuple(m.restriction_character().values for m in modules)
    mrank = rank(mat(matrix))
    counts_match = (len(modules) == len(census) == hp0)
    full_rank = (mrank == len(census) and len(matrix) == len(census))
    return BasisTheoremReport(
        datum_label=algebra.datum.label, k_values=algebra.kmap.values,
        class_count=len(census), hp0=hp0, irr0_count=len(modules),
        module_names=tuple(m.name for m in modules),
        module_dims=tuple(m.dim for m in modules),
        trace_matrix=matrix, matrix_rank=mrank,
        counts_match=counts_match, full_rank=full_rank,
        passed=counts_match and full_rank)
