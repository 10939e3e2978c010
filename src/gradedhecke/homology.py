"""Hochschild/cyclic homology engines, point modules and the basis theorem.

Finite-dimensional algebras get the literal bar and mixed complexes with
exact ranks; a boundary keeps the type of the structure constants, int in
the group, matrix and ground algebras, so `rank` runs fraction-free.  The
crossed product W' x| S(t*) is handled through its closed-form census:
per-class Molien series of invariant forms on the fixed spaces, with HP_1 = 0
forced by the contractibility of each fixed space and HP_0 = HH_0(Q[W'])
checked against the class count.  Point modules of A x| G are solved on
fibre blocks.  The basis theorem reads the presentation `weyl.HeckeDatum`
of H' and multiplies nothing in it: no `hecke` import here.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import (TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .linalg import GradedHeckeError, Mat, Q, Vec, _row, mat, rank, trace
from .rootdata import RootDatum
from .weyl import (ClassEntry, HeckeDatum, WeylGroup, enumerate_group,
                   permutation_bfs)

if TYPE_CHECKING:
    from .modules import DSCatalogEntry
    from .poly import PoincareSeries

SIZE_BOUND = 10 ** 6


class HomologyError(GradedHeckeError):
    pass


class SizeBoundExceeded(HomologyError):
    pass


class FinDimAlgebra:
    """A finite-dimensional unital algebra by sparse structure constants.

    table[i][j] lists pairs (k, c): e_i * e_j is the sum of the c e_k.  The
    shape, the unit's length, associativity and the unit laws are checked
    at construction.
    """

    __slots__ = ("dim", "table", "unit", "label")

    def __init__(self, dim: int,
                 table: Tuple[Tuple[Tuple[Tuple[int, Q], ...], ...], ...],
                 unit: Vec, label: str = ""):
        self.dim, self.table, self.unit, self.label = dim, table, unit, label
        d = dim
        if len(table) != d or any(len(row) != d for row in table):
            raise HomologyError("structure constants have wrong shape")
        if any(not 0 <= k < d for row in table for cell in row
               for k, _ in cell):
            raise HomologyError("structure constant index out of range")
        if len(self.unit) != d:
            raise HomologyError(f"unit has {len(self.unit)} coordinates, "
                                f"not {d}")
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    if self._product(table[i][j], ((k, 1),)) != \
                            self._product(((i, 1),), table[j][k]):
                        raise HomologyError(
                            f"associativity fails at ({i},{j},{k})")
        unit = [(u, c) for u, c in enumerate(self.unit) if c]
        for i in range(d):
            if self._product(unit, ((i, 1),)) != {i: 1} or \
                    self._product(((i, 1),), unit) != {i: 1}:
                raise HomologyError("unit laws fail")

    def _product(self, a, b) -> Dict[int, Q]:
        """The nonzero coordinates of a * b, for a and b given as (k, c)."""
        out: Dict[int, Q] = {}
        for i, ca in a:
            for j, cb in b:
                for k, c in self.table[i][j]:
                    out[k] = out.get(k, 0) + ca * cb * c
        return {k: c for k, c in out.items() if c}

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def ground_field() -> "FinDimAlgebra":
        return FinDimAlgebra(dim=1, table=((((0, 1),),),), unit=(1,),
                             label="Q")

    @staticmethod
    def matrix_algebra(n: int) -> "FinDimAlgebra":
        """M_n(Q) on the matrix units e_rc = basis vector r * n + c."""
        d = n * n
        table = tuple(tuple(((a // n * n + b % n, 1),) if a % n == b // n
                            else () for b in range(d)) for a in range(d))
        unit = tuple(int(t % (n + 1) == 0) for t in range(d))
        return FinDimAlgebra(dim=d, table=table, unit=unit,
                             label=f"M{n}(Q)")

    @staticmethod
    def group_algebra(elements, mult_fn, label="Q[G]") -> "FinDimAlgebra":
        """Group algebra from an element list and a multiplication callback."""
        elements = list(elements)
        index = {g: i for i, g in enumerate(elements)}
        d = len(elements)
        table = tuple(tuple(((index[mult_fn(a, b)], 1),) for b in elements)
                      for a in elements)
        identity_idx = next((i for i, g in enumerate(elements)
                             if all(mult_fn(g, h) == h and mult_fn(h, g) == h
                                    for h in elements)), None)
        if identity_idx is None:
            raise HomologyError("group has no identity element")
        unit = tuple(int(t == identity_idx) for t in range(d))
        return FinDimAlgebra(dim=d, table=table, unit=unit, label=label)

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
    return tuple(map(_row, rows))


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
    return tuple(map(_row, rows))


def hochschild_homology(algebra: FinDimAlgebra, n_max: int,
                        bound: int = SIZE_BOUND) -> List[int]:
    """Exact Betti numbers HH_0..HH_{n_max} of the Hochschild complex."""
    check_size_bound(algebra.dim, n_max, bound)
    ranks = [0] + [rank(hochschild_boundary(algebra, n))  # b_0 = 0
                   for n in range(1, n_max + 2)]
    return [algebra.dim ** (n + 1) - ranks[n] - ranks[n + 1]
            for n in range(n_max + 1)]


def _mixed_total_boundary(algebra: FinDimAlgebra, n: int,
                          b: Optional[Dict[int, Mat]] = None) -> Mat:
    """The matrix of the total differential b + B : B_n -> B_{n-1} of the
    mixed bicomplex; source block j is A^{(x)(n+1-2j)}, target block j is
    A^{(x)(n-2j)}.  Target block j is the image of b on source block j and
    of B on source block j + 1, so each of its rows is a row of b followed
    by a row of B.  `b` may hold the b_m already built, by m."""
    b = b or {m: hochschild_boundary(algebra, m) for m in range(n, 0, -2)}
    d = algebra.dim
    src_off = [0]
    for j in range(n // 2):
        src_off.append(src_off[-1] + d ** (n + 1 - 2 * j))
    rows = []
    for j in range((n - 1) // 2 + 1):
        big_b = connes_boundary(algebra, n - 2 * j - 2) if 2 * j + 2 <= n \
            else ((),) * len(b[n - 2 * j])
        rows += [tuple((src_off[j] + c, v) for c, v in rb)
                 + tuple((src_off[j + 1] + c, v) for c, v in rB)
                 for rb, rB in zip(b[n - 2 * j], big_b)]
    return tuple(rows)


def verify_mixed_identities(algebra: FinDimAlgebra, n: int,
                            trials: int = 5, seed: int = 7,
                            b: Optional[Dict[int, Mat]] = None) -> None:
    """Check b b = 0 and b B + B b = 0 exactly on random integer chains.
    `b` may hold some of b_{n-1}, b_n and b_{n+1} already built, by degree."""
    rng = random.Random(seed)
    b = b or {}
    b_nm1, b_n, b_np1 = ((b[m] if m in b else hochschild_boundary(
        algebra, m)) if m else None for m in (n - 1, n, n + 1))
    big_b, small_b = (connes_boundary(algebra, m) for m in (n, n - 1))

    def apply(m, v):
        return [sum(x * v[c] for c, x in row) for row in m]
    for _ in range(trials):
        chain = [rng.randint(-3, 3) for _ in range(algebra.dim ** (n + 1))]
        bx = apply(b_n, chain)
        if n >= 2 and any(apply(b_nm1, bx)):
            raise HomologyError("b o b != 0")
        if any(x + y for x, y in zip(apply(b_np1, apply(big_b, chain)),
                                     apply(small_b, bx))):
            raise HomologyError("b B + B b != 0")


def cyclic_homology(algebra: FinDimAlgebra, n_max: int,
                    bound: int = SIZE_BOUND) -> List[int]:
    """HC_0..HC_{n_max} from the mixed bicomplex with total differential b + B;
    the identity check and the ranks share the b_m."""
    check_size_bound(algebra.dim, n_max, bound, cyclic=True)
    b = {m: hochschild_boundary(algebra, m) for m in range(1, n_max + 2)}
    verify_mixed_identities(algebra, min(2, n_max + 1), b=b)
    ranks = [0] + [rank(_mixed_total_boundary(algebra, n, b))
                   for n in range(1, n_max + 2)]
    return [sum(algebra.dim ** (n + 1 - 2 * j) for j in range(n // 2 + 1))
            - ranks[n] - ranks[n + 1] for n in range(n_max + 1)]


# ---------------------------------------------------------------------------
# Crossed-product censuses: closed forms from fixed-space invariant forms.
# ---------------------------------------------------------------------------

class CensusClassEntry(NamedTuple):
    rep_word: str
    size: int
    fixed_dim: int
    series: Tuple[PoincareSeries, ...]  # per form degree 0..dim t


class HomologyCensus:
    __slots__ = ("datum_label", "group_order", "class_count", "truncation",
                 "entries", "totals", "hp0", "hp1")

    def __init__(self, datum_label: str, group_order: int, class_count: int,
                 truncation: int, entries: Tuple[CensusClassEntry, ...],
                 totals: Tuple[PoincareSeries, ...], hp0: int, hp1: int):
        if hp0 != class_count:
            raise HomologyError("HP census must satisfy HP0 = #classes")
        self.datum_label = datum_label
        self.group_order = group_order
        self.class_count = class_count
        self.truncation = truncation
        self.entries = entries
        self.totals = totals
        self.hp0 = hp0
        self.hp1 = hp1


def crossed_product_census(datum: RootDatum, gammas=(), truncation: int = 16,
                           group: Optional[WeylGroup] = None) -> HomologyCensus:
    """Per-class Poincare series of invariant forms on fixed spaces.

    HH_n of W' x| S(t*) is the sum over conjugacy classes of the degree-n
    invariant-form series on t^w under the centralizer; HH_n vanishes for
    n > dim t and HP_1 = 0.  HP_0 = HH_0(Q[W']) is computed by `group_hh0`
    and must equal the class count.
    """
    from .poly import molien_forms, sum_series
    if group is None:
        group = enumerate_group(datum, gammas)
    census = group.census
    traces = [int(trace(e.matrix)) for e in group.elements]
    entries = []
    for cls in census.entries:
        entries.append(CensusClassEntry(
            rep_word=repr(cls.rep), size=cls.size, fixed_dim=cls.fixed_dim,
            series=molien_forms(_fixed_space_charpolys(group, cls, traces),
                                datum.ambient_dim, truncation)))
    totals = [sum_series(column)
              for column in zip(*(e.series for e in entries))]
    if totals[0].coeffs[0] != len(census.entries):
        raise HomologyError("degree-0 census must count one constant per class")
    return HomologyCensus(datum_label=datum.label, group_order=len(group),
                          class_count=len(census.entries),
                          truncation=truncation, entries=tuple(entries),
                          totals=tuple(totals), hp0=group_hh0(group),
                          hp1=0)


def _fixed_space_charpolys(group: WeylGroup, cls: ClassEntry,
                           traces: Sequence[int]) -> Counter:
    """Tally of det(xI - z | t^w), highest first, over the centralizer of
    w = cls.rep.  The mean of w^j, j < ord w, projects onto t^w and commutes
    with z, so tr(z^k | t^w) is the mean of the traces of z^k w^j; Newton's
    identities turn these power sums, k <= dim t^w, into the charpoly."""
    w, one = cls.rep, group.identity.index
    order, x = 1, group._times(one, w)
    while x != one:
        order, x = order + 1, group._times(x, w)
    tally: Counter = Counter()
    for z in cls.centralizer:
        cp, powers, zk = [1], [], one
        for k in range(1, cls.fixed_dim + 1):
            zk = x = group._times(zk, z)
            total = 0
            for _ in range(order):
                total, x = total + traces[x], group._times(x, w)
            powers.append(total // order)
            cp.append(-sum(c * p for c, p in zip(cp, reversed(powers))) // k)
        tally[tuple(cp)] += 1
    return tally


def group_hh0(group: WeylGroup) -> int:
    """dim HH_0(Q[W']) = |W'| - rank of the commutator span, the image of b_1.

    x - h x h^-1 telescopes along a word for h, so the rows x - s x s^-1 with
    s a simple reflection or a Gamma element span it.  Rows x - y have rank
    |W'| minus the number of connected components of the graph with the
    edges {x, y}, so HH_0 is that number, counted by union-find.
    """
    gens = [group.simple(i) for i in range(group.datum.rank)] + \
        [group.gamma_element(c.label) for c in group.gamma.elements]
    root = list(range(len(group)))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    components = len(group)
    for s in gens:
        s_inv = group.inv(s)
        for x in group.elements:
            a = find(x.index)
            b = find(group.mult(group.mult(s, x), s_inv).index)
            if a != b:
                root[a] = b
                components -= 1
    return components


# ---------------------------------------------------------------------------
# Crossed-product point modules (induced from a point of a finite orbit).
# ---------------------------------------------------------------------------

class PointModuleReport(NamedTuple):
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
    # Burnside: commuting pairs / |G_x|.  g h and h g lie in G_x, so they
    # are equal iff they agree on a base: points whose images tell G_x apart
    members, base = [group[k] for k in stab], []
    for p in range(n):
        if len({tuple(g[b] for b in base) for g in members}) == len(members):
            break
        base.append(p)
    classes = sum(all(g[h[b]] == h[g[b]] for b in base)
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

class BasisTheoremReport(NamedTuple):
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


def verify_basis_theorem(algebra: HeckeDatum,
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
    matrix = tuple(m.restriction_character() for m in modules)
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
