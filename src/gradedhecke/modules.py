"""Finite-dimensional H'-modules: induction, weights, temperedness, censuses.

Modules are given by exact matrices for every simple reflection, every
diagram automorphism and every ambient coordinate of t*.  Coordinate
matrices may have Gaussian-rational entries (points of t are pairs of
rational vectors); group matrices are always rational.  All solves are
exact; nothing here touches floating point.  Modules read only the
presentation `weyl.HeckeDatum` of H'; nothing here multiplies in H'.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import (GradedHeckeError, Mat, Q, QI, Vec, canonical_basis,
                     charpoly, identity, intertwiner_matrices, mat, mat_comb,
                     mat_mul, mat_vec, nullspace, restrict_matrix, roots,
                     solve, trace, transpose, zero_vec)
from .rootdata import ParabolicDatum, in_antidual, parabolic
from .weyl import (ExtendedWeylElement, HeckeDatum, WeylGroup,
                   coset_decomposition, elements_mapping_parabolic)


class ModuleError(GradedHeckeError):
    pass


class UnsplitSpectrumError(ModuleError):
    """Joint spectrum does not split over the working field."""

    def __init__(self, poly_coeffs):
        self.poly = tuple(poly_coeffs)
        text = " , ".join(str(c) for c in self.poly)
        super().__init__(
            f"unsplit spectrum: characteristic factor [{text}] "
            "(coefficients highest degree first)")


class FieldExtensionNeeded(ModuleError):
    """Decomposition requires adjoining a root of the carried polynomial."""

    def __init__(self, poly_coeffs):
        self.poly = tuple(poly_coeffs)
        text = " , ".join(str(c) for c in self.poly)
        super().__init__(
            f"extend field: adjoin a root of [{text}] "
            "(coefficients highest degree first)")


def _memoized(compute):
    """Compute an invariant of a module once and keep it in `module.memo`."""
    key = compute.__name__

    @functools.wraps(compute)
    def cached(module):
        if key not in module.memo:
            module.memo[key] = compute(module)
        return module.memo[key]
    return cached


class FinModule:
    """A finite-dimensional module over a (possibly extended) Hecke algebra.

    Nothing mutates a module's matrices after construction, so `memo` keeps
    the invariants computed from them (weights, central character, commutant,
    restriction character).  It is excluded from `==`, and `submodule` and
    the summands of `decompose` start with an empty one.  `induced`, also
    excluded from `==`, is what `induce` built the matrices from; a summand
    keeps its leaf's and `submodule`, whose basis differs, starts without one.
    """

    __slots__ = ("algebra", "dim", "refl", "gammas", "coord", "name", "meta",
                 "memo", "induced")

    def __init__(self, algebra: HeckeDatum, dim: int, refl: Dict[int, Mat],
                 gammas: Dict[str, Mat], coord: Tuple[Mat, ...],
                 name: str = "", meta: Optional[dict] = None,
                 induced: Optional[InducedBasis] = None):
        self.algebra = algebra
        self.dim = dim
        self.refl = refl
        self.gammas = gammas
        self.coord = coord
        self.name = name
        self.meta = {} if meta is None else meta
        self.memo: dict = {}
        self.induced = induced

    def __eq__(self, other):
        return type(other) is FinModule and all(
            getattr(self, f) == getattr(other, f) for f in (
                "algebra", "dim", "refl", "gammas", "coord", "name", "meta"))

    def is_complex(self) -> bool:
        return any(isinstance(c, QI) and c.im != 0
                   for m in self.coord for row in m for _, c in row)

    def act(self, e: ExtendedWeylElement, m: Mat) -> Mat:
        """The matrix of e times m, one generator at a time from the right,
        so a narrow m is never multiplied by a full group matrix."""
        for i in reversed(e.word):
            m = mat_mul(self.refl[i], m)
        g = self.gammas.get(e.gamma) if e.gamma != "e" else None
        return m if g is None else mat_mul(g, m)

    def covector_matrix(self, x: Vec, x_im: Optional[Vec] = None) -> Mat:
        """Action of a (complex) covector x + i*x_im of t*."""
        if x_im is not None:
            x = [c + QI(0, 1) * d if d else c for c, d in zip(x, x_im)]
        return mat_comb(zip(x, self.coord), self.dim)

    def generator_matrices(self) -> List[Mat]:
        gens = [self.refl[i] for i in range(self.algebra.datum.rank)]
        gens += [self.gammas[g.label]
                 for g in self.algebra.group.gamma.elements if g.label != "e"]
        gens += list(self.coord)
        return gens

    def verify(self) -> None:
        """Check every defining relation of H' exactly as a matrix identity."""
        alg = self.algebra
        datum = alg.datum
        ident = identity(self.dim)
        for i in range(datum.rank):
            if mat_mul(self.refl[i], self.refl[i]) != ident:
                raise ModuleError(f"s_{i}^2 != 1 in module {self.name!r}")
        # braid relations via the order of s_i s_j in W
        for i in range(datum.rank):
            for j in range(i + 1, datum.rank):
                rep = mat_mul(self.refl[i], self.refl[j])
                acc_m = rep
                for _ in range(_braid_order(alg.group, i, j) - 1):
                    acc_m = mat_mul(acc_m, rep)
                if acc_m != ident:
                    raise ModuleError(
                        f"braid relation ({i},{j}) fails in {self.name!r}")
        gamma = alg.group.gamma
        for a in gamma.elements:
            if a.label != "e" and a.label not in self.gammas:
                raise ModuleError(f"missing matrix for gamma {a.label!r}")
        for a in gamma.elements:
            ma = self.gammas.get(a.label, ident)
            for b in gamma.elements:
                mb = self.gammas.get(b.label, ident)
                mc = self.gammas.get(gamma.compose(a, b).label, ident)
                if mat_mul(ma, mb) != mc:
                    raise ModuleError("gamma composition fails")
            # g s_i = s_perm(i) g: the composition with a^-1 above shows
            # that g is invertible
            for i in range(datum.rank):
                if mat_mul(ma, self.refl[i]) != \
                        mat_mul(self.refl[a.perm[i]], ma):
                    raise ModuleError("gamma conjugation of s_i fails")
        for a in range(len(self.coord)):
            for b in range(a + 1, len(self.coord)):
                if mat_mul(self.coord[a], self.coord[b]) != \
                        mat_mul(self.coord[b], self.coord[a]):
                    raise ModuleError("coordinate matrices do not commute")
        # x s_i = s_i s_i(x) + k_i <x, alpha_i^vee>, where s_i(x_k) is row k
        # of the matrix of s_i (as gamma^-1(x_k) is of gamma's, below)
        for i in range(datum.rank):
            s_coord = [mat_mul(self.refl[i], m) for m in self.coord]
            for k, row in enumerate(datum.reflection_matrix(i)):
                c = alg.kmap[i] * datum.simple_coroots[i][k]
                rhs = [(x, s_coord[j]) for j, x in row] + [(c, ident)]
                if mat_mul(self.coord[k], self.refl[i]) != \
                        mat_comb(rhs, self.dim):
                    raise ModuleError(
                        f"cross relation (x_{k}, alpha_{i}) fails "
                        f"in {self.name!r}")
        # x gamma = gamma gamma^-1(x)
        for a in gamma.elements:
            if a.label == "e":
                continue
            ma = self.gammas[a.label]
            g_coord = [mat_mul(ma, m) for m in self.coord]
            for k, row in enumerate(a.matrix):
                rhs = mat_comb([(x, g_coord[j]) for j, x in row], self.dim)
                if mat_mul(self.coord[k], ma) != rhs:
                    raise ModuleError("gamma cross relation fails")

    @_memoized
    def restriction_character(self) -> Tuple[Q, ...]:
        """The trace of each class of W' on the module, in the order of
        `algebra.group.census`."""
        return tuple(trace(self.act(e.rep, identity(self.dim)))
                     for e in self.algebra.group.census.entries)


def _braid_order(group: WeylGroup, i: int, j: int) -> int:
    """The order m_ij of s_i s_j in W, walked on the group's index tables."""
    step = group.mult(group.simple(i), group.simple(j))
    a, order = step.index, 1
    while a != group.identity.index:
        a, order = group._times(a, step), order + 1
    return order


def _components(n: int, linked) -> List[int]:
    """Union-find root of each of 0..n-1 once every pair i < j with
    linked(i, j) is joined; a pair already joined is not tested."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if find(i) != find(j) and linked(i, j):
                parent[find(i)] = find(j)
    return [find(i) for i in range(n)]


# ---------------------------------------------------------------------------
# One-dimensional modules and induction data.
# ---------------------------------------------------------------------------

def one_dim_modules(algebra: HeckeDatum) -> List[FinModule]:
    """All one-dimensional modules with lambda in the coroot span.

    A sign pattern eps : Pi -> {+-1} must be constant on braid-odd-linked
    components; lambda then solves <alpha_i, lambda> = eps_i k_i.  The
    all-minus solution is tagged 'steinberg', the all-plus one 'trivial'.
    """
    if len(algebra.group.gamma) != 1:
        raise ModuleError("one_dim_modules expects an unextended algebra")
    datum = algebra.datum
    rank = datum.rank
    # link i ~ j when the braid order m_ij is odd
    root = _components(
        rank, lambda i, j: _braid_order(algebra.group, i, j) % 2 == 1)
    comps = sorted(set(root))
    cartan = datum.cartan()
    out: List[FinModule] = []
    for bits in range(1 << len(comps)):
        eps = [Fraction(0)] * rank
        for ci, croot in enumerate(comps):
            sign = Fraction(-1 if (bits >> ci) & 1 else 1)
            for i in range(rank):
                if root[i] == croot:
                    eps[i] = sign
        target = [eps[i] * algebra.kmap[i] for i in range(rank)]
        coeffs = solve(cartan, target, rank)
        if coeffs is None:
            continue
        lam = mat_vec(transpose(mat(datum.simple_coroots), datum.ambient_dim),
                      coeffs)
        refl = {i: mat([[eps[i]]]) for i in range(rank)}
        coord = tuple(mat([[x]]) for x in lam)
        if all(e == 1 for e in eps):
            name = "trivial"
        elif all(e == -1 for e in eps):
            name = "steinberg"
        else:
            name = "onedim[" + "".join("+" if e == 1 else "-" for e in eps) + "]"
        mod = FinModule(algebra=algebra, dim=1, refl=refl, gammas={},
                        coord=coord, name=name, meta={"lambda": lam})
        mod.verify()
        out.append(mod)
    return out


class InductionDatum(NamedTuple):
    """A triple (P, delta, lambda) with delta over H_P and lambda in t^P."""

    P: Tuple[int, ...]
    delta: FinModule
    lam_re: Vec
    lam_im: Vec


class InducedBasis(NamedTuple):
    """What `induce` built a module's basis u (x) v from: the coset
    representatives u (`reps`, identity first), d = dim delta, the matrix of
    delta_lambda on V_delta for each ambient coordinate (`coord_small`) and
    delta(s_i) for each i in P (`refl_small`, keyed by i)."""

    reps: Tuple[ExtendedWeylElement, ...]
    d: int
    coord_small: Tuple[Mat, ...]
    refl_small: Dict[int, Mat]


def parabolic_algebra(algebra: HeckeDatum,
                      P: Sequence[int]) -> Tuple[ParabolicDatum, HeckeDatum]:
    """The parabolic datum and the `HeckeDatum` of H_P (unextended,
    restricted k), built once per P and kept on the algebra."""
    key = tuple(sorted(set(P)))
    if key not in algebra.parabolics:
        parab = parabolic(algebra.datum, key)
        sub_k = [algebra.kmap[i] for i in parab.P]
        algebra.parabolics[key] = parab, HeckeDatum(parab.sub_datum, sub_k)
    return algebra.parabolics[key]


def induce(algebra: HeckeDatum, xi: InductionDatum,
           extended: bool = True) -> FinModule:
    """Parabolic induction Ind_{H^P}^{H} (extended=False) or Ind_{H^P}^{H'}.

    Basis u (x) v over minimal-length coset representatives u, where H^P =
    S(t^{P*}) (x) H_P acts on V_delta through delta_lambda(x) = delta(x_P) +
    <x^P, lambda>.  No product in H' is formed.  W' permutes the blocks:
    g u = u' h (the coset table) puts delta(h) at block (u', u).  x acts on
    u (x) v by delta_lambda(u^-1(x)) plus terms on earlier representatives,
    read off x gamma = gamma gamma^-1(x) and
    x s_i = s_i s_i(x) + k_i <x, alpha_i^vee>.
    """
    datum = algebra.datum
    if not datum.crystallographic:
        raise ModuleError("induction requires a crystallographic datum")
    for name, lam in (("lambda_re", xi.lam_re), ("lambda_im", xi.lam_im)):
        if len(lam) != datum.ambient_dim:
            raise ModuleError(f"{name} has {len(lam)} coordinates, not the "
                              f"ambient dimension {datum.ambient_dim}")
    parab, sub_alg = parabolic_algebra(algebra, xi.P)
    delta = xi.delta
    if delta.algebra.datum.cartan() != sub_alg.datum.cartan() or \
            delta.algebra.kmap.values != sub_alg.kmap.values:
        raise ModuleError("delta is not a module over the parabolic algebra")
    if not parab.in_t_upP(xi.lam_re) or not parab.in_t_upP(xi.lam_im):
        raise ModuleError("lambda does not lie in t^P")
    work = algebra if extended else algebra.unextended()
    group = work.group
    reps, split = coset_decomposition(group, xi.P)
    d = delta.dim
    n = len(reps) * d
    amb = datum.ambient_dim
    complex_lam = any(c != 0 for c in xi.lam_im)
    # coordinate matrices of delta_lambda on V_delta
    ident = identity(d)
    coord_small: List[Mat] = []
    for k in range(amb):
        lam_k = QI(xi.lam_re[k], xi.lam_im[k]) if complex_lam \
            else xi.lam_re[k]
        terms = [(lam_k, ident)]
        if k in parab.P:
            terms.append((1, delta.coord[parab.P.index(k)]))
        coord_small.append(mat_comb(terms, d))

    # delta of a W_P element by its reduced word, whose letters lie in P:
    # the i-th of them is s_i of the sub datum
    @functools.lru_cache(maxsize=None)
    def delta_matrix(word: Tuple[int, ...]) -> Mat:
        m = ident
        for i in word:
            m = mat_mul(m, delta.refl[parab.P.index(i)])
        return m

    # g u_a = u_b h: the generator g takes column block a to row block b
    # with delta(h).  A column is {row block: d x d block}.
    gens = [group.simple(i) for i in range(datum.rank)] + \
        [group.gamma_element(c.label) for c in group.gamma.elements
         if c.label != "e"]
    moves = {g.index: [split[group.mult(g, u).index] for u in reps]
             for g in gens}

    def act(g: ExtendedWeylElement, col: Dict[int, Mat]) -> Dict[int, Mat]:
        out = {}
        for a, m in col.items():
            b, h = moves[g.index][a]
            out[b] = mat_mul(delta_matrix(h.word), m) if h.word else m
        return out

    def assemble(cols: Sequence[Dict[int, Mat]]) -> Mat:
        """The n x n matrix of the columns, row by row: blocks of later
        columns append later entries."""
        rows: List[list] = [[] for _ in range(n)]
        for a, col in enumerate(cols):
            for b, m in col.items():
                for r, row in enumerate(m):
                    rows[b * d + r] += [(a * d + s, x) for s, x in row]
        return tuple(map(tuple, rows))

    refl, gammas = {}, {}
    for g in gens:
        mat_g = assemble([act(g, {a: ident}) for a in range(len(reps))])
        if g.gamma == "e":
            refl[g.word[0]] = mat_g
        else:
            gammas[g.gamma] = mat_g
    # x_k on u (x) v: the diagonal block is delta_lambda(u^-1(x_k)), and
    # u^-1(x_k) is row k of the matrix of u.  For u = g u', g the Gamma
    # letter or first simple reflection of u, the other blocks are g times
    # those of column u' in g^-1(x_k), plus k_i <x_k, alpha_i^vee> at u'
    # when g = s_i.  off[k][a] holds the other blocks of column a.
    off: List[List[Dict[int, Mat]]] = [[{}] for _ in range(amb)]
    for u in reps[1:]:
        g = group.gamma_element(u.gamma) if u.gamma != "e" else \
            group.simple(u.word[0])
        a, _ = split[group.mult(group.inv(g), u).index]
        for k, row in enumerate(g.matrix):
            terms = [(x, off[j][a]) for j, x in row]  # g^-1(x_k) = sum x x_j
            blocks = {b for _, o in terms for b in o}
            col = act(g, {b: mat_comb([(x, o[b]) for x, o in terms if b in o],
                                      d) for b in blocks})
            c = work.kmap[g.word[0]] * datum.simple_coroots[g.word[0]][k] \
                if g.word else 0
            if c:
                col[a] = mat_comb([(c, ident)], d)
            off[k].append(col)
    coord = tuple(assemble([{**off[k][b], b: mat_comb(
        [(x, coord_small[j]) for j, x in u.matrix[k]], d)}
        for b, u in enumerate(reps)]) for k in range(amb))
    name = f"pi'({list(xi.P)},{delta.name},lam)" if extended else \
        f"pi({list(xi.P)},{delta.name},lam)"
    mod = FinModule(algebra=work, dim=n, refl=refl, gammas=gammas,
                    coord=coord, name=name,
                    meta={"P": xi.P, "delta": delta.name,
                          "lam_re": xi.lam_re, "lam_im": xi.lam_im},
                    induced=InducedBasis(
                        reps=tuple(reps), d=d, coord_small=tuple(coord_small),
                        refl_small={i: delta.refl[parab.P.index(i)]
                                    for i in parab.P}))
    mod.verify()
    return mod


# ---------------------------------------------------------------------------
# Weights, central characters, temperedness.
# ---------------------------------------------------------------------------

@_memoized
def weights(module: FinModule) -> List[Tuple[Tuple[Vec, Vec], int]]:
    """Generalized joint spectrum of the coordinate matrices.

    Returns [((re, im), multiplicity)] with multiplicities summing to the
    dimension; raises UnsplitSpectrumError naming the offending
    characteristic factor when the spectrum is not Gaussian rational.
    """
    n = module.dim
    cmplx = module.is_complex()
    # nullspace((), n) is the standard basis
    spaces: List[Tuple[List[Vec], Tuple]] = [(nullspace((), n), ())]
    for m in module.coord:
        new_spaces = []
        for basis, vals in spaces:
            a = restrict_matrix(m, basis)
            cp = charpoly(a)
            found, residual = roots(cp, gaussian=cmplx)
            if len(residual) > 1:
                raise UnsplitSpectrumError(residual)
            dim_b = len(basis)
            lift = transpose(mat(basis), n)
            for lam, mult in found:
                # grow ker (a - lam)^j until it is the generalized eigenspace
                shifted = mat_comb(((1, a), (-lam, identity(dim_b))), dim_b)
                powm = shifted
                for _ in range(dim_b):
                    ker = nullspace(powm, dim_b)
                    if len(ker) == mult:
                        break
                    powm = mat_mul(powm, shifted)
                if len(ker) != mult:
                    raise UnsplitSpectrumError(cp)
                new_spaces.append((tuple(mat_vec(lift, v) for v in ker),
                                   vals + (QI.of(lam),)))
            if sum(mult for _, mult in found) != dim_b:
                raise UnsplitSpectrumError(cp)
        spaces = new_spaces
    agg: Dict[Tuple[Vec, Vec], int] = {}
    for basis, vals in spaces:
        re = tuple(v.re for v in vals)
        im = tuple(v.im for v in vals)
        agg[(re, im)] = agg.get((re, im), 0) + len(basis)
    out = sorted(agg.items(), key=lambda t: t[0])
    if sum(mult for _, mult in out) != n:
        raise ModuleError("weight multiplicities do not sum to the dimension")
    return out


@_memoized
def central_character(module: FinModule) -> Tuple[Tuple[Tuple[Vec, Vec], ...], bool]:
    """The W'-orbit of the weights and whether it is real (im = 0).

    Raises if the weights fall into more than one W'-orbit.
    """
    wts = weights(module)
    group = module.algebra.group
    first = wts[0][0]
    orbit = set()
    for g in group.elements:
        orbit.add((mat_vec(g.matrix, first[0]), mat_vec(g.matrix, first[1])))
    points = {pt for pt, _ in wts}
    if not points <= orbit:
        others = sorted(points - orbit)
        raise ModuleError(
            f"multiple central characters: {first} vs {others[0]}")
    is_real = all(all(c == 0 for c in im) for _, im in orbit)
    return tuple(sorted(orbit)), is_real


def cc_norm2(module: FinModule) -> Q:
    """Gram norm^2 of the central character (same for every orbit point)."""
    orbit, _ = central_character(module)
    re, im = orbit[0]
    g = module.algebra.datum
    return g.norm2(re) + g.norm2(im)


def is_tempered(module: FinModule) -> bool:
    """All weights have real part in the antidual cone a^-."""
    datum = module.algebra.datum
    if not datum.crystallographic:
        raise ModuleError("temperedness is defined for crystallographic data")
    return all(in_antidual(datum, re) for (re, _), _ in weights(module))


def is_discrete_series(module: FinModule) -> bool:
    """Irreducible with all weight real parts in the open cone a^--."""
    datum = module.algebra.datum
    if not datum.crystallographic:
        raise ModuleError("discrete series require a crystallographic datum")
    if not all(in_antidual(datum, re, strict=True)
               for (re, _), _ in weights(module)):
        return False
    return is_irreducible(module)


# ---------------------------------------------------------------------------
# Commutants, irreducibility, decomposition, intertwiners.
# ---------------------------------------------------------------------------

def _generators(module: FinModule) -> Tuple:
    """What `generator_matrices` pairs by position: the Cartan matrix, the
    Gamma labels and the number of coordinates."""
    return (module.algebra.datum.cartan(), len(module.coord),
            [g.label for g in module.algebra.group.gamma.elements])


def _canonical_matrices(mats: Sequence[Mat], nrows: int,
                        ncols: int) -> List[Mat]:
    """The basis `intertwiner_matrices` returns for the span of `mats`."""
    flat = canonical_basis([tuple((i * ncols + j, x) for i, row in enumerate(m)
                                  for j, x in row) for m in mats],
                           nrows * ncols)
    out = []
    for v in flat:
        rows: List[list] = [[] for _ in range(nrows)]
        for k, x in v:
            rows[k // ncols].append((k % ncols, x))
        out.append(tuple(map(tuple, rows)))
    return out


def hom_space(src: FinModule, dst: FinModule) -> List[Mat]:
    """Exact basis of Hom_{H'}(src, dst) (C-dimension when data are complex).

    An induced `src` goes by Frobenius reciprocity: H' is free over H^P on
    the coset representatives u, so phi(u (x) v) = u . psi(v) for psi in
    Hom_{H^P}(delta_lambda, dst), a system on dst.dim * dim(delta)
    unknowns.  Any other `src` is solved on all its generators at once.
    Both return the basis the full solve gives.
    """
    if _generators(src) != _generators(dst):
        raise ModuleError("modules live over different algebras")
    ind = src.induced
    if ind is None:
        pairs = list(zip(dst.generator_matrices(), src.generator_matrices()))
        return intertwiner_matrices(pairs, dst.dim, src.dim)
    pairs = list(zip(dst.coord, ind.coord_small))
    pairs += [(dst.refl[i], m) for i, m in ind.refl_small.items()]
    lifts = []
    for psi in intertwiner_matrices(pairs, dst.dim, ind.d):
        blocks = [dst.act(u, psi) for u in ind.reps]
        lifts.append(tuple(tuple((b * ind.d + s, x)
                                 for b, blk in enumerate(blocks)
                                 for s, x in blk[r])
                           for r in range(dst.dim)))
    return _canonical_matrices(lifts, dst.dim, src.dim)


@_memoized
def commutant(module: FinModule) -> List[Mat]:
    return hom_space(module, module)


def is_irreducible(module: FinModule) -> bool:
    """Commutant dimension 1 certifies irreducibility over the working field."""
    return len(commutant(module)) == 1


def submodule(module: FinModule, basis: Sequence[Vec],
              name: str = "") -> FinModule:
    """Restriction of every generator matrix to an invariant subspace."""
    refl = {i: restrict_matrix(m, basis) for i, m in module.refl.items()}
    gammas = {lbl: restrict_matrix(m, basis)
              for lbl, m in module.gammas.items()}
    coord = tuple(restrict_matrix(m, basis) for m in module.coord)
    sub = FinModule(algebra=module.algebra, dim=len(basis), refl=refl,
                    gammas=gammas, coord=coord,
                    name=name or f"{module.name}|sub",
                    meta=dict(module.meta))
    sub.verify()
    return sub


def _eigen_split_element(basis_mats: List[Mat], dim: int, cmplx: bool):
    """Find (c, lam) with a proper eigenkernel, or the obstruction poly.

    `basis_mats` is the commutant's canonical basis: each c_j is 1 at its
    last nonzero flattened entry and 0 at the others'.  The commutant holds
    1, so left multiplication by c on it is faithful and its m x m matrix,
    whose column j is c c_j read off those entries, has c's eigenvalues.
    """
    last = [max((r, row[-1][0]) for r, row in enumerate(m) if row)
            for m in basis_mats]
    obstruction = None
    candidates = list(basis_mats)
    # deterministic combinations in case no single basis element splits
    for i in range(len(basis_mats)):
        for j in range(i + 1, len(basis_mats)):
            candidates.append(mat_mul(basis_mats[i], basis_mats[j]))
    ident = identity(dim)
    for c in candidates:
        if c == mat_comb([(dict(c[0]).get(0, 0), ident)], dim):
            continue
        prods = [mat_mul(c, b) for b in basis_mats]
        cp = charpoly(mat([[dict(p[r]).get(j, 0) for p in prods]
                           for r, j in last]))
        found, residual = roots(cp, gaussian=cmplx)
        for lam, _ in found:
            ker = nullspace(mat_comb(((1, c), (-lam, ident)), dim), dim)
            if 0 < len(ker) < dim:
                return c, lam, ker, None
        if len(residual) > 1 and obstruction is None:
            obstruction = residual
    return None, None, None, obstruction


def _split(module: FinModule) -> List[FinModule]:
    """Irreducible submodules whose direct sum is the module.

    Each piece is split in its own coordinates: the two halves cut out by an
    idempotent of the commutant are submodules of the piece, so every
    summand is built once, with the matrices of its restriction.
    """
    comm = commutant(module)
    if len(comm) == 1:
        return [module]
    n = module.dim
    c, lam, ker, obstruction = _eigen_split_element(comm, n,
                                                    module.is_complex())
    if c is None:
        raise FieldExtensionNeeded(
            obstruction if obstruction is not None else (Fraction(1),))
    # idempotent e in span(comm) with image exactly span(ker)
    rows: List = []
    rhs: List = []
    for w in ker:  # e w = w
        rows += transpose(mat([mat_vec(cb, w) for cb in comm]), n)
        rhs += w
    comm_t = [transpose(cb, n) for cb in comm]
    for z in nullspace(mat(ker), n):  # z . (e e_j) = 0 for z with <z, ker> = 0
        rows += transpose(mat([mat_vec(cb, z) for cb in comm_t]), n)
        rhs += zero_vec(n)
    coeffs = solve(rows, rhs, len(comm))
    if coeffs is None:
        raise ModuleError("no idempotent projection; module not completely "
                          "reducible over the working field")
    e = mat_comb(zip(coeffs, comm), n)
    ker_e = nullspace(e, n)
    if len(ker) + len(ker_e) != n:
        raise ModuleError("idempotent split has wrong rank")
    # End(e V) = e End(V) e: each half's commutant is the compression of
    # the parent's, so no summand solves a system of its own
    out = []
    for proj, basis in ((e, ker),
                        (mat_comb(((1, identity(n)), (-1, e)), n), ker_e)):
        sub = submodule(module, basis)
        sub.memo["commutant"] = _canonical_matrices(
            [restrict_matrix(mat_mul(proj, c), basis) for c in comm],
            sub.dim, sub.dim)
        out += _split(sub)
    return out


def equivalent(a: FinModule, b: FinModule) -> bool:
    """Equal central character, equal restriction character, nonzero Hom."""
    if a.dim != b.dim:
        return False
    if a.restriction_character() != b.restriction_character():
        return False
    if central_character(a)[0] != central_character(b)[0]:
        return False
    return bool(hom_space(a, b))


def decompose(module: FinModule) -> List[Tuple[FinModule, int]]:
    """Split a completely reducible module into irreducibles with multiplicity.

    Orthogonal idempotents are found inside the commutant; a commutant whose
    elements have no rational eigenvalues raises FieldExtensionNeeded with
    the polynomial to adjoin.  Summands are new modules named
    `<name>#<i>` in coordinates of their own; the module is left as it is.
    """
    groups: List[Tuple[FinModule, int]] = []
    for i, leaf in enumerate(_split(module)):
        m = FinModule(algebra=leaf.algebra, dim=leaf.dim, refl=leaf.refl,
                      gammas=leaf.gammas, coord=leaf.coord,
                      name=f"{module.name}#{i}", meta=dict(leaf.meta),
                      induced=leaf.induced)
        for g, (rep, count) in enumerate(groups):
            if equivalent(rep, m):
                groups[g] = (rep, count + 1)
                break
        else:
            groups.append((m, 1))
    if sum(c * m.dim for m, c in groups) != module.dim:
        raise ModuleError("decomposition does not fill the module")
    groups.sort(key=lambda t: (t[0].dim, t[0].restriction_character()))
    return groups


# ---------------------------------------------------------------------------
# Discrete-series catalog and the Irr_0 census.
# ---------------------------------------------------------------------------

class DSCatalogEntry(NamedTuple):
    """A discrete-series module of H_P with a provenance note."""

    P: Tuple[int, ...]
    module: FinModule
    note: str = ""


def auto_catalog(algebra: HeckeDatum,
                 user_entries: Sequence[DSCatalogEntry] = ()
                 ) -> List[DSCatalogEntry]:
    """One-dimensional discrete series for every parabolic, plus user entries.

    Higher-dimensional discrete series cannot be derived here; a parabolic of
    rank >= 2 without user entries triggers a warning because its catalog may
    be incomplete.
    """
    datum = algebra.datum
    rank = datum.rank
    subsets = [P for size in range(rank + 1)
               for P in itertools.combinations(range(rank), size)]
    out: List[DSCatalogEntry] = []
    user_by_p: Dict[Tuple[int, ...], List[DSCatalogEntry]] = {}
    for entry in user_entries:
        user_by_p.setdefault(tuple(sorted(entry.P)), []).append(entry)
    for P in subsets:
        _, sub_alg = parabolic_algebra(algebra, P)
        autos = [m for m in one_dim_modules(sub_alg) if is_discrete_series(m)]
        for m in autos:
            out.append(DSCatalogEntry(P=P, module=m,
                                      note=f"auto one-dimensional ({m.name})"))
        for entry in user_by_p.get(P, []):
            entry.module.verify()
            if not is_discrete_series(entry.module):
                raise ModuleError(
                    f"catalog entry for P={list(P)} is not discrete series")
            out.append(entry)
        if len(P) >= 2 and P not in user_by_p:
            warnings.warn(
                f"parabolic P={list(P)} has rank >= 2 and no user catalog "
                "entries; higher discrete series may be missing",
                stacklevel=2)
    return out


def transport_module(algebra: HeckeDatum, P: Tuple[int, ...],
                     delta: FinModule, w: ExtendedWeylElement,
                     Q_target: Tuple[int, ...],
                     target_alg: HeckeDatum) -> FinModule:
    """delta o psi_w^{-1} over H_Q, for w in W'(P, Q)."""
    pos, perm = algebra.datum.simple_pos, algebra.group.root_perm[w.index]
    refl = {}
    for n, qi in enumerate(Q_target):
        # alpha_qi o w is the simple root alpha_src
        refl[n] = delta.refl[P.index(pos.index(perm[pos[qi]]))]
    coord = []
    for qi in Q_target:
        pre = dict(w.matrix[qi])  # x_qi o w = w^{-1} . x_qi, row qi of w
        coord.append(delta.covector_matrix([pre.get(i, 0) for i in P]))
    mod = FinModule(algebra=target_alg, dim=delta.dim, refl=refl, gammas={},
                    coord=tuple(coord), name=f"{delta.name}^w",
                    meta=dict(delta.meta))
    mod.verify()
    return mod


def association_classes(algebra: HeckeDatum,
                        catalog: Sequence[DSCatalogEntry]):
    """Partition catalog pairs (P, delta) into W'-association classes."""
    pairs = list(catalog)

    def associate(i: int, j: int) -> bool:
        Pi, Pj = pairs[i].P, pairs[j].P
        return len(Pi) == len(Pj) and any(
            equivalent(transport_module(algebra, Pi, pairs[i].module, w, Pj,
                                        parabolic_algebra(algebra, Pj)[1]),
                       pairs[j].module)
            for w in elements_mapping_parabolic(algebra.group, Pi, Pj))

    classes: Dict[int, List[DSCatalogEntry]] = {}
    for pair, root in zip(pairs, _components(len(pairs), associate)):
        classes.setdefault(root, []).append(pair)
    ordered = []
    for _, members in sorted(classes.items(),
                             key=lambda kv: (len(kv[1][0].P), kv[1][0].P)):
        members.sort(key=lambda e: (len(e.P), e.P, e.module.name))
        ordered.append(members)
    ordered.sort(key=lambda ms: (len(ms[0].P), ms[0].P, ms[0].module.name))
    return ordered


def irr0_census(algebra: HeckeDatum,
                catalog: Optional[Sequence[DSCatalogEntry]] = None
                ) -> List[FinModule]:
    """Irreducible tempered modules with real central character.

    Decomposes pi'(P, delta, 0) over one representative (P, delta) per
    W'-association class, deduplicates, and orders the result by decreasing
    central-character norm (the strata order), then by parabolic.
    """
    datum = algebra.datum
    if not datum.crystallographic:
        raise ModuleError("the census requires a crystallographic datum")
    if catalog is None:
        catalog = auto_catalog(algebra)
    classes = association_classes(algebra, catalog)
    found: List[FinModule] = []
    for members in classes:
        entry = members[0]
        lam0 = zero_vec(datum.ambient_dim)
        xi = InductionDatum(P=entry.P, delta=entry.module,
                            lam_re=lam0, lam_im=lam0)
        big = induce(algebra, xi, extended=True)
        for mod, _ in decompose(big):
            if not is_tempered(mod):
                raise ModuleError(
                    f"summand of pi'({list(entry.P)},{entry.module.name},0) "
                    "is not tempered; census invariant violated")
            _, real = central_character(mod)
            if not real:
                raise ModuleError("summand has non-real central character")
            mod.meta["P"] = entry.P
            mod.meta["delta"] = entry.module.name
            found.append(mod)
    # dedup across association classes: a summand of pi'(P, delta, 0) may
    # realize a stratum with larger central-character norm and reappear
    unique: List[FinModule] = []
    for m in found:
        if any(equivalent(m, u) for u in unique):
            continue
        unique.append(m)
    unique.sort(key=lambda m: (-cc_norm2(m), len(m.meta.get("P", ())),
                               m.meta.get("P", ()), m.dim,
                               m.restriction_character()))
    return unique
