"""Shared helpers for the test suite: reference implementations to compare against."""

import math
from collections import namedtuple
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from gradedhecke.linalg import (QI, Mat, Q, Vec, charpoly, identity,
                                intertwiner_matrices, mat, mat_comb, mat_mul,
                                nullspace, poly1_divmod, poly1_mul, rank,
                                restrict_matrix, roots, zero_vec)
from gradedhecke.modules import (FieldExtensionNeeded, FinModule, ModuleError,
                                 UnsplitSpectrumError, _eigen_split_element,
                                 commutant, equivalent, parabolic_algebra,
                                 submodule)
from gradedhecke.weyl import coset_decomposition


def all_reduced_words(datum, matrix):
    """Every reduced word of the element with the given matrix (DFS)."""
    ident = identity(datum.ambient_dim)
    refl = [datum.reflection_matrix(i) for i in range(datum.rank)]
    pos = datum.positive_roots()
    posset = set(pos)

    def length(m):
        from gradedhecke.linalg import inverse, mat_vec, transpose
        minv_t = transpose(inverse(m), len(m))
        return sum(1 for a in pos if mat_vec(minv_t, a) not in posset)

    out = []

    def rec(m, word):
        if m == ident:
            out.append(tuple(reversed(word)))
            return
        lm = length(m)
        for i in range(datum.rank):
            m2 = mat_mul(m, refl[i])
            if length(m2) < lm:
                rec(m2, word + [i])

    rec(matrix, [])
    return out


def brute_force_form_dimension(matrices, degree, n):
    """Invariant-form dimension by explicit basis traces (no Molien series).

    Trace of the group average on degree-d polynomials tensor n-forms:
    monomial-substitution traces times exterior-power traces of the dual.
    """
    import itertools
    from fractions import Fraction as Q

    from gradedhecke.poly import Poly, monomials_of_degree, substitute_linear

    if not matrices:
        raise ValueError("empty group")
    dim = len(matrices[0])
    monos = monomials_of_degree(dim, degree)
    total = Q(0)
    for m in matrices:
        minv = dense_inverse(densify(m, dim))
        dual = dense_transpose(minv)
        images = [Poly.from_covector(tuple(minv[i])) for i in range(dim)]
        tr_poly = Q(0)
        for e in monos:
            img = substitute_linear(Poly(dim, {e: Q(1)}), images)
            tr_poly += img.terms.get(e, Q(0))
        tr_forms = Q(0)
        for subset in itertools.combinations(range(dim), n):
            sub = tuple(tuple(dual[r][c] for c in subset) for r in subset)
            tr_forms += dense_det(sub)
        total += tr_poly * tr_forms
    val = total / len(matrices)
    assert val.denominator == 1
    return int(val)


def brute_force_conjugacy_count(matrices):
    """Number of conjugacy classes by direct orbit partition on matrices."""
    from gradedhecke.linalg import inverse, mat_mul

    todo = set(matrices)
    count = 0
    while todo:
        g = next(iter(todo))
        orbit = {mat_mul(mat_mul(h, g), inverse(h)) for h in matrices}
        todo -= orbit
        count += 1
    return count


# Criterion-7 point modules: generators on range(n) and the point x.
POINT_MODULE_TEMPLATES = [
    ([(1, 0)], 0),                      # S2, free orbit
    ([(1, 0, 2)], 2),                   # S2 fixing x
    ([(1, 2, 0), (1, 0, 2)], 0),        # S3 natural, G_x = S2
    ([(1, 2, 0, 3), (1, 0, 2, 3)], 3),  # S3 fixing x
    ([(1, 2, 3, 0, 4)], 4),             # Z4 < S4 fixing x
    ([(1, 2, 3, 0)], 0),                # Z4 free orbit
    ([(1, 0, 3, 2), (2, 3, 0, 1)], 0),  # V4 < S4
    ([(1, 2, 3, 0), (3, 2, 1, 0)], 0),  # D4 < S4, G_x order 2
    ([(1, 2, 0, 3), (0, 2, 1, 3), (1, 0, 2, 3)], 0),  # S3 < S4
    ([(1, 0, 3, 2), (2, 3, 0, 1), (0, 2, 1, 3)], 1),  # A4 < S4
]


def compose_perms(a, b):
    """a o b on permutation tuples: i -> a[b[i]]."""
    return tuple(a[i] for i in b)


def permutation_closure(gens):
    """Reference for `gradedhecke.weyl.permutation_bfs`: every product of the
    permutations `gens`, sorted."""
    elems = {tuple(range(len(gens[0])))}
    frontier = list(elems)
    while frontier:
        frontier = [h for h in {compose_perms(p, g) for p in gens
                                for g in frontier} if h not in elems]
        elems.update(frontier)
    return sorted(elems)


def stabilizer_class_count(group, x):
    """Conjugacy classes of the stabilizer of x in `group`, by orbit
    partition under conjugation."""
    stab = [g for g in group if g[x] == x]
    seen, classes = set(), 0
    for g in stab:
        if g in seen:
            continue
        classes += 1
        for h in stab:
            hinv = tuple(sorted(range(len(h)), key=lambda i: h[i]))
            seen.add(compose_perms(compose_perms(h, g), hinv))
    return classes


def dense_rref(rows: Sequence[Sequence]) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form by dense Gauss-Jordan over every column.

    Reference for `gradedhecke.linalg.rref`, which skips zero entries.
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
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


class _MatrixKeyedGroup:
    """W' arithmetic as the group did it before its index tables: a Fraction
    matrix product or exact inverse, looked up by matrix."""

    def __init__(self, group):
        self.datum = group.datum
        self.elements = group.elements
        self.by_matrix = {e.matrix: e for e in group.elements}

    def __len__(self):
        return len(self.elements)

    def mult(self, a, b):
        return self.by_matrix[mat_mul(a.matrix, b.matrix)]

    def inv(self, a):
        from gradedhecke.linalg import inverse
        return self.by_matrix[inverse(a.matrix)]


def fixed_basis(w, n: int) -> Tuple[Vec, ...]:
    """The canonical basis of the fixed space of w on the n-dimensional
    ambient space, the null space of w - 1."""
    return tuple(nullspace(mat_comb(((1, w.matrix), (-1, identity(n))), n),
                           n))


def act_covector(group, w, x: Vec) -> Vec:
    """w on a covector: coordinates transform by the inverse transpose."""
    from gradedhecke.linalg import mat_vec, transpose
    return mat_vec(transpose(group.inv(w).matrix, len(x)), x)


def reflect_covector(datum, i: int, x: Vec) -> Vec:
    """s_i on a covector of the datum, on Fraction values:
    x - <x, alpha_i^vee> alpha_i."""
    a, av = datum.simple_roots[i], datum.simple_coroots[i]
    c = sum((p * q for p, q in zip(x, av)), Fraction(0))
    return tuple(xx - c * aa for xx, aa in zip(x, a))


def fraction_reflection_perms(datum):
    """Reference for `RootDatum.reflection_perm`, as `gradedhecke.weyl`
    built it: each simple reflection applied to every root as a Fraction
    covector, then looked up by value."""
    at = {r: n for n, r in enumerate(datum.roots)}
    return tuple(tuple(at[reflect_covector(datum, i, r)] for r in datum.roots)
                 for i in range(datum.rank))


def solve_positive_roots(datum):
    """Reference for `RootDatum.positive`, as `positive_roots` computed it:
    one `solve` per root for its Pi-coordinates, positive when all are
    >= 0.  Returns the flags in root order."""
    from gradedhecke.linalg import solve, transpose
    cols = transpose(mat(datum.simple_roots), datum.ambient_dim)
    out = []
    for r in datum.roots:
        coeffs = solve(cols, r, datum.rank)
        out.append(coeffs is not None and all(c >= 0 for c in coeffs))
    return tuple(out)


def matrix_gram_preserved(datum, i: int) -> bool:
    """Reference for the Gram check of `gradedhecke.rootdata._validate`, as
    it ran on matrices: s_i^T G s_i == G."""
    from gradedhecke.linalg import transpose
    s = datum.reflection_matrix(i)
    return mat_mul(transpose(s, datum.ambient_dim),
                   mat_mul(datum.gram, s)) == datum.gram


def matrix_enumerate_weyl_words(datum, bound):
    """Reference for the BFS of W in `gradedhecke.weyl.enumerate_group`:
    the BFS by right multiplication on exact matrices, deduplicated by
    matrix.

    Returns the matrices and words in discovery order, and `right`, where
    right[i][k] is the position of (element k) * s_i.
    """
    from gradedhecke.weyl import WeylError
    mats = [identity(datum.ambient_dim)]
    words = [()]
    found = {mats[0]: 0}
    refl = [datum.reflection_matrix(i) for i in range(datum.rank)]
    right = [{} for _ in refl]
    frontier = [0]
    while frontier:
        frontier.sort(key=words.__getitem__)
        new = []
        for k in frontier:
            for i, r in enumerate(refl):
                m2 = mat_mul(mats[k], r)
                j = found.get(m2)
                if j is None:
                    j = found[m2] = len(mats)
                    mats.append(m2)
                    words.append(words[k] + (i,))
                    new.append(j)
                    if len(mats) > bound:
                        raise WeylError(
                            f"group exceeds configured size bound {bound}")
                right[i][k] = j
        frontier = new
    return mats, words, right


def length_by_roots(matrix, positive):
    """Number of positive roots sent negative, on the matrix: transpose(matrix)
    is the action of w^{-1} on covectors, and l(w^{-1}) = l(w)."""
    from gradedhecke.linalg import mat_vec, transpose
    m_t = transpose(matrix, len(matrix))
    return sum(1 for a in positive if mat_vec(m_t, a) not in positive)


def matrix_enumerate_group(datum, gamma):
    """Reference for `gradedhecke.weyl.enumerate_group` on a `GammaGroup`:
    (gamma label, word, matrix, length) per element in canonical order, every
    matrix a product gamma * w and every length an inversion count taken on
    the matrix."""
    mats, words, _ = matrix_enumerate_weyl_words(datum, 10 ** 5)
    positive = frozenset(datum.positive_roots())
    pairs = sorted(((g, k) for g in range(len(gamma))
                    for k in range(len(words))),
                   key=lambda t: (len(words[t[1]]), t[0], words[t[1]]))
    out = []
    for g, k in pairs:
        m = mat_mul(gamma.elements[g].matrix, mats[k])
        assert length_by_roots(m, positive) == len(words[k])
        out.append((gamma.elements[g].label, words[k], m, len(words[k])))
    assert len({m for _, _, m, _ in out}) == len(out)
    return out


def fraction_root_closure(simple_roots, simple_coroots):
    """Reference for the closure in `gradedhecke.rootdata.make_root_datum`,
    as it ran on Fraction values: the reflection closure of (Pi, Pi^vee),
    and the crystallographic flag read off all |R|^2 pairings.  Returns
    (roots, coroots, crystallographic)."""
    from gradedhecke.rootdata import RootDatumError, pairing
    pairs = {}
    frontier = list(zip(simple_roots, simple_coroots))
    for r, cv in frontier:
        pairs[r] = cv
    while frontier:
        new = []
        for r, cv in frontier:
            for a, av in zip(simple_roots, simple_coroots):
                c = pairing(r, av)
                r2 = tuple(x - c * y for x, y in zip(r, a))
                d = pairing(a, cv)
                cv2 = tuple(x - d * y for x, y in zip(cv, av))
                if r2 not in pairs:
                    pairs[r2] = cv2
                    new.append((r2, cv2))
                elif pairs[r2] != cv2:
                    raise RootDatumError("inconsistent coroot closure")
        frontier = new
    roots = tuple(sorted(pairs))
    coroots = tuple(pairs[r] for r in roots)
    crys = all(pairing(a, bv).denominator == 1
               for a in roots for bv in coroots)
    return roots, coroots, crys


def pairwise_reduced(roots) -> bool:
    """Reference for the reducedness check of `gradedhecke.rootdata`, as it
    ran on every pair of roots: the only proportional pairs are r and -r."""
    for i, r in enumerate(roots):
        piv = next(t for t, c in enumerate(r) if c)
        for r2 in roots[i + 1:]:
            c = r2[piv] / r[piv]
            if r2[piv] and c != -1 and tuple(c * x for x in r) == r2:
                return False
    return True


def fraction_element_matrices(group):
    """Reference for the element matrices of `gradedhecke.weyl.
    enumerate_group`, as it built them on Fraction values: one product per
    element of W, from its parent in the root-permutation BFS, then gamma
    times w off the identity coset.  Listed in the group's order."""
    from gradedhecke.weyl import permutation_bfs
    datum, gamma = group.datum, group.gamma
    _, words, right = permutation_bfs(fraction_reflection_perms(datum),
                                      10 ** 5)
    refl = [datum.reflection_matrix(i) for i in range(datum.rank)]
    mats = [identity(datum.ambient_dim)] + [None] * (len(words) - 1)
    for k in range(len(words)):
        for i, r in enumerate(refl):
            if mats[right[i][k]] is None:
                mats[right[i][k]] = mat_mul(mats[k], r)
    at = {w: k for k, w in enumerate(words)}
    return [mat_mul(gamma.by_label[e.gamma].matrix, mats[at[e.word]])
            if e.gamma != "e" else mats[at[e.word]] for e in group]


def matrix_braid_order(datum, i, j):
    """Reference for `gradedhecke.modules._braid_order`: the order of
    s_i s_j, by powering its matrix."""
    prod = mat_mul(datum.reflection_matrix(i), datum.reflection_matrix(j))
    ident = identity(datum.ambient_dim)
    acc, order = prod, 1
    while acc != ident:
        acc = mat_mul(acc, prod)
        order += 1
        assert order <= 64, "runaway braid order"
    return order


def bfs_parabolic_subgroup_elements(group, P):
    """Reference for `gradedhecke.weyl.parabolic_subgroup_elements`: W_P by
    a breadth-first search from the identity through the s_i, i in P."""
    P = sorted(set(P))
    frontier = [group.identity]
    members = {group.identity.index: group.identity}
    while frontier:
        new = []
        for g in frontier:
            for i in P:
                h = group.mult(g, group.simple(i))
                if h.index not in members:
                    members[h.index] = h
                    new.append(h)
        frontier = new
    return [members[i] for i in sorted(members)]


def matrix_check_parameters_conjugation(datum, kmap, group_elements):
    """Reference for `gradedhecke.rootdata.check_parameters_conjugation`:
    each simple root composed with each element's matrix, compared with the
    simple roots up to sign."""
    from gradedhecke.linalg import dot
    from gradedhecke.rootdata import RootDatumError
    simple = {a: i for i, a in enumerate(datum.simple_roots)}
    for g in group_elements:
        for a, i in simple.items():
            img = tuple(dot(a, col) for col in dense_transpose(
                densify(g.matrix, datum.ambient_dim)))
            for sgn in (1, -1):
                j = simple.get(tuple(sgn * x for x in img))
                if j is not None and kmap[i] != kmap[j]:
                    raise RootDatumError(
                        f"k must agree on conjugate simple roots {i} and {j}")


OracleClassEntry = namedtuple(
    "OracleClassEntry", "rep size centralizer fixed_basis fixed_dim members")
OracleCensus = namedtuple("OracleCensus", "group entries")


def matrix_conjugacy_census(group):
    """Reference for `gradedhecke.weyl.conjugacy_census`: the matrix-keyed
    census body, unchanged, run on `_MatrixKeyedGroup` arithmetic."""
    from gradedhecke.weyl import WeylError
    group = _MatrixKeyedGroup(group)
    ClassEntry, ConjugacyClassCensus = OracleClassEntry, OracleCensus

    seen = set()
    entries: List[ClassEntry] = []
    n = group.datum.ambient_dim
    for g in group.elements:
        if g.matrix in seen:
            continue
        orbit = set()
        centralizer = []
        for h in group.elements:
            c = group.mult(group.mult(h, g), group.inv(h))
            orbit.add(c.matrix)
            if group.mult(h, g) == group.mult(g, h):
                centralizer.append(h)
        seen |= orbit
        rows = [[x - (1 if i == j else 0) for j, x in enumerate(row)]
                for i, row in enumerate(densify(g.matrix, n))]
        fixed = tuple(dense_nullspace(rows, n))
        entries.append(ClassEntry(rep=g, size=len(orbit),
                                  centralizer=tuple(centralizer),
                                  fixed_basis=fixed, fixed_dim=len(fixed),
                                  members=frozenset(orbit)))
    total = sum(e.size for e in entries)
    if total != len(group):
        raise WeylError("class sizes do not sum to the group order")
    for e in entries:
        if e.size * len(e.centralizer) != len(group):
            raise WeylError("orbit-stabilizer failure in census")
    return ConjugacyClassCensus(group=group, entries=tuple(entries))


def rank_group_hh0(group):
    """Reference for `gradedhecke.homology.group_hh0`: |W'| minus the rank,
    by elimination, of the rows x - s x s^-1 for s a simple reflection or a
    Gamma element."""
    gens = [group.simple(i) for i in range(group.datum.rank)] + \
        [group.gamma_element(c.label) for c in group.gamma.elements]
    rows = []
    for s in gens:
        for x in group.elements:
            y = group.mult(group.mult(s, x), group.inv(s)).index
            if y != x.index:
                rows.append({x.index: 1, y: -1})
    return len(group) - rank(mat(rows))


def substitution_multiply(alg, a, b, kvals):
    """Reference for `HeckeAlgebra.multiply(a, b)` at parameters `kvals`: the
    substitution-based `_push_poly` and `multiply` bodies, unchanged, which
    act on each whole polynomial with `act_matrix` / `divided_difference`
    instead of reading cached monomial images."""
    from gradedhecke.hecke import HeckeElement
    from gradedhecke.poly import act_matrix, divided_difference
    self = alg

    def push_poly(p, gamma_label, word, kvals):
        group = self.group
        if gamma_label == "e":
            start = p
            acc = group.identity
        else:
            g = group.gamma.by_label[gamma_label]
            ginv = group.gamma.inv(g)
            start = act_matrix(ginv.matrix, p)
            acc = group.gamma_element(gamma_label)
        pending = [(acc, start)]
        for i in word:
            s_i = group.simple(i)
            nxt = {}
            for g_el, q in pending:
                sq = act_matrix(self.datum.reflection_matrix(i), q)
                key = group.mult(g_el, s_i)
                cur = nxt.get(key)
                nxt[key] = sq if cur is None else cur + sq
                if kvals[i]:
                    dq = divided_difference(self.datum, i, q)
                    if not dq.is_zero():
                        dq = dq * kvals[i]
                        cur = nxt.get(g_el)
                        nxt[g_el] = dq if cur is None else cur + dq
            pending = [(g, q) for g, q in nxt.items() if not q.is_zero()]
        return dict(pending)

    out = {}
    for w, p in a.terms.items():
        for v, q in b.terms.items():
            pushed = push_poly(p, v.gamma, v.word, kvals)
            for u, r in pushed.items():
                key = self.group.mult(w, u)
                term = r * q
                cur = out.get(key)
                s = term if cur is None else cur + term
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
    return HeckeElement(self, out)


# Dense exact kernels: the reference for every public `gradedhecke.linalg`
# routine that takes or returns a matrix.  These are the library bodies from
# before matrices became sparse rows (and, for `dense_mat_vec`,
# `dense_mat_mul`, `dense_charpoly` and `dense_restrict_matrix`, from before
# those routines skipped zero entries), unchanged except that each calls the
# dense copies here instead of the library's.  A matrix is a tuple of dense
# row tuples; `densify` turns a library matrix into one.

def densify(m, ncols):
    """The library matrix m (sparse rows) as dense rows of width ncols."""
    from fractions import Fraction
    out = []
    for row in m:
        dense = [Fraction(0)] * ncols
        for j, x in row:
            dense[j] = x
        out.append(tuple(dense))
    return tuple(out)


def _dense_dot(u, v):
    from fractions import Fraction
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def dense_identity(n):
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                 for i in range(n))


def dense_transpose(a):
    if not a:
        return ()
    return tuple(zip(*a))


def dense_trace(a):
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def dense_mat_vec(m, v):
    return tuple(_dense_dot(row, v) for row in m)


def dense_mat_mul(a, b):
    """Reference for `gradedhecke.linalg.mat_mul`."""
    bt = dense_transpose(b)
    return tuple(tuple(_dense_dot(row, col) for col in bt) for row in a)


def _dense_mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def _dense_mat_scale(c, a):
    return tuple(tuple(c * x for x in r) for r in a)


def dense_mat_comb(coeffs, mats, n):
    """Reference for `gradedhecke.linalg.mat_comb`: the n x n matrix sum of
    coeffs[k] * mats[k]."""
    out = [[Fraction(0)] * n for _ in range(n)]
    for c, m in zip(coeffs, mats):
        for acc, row in zip(out, m):
            for j, x in enumerate(row):
                acc[j] = acc[j] + c * x
    return tuple(tuple(r) for r in out)


def dense_charpoly(a):
    """Reference for `gradedhecke.linalg.charpoly` (Faddeev-LeVerrier)."""
    n = len(a)
    coeffs = [Fraction(1)]
    m = dense_identity(n)
    for k in range(1, n + 1):
        am = dense_mat_mul(a, m)
        ck = -dense_trace(am) / k
        coeffs.append(ck)
        m = _dense_mat_add(am, _dense_mat_scale(ck, dense_identity(n)))
    return tuple(coeffs)


def dense_rank(rows: Sequence[Sequence]) -> int:
    """Reference for `gradedhecke.linalg.rank`: dense Gauss-Jordan."""
    return len(dense_rref(rows)[1])


def dense_nullspace(rows, ncols=None):
    """Reference for `gradedhecke.linalg.nullspace`: the basis of
    {x : A x = 0} with one free column set to 1 each."""
    rows = [list(r) for r in rows]
    if ncols is None:
        ncols = len(rows[0])
    if not rows:
        return list(dense_identity(ncols))
    red, pivots = dense_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for i, p in enumerate(pivots):
            x[p] = -red[i][f]
        basis.append(tuple(x))
    return basis


def dense_canonical_basis(vectors):
    """Reference for `gradedhecke.linalg.canonical_basis`: the reduced row
    echelon form of the vectors taken with the columns in reverse order."""
    red, pivots = dense_rref([list(reversed(v)) for v in vectors])
    return [tuple(reversed(red[i])) for i in reversed(range(len(pivots)))]


def dense_solve(a, b):
    """Reference for `gradedhecke.linalg.solve`: one exact solution of
    A x = b, or None if inconsistent."""
    rows = [list(r) + [bb] for r, bb in zip(a, b)]
    if not rows:
        return ()
    n = len(rows[0]) - 1
    red, pivots = dense_rref(rows)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, p in enumerate(pivots):
        x[p] = red[i][n]
    return tuple(x)


def dense_inverse(a):
    """Reference for `gradedhecke.linalg.inverse`."""
    n = len(a)
    rows = [list(r) + list(e) for r, e in zip(a, dense_identity(n))]
    red, pivots = dense_rref(rows)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


def dense_det(a):
    """Determinant by Gaussian elimination: the exterior-power traces of
    `brute_force_form_dimension` are sums of principal minors."""
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


def dense_coords_in_basis(basis, v):
    """Coordinates of v in the given basis (columns), or None."""
    if not basis:
        return () if not any(v) else None
    a = [[b[i] for b in basis] for i in range(len(v))]
    return dense_solve(a, list(v))


def dense_restrict_matrix(m, basis):
    """Reference for `gradedhecke.linalg.restrict_matrix`: one solve per
    basis vector; raises if the span is not invariant."""
    cols = []
    for b in basis:
        c = dense_coords_in_basis(basis, dense_mat_vec(m, b))
        if c is None:
            raise ValueError("subspace is not invariant")
        cols.append(c)
    return tuple(tuple(cols[j][i] for j in range(len(basis)))
                 for i in range(len(basis)))


def dense_intertwiner_matrices(pairs, nrows, ncols):
    """Reference for `gradedhecke.linalg.intertwiner_matrices`: basis of
    {M : X M = M Y for all (X, Y) in pairs}, one dense row per entry."""
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
    basis = dense_nullspace(sys_rows, nrows * ncols)
    return [tuple(tuple(v[i * ncols + j] for j in range(ncols))
                  for i in range(nrows)) for v in basis]


def euclid_gcd(p, q):
    """Reference for `gradedhecke.linalg.poly1_gcd`: Euclid's algorithm over
    Q or Q(i), the result with leading coefficient 1."""
    from gradedhecke.linalg import poly1_trim
    p, q = poly1_trim(p), poly1_trim(q)
    while q:
        p, q = q, poly1_divmod(p, q)[1]
    u = Fraction(1) / p[-1] if p else 0
    return tuple(a * u for a in p)


def field_reduce_fraction(num, den):
    """Reference for `gradedhecke.poly._reduce_fraction`: its body from
    before witnesses were integer polynomials, Euclid's gcd over Q."""
    from gradedhecke.linalg import poly1_scale, poly1_trim
    if not num:
        return (), (Fraction(1),)
    g = euclid_gcd(num, den)
    if len(g) > 1:
        num = poly1_divmod(num, g)[0]
        den = poly1_divmod(den, g)[0]
    lead = den[-1]
    num = poly1_scale(Fraction(1) / lead, num)
    den = poly1_scale(Fraction(1) / lead, den)
    return poly1_trim(num), poly1_trim(den)


def matrix_molien(action_matrices, n_max, order=16):
    """`gradedhecke.poly.molien_forms` on the tally of the charpolys of the
    given matrices, one per group element: the route of the census before
    it read its charpolys off the traces of the group table."""
    from collections import Counter

    from gradedhecke.poly import molien_forms
    tally = Counter()
    for m in action_matrices:
        cp = charpoly(m)
        assert all(c.denominator == 1 for c in cp)
        tally[tuple(c.numerator for c in cp)] += 1
    return molien_forms(tally, n_max, order)


def matrix_census(datum, gammas=(), truncation=16):
    """Reference for the entries' series and the totals of
    `gradedhecke.homology.crossed_product_census`: each centralizer
    element restricted to the fixed space (`restrict_matrix`), one charpoly
    and one reduced Fraction witness per element and degree
    (`per_element_molien`), and the totals folded by `pairwise_add`."""
    from gradedhecke.weyl import enumerate_group
    entries = []
    for cls in enumerate_group(datum, gammas).census.entries:
        basis = fixed_basis(cls.rep, datum.ambient_dim)
        mats = [restrict_matrix(z.matrix, basis) for z in cls.centralizer]
        entries.append(tuple(per_element_molien(mats, n, truncation)
                             for n in range(datum.ambient_dim + 1)))
    totals = []
    for column in zip(*entries):
        total = column[0]
        for s in column[1:]:
            total = pairwise_add(total, s)
        totals.append(total)
    return entries, totals


def per_element_molien(action_matrices, n, order=16):
    """Reference for `gradedhecke.poly.molien_forms`: one degree at a time,
    one charpoly of the dual action and one reduced fraction per element,
    in Fraction arithmetic."""
    from typing import Tuple

    from gradedhecke.linalg import (Q, inverse, poly1_add, poly1_mul,
                                    poly1_scale, poly1_trim, series_inverse,
                                    transpose)
    from gradedhecke.poly import PoincareSeries

    group = list(action_matrices)
    if not group:
        raise ValueError("need at least the identity matrix")
    dim = len(group[0])
    if n < 0:
        raise ValueError("form degree must be >= 0")
    if n > dim:
        return PoincareSeries(order=order, coeffs=(0,) * (order + 1),
                              witness=((), (Fraction(1),)))
    total = [Fraction(0)] * (order + 1)
    wnum: Tuple[Q, ...] = ()
    wden: Tuple[Q, ...] = (Fraction(1),)
    for m in group:
        # cp = det(xI - h*) = (1, c_1, ..., c_dim) highest first, so read
        # lowest first it is det(1 - t h*), and (-1)^n c_n = tr Lambda^n h*
        cp = charpoly(transpose(inverse(m), dim)) if dim else (Fraction(1),)
        numer = cp[n] * (-1) ** n
        den = poly1_trim(cp)
        inv = series_inverse(den, order)
        for i in range(order + 1):
            total[i] += numer * inv[i]
        wnum = poly1_add(poly1_mul(wnum, den), poly1_scale(numer, wden))
        wden = poly1_mul(wden, den)
        wnum, wden = field_reduce_fraction(wnum, wden)
    size = Fraction(len(group))
    coeffs = []
    for c in total:
        c = c / size
        if c.denominator != 1 or c < 0:
            raise ValueError("Molien coefficient is not a dimension")
        coeffs.append(int(c))
    wnum = poly1_scale(Fraction(1, len(group)), wnum)
    wnum, wden = field_reduce_fraction(wnum, wden)
    witness = (wnum, wden) if len(wden) - 1 <= order else None
    return PoincareSeries(order=order, coeffs=tuple(coeffs), witness=witness)


# Root extraction by candidate search: the `gradedhecke.linalg` bodies of
# `rational_roots`, `gaussian_roots` and their helpers from before the
# p-adic root finder `roots`, unchanged but for the two public names (and
# `QI.conj`, written out).  `divisor_rational_roots` tries every quotient of
# divisors of the end coefficients; `kronecker_gaussian_roots` runs it on the
# norm polynomial and adds a Kronecker-style search for its rational
# quadratic factors.  Both are exponential in the coefficients' bit size.

def _divisors(n: int) -> List[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def poly1_eval(p, x):
    out = Fraction(0)
    for a in reversed(p):
        out = out * x + a
    return out


def _to_integer_poly(coeffs_highest_first) -> List[int]:
    denom = math.lcm(*(Fraction(c).denominator for c in coeffs_highest_first))
    ints = [int(Fraction(c) * denom) for c in coeffs_highest_first]
    g = math.gcd(*ints)
    if g > 1:
        ints = [c // g for c in ints]
    return ints


def divisor_rational_roots(coeffs_highest_first) -> Tuple[List[Tuple[Q, int]], Tuple]:
    """All rational roots with multiplicities, plus the rootless residual.

    Input and residual are highest-degree-first Fraction coefficients.
    """
    p = [Fraction(c) for c in coeffs_highest_first]
    while p and p[0] == 0:
        p.pop(0)
    if not p:
        raise ValueError("zero polynomial")
    roots: List[Tuple[Q, int]] = []
    zero_mult = 0
    while len(p) > 1 and p[-1] == 0:
        p.pop()
        zero_mult += 1
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    ints = _to_integer_poly(p)
    candidates = set()
    if len(ints) > 1:
        for num in _divisors(ints[-1]):
            for den in _divisors(ints[0]):
                candidates.add(Fraction(num, den))
                candidates.add(Fraction(-num, den))
    for cand in sorted(candidates):
        mult = 0
        while len(p) > 1 and poly1_eval(list(reversed(p)), cand) == 0:
            # synthetic division by (x - cand)
            out = [p[0]]
            for c in p[1:-1]:
                out.append(c + out[-1] * cand)
            p = out
            mult += 1
        if mult:
            roots.append((cand, mult))
    roots.sort(key=lambda t: t[0])
    return roots, tuple(p)


def _rational_sqrt(x: Q) -> Optional[Q]:
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn = math.isqrt(n)
    rd = math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _quadratic_factors(coeffs_highest_first) -> List[Tuple[Q, Q]]:
    """Monic rational quadratics x^2 + u x + v dividing the given polynomial.

    Kronecker-style search on a rational-root-free integer polynomial.
    """
    ints = _to_integer_poly(coeffs_highest_first)
    if len(ints) < 3:
        return []
    p_rev = [Fraction(c) for c in reversed(ints)]  # lowest first
    p0 = poly1_eval(p_rev, Fraction(0))
    p1 = poly1_eval(p_rev, Fraction(1))
    pm1 = poly1_eval(p_rev, Fraction(-1))
    if p0 == 0 or p1 == 0 or pm1 == 0:
        raise ValueError("quadratic factor search requires root-free input")
    out = []
    seen = set()
    lead = abs(ints[0])
    for a in _divisors(lead):
        for c0 in _divisors(int(p0)):
            for csign in (1, -1):
                c = c0 * csign
                for t0 in _divisors(int(p1)):
                    for tsign in (1, -1):
                        b = t0 * tsign - a - c
                        if (a - b + c) == 0 or int(pm1) % (a - b + c) != 0:
                            continue
                        u, v = Fraction(b, a), Fraction(c, a)
                        if (u, v) in seen:
                            continue
                        seen.add((u, v))
                        _, rem = poly1_divmod(p_rev, (v, u, Fraction(1)))
                        if not rem:
                            out.append((u, v))
    return out


def kronecker_gaussian_roots(coeffs_highest_first) -> Tuple[List[Tuple[QI, int]], Tuple]:
    """Gaussian-rational roots with multiplicities, plus the residual.

    Coefficients may be Fraction or QI; residual is highest-first.
    """
    p = [QI.of(c) for c in coeffs_highest_first]
    while p and not p[0]:
        p.pop(0)
    if not p:
        raise ValueError("zero polynomial")
    conj = [QI(c.re, -c.im) for c in p]
    norm = poly1_mul(tuple(reversed(p)), tuple(reversed(conj)))
    # real by construction; a coefficient no product reached is Fraction(0)
    norm_hf = [QI.of(c).re for c in reversed(norm)]
    rroots, residual = divisor_rational_roots(norm_hf)
    candidates: List[QI] = [QI(r) for r, _ in rroots]
    if len(residual) > 2:
        for u, v in _quadratic_factors(residual):
            disc = u * u - 4 * v
            s = _rational_sqrt(-disc)
            if s is not None:
                candidates.append(QI(-u / 2, s / 2))
                candidates.append(QI(-u / 2, -s / 2))
    roots: List[Tuple[QI, int]] = []
    for z in sorted(set(candidates), key=lambda q: (q.re, q.im)):
        mult = 0
        while len(p) > 1:
            # synthetic division by (x - z)
            out = [p[0]]
            for c in p[1:-1]:
                out.append(c + out[-1] * z)
            rem = p[-1] + out[-1] * z
            if rem:
                break
            p = out
            mult += 1
        if mult:
            roots.append((z, mult))
    return roots, tuple(p)


# Module decomposition as it was before summands were split in their own
# coordinates: the `gradedhecke.modules` bodies of `weights`, `_split_bases`
# and `decompose`, unchanged but for their names and the matrix type
# (`weights` calls the library on sparse matrices, `_split_bases` the dense
# references here on densified commutants).  `weights` powers
# (A - lambda) `dim` times and lifts with a tuple-add loop; `_split_bases`
# recomputes each piece as a submodule of the whole module, and `decompose`
# rebuilds every summand from its lifted basis.

def basis_lift_weights(module: FinModule) -> List[Tuple[Tuple[Vec, Vec], int]]:
    """Generalized joint spectrum of the coordinate matrices.

    Returns [((re, im), multiplicity)] with multiplicities summing to the
    dimension; raises UnsplitSpectrumError naming the offending
    characteristic factor when the spectrum is not Gaussian rational.
    """
    n = module.dim
    cmplx = module.is_complex()
    spaces: List[Tuple[List[Vec], List]] = [(list(dense_identity(n)), [])]
    for m in module.coord:
        new_spaces = []
        for basis, vals in spaces:
            a = restrict_matrix(m, basis)
            cp = charpoly(a)
            found, residual = roots(cp, gaussian=cmplx)
            if not cmplx:
                found = [(QI(r), mult) for r, mult in found]
            if len(residual) > 1:
                raise UnsplitSpectrumError(residual)
            total = 0
            dim_b = len(basis)
            for lam, mult in found:
                lam_s = lam if cmplx else lam.re
                shifted = mat_comb(((1, a), (-lam_s, identity(dim_b))), dim_b)
                powm = identity(dim_b)
                for _ in range(dim_b):
                    powm = mat_mul(powm, shifted)
                ker = nullspace(powm, dim_b)
                if len(ker) != mult:
                    raise UnsplitSpectrumError(cp)
                lifted = []
                for v in ker:
                    w = zero_vec(n)
                    for c, bvec in zip(v, basis):
                        w = tuple(x + c * y for x, y in zip(w, bvec))
                    lifted.append(w)
                new_spaces.append((lifted, vals + [lam]))
                total += mult
            if total != dim_b:
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


def _lift_split_bases(module: FinModule, basis: List[Vec]) -> List[List[Vec]]:
    """Bases of irreducible submodules spanning the given invariant space."""
    sub = submodule(module, basis)
    if len(commutant(sub)) == 1:
        return [list(basis)]
    cmplx = sub.is_complex()
    c, lam, ker, obstruction = _eigen_split_element(commutant(sub), sub.dim,
                                                    cmplx)
    comm = [densify(m, sub.dim) for m in commutant(sub)]
    if c is None:
        raise FieldExtensionNeeded(
            obstruction if obstruction is not None else (Fraction(1),))
    # idempotent e in span(comm) with image exactly span(ker)
    kmat_rows = [list(v) for v in ker]
    ann = dense_nullspace(kmat_rows, sub.dim)  # z with <z, ker> = 0
    rows = []
    rhs = []
    for w in ker:  # e w = w
        for r in range(sub.dim):
            rows.append([sum((cb[r][s] * w[s] for s in range(sub.dim)),
                             Fraction(0)) for cb in comm])
            rhs.append(w[r])
    for j in range(sub.dim):  # e e_j in span(ker):  z . (e e_j) = 0
        col = [tuple(cb[r][j] for r in range(sub.dim)) for cb in comm]
        for z in ann:
            rows.append([sum((z[r] * cv[r] for r in range(sub.dim)),
                             Fraction(0)) for cv in col])
            rhs.append(Fraction(0))
    coeffs = dense_solve(rows, rhs)
    if coeffs is None:
        raise ModuleError("no idempotent projection; module not completely "
                          "reducible over the working field")
    e = [[sum((coeffs[t] * comm[t][r][s] for t in range(len(comm))),
              Fraction(0)) for s in range(sub.dim)] for r in range(sub.dim)]
    ker_e = dense_nullspace(e, sub.dim)
    if len(ker) + len(ker_e) != sub.dim:
        raise ModuleError("idempotent split has wrong rank")

    def lift(vecs):
        out = []
        for v in vecs:
            w = zero_vec(module.dim)
            for cvf, bvec in zip(v, basis):
                w = tuple(x + cvf * y for x, y in zip(w, bvec))
            out.append(w)
        return out

    return (_lift_split_bases(module, lift(ker))
            + _lift_split_bases(module, lift(ker_e)))


def rebuild_decompose(module: FinModule) -> List[Tuple[FinModule, int]]:
    """Split a completely reducible module into irreducibles with multiplicity.

    Orthogonal idempotents are found inside the commutant; a commutant whose
    elements have no rational eigenvalues raises FieldExtensionNeeded with
    the polynomial to adjoin.
    """
    n = module.dim
    bases = _lift_split_bases(module, list(dense_identity(n)))
    mods = [submodule(module, b, name=f"{module.name}#{i}")
            for i, b in enumerate(bases)]
    groups: List[Tuple[FinModule, int]] = []
    for m in mods:
        placed = False
        for i, (rep, count) in enumerate(groups):
            if equivalent(rep, m):
                groups[i] = (rep, count + 1)
                placed = True
                break
        if not placed:
            groups.append((m, 1))
    if sum(c * m.dim for m, c in groups) != module.dim:
        raise ModuleError("decomposition does not fill the module")
    groups.sort(key=lambda t: (t[0].dim, t[0].restriction_character()))
    return groups


# Hom spaces by one dense solve: the `gradedhecke.modules.hom_space` body
# before induced sources went by Frobenius reciprocity, unchanged but for its
# name.

def dense_hom_space(src: FinModule, dst: FinModule) -> List[Mat]:
    """Exact basis of Hom_{H'}(src, dst) (C-dimension when data are complex)."""
    if src.algebra.datum.cartan() != dst.algebra.datum.cartan():
        raise ModuleError("modules live over different algebras")
    pairs = list(zip(dst.generator_matrices(), src.generator_matrices()))
    return intertwiner_matrices(pairs, dst.dim, src.dim)


# Bar and mixed complexes as dense matrices: the `gradedhecke.homology`
# bodies of `_tensor_basis`, `_basis_index`, `hochschild_boundary`,
# `connes_boundary` and `_mixed_total_boundary` before the boundaries were
# built as sparse columns, unchanged but for their names.

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


def dense_hochschild_boundary(algebra, n: int) -> List[List[Fraction]]:
    """Matrix of b : A^{(x)(n+1)} -> A^{(x)n+... } on tensor basis vectors.

    b(a_0 (x) ... (x) a_n) = sum_{i=0}^{n-1} (-1)^i ... a_i a_{i+1} ...
                             + (-1)^n a_n a_0 (x) a_1 (x) ... (x) a_{n-1}.
    """
    d = algebra.dim
    rows = d ** n
    cols = d ** (n + 1)
    mult = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i, row in enumerate(algebra.table):
        for j, cell in enumerate(row):
            for k, c in cell:
                mult[i][j][k] += c
    m = [[Fraction(0)] * cols for _ in range(rows)]
    for t in _tensor_basis(d, n + 1):
        col = _basis_index(d, t)
        for i in range(n):
            prod = mult[t[i]][t[i + 1]]
            sgn = Fraction(-1) ** i
            for k, c in enumerate(prod):
                if c:
                    tgt = t[:i] + (k,) + t[i + 2:]
                    m[_basis_index(d, tgt)][col] += sgn * c
        prod = mult[t[n]][t[0]]
        sgn = Fraction(-1) ** n
        for k, c in enumerate(prod):
            if c:
                tgt = (k,) + t[1:n]
                m[_basis_index(d, tgt)][col] += sgn * c
    return m


def dense_connes_boundary(algebra, n: int) -> List[List[Fraction]]:
    """Matrix of B = (1 - t) s N : A^{(x)(n+1)} -> A^{(x)(n+2)}."""
    d = algebra.dim
    cols = d ** (n + 1)
    rows = d ** (n + 2)
    m = [[Fraction(0)] * cols for _ in range(rows)]
    unit = algebra.unit
    for t in _tensor_basis(d, n + 1):
        col = _basis_index(d, t)
        # N = sum_i t^i with t(a_0...a_n) = (-1)^n a_n (x) a_0 ... a_{n-1}
        for i in range(n + 1):
            shifted = t[n + 1 - i:] + t[:n + 1 - i]
            sgn_n = (Fraction(-1) ** n) ** i
            # s: prepend the unit; then (1 - t') on n+2 tensor factors
            for u_idx, u_c in enumerate(unit):
                if not u_c:
                    continue
                s_t = (u_idx,) + shifted
                coeff = sgn_n * u_c
                m[_basis_index(d, s_t)][col] += coeff
                cyc = s_t[-1:] + s_t[:-1]
                sgn2 = Fraction(-1) ** (n + 1)
                m[_basis_index(d, cyc)][col] -= coeff * sgn2
    return m


def dense_mixed_total_boundary(algebra, n: int) -> List[List[Fraction]]:
    """Total differential b + B : B_n -> B_{n-1} of the mixed bicomplex."""
    d = algebra.dim
    src_sizes = [d ** (n + 1 - 2 * j) for j in range((n // 2) + 1)]
    dst_sizes = [d ** (n - 2 * j) for j in range(((n - 1) // 2) + 1)]
    rows = sum(dst_sizes)
    cols = sum(src_sizes)
    m = [[Fraction(0)] * cols for _ in range(rows)]
    src_off = [sum(src_sizes[:j]) for j in range(len(src_sizes))]
    dst_off = [sum(dst_sizes[:j]) for j in range(len(dst_sizes))]
    for j, size in enumerate(src_sizes):
        deg = n - 2 * j  # tensor power is deg + 1
        if deg >= 1:
            b = dense_hochschild_boundary(algebra, deg)
            for r in range(len(b)):
                for c in range(size):
                    v = b[r][c]
                    if v:
                        m[dst_off[j] + r][src_off[j] + c] += v
        if j >= 1:
            bmat = dense_connes_boundary(algebra, deg)
            for r in range(len(bmat)):
                for c in range(size):
                    v = bmat[r][c]
                    if v:
                        m[dst_off[j - 1] + r][src_off[j] + c] += v
    return m


def pairwise_add(a, b):
    """Reference for `gradedhecke.poly.sum_series`: the body of
    `PoincareSeries.__add__` before sums were taken in one pass."""
    from gradedhecke.linalg import poly1_add, poly1_mul
    from gradedhecke.poly import PoincareSeries

    self, other = a, b
    order = min(self.order, other.order)
    coeffs = tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
    witness = None
    if self.witness and other.witness:
        n1, d1 = self.witness
        n2, d2 = other.witness
        num = poly1_add(poly1_mul(n1, d2), poly1_mul(n2, d1))
        den = poly1_mul(d1, d2)
        num, den = field_reduce_fraction(num, den)
        if len(den) - 1 <= order:
            witness = (num, den)
    return PoincareSeries(order=order, coeffs=coeffs[:order + 1],
                          witness=witness)


def _poly_at_coordinates(p, mats, dim):
    """Evaluate p at commuting coordinate matrices (exact)."""
    cache = {}

    def power(i, k):
        if (i, k) not in cache:
            cache[(i, k)] = mats[i] if k == 1 else \
                mat_mul(power(i, k - 1), mats[i])
        return cache[(i, k)]

    monomials = []
    for e in p.terms:
        m = None
        for i, k in enumerate(e):
            if k:
                m = power(i, k) if m is None else mat_mul(m, power(i, k))
        monomials.append(identity(dim) if m is None else m)
    return mat_comb(zip(p.terms.values(), monomials), dim)


def multiply_induce(algebra, xi, extended=True):
    """The generator matrices of pi'(xi) (pi(xi) when not extended) built
    by normal-ordering h * u in H' for each coset representative u and
    generator h, splitting along H' = (+)_u u H^P and evaluating each
    polynomial at delta_lambda: (refl, gammas, coord), every matrix dense;
    the blocks are library products."""
    datum = algebra.datum
    parab, _ = parabolic_algebra(algebra, xi.P)
    delta = xi.delta
    work = algebra if extended else algebra.unextended()
    reps, split = coset_decomposition(work.group, xi.P)
    d = delta.dim
    n = len(reps) * d
    complex_lam = any(c != 0 for c in xi.lam_im)
    coord_small = []
    for k in range(datum.ambient_dim):
        lam_k = QI(xi.lam_re[k], xi.lam_im[k]) if complex_lam \
            else xi.lam_re[k]
        mats = [identity(d)]
        if k in parab.P:
            mats.append(delta.coord[parab.P.index(k)])
        coord_small.append(mat_comb(zip([lam_k, 1], mats), d))

    def delta_matrix(w):
        m = identity(d)
        for i in w.word:
            m = mat_mul(m, delta.refl[parab.P.index(i)])
        return m

    def act_matrix_of(h):
        big = [[Fraction(0)] * n for _ in range(n)]
        for a, u in enumerate(reps):
            prod = work.multiply(h, work.from_group(u))
            for g, p in prod.terms.items():
                b, w = split[g.index]
                block = mat_mul(delta_matrix(w),
                                _poly_at_coordinates(p, coord_small, d))
                for r, row in enumerate(block):
                    for s, v in row:
                        big[b * d + r][a * d + s] = \
                            big[b * d + r][a * d + s] + v
        return tuple(tuple(r) for r in big)

    refl = {i: act_matrix_of(work.s(i)) for i in range(datum.rank)}
    gammas = {gm.label: act_matrix_of(work.gamma(gm.label))
              for gm in algebra.group.gamma.elements
              if extended and gm.label != "e"}
    coord = tuple(act_matrix_of(work.x(k)) for k in range(datum.ambient_dim))
    return refl, gammas, coord
