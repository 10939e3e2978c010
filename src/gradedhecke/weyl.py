"""Enumeration of W, Gamma and W' = Gamma x| W, with censuses and cosets.

The one owner of W' facts: `GammaGroup` closes the given automorphisms, and
other layers read braid orders, W_P and root images off the enumerated group.
`HeckeDatum` is the checked presentation of H' (root datum, k and W') that
the module, catalog, homology and CLI layers read; they never multiply in H'.
An element is its position `index` in the group's canonical (length, gamma,
word) order: each group builds each element once, so elements compare by
identity.  Its matrix on the ambient space is data, multiplied out in int
arithmetic on integral data and stored as Fractions.  Products, inverses,
root images, the class census and coset bookkeeping are read off index
tables that `enumerate_group` builds once from the datum's root tables.
Censuses list classes by first-discovered representative.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import (GradedHeckeError, Mat, identity, inverse, mat, mat_comb,
                     mat_mul, mat_vec, narrow, rank, transpose)
from .rootdata import (ParameterMap, RootDatum, check_parameters_conjugation,
                       make_parameter_map)

GROUP_SIZE_BOUND = 100000


class WeylError(GradedHeckeError):
    pass


class DiagramAutomorphism(NamedTuple):
    """A Dynkin-diagram automorphism with an explicit orthogonal matrix.

    The extension of the permutation of Pi to the whole ambient space is part
    of the data; two automorphisms with the same permutation but different
    matrices count as different.
    """

    label: str
    perm: Tuple[int, ...]
    matrix: Mat


def make_diagram_automorphism(datum: RootDatum, label: str,
                              matrix) -> DiagramAutomorphism:
    if not label or "*" in label or label[0] == "s" and label[1:].isdigit():
        raise WeylError(f"automorphism label {label!r} clashes with the "
                        "word syntax: it is empty, holds '*' or reads s<i>")
    n = datum.ambient_dim
    if len(matrix) != n or any(len(r) != n for r in matrix):
        raise WeylError("automorphism matrix has wrong shape")
    m = mat(matrix)
    if mat_mul(transpose(m, n), mat_mul(datum.gram, m)) != datum.gram:
        raise WeylError(f"automorphism {label!r} is not Gram-orthogonal")
    perm = []
    coroot_index = {cv: i for i, cv in enumerate(datum.simple_coroots)}
    minv_t = transpose(inverse(m), n)
    for i in range(datum.rank):
        img_cv = mat_vec(m, datum.simple_coroots[i])
        j = coroot_index.get(img_cv)
        if j is None:
            raise WeylError(
                f"automorphism {label!r} does not permute the simple coroots")
        img_root = mat_vec(minv_t, datum.simple_roots[i])
        if img_root != datum.simple_roots[j]:
            raise WeylError(
                f"automorphism {label!r}: root and coroot images disagree")
        perm.append(j)
    cartan = [dict(row) for row in datum.cartan()]
    for i in range(datum.rank):
        for j in range(datum.rank):
            if cartan[perm[i]].get(perm[j], 0) != cartan[i].get(j, 0):
                raise WeylError(
                    f"automorphism {label!r} does not preserve the Cartan matrix")
    return DiagramAutomorphism(label=label, perm=tuple(perm), matrix=m)


class GammaGroup:
    """The group the diagram automorphisms generate.  The identity is known
    by its matrix and labelled "e"; a product new to the group is labelled
    "a*b" after the first pair, in discovery order, that gives it.  At most
    64 elements, listed identity first, then by label."""

    def __init__(self, datum: RootDatum,
                 automorphisms: Sequence[DiagramAutomorphism] = ()):
        self.datum = datum
        one = DiagramAutomorphism("e", tuple(range(datum.rank)),
                                  identity(datum.ambient_dim))
        have = {one.matrix: one}
        for a in automorphisms:
            if have.setdefault(a.matrix, a) not in (a, one):
                raise WeylError("duplicate diagram-automorphism matrices")
        self._product: Dict[Tuple[str, str], DiagramAutomorphism] = {}
        changed = True
        while changed:  # the last pass takes every product once more
            changed = False
            items = list(have.values())
            for a in items:
                for b in items:
                    m = mat_mul(a.matrix, b.matrix)
                    if m not in have:
                        # a product of automorphisms permutes the simple
                        # coroots by the composed permutation
                        have[m] = DiagramAutomorphism(
                            f"{a.label}*{b.label}",
                            tuple(a.perm[j] for j in b.perm), m)
                        changed = True
                    self._product[a.label, b.label] = have[m]
            if len(have) > 64:
                raise WeylError("diagram-automorphism closure too large")
        self.elements: Tuple[DiagramAutomorphism, ...] = tuple(sorted(
            have.values(), key=lambda a: (a is not one, a.label)))
        self.by_label: Dict[str, DiagramAutomorphism] = {
            a.label: a for a in self.elements}
        if len(self.by_label) != len(self.elements):
            raise WeylError("duplicate diagram-automorphism labels")
        self.index: Dict[str, int] = {
            a.label: i for i, a in enumerate(self.elements)}
        self._inverse = {a.label: b for a in self.elements
                         for b in self.elements
                         if self._product[a.label, b.label] is one}

    def __len__(self):
        return len(self.elements)

    def compose(self, a: DiagramAutomorphism,
                b: DiagramAutomorphism) -> DiagramAutomorphism:
        return self._product[a.label, b.label]

    def inv(self, a: DiagramAutomorphism) -> DiagramAutomorphism:
        return self._inverse[a.label]


class ExtendedWeylElement:
    """An element gamma*w of W': its position `index` in the canonical order
    of its group, word/label data and exact matrix."""

    __slots__ = ("gamma", "word", "matrix", "length", "index")

    def __init__(self, gamma: str, word: Tuple[int, ...], matrix: Mat,
                 length: int, index: int):
        self.gamma = gamma
        self.word = word
        self.matrix = matrix
        self.length = length
        self.index = index

    def __repr__(self):
        w = "*".join(f"s{i + 1}" for i in self.word) or "1"
        if self.gamma != "e":
            return f"{self.gamma}*{w}" if self.word else self.gamma
        return w if self.word else "e"


class WeylGroup:
    """The enumerated group W' = Gamma x| W with index-table arithmetic.

    `rmul_simple[i][a]` is the index of elements[a] * s_i and
    `rmul_gamma[label][a]` that of elements[a] * gamma; a product a * b walks
    b's gamma letter and word from a, and `root_perm[a]` is elements[a] on
    root positions.
    """

    def __init__(self, datum: RootDatum, gamma: GammaGroup,
                 elements: Sequence[ExtendedWeylElement],
                 rmul_simple: Sequence[Sequence[int]],
                 rmul_gamma: Dict[str, Sequence[int]],
                 root_perm: Sequence[Tuple[int, ...]]):
        self.datum = datum
        self.gamma = gamma
        self.elements: Tuple[ExtendedWeylElement, ...] = tuple(elements)
        self.root_perm = root_perm
        self.identity = self.elements[0]  # length 0, identity gamma first
        self._rmul_simple = rmul_simple
        self._rmul_gamma = rmul_gamma
        one = self.identity.index
        self._simple = tuple(self.elements[t[one]] for t in rmul_simple)
        self._gamma_elements = {label: self.elements[t[one]]
                                for label, t in rmul_gamma.items()}
        # (gamma w)^{-1} = w^{-1} gamma^{-1}: reversed word, then gamma^{-1}
        self._inv = []
        for e in self.elements:
            i = one
            for s in reversed(e.word):
                i = rmul_simple[s][i]
            ginv = gamma.inv(gamma.by_label[e.gamma]).label
            self._inv.append(rmul_gamma[ginv][i])
        self._census: Optional[ConjugacyClassCensus] = None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def _times(self, a: int, b: ExtendedWeylElement) -> int:
        """Index of elements[a] * b."""
        a = self._rmul_gamma[b.gamma][a]
        for s in b.word:
            a = self._rmul_simple[s][a]
        return a

    def mult(self, a: ExtendedWeylElement,
             b: ExtendedWeylElement) -> ExtendedWeylElement:
        return self.elements[self._times(a.index, b)]

    def inv(self, a: ExtendedWeylElement) -> ExtendedWeylElement:
        return self.elements[self._inv[a.index]]

    def simple(self, i: int) -> ExtendedWeylElement:
        return self._simple[i]

    def gamma_element(self, label: str) -> ExtendedWeylElement:
        return self._gamma_elements[label]

    @property
    def census(self) -> "ConjugacyClassCensus":
        """The conjugacy-class census, computed on first use and kept."""
        if self._census is None:
            self._census = conjugacy_census(self)
        return self._census


def permutation_bfs(gens: Sequence[Tuple[int, ...]], bound: int):
    """BFS of the group the permutations `gens` generate (p[r] the image of
    r): the permutations and lex-least words in discovery order, identity
    first, and right[i][k], the position of gens[i] o perms[k].  Stops past
    `bound` elements; the caller checks `len(perms) > bound`."""
    perms: List[Tuple[int, ...]] = [tuple(range(len(gens[0]) if gens else 0))]
    words: List[Tuple[int, ...]] = [()]
    found: Dict[Tuple[int, ...], int] = {perms[0]: 0}
    right: List[Dict[int, int]] = [{} for _ in gens]
    frontier = [0]
    while frontier:
        frontier.sort(key=words.__getitem__)
        new: List[int] = []
        for k in frontier:
            for i, s in enumerate(gens):
                p = tuple(map(s.__getitem__, perms[k]))
                j = found.get(p)
                if j is None:
                    j = found[p] = len(perms)
                    perms.append(p)
                    words.append(words[k] + (i,))
                    new.append(j)
                    if len(perms) > bound:
                        return perms, words, right
                right[i][k] = j
        frontier = new
    return perms, words, right


def _entries(m: Mat, f) -> Mat:
    """m with f applied to every stored value."""
    return tuple(tuple((j, f(x)) for j, x in row) for row in m)


def enumerate_group(datum: RootDatum,
                    gammas: Sequence[DiagramAutomorphism] = (),
                    bound: int = GROUP_SIZE_BOUND) -> WeylGroup:
    """All |Gamma| * |W| elements of W', enumerated on root permutations.

    The BFS runs on the permutations of `datum.roots`; each element's matrix
    is one product on `narrow`ed values, from its BFS parent or, off the
    identity coset, by its Gamma factor.  A matrix shared by distinct
    (gamma, w) pairs is rejected: the pairs are distinct elements only when
    Gamma meets W trivially.  Every word length is checked against the
    inversion count l(w) = #{a > 0 : a o w < 0}, read off the permutations
    kept as `root_perm`.  The right-multiplication tables come from the BFS
    and from conjugating words by Gamma.  W runs on the datum's simple
    reflection permutations: perm[r] is the position of roots[r] o w, so
    perm(w s_i) = perm(s_i) o perm(w), and right[i][k] is (element k) * s_i.
    """
    gamma = gammas if isinstance(gammas, GammaGroup) else \
        GammaGroup(datum, gammas)
    perms, words, right = permutation_bfs(datum.reflection_perm, bound)
    if len(words) * len(gamma) > bound:
        raise WeylError(f"group exceeds configured size bound {bound}")
    refl = [_entries(datum.reflection_matrix(i), narrow)
            for i in range(datum.rank)]
    mats = [_entries(identity(datum.ambient_dim), narrow)] + \
        [None] * (len(words) - 1)
    for k in range(len(words)):  # a BFS parent precedes its children
        for i, r in enumerate(refl):
            if mats[right[i][k]] is None:
                mats[right[i][k]] = mat_mul(mats[k], r)
    gperm = [tuple(datum.root_index[mat_vec(g_t, r)] for r in datum.roots)
             for g_t in (transpose(g.matrix, datum.ambient_dim)
                         for g in gamma.elements)]
    pairs = sorted(((g, k) for g in range(len(gamma))
                    for k in range(len(words))),
                   key=lambda t: (len(words[t[1]]), t[0], words[t[1]]))
    gmats = [_entries(c.matrix, narrow) for c in gamma.elements]
    products = [mat_mul(gmats[g], mats[k]) if g else mats[k]
                for g, k in pairs]  # gamma.elements[0] is the identity
    if len(set(products)) != len(products):
        raise WeylError("matrix collision between distinct (gamma, w) "
                        "pairs; Gamma must meet W trivially")
    widen = functools.lru_cache(maxsize=None)(Fraction)  # few values
    elems = [ExtendedWeylElement(
        gamma=gamma.elements[g].label, word=words[k], length=len(words[k]),
        index=n, matrix=_entries(m, widen))
        for n, ((g, k), m) in enumerate(zip(pairs, products))]
    # gamma w: roots[r] o gamma o w = roots[perms[k][gperm[g][r]]]
    root_perm = [tuple(map(perms[k].__getitem__, gperm[g])) for g, k in pairs]
    at_pair = {t: n for n, t in enumerate(pairs)}
    rmul_simple = [tuple(at_pair[g, right[i][k]] for g, k in pairs)
                   for i in range(datum.rank)]
    # gamma w c = (gamma c)(c^{-1} w c), and c^{-1} s_j c = s_{perm^{-1}(j)}
    rmul_gamma: Dict[str, Sequence[int]] = {}
    for c in gamma.elements:
        perm_inv = {j: i for i, j in enumerate(c.perm)}
        conj = []
        for word in words:
            k = 0
            for j in word:
                k = right[perm_inv[j]][k]
            conj.append(k)
        gc = [gamma.index[gamma.compose(a, c).label] for a in gamma.elements]
        rmul_gamma[c.label] = tuple(at_pair[gc[g], conj[k]] for g, k in pairs)
    group = WeylGroup(datum, gamma, elems, rmul_simple, rmul_gamma, root_perm)
    positive = [a for a, p in enumerate(datum.positive) if p]
    for e, p in zip(elems, root_perm):
        if sum(1 for a in positive if not datum.positive[p[a]]) != e.length:
            raise WeylError("word length disagrees with inversion count")
    return group


class HeckeDatum:
    """The presentation of H' = Gamma x| H(R~, k): the datum, k and W'.  It
    checks k's length, enumerates W', then checks k on the W'-orbits of
    simple roots (so k is Gamma-invariant); `HeckeAlgebra` multiplies."""

    def __init__(self, datum: RootDatum, k, gammas: Sequence = ()):
        self.datum, self.kmap = datum, make_parameter_map(datum, k)
        self.group = enumerate_group(datum, gammas)
        self.check_k(self.kmap)
        self.parabolics: Dict[Tuple[int, ...], tuple] = {}  # parabolic_algebra
        self._unextended: Optional[HeckeDatum] = None

    def check_k(self, k) -> ParameterMap:
        """k as a `ParameterMap`, checked as the constructor checks it."""
        kmap = make_parameter_map(self.datum, k)
        check_parameters_conjugation(self.datum, kmap, self.group.root_perm)
        return kmap

    def unextended(self) -> "HeckeDatum":
        """The same presentation with Gamma dropped, of the same type."""
        if self._unextended is None:
            self._unextended = self if len(self.group.gamma) == 1 else \
                type(self)(self.datum, self.kmap)
        return self._unextended


# ---------------------------------------------------------------------------
# Conjugacy census.
# ---------------------------------------------------------------------------

class ClassEntry(NamedTuple):
    rep: ExtendedWeylElement
    size: int
    centralizer: Tuple[ExtendedWeylElement, ...]
    fixed_dim: int


class ConjugacyClassCensus:
    __slots__ = ("group", "entries")

    def __init__(self, group: WeylGroup, entries: Tuple[ClassEntry, ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __len__(self):
        return len(self.entries)


def conjugacy_census(group: WeylGroup) -> ConjugacyClassCensus:
    """One entry per class: representative, size, centralizer and the
    dimension of the fixed space t^w.

    Callers use the copy cached as `group.census`.
    """
    seen = set()
    entries: List[ClassEntry] = []
    n = group.datum.ambient_dim
    ident = identity(n)
    els = group.elements
    for g in els:
        if g.index in seen:
            continue
        orbit = set()
        centralizer = []
        for h in els:
            hg = group._times(h.index, g)
            orbit.add(group._times(hg, els[group._inv[h.index]]))
            if hg == group._times(g.index, h):
                centralizer.append(h)
        seen |= orbit
        fixed_dim = n - rank(mat_comb(((1, g.matrix), (-1, ident)), n))
        entries.append(ClassEntry(rep=g, size=len(orbit),
                                  centralizer=tuple(centralizer),
                                  fixed_dim=fixed_dim))
    total = sum(e.size for e in entries)
    if total != len(group):
        raise WeylError("class sizes do not sum to the group order")
    for e in entries:
        if e.size * len(e.centralizer) != len(group):
            raise WeylError("orbit-stabilizer failure in census")
    return ConjugacyClassCensus(group=group, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Cosets and the association action.
# ---------------------------------------------------------------------------

def parabolic_subgroup_elements(group: WeylGroup,
                                P: Sequence[int]) -> List[ExtendedWeylElement]:
    """Elements of W_P inside the enumerated group: no Gamma part and a
    reduced word in the letters of P only (every reduced word of an element
    uses the same letters)."""
    P = set(P)
    return [e for e in group.elements
            if e.gamma == "e" and P.issuperset(e.word)]


def coset_decomposition(group: WeylGroup, P: Sequence[int]):
    """Minimal-length representatives u of the cosets w W_P, in canonical
    order, and for each element index the pair (position of u, h) with
    element = u * h, h in W_P."""
    wp = parabolic_subgroup_elements(group, P)
    split: List[Optional[Tuple[int, ExtendedWeylElement]]] = [None] * len(group)
    reps: List[ExtendedWeylElement] = []
    for g in group.elements:  # canonical order: length then gamma then word
        if split[g.index] is not None:
            continue
        for h in wp:
            split[group._times(g.index, h)] = (len(reps), h)
        reps.append(g)
    if len(reps) * len(wp) != len(group):
        raise WeylError("coset decomposition failed")
    return reps, split


class AssociationError(WeylError):
    pass


def association_action(group: WeylGroup, w: ExtendedWeylElement,
                       P: Sequence[int]) -> Tuple[int, ...]:
    """Image Q = w(P) when w maps the simple roots P into Pi; else error.

    Only the subset transport is computed here; transporting a module and a
    point of t^P is done by the representation layer.
    """
    pos = group.datum.simple_pos
    img = group.root_perm[group._inv[w.index]]  # a o w^{-1} is w(a)
    Q = []
    for i in sorted(set(P)):
        if img[pos[i]] not in pos:
            raise AssociationError(
                f"w({i}) is not a simple root; w is not in W'(P, Q)")
        Q.append(pos.index(img[pos[i]]))
    return tuple(sorted(Q))


def elements_mapping_parabolic(group: WeylGroup, P: Sequence[int],
                               Q: Sequence[int]) -> List[ExtendedWeylElement]:
    """W'(P, Q) = { w in W' : w(P) = Q }, read off the root permutations."""
    out = []
    for w in group.elements:
        try:
            if association_action(group, w, P) == tuple(sorted(set(Q))):
                out.append(w)
        except AssociationError:
            continue
    return out
