"""Enumeration of W, Gamma and W' = Gamma x| W, with censuses and cosets.

Elements are canonically identified by their exact matrices on the ambient
space; words and diagram-automorphism labels are bookkeeping on top.  All
censuses are deterministic: elements are enumerated in (length, gamma, word)
order and classes are listed by their first-discovered representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .linalg import Mat, Vec, dot, identity, inverse, mat, mat_mul, mat_vec, nullspace
from .rootdata import RootDatum

GROUP_SIZE_BOUND = 100000


class WeylError(ValueError):
    pass


@dataclass(frozen=True)
class DiagramAutomorphism:
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
    m = mat(matrix)
    n = datum.ambient_dim
    if len(m) != n or any(len(r) != n for r in m):
        raise WeylError("automorphism matrix has wrong shape")
    from .linalg import transpose
    if mat_mul(transpose(m), mat_mul(datum.gram, m)) != datum.gram:
        raise WeylError(f"automorphism {label!r} is not Gram-orthogonal")
    perm = []
    coroot_index = {cv: i for i, cv in enumerate(datum.simple_coroots)}
    minv_t = transpose(inverse(m))
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
    cartan = datum.cartan()
    for i in range(datum.rank):
        for j in range(datum.rank):
            if cartan[perm[i]][perm[j]] != cartan[i][j]:
                raise WeylError(
                    f"automorphism {label!r} does not preserve the Cartan matrix")
    return DiagramAutomorphism(label=label, perm=tuple(perm), matrix=m)


def trivial_automorphism(datum: RootDatum) -> DiagramAutomorphism:
    return DiagramAutomorphism(label="e", perm=tuple(range(datum.rank)),
                               matrix=identity(datum.ambient_dim))


class GammaGroup:
    """A finite group of diagram automorphisms, closed under composition."""

    def __init__(self, datum: RootDatum,
                 automorphisms: Sequence[DiagramAutomorphism] = ()):
        self.datum = datum
        elems = list(automorphisms)
        if not any(a.matrix == identity(datum.ambient_dim) for a in elems):
            elems.insert(0, trivial_automorphism(datum))
        labels = [a.label for a in elems]
        if len(set(labels)) != len(labels):
            raise WeylError("duplicate diagram-automorphism labels")
        by_matrix = {a.matrix: a for a in elems}
        if len(by_matrix) != len(elems):
            raise WeylError("duplicate diagram-automorphism matrices")
        for a in elems:
            for b in elems:
                if mat_mul(a.matrix, b.matrix) not in by_matrix:
                    raise WeylError(
                        "diagram automorphisms are not closed under composition")
        identity_first = sorted(
            elems, key=lambda a: (a.matrix != identity(datum.ambient_dim),
                                  a.label))
        self.elements: Tuple[DiagramAutomorphism, ...] = tuple(identity_first)
        self.by_label: Dict[str, DiagramAutomorphism] = {
            a.label: a for a in self.elements}
        self.by_matrix: Dict[Mat, DiagramAutomorphism] = {
            a.matrix: a for a in self.elements}
        self.index: Dict[str, int] = {
            a.label: i for i, a in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    def compose(self, a: DiagramAutomorphism,
                b: DiagramAutomorphism) -> DiagramAutomorphism:
        return self.by_matrix[mat_mul(a.matrix, b.matrix)]

    def inv(self, a: DiagramAutomorphism) -> DiagramAutomorphism:
        return self.by_matrix[inverse(a.matrix)]


class ExtendedWeylElement:
    """An element gamma*w of W' as an exact matrix plus word/label data."""

    __slots__ = ("gamma", "word", "matrix", "length", "_hash")

    def __init__(self, gamma: str, word: Tuple[int, ...], matrix: Mat,
                 length: int):
        self.gamma = gamma
        self.word = word
        self.matrix = matrix
        self.length = length
        self._hash = hash(matrix)

    def __eq__(self, other):
        return isinstance(other, ExtendedWeylElement) and \
            self.matrix == other.matrix

    def __hash__(self):
        return self._hash

    def __repr__(self):
        w = "*".join(f"s{i + 1}" for i in self.word) or "1"
        if self.gamma != "e":
            return f"{self.gamma}*{w}" if self.word else self.gamma
        return w if self.word else "e"


class WeylGroup:
    """The enumerated group W' = Gamma x| W with matrix-keyed lookup."""

    def __init__(self, datum: RootDatum, gamma: GammaGroup,
                 elements: Sequence[ExtendedWeylElement]):
        self.datum = datum
        self.gamma = gamma
        self.elements: Tuple[ExtendedWeylElement, ...] = tuple(elements)
        self.by_matrix: Dict[Mat, ExtendedWeylElement] = {
            e.matrix: e for e in self.elements}
        self.identity = self.by_matrix[identity(datum.ambient_dim)]
        self._inv_cache: Dict[Mat, ExtendedWeylElement] = {}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def sort_key(self, e: ExtendedWeylElement):
        return (e.length, self.gamma.index[e.gamma], e.word)

    def element(self, matrix: Mat) -> ExtendedWeylElement:
        el = self.by_matrix.get(matrix)
        if el is None:
            raise WeylError("matrix does not belong to the enumerated group")
        return el

    def mult(self, a: ExtendedWeylElement,
             b: ExtendedWeylElement) -> ExtendedWeylElement:
        return self.element(mat_mul(a.matrix, b.matrix))

    def inv(self, a: ExtendedWeylElement) -> ExtendedWeylElement:
        el = self._inv_cache.get(a.matrix)
        if el is None:
            el = self.element(inverse(a.matrix))
            self._inv_cache[a.matrix] = el
        return el

    def simple(self, i: int) -> ExtendedWeylElement:
        return self.element(self.datum.reflection_matrix(i))

    def gamma_element(self, label: str) -> ExtendedWeylElement:
        return self.element(self.gamma.by_label[label].matrix)

    def act_covector(self, e: ExtendedWeylElement, x: Vec) -> Vec:
        """Action of e on a covector: coordinates transform by inverse-transpose."""
        minv = self.inv(e).matrix
        return tuple(dot(x, col) for col in zip(*minv))

    def act_point(self, e: ExtendedWeylElement, lam: Vec) -> Vec:
        return mat_vec(e.matrix, lam)


def _enumerate_weyl_words(datum: RootDatum, bound: int):
    """BFS of W by right multiplication; yields lex-least reduced words."""
    n = datum.ambient_dim
    start = identity(n)
    found: Dict[Mat, Tuple[int, ...]] = {start: ()}
    frontier: List[Tuple[Mat, Tuple[int, ...]]] = [(start, ())]
    refl = [datum.reflection_matrix(i) for i in range(datum.rank)]
    while frontier:
        frontier.sort(key=lambda t: t[1])
        new: List[Tuple[Mat, Tuple[int, ...]]] = []
        for m, word in frontier:
            for i in range(datum.rank):
                m2 = mat_mul(m, refl[i])
                if m2 not in found:
                    found[m2] = word + (i,)
                    new.append((m2, word + (i,)))
                    if len(found) > bound:
                        raise WeylError(
                            f"group exceeds configured size bound {bound}")
        frontier = new
    return found


def _length_by_roots(matrix: Mat, positive: FrozenSet[Vec]) -> int:
    """Number of positive roots sent negative (no reduced-word search)."""
    from .linalg import transpose
    minv_t = transpose(inverse(matrix))
    return sum(1 for a in positive if mat_vec(minv_t, a) not in positive)


def enumerate_group(datum: RootDatum,
                    gammas: Sequence[DiagramAutomorphism] = (),
                    bound: int = GROUP_SIZE_BOUND) -> WeylGroup:
    """All |Gamma| * |W| elements of W', deduplicated by matrix.

    A matrix collision between distinct (gamma, w) pairs is rejected: the
    canonical identification of elements with matrices requires Gamma to
    meet W trivially.
    """
    gamma = gammas if isinstance(gammas, GammaGroup) else \
        GammaGroup(datum, gammas)
    words = _enumerate_weyl_words(datum, bound)
    if len(words) * len(gamma) > bound:
        raise WeylError(f"group exceeds configured size bound {bound}")
    elems: List[ExtendedWeylElement] = []
    seen: Dict[Mat, Tuple[str, Tuple[int, ...]]] = {}
    for g in gamma.elements:
        for wmat, word in words.items():
            m = mat_mul(g.matrix, wmat)
            if m in seen:
                raise WeylError(
                    "matrix collision between distinct (gamma, w) pairs; "
                    "Gamma must meet W trivially")
            seen[m] = (g.label, word)
            elems.append(ExtendedWeylElement(

                gamma=g.label, word=word, matrix=m, length=len(word)))
    positive = frozenset(datum.positive_roots())
    for e in elems:
        if _length_by_roots(e.matrix, positive) != e.length:
            raise WeylError("word length disagrees with inversion count")
    group = WeylGroup(datum, gamma, elems)
    ordered = sorted(elems, key=group.sort_key)
    return WeylGroup(datum, gamma, ordered)


# ---------------------------------------------------------------------------
# Conjugacy census.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassEntry:
    rep: ExtendedWeylElement
    size: int
    centralizer: Tuple[ExtendedWeylElement, ...]
    fixed_basis: Tuple[Vec, ...]
    fixed_dim: int
    members: frozenset


@dataclass(frozen=True)
class ConjugacyClassCensus:
    group: WeylGroup
    entries: Tuple[ClassEntry, ...]

    def __len__(self):
        return len(self.entries)

    def class_index(self, e: ExtendedWeylElement) -> int:
        for i, entry in enumerate(self.entries):
            if e.matrix in entry.members:
                return i
        raise WeylError("element not in any class")


def conjugacy_census(group: WeylGroup) -> ConjugacyClassCensus:
    """One entry per class: representative, size, centralizer, fixed space."""
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
        rows = [[g.matrix[i][j] - (1 if i == j else 0) for j in range(n)]
                for i in range(n)]
        fixed = tuple(nullspace(rows, n))
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


# ---------------------------------------------------------------------------
# Cosets and the association action.
# ---------------------------------------------------------------------------

def parabolic_subgroup_elements(group: WeylGroup,
                                P: Sequence[int]) -> List[ExtendedWeylElement]:
    """Elements of W_P inside the enumerated group (no Gamma part)."""
    P = sorted(set(P))
    frontier = [group.identity]
    members = {group.identity.matrix: group.identity}
    while frontier:
        new = []
        for g in frontier:
            for i in P:
                h = group.mult(g, group.simple(i))
                if h.matrix not in members:
                    members[h.matrix] = h
                    new.append(h)
        frontier = new
    return sorted(members.values(), key=group.sort_key)


def coset_reps(group: WeylGroup, P: Sequence[int]) -> List[ExtendedWeylElement]:
    """Minimal-length representatives of the cosets w W_P, in canonical order."""
    wp = parabolic_subgroup_elements(group, P)
    assigned: Dict[Mat, ExtendedWeylElement] = {}
    reps: List[ExtendedWeylElement] = []
    for g in group.elements:  # canonical order: length then gamma then word
        if g.matrix in assigned:
            continue
        reps.append(g)
        for h in wp:
            assigned[group.mult(g, h).matrix] = g
    if len(reps) * len(wp) != len(group):
        raise WeylError("coset decomposition failed")
    return reps


def coset_rep_map(group: WeylGroup,
                  P: Sequence[int]) -> Dict[Mat, ExtendedWeylElement]:
    """Map each element to the minimal representative of its coset w W_P."""
    wp = parabolic_subgroup_elements(group, P)
    assigned: Dict[Mat, ExtendedWeylElement] = {}
    for g in group.elements:
        if g.matrix in assigned:
            continue
        for h in wp:
            assigned[group.mult(g, h).matrix] = g
    return assigned


class AssociationError(WeylError):
    pass


def association_action(group: WeylGroup, w: ExtendedWeylElement,
                       P: Sequence[int]) -> Tuple[int, ...]:
    """Image Q = w(P) when w maps the simple roots P into Pi; else error.

    Only the subset transport is computed here; transporting a module and a
    point of t^P is done by the representation layer.
    """
    datum = group.datum
    simple = {a: i for i, a in enumerate(datum.simple_roots)}
    Q = []
    for i in sorted(set(P)):
        img = group.act_covector(w, datum.simple_roots[i])
        j = simple.get(img)
        if j is None:
            raise AssociationError(
                f"w({i}) is not a simple root; w is not in W'(P, Q)")
        Q.append(j)
    return tuple(sorted(Q))


def elements_mapping_parabolic(group: WeylGroup, P: Sequence[int],
                               Q: Sequence[int]) -> List[ExtendedWeylElement]:
    """W'(P, Q) = { w in W' : w(P) = Q } by explicit matrix action."""
    out = []
    for w in group.elements:
        try:
            if association_action(group, w, P) == tuple(sorted(set(Q))):
                out.append(w)
        except AssociationError:
            continue
    return out
