"""Arithmetic in the extended graded Hecke algebra H' = Gamma x| H(R~, k).

Elements are kept in normal form: a finite map from group elements of W' to
polynomials, group part on the left.  Multiplication moves polynomials
rightward past one letter at a time,

    p * s_a = s_a * s_a(p) + k_a * Delta_a(p),      p * g = g * g^{-1}(p),

so the cost is exponential in word length but trivially fine at desk scale.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import GradedHeckeError, Vec
from .poly import Poly, PolyParseError, act_matrix, divided_difference, \
    invariant_polys, parse_poly
from .rootdata import (ParameterMap, RootDatum, check_parameters_conjugation,
                       make_parameter_map)
from .weyl import ExtendedWeylElement, WeylGroup, enumerate_group


class HeckeError(GradedHeckeError):
    pass


class HeckeAlgebra:
    """H' = Gamma x| H(R~, k) with a cached enumeration of W'."""

    def __init__(self, datum: RootDatum, k, gammas: Sequence = (),
                 group: Optional[WeylGroup] = None):
        self.datum = datum
        self.kmap: ParameterMap = k if isinstance(k, ParameterMap) else \
            make_parameter_map(datum, k)
        self.group: WeylGroup = group if group is not None else \
            enumerate_group(datum, gammas)
        check_parameters_conjugation(datum, self.kmap, self.group.root_perm)
        for g in self.group.gamma.elements:
            for i in range(datum.rank):
                if self.kmap[g.perm[i]] != self.kmap[i]:
                    raise HeckeError(
                        "parameters must be Gamma-invariant: "
                        f"k[{i}] != k[{g.perm[i]}] under {g.label!r}")
        self.nvars = datum.ambient_dim
        self._unextended: Optional[HeckeAlgebra] = None
        # P -> (ParabolicDatum, H_P), filled by modules.parabolic_algebra
        self.parabolics: Dict[Tuple[int, ...], tuple] = {}
        # (letter, exponent) -> image of that monomial, filled by _map_linear;
        # a letter is ('s', i) for s_i, ('d', i) for Delta_i (independent of
        # k) or ('g', label) for the inverse of that Gamma element
        self.monomial_images: Dict[tuple, Poly] = {}

    # -- constructors of elements -------------------------------------------

    def zero(self) -> "HeckeElement":
        return HeckeElement(self, {})

    def one(self) -> "HeckeElement":
        return HeckeElement(
            self, {self.group.identity: Poly.constant(self.nvars, 1)})

    def from_group(self, e: ExtendedWeylElement) -> "HeckeElement":
        return HeckeElement(self, {e: Poly.constant(self.nvars, 1)})

    def s(self, i: int) -> "HeckeElement":
        return self.from_group(self.group.simple(i))

    def gamma(self, label: str) -> "HeckeElement":
        return self.from_group(self.group.gamma_element(label))

    def x(self, i: int) -> "HeckeElement":
        return self.from_poly(Poly.variable(self.nvars, i))

    def from_poly(self, p: Poly) -> "HeckeElement":
        if p.is_zero():
            return self.zero()
        return HeckeElement(self, {self.group.identity: p})

    def from_covector(self, x: Vec) -> "HeckeElement":
        return self.from_poly(Poly.from_covector(x))

    def generators(self) -> List["HeckeElement"]:
        gens = [self.s(i) for i in range(self.datum.rank)]
        gens += [self.gamma(g.label) for g in self.group.gamma.elements
                 if g.label != "e"]
        gens += [self.x(i) for i in range(self.nvars)]
        return gens

    def unextended(self) -> "HeckeAlgebra":
        """The subalgebra H (Gamma dropped), sharing the root datum."""
        if self._unextended is None:
            if len(self.group.gamma) == 1:
                self._unextended = self
            else:
                self._unextended = HeckeAlgebra(self.datum, self.kmap,
                                                gammas=())
        return self._unextended

    # -- normal ordering -----------------------------------------------------

    def _map_linear(self, letter: tuple, p: Poly) -> Poly:
        """Image of p under the linear map `letter`, summed from cached
        images of its monomials; a miss computes one exactly, with every
        check of act_matrix / divided_difference applied to that monomial."""
        images = self.monomial_images
        out: Dict[Tuple[int, ...], Fraction] = {}
        for e, c in p.terms.items():
            img = images.get((letter, e))
            if img is None:
                mono = Poly(self.nvars, {e: Fraction(1)})
                kind, arg = letter
                if kind == "s":
                    img = act_matrix(self.datum.reflection_matrix(arg), mono)
                elif kind == "d":
                    img = divided_difference(self.datum, arg, mono)
                else:
                    g = self.group.gamma.by_label[arg]
                    img = act_matrix(self.group.gamma.inv(g).matrix, mono)
                images[(letter, e)] = img
            for e2, c2 in img.terms.items():
                out[e2] = out.get(e2, 0) + c * c2
        return Poly(self.nvars, out)

    def _push_poly(self, p: Poly, gamma_label: str,
                   word: Tuple[int, ...], kvals) -> Dict[ExtendedWeylElement, Poly]:
        """Normal form of p * (gamma * s_word) as {group element: poly}."""
        group = self.group
        if gamma_label == "e":
            start = p
            acc = group.identity
        else:
            start = self._map_linear(("g", gamma_label), p)
            acc = group.gamma_element(gamma_label)
        pending: List[Tuple[ExtendedWeylElement, Poly]] = [(acc, start)]
        for i in word:
            s_i = group.simple(i)
            nxt: Dict[ExtendedWeylElement, Poly] = {}
            for g_el, q in pending:
                sq = self._map_linear(("s", i), q)
                key = group.mult(g_el, s_i)
                cur = nxt.get(key)
                nxt[key] = sq if cur is None else cur + sq
                if kvals[i]:
                    dq = self._map_linear(("d", i), q)
                    if not dq.is_zero():
                        dq = dq * kvals[i]
                        cur = nxt.get(g_el)
                        nxt[g_el] = dq if cur is None else cur + dq
            pending = [(g, q) for g, q in nxt.items() if not q.is_zero()]
        return dict(pending)

    def multiply(self, a: "HeckeElement", b: "HeckeElement",
                 k_override: Optional[ParameterMap] = None) -> "HeckeElement":
        if a.algebra is not b.algebra or a.algebra is not self:
            raise HeckeError("elements belong to different parent algebras")
        kvals = self.kmap if k_override is None else k_override
        out: Dict[ExtendedWeylElement, Poly] = {}
        for w, p in a.terms.items():
            for v, q in b.terms.items():
                pushed = self._push_poly(p, v.gamma, v.word, kvals)
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

    # -- derived operations ---------------------------------------------------

    def commutator(self, a: "HeckeElement", b: "HeckeElement") -> "HeckeElement":
        return self.multiply(a, b) - self.multiply(b, a)

    def is_central(self, a: "HeckeElement") -> bool:
        return all(self.commutator(a, g).is_zero() for g in self.generators())

    def center_basis(self, d: int) -> List["HeckeElement"]:
        """Basis of S(t*)^{W'} up to degree d, each verified central.

        Elements are canonically matrices here, so the W'-action on t* is
        always faithful and the invariant ring is the whole center.
        """
        out = []
        for m in range(d + 1):
            for p in invariant_polys(self.group.elements, self.nvars, m):
                el = self.from_poly(p)
                if not self.is_central(el):
                    raise HeckeError("invariant polynomial failed centrality")
                out.append(el)
        return out


class HeckeElement:
    """Normal form sum_{w'} w' * p_{w'} with no zero polynomials stored."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: HeckeAlgebra,
                 terms: Dict[ExtendedWeylElement, Poly]):
        self.algebra = algebra
        self.terms = {w: p for w, p in terms.items() if not p.is_zero()}

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if other.algebra is not self.algebra:
            raise HeckeError("elements belong to different parent algebras")
        out = dict(self.terms)
        for w, p in other.terms.items():
            s = out.get(w)
            s = p if s is None else s + p
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return HeckeElement(self.algebra, out)

    def __neg__(self) -> "HeckeElement":
        return HeckeElement(self.algebra,
                            {w: -p for w, p in self.terms.items()})

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + (-other)

    def __mul__(self, other) -> "HeckeElement":
        if isinstance(other, HeckeElement):
            return self.algebra.multiply(self, other)
        return HeckeElement(self.algebra,
                            {w: p * Fraction(other)
                             for w, p in self.terms.items()})

    def __rmul__(self, other) -> "HeckeElement":
        return self * other  # scalars commute with everything

    def __eq__(self, other):
        return isinstance(other, HeckeElement) and \
            self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((w, hash(p)) for w, p in self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Filtration degree: max polynomial degree over the support; -1 if 0."""
        if not self.terms:
            return -1
        return max(p.degree() for p in self.terms.values())

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        group = self.algebra.group
        keys = sorted(self.terms, key=group.sort_key)
        chunks = []
        for w in keys:
            head = repr(w)
            chunks.append(f"{head}*({self.terms[w].to_text()})")
        return " + ".join(chunks)

    def __repr__(self):
        return f"HeckeElement({self.to_text()})"


def filtration_degree(a: HeckeElement) -> int:
    return a.degree()


def k_sensitive_part(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """multiply(a, b) at parameter k minus the same product at parameter 0.

    Its degree is strictly below deg(a) + deg(b): the k-dependent part of a
    product always drops filtration degree.
    """
    alg = a.algebra
    zero_k = make_parameter_map(alg.datum, 0)
    full = alg.multiply(a, b)
    crossed = alg.multiply(a, b, k_override=zero_k)
    return full - crossed


def scale_map(z, a: HeckeElement, target: HeckeAlgebra) -> HeckeElement:
    """The isomorphism m_z : H(R~, z k) -> H(R~, k); identity on C[W'].

    Multiplies t* by z degree-wise; for z = 0 it kills every positive-degree
    polynomial part and stops being bijective.
    """
    z = Fraction(z)
    src = a.algebra
    if src.kmap.values != target.kmap.scaled(z).values:
        raise HeckeError("source algebra must have parameters z * k")
    out: Dict[ExtendedWeylElement, Poly] = {}
    for w, p in a.terms.items():
        q = Poly(p.nvars)
        for e, c in p.terms.items():
            q = q + Poly(p.nvars, {e: c * z ** sum(e)})
        if not q.is_zero():
            out[target.group.element(w.matrix)] = q
    return HeckeElement(target, out)


# ---------------------------------------------------------------------------
# Round-trip text form: `s1*s2*(3*x1 - 1) + e*(x2^2)`.
# ---------------------------------------------------------------------------

class HeckeParseError(GradedHeckeError):
    pass


def parse_element(algebra: HeckeAlgebra, text: str) -> HeckeElement:
    """Parse the canonical text form produced by HeckeElement.to_text()."""
    out = algebra.zero()
    for chunk in _split_top_level(text.strip()):
        out = out + _parse_term(algebra, chunk)
    return out


def _split_top_level(text: str) -> List[str]:
    parts = []
    depth = 0
    cur = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise HeckeParseError(f"unbalanced ')' at {i}")
        if depth == 0 and text.startswith(" + ", i):
            parts.append("".join(cur))
            cur = []
            i += 3
            continue
        cur.append(ch)
        i += 1
    if depth != 0:
        raise HeckeParseError("unbalanced parentheses")
    parts.append("".join(cur))
    return [p for p in parts if p.strip()]


def _parse_term(algebra: HeckeAlgebra, chunk: str) -> HeckeElement:
    chunk = chunk.strip()
    if chunk == "0":
        return algebra.zero()
    if "(" not in chunk:
        raise HeckeParseError(f"term {chunk!r} lacks a polynomial part")
    head, rest = chunk.split("(", 1)
    if not rest.endswith(")"):
        raise HeckeParseError(f"term {chunk!r} must end with ')'")
    body = rest[:-1]
    head = head.strip()
    if not head.endswith("*"):
        raise HeckeParseError(f"group part in {chunk!r} must end with '*'")
    letters = [t for t in head[:-1].split("*") if t]
    el = algebra.group.identity
    for letter in letters:
        if letter == "e":
            continue
        if letter.startswith("s") and letter[1:].isdigit():
            idx = int(letter[1:]) - 1
            if not 0 <= idx < algebra.datum.rank:
                raise HeckeParseError(f"no simple reflection {letter!r}")
            el = algebra.group.mult(el, algebra.group.simple(idx))
        elif letter in algebra.group.gamma.by_label:
            el = algebra.group.mult(el, algebra.group.gamma_element(letter))
        else:
            raise HeckeParseError(f"unknown group letter {letter!r}")
    try:
        p = parse_poly(body, algebra.nvars)
    except PolyParseError as exc:
        raise HeckeParseError(str(exc)) from exc
    return HeckeElement(algebra, {el: p})
