"""Arithmetic in the extended graded Hecke algebra H' = Gamma x| H(R~, k).

Elements are kept in normal form: a finite map from group elements of W' to
polynomials, group part on the left.  Multiplication moves polynomials
rightward past one letter at a time,

    p * s_a = s_a * s_a(p) + k_a * Delta_a(p),      p * g = g * g^{-1}(p),

on integer forms (`linalg.integer_form`): one denominator over coprime integer
coefficients.  Each algebra memoizes in `pushes`, keyed by the parameter
values k and then by (v.index, e), the normal form of x^e * v.  A product
(w p)(v q) sums these forms over the monomials of p, multiplies each u-part by
q and adds it into the slot of w u, all by integer multiply-adds over a common
denominator, so a warm product pushes nothing; Fractions are built only for
the result.  A miss pushes the one monomial through v's letters with the
monomial images under s_a, Delta_a and g^{-1}, themselves memoized; branches
merge per group element after every letter, so a miss on a word of length l
costs at most l * |W'| image sums.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .linalg import GradedHeckeError, Vec, integer_form
from .rootdata import (ParameterMap, RootDatum, check_parameters_conjugation,
                       make_parameter_map)
from .weyl import ExtendedWeylElement, WeylGroup, enumerate_group

if TYPE_CHECKING:  # a run that builds no polynomial never compiles poly
    from .poly import Poly


class HeckeError(GradedHeckeError):
    pass


# (d, {exponent: n}) is the polynomial sum n / d x^e; d > 0, gcd(d, *n) == 1
IntPoly = Tuple[int, Dict[Tuple[int, ...], int]]


def _rescale(slot: list, den: int) -> int:
    """Move slot = [d, {exponent: n}], an integer polynomial over d, to the
    lcm of d and den; return the factor lcm // den that scales a summand."""
    m = slot[0]
    if m % den:
        f = den // math.gcd(m, den)
        m *= f
        slot[:] = m, {e: f * n for e, n in slot[1].items()}
    return m // den


def _add_into(slot: list, scale: int, den: int, terms) -> None:
    """Add scale * terms / den to slot; terms are (exponent, n) pairs."""
    f = scale * _rescale(slot, den)
    acc = slot[1]
    for e, n in terms:
        acc[e] = acc.get(e, 0) + f * n


def _parameter_map(datum: RootDatum, k) -> ParameterMap:
    return make_parameter_map(datum, k.values if isinstance(k, ParameterMap)
                              else k)


def _reduced(slot: list) -> IntPoly:
    return integer_form({e: n for e, n in slot[1].items() if n}, slot[0])


class HeckeAlgebra:
    """H' = Gamma x| H(R~, k) with a cached enumeration of W'."""

    def __init__(self, datum: RootDatum, k, gammas: Sequence = (),
                 group: Optional[WeylGroup] = None):
        self.datum = datum
        self.kmap = _parameter_map(datum, k)
        self.group: WeylGroup = group if group is not None else \
            enumerate_group(datum, gammas)
        self._check_parameters(self.kmap)
        self.nvars = datum.ambient_dim
        self._unextended: Optional[HeckeAlgebra] = None
        # P -> (ParabolicDatum, H_P), filled by modules.parabolic_algebra
        self.parabolics: Dict[Tuple[int, ...], tuple] = {}
        # (letter, exponent) -> integer form of the monomial's image; a letter
        # is ('s', i) for s_i, ('d', i) for Delta_i (independent of k) or
        # ('g', label) for the inverse of that Gamma element
        self.monomial_images: Dict[tuple, IntPoly] = {}
        # k.values -> {(v.index, e): normal form of x^e * v at k}, a tuple of
        # (u, d, exponents, numerators) for sum_u u * sum_j n_j / d x^exp_j
        self.pushes: Dict[tuple, Dict[tuple, tuple]] = {}
        # one copy of each exponent or numerator tuple that `pushes` holds
        self._tuples: Dict[tuple, tuple] = {}

    def _check_parameters(self, kmap: ParameterMap) -> None:
        check_parameters_conjugation(self.datum, kmap, self.group.root_perm)
        for g in self.group.gamma.elements:
            for i in range(self.datum.rank):
                if kmap[g.perm[i]] != kmap[i]:
                    raise HeckeError(
                        "parameters must be Gamma-invariant: "
                        f"k[{i}] != k[{g.perm[i]}] under {g.label!r}")

    # -- constructors of elements -------------------------------------------

    def zero(self) -> "HeckeElement":
        return HeckeElement(self, {})

    def one(self) -> "HeckeElement":
        return self.from_group(self.group.identity)

    def from_group(self, e: ExtendedWeylElement) -> "HeckeElement":
        from .poly import Poly
        return HeckeElement(self, {e: Poly.constant(self.nvars, 1)})

    def s(self, i: int) -> "HeckeElement":
        return self.from_group(self.group.simple(i))

    def gamma(self, label: str) -> "HeckeElement":
        return self.from_group(self.group.gamma_element(label))

    def x(self, i: int) -> "HeckeElement":
        from .poly import Poly
        return self.from_poly(Poly.variable(self.nvars, i))

    def from_poly(self, p: Poly) -> "HeckeElement":
        if p.is_zero():
            return self.zero()
        return HeckeElement(self, {self.group.identity: p})

    def from_covector(self, x: Vec) -> "HeckeElement":
        from .poly import Poly
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

    def _image(self, letter: tuple, e: Tuple[int, ...]) -> IntPoly:
        """Cache the integer form of x^e under `letter`, computed with every
        check of act_matrix / divided_difference, and return it."""
        from .poly import Poly, act_matrix, divided_difference
        mono = Poly(self.nvars, {e: Fraction(1)})
        kind, arg = letter
        if kind == "s":
            img = act_matrix(self.datum.reflection_matrix(arg), mono)
        elif kind == "d":
            img = divided_difference(self.datum, arg, mono)
        else:
            g = self.group.gamma.by_label[arg]
            img = act_matrix(self.group.gamma.inv(g).matrix, mono)
        self.monomial_images[(letter, e)] = form = integer_form(img.terms)
        return form

    def _apply(self, letter: tuple, scale: int, den: int,
               terms: Dict[Tuple[int, ...], int], slot: list) -> None:
        """Add the image of scale * terms / den under `letter` to `slot`."""
        images = self.monomial_images
        for e, c in terms.items():
            d, img = images.get((letter, e)) or self._image(letter, e)
            if img:
                _add_into(slot, scale * c, den * d, img.items())

    def _push_poly(self, p: IntPoly, gamma_label: str, word: Tuple[int, ...],
                   kvals) -> Dict[ExtendedWeylElement, IntPoly]:
        """Normal form of p * (gamma * s_word) as {group element: integer
        form}; branches are summed per group element after every letter."""
        group = self.group
        acc = group.identity
        if gamma_label != "e":
            slot = [1, {}]
            self._apply(("g", gamma_label), 1, p[0], p[1], slot)
            p = _reduced(slot)
            acc = group.gamma_element(gamma_label)
        pending = {acc: p}
        for i in word:
            s_i, k = group.simple(i), kvals[i]
            nxt: Dict[ExtendedWeylElement, list] = {}
            for g_el, (den, terms) in pending.items():
                self._apply(("s", i), 1, den, terms,
                            nxt.setdefault(group.mult(g_el, s_i), [1, {}]))
                if k:  # k_i scales the numerators and the denominator
                    self._apply(("d", i), k.numerator, den * k.denominator,
                                terms, nxt.setdefault(g_el, [1, {}]))
            pending = {g_el: q for g_el, slot in nxt.items()
                       if (q := _reduced(slot))[1]}
        return pending

    def _normal_form(self, kvals, v: ExtendedWeylElement,
                     e: Tuple[int, ...]) -> tuple:
        """Memoize and return the normal form of x^e * v at parameters
        kvals, in the layout of `pushes`."""
        share, form = self._tuples.setdefault, []
        for u, (d, terms) in self._push_poly((1, {e: 1}), v.gamma, v.word,
                                             kvals).items():
            exps, nums = tuple(terms), tuple(terms.values())
            form.append((u, d, share(exps, exps), share(nums, nums)))
        form = tuple(form)
        self.pushes[kvals][v.index, e] = form
        return form

    def multiply(self, a: "HeckeElement", b: "HeckeElement",
                 k_override: Optional[ParameterMap] = None) -> "HeckeElement":
        from .poly import Poly
        if a.algebra is not b.algebra or a.algebra is not self:
            raise HeckeError("elements belong to different parent algebras")
        k = self.kmap if k_override is None else k_override
        memo = self.pushes.get(k.values)
        if memo is None:  # the first product at k checks k like __init__
            k = _parameter_map(self.datum, k)
            self._check_parameters(k)
            memo = self.pushes[k.values] = {}
        mult = self.group.mult
        right = [(v, integer_form(q.terms)) for v, q in b.terms.items()]
        sums: Dict[ExtendedWeylElement, list] = {}
        for w, p in a.terms.items():
            dp, tp = integer_form(p.terms)
            for v, (dq, tq) in right:
                pushed: Dict[ExtendedWeylElement, list] = {}  # p * v, by u
                for e, c in tp.items():
                    form = memo.get((v.index, e)) or \
                        self._normal_form(k.values, v, e)
                    for u, dr, exps, nums in form:
                        _add_into(pushed.setdefault(u, [1, {}]), c, dr,
                                  zip(exps, nums))
                for u, (dr, tr) in pushed.items():  # times q, into w u
                    slot = sums.setdefault(mult(w, u), [1, {}])
                    f = _rescale(slot, dp * dr * dq)
                    acc = slot[1]
                    for e1, c1 in tr.items():
                        if c1:
                            c1 *= f
                            for e2, c2 in tq.items():
                                x = tuple(map(add, e1, e2))
                                acc[x] = acc.get(x, 0) + c1 * c2
        out: Dict[ExtendedWeylElement, Poly] = {}
        for key, slot in sums.items():
            den, terms = _reduced(slot)
            if terms:
                out[key] = Poly(self.nvars, {e: Fraction(n, den)
                                             for e, n in terms.items()})
        return HeckeElement(self, out)

    # -- derived operations ---------------------------------------------------

    def commutator(self, a: "HeckeElement", b: "HeckeElement") -> "HeckeElement":
        return self.multiply(a, b) - self.multiply(b, a)

    def is_central(self, a: "HeckeElement") -> bool:
        return all(self.commutator(a, g).is_zero() for g in self.generators())

    def center_basis(self, d: int) -> List["HeckeElement"]:
        """Basis of S(t*)^{W'} up to degree d, each verified central.

        W' acts faithfully on t*: `WeylGroup` refuses a group in which two
        elements share a matrix, as they do when Gamma meets W.  So the
        invariant ring is the whole center.
        """
        from .poly import invariant_polys
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
        keys = sorted(self.terms, key=lambda w: w.index)
        return " + ".join(f"{w!r}*({self.terms[w].to_text()})" for w in keys)

    def __repr__(self):
        return f"HeckeElement({self.to_text()})"


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
    from .poly import Poly
    z = Fraction(z)
    src = a.algebra
    if src.datum != target.datum or \
            src.group.gamma.elements != target.group.gamma.elements:
        raise HeckeError("source and target must share the root datum "
                         "and Gamma")
    if src.kmap.values != target.kmap.scaled(z).values:
        raise HeckeError("source algebra must have parameters z * k")
    out: Dict[ExtendedWeylElement, Poly] = {}
    for w, p in a.terms.items():
        q = Poly(p.nvars, {e: c * z ** sum(e) for e, c in p.terms.items()})
        if not q.is_zero():
            out[target.group.elements[w.index]] = q
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
    from .poly import PolyParseError, parse_poly
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
