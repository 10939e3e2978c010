"""Arithmetic in the extended graded Hecke algebra H' = Gamma x| H(R~, k).

`HeckeAlgebra` is the checked presentation `weyl.HeckeDatum` plus what
multiplying needs; layers that multiply nothing never import this module.
An element is its normal form, group part on the left, stored only as integer
forms {w: (d, {packed e: n})} = sum_w w * sum_e n/d x^e (d > 0, gcd(d, *n) ==
1, no zero part).  A packed exponent holds e_i in a 16-bit field, x1 highest,
under a field for the total degree, so a monomial product is one int addition;
a degree that could reach DEGREE_LIMIT = 2^16 raises HeckeError.  `terms` is a
{w: Poly} view built on first read.  Products move polynomials rightward past
one letter at a time,

    p * s_a = s_a * s_a(p) + k_a * Delta_a(p),      p * g = g * g^{-1}(p).

Each algebra memoizes in `pushes`, keyed by the parameter values k and then by
(v.index, packed e), the normal form of x^e * v as one integer form
(d, {(u.index << ushift) + packed exponent: n}); ushift is the bit width above
the degree field, so no exponent sum carries into u.  A product (w p)(v q)
sums these forms over the monomials of p into one dict, rescaled only when a
new denominator does not divide its own; each key finds the slot of w u
through the group's index tables and is multiplied by q into it.  The slots
share one denominator and are reduced once each: a warm product pushes
nothing and builds no Fraction or Poly.  A miss pushes the one monomial,
unpacked, through v's letters with the monomial images under s_a, Delta_a and
g^{-1}, themselves memoized; branches merge per group element after every
letter, so a miss on a word of length l costs at most l * |W'| image sums.
The parser scans each polynomial part with `poly.scan_poly` and packs each
monomial once.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from numbers import Rational
from operator import mul
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .linalg import GradedHeckeError, Vec, integer_form
from .rootdata import ParameterMap, RootDatum, make_parameter_map
from .weyl import ExtendedWeylElement, HeckeDatum

if TYPE_CHECKING:  # a run that builds no polynomial never compiles poly
    from .poly import Poly


class HeckeError(GradedHeckeError):
    pass


# (d, {exponent: n}) is the polynomial sum n / d x^e; d > 0, gcd(d, *n) == 1;
# exponents are tuples in the monomial images and packed ints everywhere else
IntPoly = Tuple[int, Dict]

_BITS = 16
DEGREE_LIMIT = 1 << _BITS


def _check_degree(degree: int) -> None:
    if degree >= DEGREE_LIMIT:
        raise HeckeError(f"degree {degree} reaches the packing limit "
                         f"{DEGREE_LIMIT} of {_BITS}-bit exponent fields")


def _check_index(i, bound: int, what: str) -> None:
    if not isinstance(i, int) or not 0 <= i < bound:
        raise HeckeError(f"{what} index {i!r} is not in range({bound})")


def _add_into(slot: list, scale: int, den: int, terms) -> None:
    """Add scale * terms / den, terms (exponent, n) pairs, to slot = [d,
    {exponent: n}], an integer polynomial over d moved to the lcm of d, den."""
    m = slot[0]
    if m % den:
        f = den // math.gcd(m, den)
        m *= f
        slot[:] = m, {e: f * n for e, n in slot[1].items()}
    f = scale * (m // den)
    acc = slot[1]
    for e, n in terms:
        acc[e] = acc.get(e, 0) + f * n


def _reduced(slot: list) -> IntPoly:
    return integer_form({e: n for e, n in slot[1].items() if n}, slot[0])


class HeckeAlgebra(HeckeDatum):
    """H' = Gamma x| H(R~, k): its `HeckeDatum` presentation, checked there,
    plus exponent packing, the product memos and the products."""

    def __init__(self, datum: RootDatum, k, gammas: Sequence = ()):
        super().__init__(datum, k, gammas)
        self.nvars = n = datum.ambient_dim
        # e packs as sum_i e_i * units[i]: e_i << shifts[i], plus the degree
        self.degree_shift = n * _BITS
        self._shifts = tuple(range((n - 1) * _BITS, -1, -_BITS))
        self._units = [(1 << n * _BITS) + (1 << s) for s in self._shifts]
        # a memoized normal form keys u at this shift, above the degree field
        self.ushift = (n + 1) * _BITS
        # (letter, exponent tuple) -> integer form of the monomial's image; a
        # letter is ('s', i) for s_i, ('d', i) for Delta_i (independent of k)
        # or ('g', label) for the inverse of that Gamma element
        self.monomial_images: Dict[tuple, IntPoly] = {}
        # k.values -> {(v.index, packed e): normal form of x^e * v at k}, one
        # integer form (d, {(u.index << ushift) + packed exponent: n})
        self.pushes: Dict[tuple, Dict[tuple, IntPoly]] = {}

    def pack(self, e: Tuple[int, ...]) -> int:
        return sum(map(mul, e, self._units))

    def unpack(self, key: int) -> Tuple[int, ...]:
        return tuple(key >> s & DEGREE_LIMIT - 1 for s in self._shifts)

    # -- constructors of elements -------------------------------------------

    def zero(self) -> "HeckeElement":
        return HeckeElement.of_forms(self, {})

    def one(self) -> "HeckeElement":
        return self.from_group(self.group.identity)

    def from_group(self, e: ExtendedWeylElement) -> "HeckeElement":
        return HeckeElement.of_forms(self, {e: (1, {0: 1})})

    def s(self, i: int) -> "HeckeElement":
        _check_index(i, self.datum.rank, "simple reflection")
        return self.from_group(self.group.simple(i))

    def gamma(self, label: str) -> "HeckeElement":
        if label not in self.group.gamma.by_label:
            raise HeckeError(f"no Gamma element labelled {label!r}")
        return self.from_group(self.group.gamma_element(label))

    def x(self, i: int) -> "HeckeElement":
        _check_index(i, self.nvars, "variable")
        return HeckeElement.of_forms(
            self, {self.group.identity: (1, {self._units[i]: 1})})

    def from_poly(self, p: Poly) -> "HeckeElement":
        return HeckeElement(self, {self.group.identity: p})

    def from_covector(self, x: Vec) -> "HeckeElement":
        if len(x) != self.nvars:
            raise HeckeError(f"covector {x!r} has length {len(x)}, not "
                             f"{self.nvars}")
        row = {u: c for u, c in zip(self._units, map(_exact, x)) if c}
        return HeckeElement.of_forms(
            self, {self.group.identity: integer_form(row)} if row else {})

    def generators(self) -> List["HeckeElement"]:
        gens = [self.s(i) for i in range(self.datum.rank)]
        gens += [self.gamma(g.label) for g in self.group.gamma.elements
                 if g.label != "e"]
        gens += [self.x(i) for i in range(self.nvars)]
        return gens

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

    def _normal_form(self, kvals, v: ExtendedWeylElement, e: int) -> IntPoly:
        """Memoize and return the normal form of x^e * v at parameters
        kvals, in the layout of `pushes`."""
        parts = self._push_poly((1, {self.unpack(e): 1}), v.gamma, v.word,
                                kvals)
        den, shift, pack = math.lcm(*(d for d, _ in parts.values())), \
            self.ushift, self.pack
        form = self.pushes[kvals][v.index, e] = integer_form(
            {(u.index << shift) + pack(x): n * (den // d)
             for u, (d, t) in parts.items() for x, n in t.items()}, den)
        return form

    def multiply(self, a: "HeckeElement", b: "HeckeElement",
                 k_override: Optional[ParameterMap] = None) -> "HeckeElement":
        if a.algebra is not b.algebra or a.algebra is not self:
            raise HeckeError("elements belong to different parent algebras")
        k = self.kmap if k_override is None else k_override
        memo = self.pushes.get(k.values)
        if memo is None:  # a new override is checked as __init__ checks k
            k = k if k is self.kmap else self.check_k(k)
            memo = self.pushes[k.values] = {}
        _check_degree(a.degree() + b.degree())  # no field can carry
        mult, elements, shift = self.group.mult, self.group.elements, \
            self.ushift
        mask = (1 << shift) - 1
        sums: Dict[int, dict] = {}  # index of w u -> {exponent: n / den}
        den = 1
        for w, (dp, tp) in a.forms.items():
            slots: Dict[int, dict] = {}  # u.index -> the slot of w u
            for v, (dq, tq) in b.forms.items():
                pushed: Dict[int, int] = {}  # p * v over dv, keyed as memo
                dv = 1
                for e, c in tp.items():
                    dr, form = memo.get((v.index, e)) or \
                        self._normal_form(k.values, v, e)
                    if dv % dr:
                        f = dr // math.gcd(dv, dr)
                        dv *= f
                        pushed = {x: f * n for x, n in pushed.items()}
                    c *= dv // dr
                    for x, n in form.items():
                        pushed[x] = pushed.get(x, 0) + c * n
                d = dp * dv * dq
                if den % d:
                    f = d // math.gcd(den, d)
                    den *= f
                    for slot in sums.values():
                        for x in slot:
                            slot[x] *= f
                f = den // d
                for x, n in pushed.items():  # times q, into the slot of w u
                    if n:
                        u = x >> shift
                        slot = slots.get(u)
                        if slot is None:
                            slot = slots[u] = sums.setdefault(
                                mult(w, elements[u]).index, {})
                        n *= f
                        x &= mask
                        for e2, c2 in tq.items():
                            y = x + e2
                            slot[y] = slot.get(y, 0) + n * c2
        return self._of_slots(sums, den)

    def _of_slots(self, sums: Dict[int, dict], den: int) -> "HeckeElement":
        """The element sum_i elements[i] * sums[i] / den, {packed e: n} each
        slot, reduced by `integer_form` once per group element."""
        elements = self.group.elements
        return HeckeElement.of_forms(self, {
            elements[i]: integer_form(t, den) for i, slot in sums.items()
            if (t := {e: n for e, n in slot.items() if n})})

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
    """Normal form sum_{w'} w' * p_{w'}, kept as integer forms of p_{w'}."""

    __slots__ = ("algebra", "forms", "_terms")

    def __init__(self, algebra: HeckeAlgebra,
                 terms: Dict[ExtendedWeylElement, Poly]):
        _check_degree(max((p.degree() for p in terms.values()), default=-1))
        self.algebra, self._terms, pack = algebra, None, algebra.pack
        self.forms = {w: integer_form({pack(e): c for e, c in p.terms.items()})
                      for w, p in terms.items() if p.terms}

    @classmethod
    def of_forms(cls, algebra: HeckeAlgebra, forms: Dict) -> "HeckeElement":
        """The element with these canonical integer forms, as they are."""
        el = cls.__new__(cls)
        el.algebra, el.forms, el._terms = algebra, forms, None
        return el

    @property
    def terms(self) -> MappingProxyType:
        """Read-only {w: Poly} view of the forms, built on first read."""
        if self._terms is None:
            from .poly import Poly
            n, unpack = self.algebra.nvars, self.algebra.unpack
            self._terms = MappingProxyType({
                w: Poly(n, {unpack(e): Fraction(c, d) for e, c in t.items()})
                for w, (d, t) in self.forms.items()})
        return self._terms

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if other.algebra is not self.algebra:
            raise HeckeError("elements belong to different parent algebras")
        out = dict(self.forms)
        for w, form in other.forms.items():
            if w in out:
                slot = [out[w][0], dict(out[w][1])]
                _add_into(slot, 1, form[0], form[1].items())
                form = _reduced(slot)
            out[w] = form
        return HeckeElement.of_forms(self.algebra,
                                     {w: f for w, f in out.items() if f[1]})

    def __neg__(self) -> "HeckeElement":
        return HeckeElement.of_forms(self.algebra, {
            w: (d, {e: -c for e, c in t.items()})
            for w, (d, t) in self.forms.items()})

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + (-other)

    def __mul__(self, other) -> "HeckeElement":
        if isinstance(other, HeckeElement):
            return self.algebra.multiply(self, other)
        num, den = _exact(other).as_integer_ratio()
        return HeckeElement.of_forms(self.algebra, {
            w: integer_form({e: c * num for e, c in t.items()}, d * den)
            for w, (d, t) in self.forms.items() if num})

    def __rmul__(self, other) -> "HeckeElement":
        return self * other  # scalars commute with everything

    def __eq__(self, other):
        return isinstance(other, HeckeElement) and \
            self.algebra is other.algebra and self.forms == other.forms

    def __hash__(self):
        return hash(frozenset((w, d, frozenset(t.items()))
                              for w, (d, t) in self.forms.items()))

    def is_zero(self) -> bool:
        return not self.forms

    def degree(self) -> int:
        """Filtration degree: max polynomial degree over the support; -1 if 0."""
        shift = self.algebra.degree_shift  # the degree is the top field
        return max((max(t) >> shift for _, t in self.forms.values()),
                   default=-1)

    def to_text(self) -> str:
        if not self.forms:
            return "0"
        keys = sorted(self.forms, key=lambda w: w.index)
        return " + ".join(f"{w!r}*({self.terms[w].to_text()})" for w in keys)

    def __repr__(self):
        return f"HeckeElement({self.to_text()})"


def _exact(z) -> Fraction:
    """z as a Fraction; a float, str or Decimal would not be exact."""
    if not isinstance(z, Rational):
        raise HeckeError(f"scalars must be int or Fraction, not "
                         f"{type(z).__name__}")
    return Fraction(z)


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


# ---------------------------------------------------------------------------
# Round-trip text form: `s1*s2*(3*x1 - 1) + e*(x2^2)`.
# ---------------------------------------------------------------------------

class HeckeParseError(GradedHeckeError):
    pass


def parse_element(algebra: HeckeAlgebra, text: str) -> HeckeElement:
    """Parse the canonical text form produced by HeckeElement.to_text()."""
    from .poly import PolyParseError, scan_poly
    pack, sums = algebra.pack, {}
    for chunk in _split_top_level(text.strip()):
        chunk = chunk.strip()
        if not chunk:
            raise HeckeParseError(f"empty term in {text!r}")
        if chunk == "0":
            continue
        w, body = _parse_head(algebra, chunk)
        try:
            terms = scan_poly(body, algebra.nvars)
        except PolyParseError as exc:
            raise HeckeParseError(str(exc)) from exc
        _check_degree(max(map(sum, terms), default=-1))
        acc = sums.setdefault(w.index, {})
        for e, c in terms.items():
            x = pack(e)
            acc[x] = acc.get(x, 0) + c
    return algebra._of_slots(sums, 1)


def _split_top_level(text: str) -> List[str]:
    """text cut at each ' + ' outside parentheses."""
    parts, depth, cut = [], 0, 0
    for m in re.finditer(r"[()]| \+ ", text):
        tok = m[0]
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
            if depth < 0:
                raise HeckeParseError(f"unbalanced ')' at {m.start()}")
        elif not depth:
            parts.append(text[cut:m.start()])
            cut = m.end()
    if depth != 0:
        raise HeckeParseError("unbalanced parentheses")
    parts.append(text[cut:])
    return parts


def _parse_head(algebra: HeckeAlgebra, chunk: str):
    """The group element of a term `letters*(polynomial)` and the text of
    its polynomial part."""
    if "(" not in chunk:
        raise HeckeParseError(f"term {chunk!r} lacks a polynomial part")
    head, rest = chunk.split("(", 1)
    if not rest.endswith(")"):
        raise HeckeParseError(f"term {chunk!r} must end with ')'")
    body = rest[:-1]
    if not body.strip():
        raise HeckeParseError(f"term {chunk!r} has an empty polynomial part")
    head = head.strip()
    if not head.endswith("*"):
        raise HeckeParseError(f"group part in {chunk!r} must end with '*'")
    group = algebra.group
    el = group.identity
    for letter in head[:-1].split("*"):
        if letter == "e":
            continue
        if letter[:1] == "s" and letter[1:].isascii() and letter[1:].isdigit():
            idx = int(letter[1:]) - 1
            if not 0 <= idx < algebra.datum.rank:
                raise HeckeParseError(f"no simple reflection {letter!r}")
            el = group.mult(el, group.simple(idx))
        elif letter in group.gamma.by_label:
            el = group.mult(el, group.gamma_element(letter))
        else:
            raise HeckeParseError(f"unknown group letter {letter!r}")
    return el, body
