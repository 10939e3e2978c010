import math
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from oracles import substitution_multiply

from gradedhecke.hecke import (DEGREE_LIMIT, HeckeAlgebra, HeckeElement,
                               HeckeError, HeckeParseError, k_sensitive_part,
                               parse_element)
from gradedhecke.linalg import GradedHeckeError, integer_form
from gradedhecke.poly import Poly, act, divided_difference
from gradedhecke.rootdata import (ParameterMap, build_root_datum,
                                  make_parameter_map)
from gradedhecke.weyl import make_diagram_automorphism

Q = Fraction


def algebra(label="A1", amb=1, k=1, gammas=()):
    return HeckeAlgebra(build_root_datum(label, amb), k, gammas)


def swap_algebra(k=1):
    d = build_root_datum("A1xA1", 2)
    g = make_diagram_automorphism(d, "swap", [[0, 1], [1, 0]])
    return HeckeAlgebra(d, k, [g])


def random_element(alg, rng, max_terms=2, max_deg=3, max_den=1):
    terms = {}
    els = alg.group.elements
    for _ in range(rng.randint(1, max_terms)):
        w = els[rng.randrange(len(els))]
        p = Poly(alg.nvars)
        for _ in range(rng.randint(1, 2)):
            e = [0] * alg.nvars
            for _ in range(rng.randint(0, max_deg)):
                e[rng.randrange(alg.nvars)] += 1
            c = Q(rng.randint(-3, 3), rng.randint(1, max_den)) \
                if max_den > 1 else Q(rng.randint(-3, 3))
            p = p + Poly(alg.nvars, {tuple(e): c})
        if not p.is_zero():
            terms[w] = terms.get(w, Poly(alg.nvars)) + p
    return HeckeElement(alg, terms)


def test_cross_relation_a1():
    # alpha * s = s * (-alpha) + 2k
    alg = algebra(k=1)
    a = alg.from_covector(alg.datum.simple_roots[0])
    s = alg.s(0)
    prod = alg.multiply(a, s)
    expected = alg.multiply(s, -a) + alg.one() * 2
    assert prod == expected


def test_crossed_product_at_k_zero():
    alg = algebra(k=0)
    x = alg.x(0)
    s = alg.s(0)
    sx = alg.from_poly(Poly(1, {(1,): Q(-1)}))  # s(x) = -x
    assert alg.multiply(x, s) == alg.multiply(s, sx)


def test_gamma_cross_relation():
    alg = swap_algebra()
    a1 = alg.from_covector(alg.datum.simple_roots[0])
    a2 = alg.from_covector(alg.datum.simple_roots[1])
    g = alg.gamma("swap")
    assert alg.multiply(a1, g) == alg.multiply(g, a2)


def test_parent_mismatch():
    a = algebra(k=1)
    b = algebra(k=2)
    with pytest.raises(HeckeError):
        a.multiply(a.one(), b.one())


def test_gamma_invariant_parameters_required():
    d = build_root_datum("A1xA1", 2)
    g = make_diagram_automorphism(d, "swap", [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        HeckeAlgebra(d, [1, 2], [g])
    HeckeAlgebra(d, [1, 2])  # fine without the swap


def test_centrality():
    alg = algebra(k=1)
    a = alg.from_covector(alg.datum.simple_roots[0])
    assert alg.is_central(alg.multiply(a, a))
    assert not alg.is_central(a)
    from gradedhecke.poly import reynolds
    p = reynolds(Poly(1, {(4,): Q(1)}), alg.group.elements)
    assert alg.is_central(alg.from_poly(p))


def test_center_basis_a1():
    alg = algebra(k=1)
    basis = alg.center_basis(4)
    degs = sorted(b.degree() for b in basis)
    assert degs == [0, 2, 4]  # 1, alpha^2, alpha^4


def test_center_basis_a2():
    alg = algebra("A2", 2, 1)
    basis = alg.center_basis(3)
    assert sorted(b.degree() for b in basis) == [0, 2, 3]


def test_center_basis_degree_zero():
    assert [b.degree() for b in algebra(k=1).center_basis(0)] == [0]


@pytest.mark.parametrize("scalar", [0.1, 0.5, "1/2", Decimal("0.5")],
                         ids=["float", "float-exact", "str", "Decimal"])
def test_scalars_must_be_int_or_fraction(scalar):
    # Fraction(0.1) is 3602879701896397/36028797018963968, and a string would
    # be parsed: neither belongs in exact arithmetic
    alg = algebra("A2", 2, 1)
    a = alg.one() + alg.x(0)
    for scaled in (lambda: a * scalar, lambda: scalar * a):
        with pytest.raises(HeckeError, match="scalars must be int or "
                                             "Fraction"):
            scaled()
    assert (a * Q(1, 10)).terms[alg.group.identity] == \
        Poly(2, {(0, 0): Q(1, 10), (1, 0): Q(1, 10)})
    assert 3 * a == a + a + a and (a * 0).is_zero()


def test_filtration_and_k_part():
    alg = algebra(k=1)
    a = alg.from_covector(alg.datum.simple_roots[0])
    s = alg.s(0)
    part = k_sensitive_part(a, s)
    assert part == alg.one() * 2
    assert part.degree() == 0 < 1  # strictly below deg a + deg s
    # groups-only products have no k-sensitive part
    assert k_sensitive_part(s, s).is_zero()


def test_k_part_strict_degree_drop():
    rng = random.Random(21)
    alg = algebra("B2", 2, Q(3, 2))
    for _ in range(50):
        a = random_element(alg, rng, max_deg=2)
        b = random_element(alg, rng, max_deg=2)
        if a.is_zero() or b.is_zero():
            continue
        prod = alg.multiply(a, b)
        assert prod.degree() <= a.degree() + b.degree()
        part = k_sensitive_part(a, b)
        if not part.is_zero():
            assert part.degree() < a.degree() + b.degree()


def test_degree_additive_at_k_zero():
    rng = random.Random(22)
    alg = algebra("A2", 2, 0)
    for _ in range(30):
        a = random_element(alg, rng, max_terms=1, max_deg=2)
        b = random_element(alg, rng, max_terms=1, max_deg=2)
        if a.is_zero() or b.is_zero():
            continue
        assert alg.multiply(a, b).degree() == a.degree() + b.degree()


def test_associativity_smoke():
    rng = random.Random(1)
    for alg in (algebra(k=Q(3, 2)), swap_algebra(k=1)):
        for _ in range(10):
            a, b, c = (random_element(alg, rng) for _ in range(3))
            assert alg.multiply(alg.multiply(a, b), c) == \
                alg.multiply(a, alg.multiply(b, c))


def test_normal_ordering_word_independence():
    # pushing a polynomial through two different reduced words of w0 agrees
    alg = algebra("A2", 2, Q(3, 2))
    rng = random.Random(6)
    from oracles import all_reduced_words
    w0 = max(alg.group.elements, key=lambda e: e.length)
    words = all_reduced_words(alg.datum, w0.matrix)
    assert len(words) == 2 and (0, 1, 0) in words and (1, 0, 1) in words
    for _ in range(10):
        p = Poly(2)
        for _ in range(2):
            e = [rng.randint(0, 2), rng.randint(0, 2)]
            p = p + Poly(2, {tuple(e): Q(rng.randint(-3, 3))})
        results = []
        for word in words:
            results.append(alg._push_poly(integer_form(p.terms), "e", word,
                                          alg.kmap))
        assert results[0] == results[1]


def test_text_round_trip():
    alg = swap_algebra(k=1)
    rng = random.Random(10)
    for _ in range(25):
        a = random_element(alg, rng)
        assert parse_element(alg, a.to_text()) == a
    assert parse_element(alg, "0").is_zero()


def test_parse_documented_example():
    alg = algebra("A2", 2, 1)
    el = parse_element(alg, "s1*s2*(3*x1 - 1) + e*(x2^2)")
    s1s2 = alg.group.mult(alg.group.simple(0), alg.group.simple(1))
    assert el.terms[s1s2] == Poly(2, {(1, 0): Q(3), (0, 0): Q(-1)})
    assert el.terms[alg.group.identity] == Poly(2, {(0, 2): Q(1)})
    with pytest.raises(HeckeParseError):
        parse_element(alg, "s9*(x1)")
    with pytest.raises(HeckeParseError):
        parse_element(alg, "s1*x1")


@pytest.mark.parametrize("text", ["s1*()", "s1*( )", "s1**(x1)", "*(x1)",
                                  "e*(x2) + s1**(1)", "s1*s2**(1)", "",
                                  "   ", "e*(x1) +  + e*(x2)", "s\u00b2*(x1)",
                                  "s\u0661*(x1)", "e*(x\u00b2)"])
def test_parse_rejects_text_to_text_never_writes(text):
    # an empty polynomial part, an empty group letter, an empty term or a
    # digit outside ASCII is not the canonical form, which writes zero as
    # "0"; before, "s1*()" and "" parsed as 0, "s1**(x1)" and "s\u0661*(x1)"
    # as s1*(x1), and a superscript two raised ValueError
    with pytest.raises(HeckeParseError):
        parse_element(algebra("A2", 2, 1), text)


def test_parse_sums_terms_of_one_group_element():
    alg = algebra("A2", 2, 1)
    s1 = alg.group.simple(0)
    el = parse_element(alg, "s1*(1/2*x1) + s1*(x2 - 1/2*x1) + e*(x1) + "
                            "e*(-x1) + 0")
    assert el == HeckeElement(alg, {s1: Poly(2, {(0, 1): Q(1)})})
    assert_canonical(el)
    assert list(el.forms) == [s1]
    assert parse_element(alg, "0").is_zero()
    assert parse_element(alg, "s2*(0)").is_zero()


def test_parse_builds_no_poly(monkeypatch):
    # a term's polynomial part is scanned to exact coefficients and packed
    # straight into the element's integer forms
    alg = swap_algebra(k=1)
    text = ("s2*(-x1^3 + 1/2*x2 + 3) + "
            "swap*s1*s2*(5/3*x1^2*x2 - 2*x2^2 + 4/3*x1)")
    expected = parse_element(alg, text)
    built = []
    init = Poly.__init__

    def counting_init(self, *args, **kwargs):
        built.append(Poly)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Poly, "__init__", counting_init)
    parsed = parse_element(alg, text)
    monkeypatch.undo()
    assert built == []
    assert parsed == expected and len(parsed.forms) == 2
    assert parsed.to_text() == text


@pytest.mark.parametrize("make, message", [
    (lambda a: a.x(2), "variable index 2 is not in range(2)"),
    (lambda a: a.x(-1), "variable index -1 is not in range(2)"),
    (lambda a: a.s(-1), "simple reflection index -1 is not in range(2)"),
    (lambda a: a.s(2), "simple reflection index 2 is not in range(2)"),
    (lambda a: a.gamma("swap"), "no Gamma element labelled 'swap'"),
    (lambda a: a.from_covector([1, 2, 3, 4]),
     "covector [1, 2, 3, 4] has length 4, not 2"),
    (lambda a: a.from_covector([1]), "covector [1] has length 1, not 2"),
    (lambda a: a.from_covector([0.5, 1]),
     "scalars must be int or Fraction, not float")],
    ids=["x(2)", "x(-1)", "s(-1)", "s(2)", "gamma-unknown", "covector-long",
         "covector-short", "covector-float"])
def test_generator_constructors_refuse_bad_arguments(make, message):
    # before, x(2) and x(-1) gave 0, s(-1) gave s2, from_covector truncated
    # to the shorter length, and the others raised IndexError, KeyError or
    # AttributeError
    alg = algebra("A2", 2, 1)
    with pytest.raises(HeckeError) as err:
        make(alg)
    assert str(err.value) == message
    assert alg.x(1) == alg.from_covector([0, 1]) and \
        alg.s(1).terms == {alg.group.simple(1): Poly.constant(2, 1)}
    assert alg.from_covector([Q(1, 2), 1]).to_text() == "e*(1/2*x1 + x2)"


def test_parse_rejects_a_zero_denominator():
    # the polynomial parser's error, not a ZeroDivisionError, reaches here
    with pytest.raises(HeckeParseError, match="bad fraction '1/0'"):
        parse_element(algebra("A2", 2, 1), "e*(1/0)")


def test_packing_limit_is_exact():
    # exponents are packed in fields that hold degrees below DEGREE_LIMIT;
    # group parts are the identity, so no monomial is pushed past a letter
    alg = algebra("A2", 2, 1)
    h = DEGREE_LIMIT // 2
    p = Poly(2, {(h, 0): Q(1), (h - 1, 1): Q(-1, 2)})
    q = Poly(2, {(0, h - 1): Q(2), (h - 2, 1): Q(3), (0, 0): Q(1)})
    a, b = alg.from_poly(p), alg.from_poly(q)
    product = alg.multiply(a, b)  # degree DEGREE_LIMIT - 1, exact
    assert product.degree() == DEGREE_LIMIT - 1
    assert dict(product.terms) == {alg.group.identity: p * q}
    top = alg.from_poly(Poly(2, {(DEGREE_LIMIT - 1, 0): Q(1)}))
    for x, y in ((a, alg.multiply(b, alg.x(1))), (top, alg.x(0)),
                 (alg.x(1), top)):
        assert x.degree() + y.degree() == DEGREE_LIMIT
        with pytest.raises(HeckeError, match=f"packing limit {DEGREE_LIMIT}"):
            alg.multiply(x, y)
    with pytest.raises(HeckeError, match=f"packing limit {DEGREE_LIMIT}"):
        alg.from_poly(Poly(2, {(0, DEGREE_LIMIT): Q(1)}))
    assert alg.monomial_images == {}


# -- products from cached monomial images against the substitution oracle ----

ORACLE_ALGEBRAS = {"G2-k13": lambda: algebra("G2", 2, [1, 3]),
                   "A3": lambda: algebra("A3", 3, 1),
                   "B2-k12": lambda: algebra("B2", 2, [1, 2]),
                   "A1xA1-swap": lambda: swap_algebra(1),
                   "B2-k(1/2,3)": lambda: algebra("B2", 2, [Q(1, 2), 3])}


@pytest.fixture(scope="module")
def warm_algebras():
    """One algebra per datum whose memo fills across examples."""
    return {name: build() for name, build in ORACLE_ALGEBRAS.items()}


@st.composite
def raw_elements(draw, nvars, order):
    """1-2 terms (group element index, {exponent: coefficient}), deg <= 3."""
    coeffs = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        poly = {}
        for _ in range(draw(st.integers(1, 3))):
            e = [0] * nvars
            for _ in range(draw(st.integers(0, 3))):
                e[draw(st.integers(0, nvars - 1))] += 1
            poly[tuple(e)] = draw(coeffs)
        terms.append((draw(st.integers(0, order - 1)), poly))
    return terms


def from_raw(alg, raw):
    out = alg.zero()
    for idx, poly in raw:
        out = out + HeckeElement(alg, {alg.group.elements[idx]:
                                       Poly(alg.nvars, poly)})
    return out


def assert_images_exact(alg):
    """Each cached image is a primitive integer form (d, {exponent: n}), d > 0
    and gcd(d, *n) == 1, of act / divided_difference on its monomial."""
    for ((kind, arg), e), (den, nums) in alg.monomial_images.items():
        assert den > 0 and math.gcd(den, *nums.values()) == 1, \
            ((kind, arg), e)
        img = Poly(alg.nvars, {e2: Q(n, den) for e2, n in nums.items()})
        mono = Poly(alg.nvars, {e: Q(1)})
        if kind == "s":
            expected = act(alg.group.simple(arg), mono)
        elif kind == "d":
            expected = divided_difference(alg.datum, arg, mono)
        else:
            g = alg.group.gamma_element(arg)
            expected = act(alg.group.inv(g), mono)
        assert img == expected, ((kind, arg), e)


# no shrink phase: every example multiplies in five algebras, so shrinking
# a failure would take minutes; the failing example is reported as drawn
@settings(derandomize=True, max_examples=20, deadline=None,
          phases=[p for p in Phase if p is not Phase.shrink])
@given(st.data())
def test_multiply_matches_substitution_oracle(warm_algebras, data):
    for name, build in ORACLE_ALGEBRAS.items():
        fresh = build()
        raw_a = data.draw(raw_elements(fresh.nvars, len(fresh.group)))
        raw_b = data.draw(raw_elements(fresh.nvars, len(fresh.group)))
        for alg in (fresh, warm_algebras[name]):  # cold memo, then warm
            a, b = from_raw(alg, raw_a), from_raw(alg, raw_b)
            zero_k = make_parameter_map(alg.datum, 0)
            for override in (None, zero_k):
                kvals = alg.kmap if override is None else override
                assert alg.multiply(a, b, k_override=override) == \
                    substitution_multiply(alg, a, b, kvals), (name, override)
        assert_images_exact(fresh)


@st.composite
def element_texts(draw, alg):
    """1-2 terms in the text form, each a word of 0-4 letters (Gamma labels
    included, not necessarily reduced) times a polynomial of degree <= 3."""
    letters = [f"s{i + 1}" for i in range(alg.datum.rank)] + \
        [g.label for g in alg.group.gamma.elements if g.label != "e"]
    coeffs = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        word = draw(st.lists(st.sampled_from(letters), max_size=4)) or ["e"]
        poly = {}
        for _ in range(draw(st.integers(1, 3))):
            e = [0] * alg.nvars
            for _ in range(draw(st.integers(0, 3))):
                e[draw(st.integers(0, alg.nvars - 1))] += 1
            poly[tuple(e)] = draw(coeffs)
        terms.append(f"{'*'.join(word)}*({Poly(alg.nvars, poly).to_text()})")
    return " + ".join(terms)


def assert_canonical(x):
    """Each stored form (d, {packed exponent: n}) has d > 0, gcd(d, *n) == 1
    and no zero n, and no form is empty: equal elements store equal forms."""
    for w, (den, nums) in x.forms.items():
        assert nums and all(nums.values()), w
        assert den > 0 and math.gcd(den, *nums.values()) == 1, w


@settings(derandomize=True, max_examples=20, deadline=None,
          phases=[p for p in Phase if p is not Phase.shrink])
@given(st.data())
def test_parsed_products_match_oracle_and_hash_alike(warm_algebras, data):
    # parsed operands, Gamma letters included, multiplied at k and at 0; an
    # element equal to a product, one parsed and one computed, hashes alike
    for name, alg in warm_algebras.items():
        a, b = (parse_element(alg, data.draw(element_texts(alg), label=name))
                for _ in range(2))
        for override in (None, make_parameter_map(alg.datum, 0)):
            kvals = alg.kmap if override is None else override
            product = alg.multiply(a, b, k_override=override)
            assert product == substitution_multiply(alg, a, b, kvals), name
            parsed = parse_element(alg, product.to_text())
            assert parsed == product and hash(parsed) == hash(product), name
            assert_canonical(product)
        right_unit = alg.multiply(a, alg.one())
        assert right_unit == a and hash(right_unit) == hash(a), name
        half = a * Q(1, 2)
        for x in (a, b, half, half + half, a - b, -b):
            assert_canonical(x)
        assert half + half == a and hash(half + half) == hash(a), name


def test_pushes_match_substitution_oracle(warm_algebras):
    # each memoized normal form of x^e * v, at k and at 0 (the entries the
    # oracle test above left, plus one product's), is a primitive integer
    # form (d, {(u.index << ushift) + packed exponent: n}) of the oracle's
    # product x^e * v at its own parameters
    for name, alg in warm_algebras.items():
        zero_k = make_parameter_map(alg.datum, 0)
        x, v = alg.x(0), alg.from_group(alg.group.elements[-1])
        for override in (None, zero_k):
            alg.multiply(x * x + x, v, k_override=override)
        assert set(alg.pushes) == {alg.kmap.values, zero_k.values}, name
        mask = (1 << alg.ushift) - 1
        for kvals, memo in alg.pushes.items():
            kmap = ParameterMap(kvals)
            for (index, packed), (den, nums) in memo.items():
                e, terms = alg.unpack(packed), {}
                assert den > 0 and math.gcd(den, *nums.values()) == 1 and \
                    nums and all(nums.values()), (name, e)
                for key, n in nums.items():
                    u = alg.group.elements[key >> alg.ushift]
                    terms.setdefault(u, {})[alg.unpack(key & mask)] = Q(n, den)
                mono = alg.from_poly(Poly(alg.nvars, {e: Q(1)}))
                g = alg.from_group(alg.group.elements[index])
                assert HeckeElement(alg, {u: Poly(alg.nvars, t) for u, t in
                                          terms.items()}) == \
                    substitution_multiply(alg, mono, g, kmap), (name, e)


def test_monomial_memo_is_lazy():
    alg = swap_algebra(k=1)
    assert alg.monomial_images == {} and alg.pushes == {}
    a = alg.from_poly(Poly(2, {(2, 1): Q(1), (0, 1): Q(-3)}))
    g = alg.group.mult(alg.group.gamma_element("swap"), alg.group.simple(0))
    b = HeckeElement(alg, {g: Poly(2, {(1, 0): Q(1)})})
    (v,) = b.terms
    letters = {("g", v.gamma)} | {(kind, i) for i in v.word for kind in "sd"}
    alg.multiply(a, b)
    assert alg.monomial_images
    assert {letter for letter, _ in alg.monomial_images} <= letters
    # one normal form per monomial of a, pushed through b's group element
    assert list(alg.pushes) == [alg.kmap.values]
    assert {(index, alg.unpack(e)) for index, e in
            alg.pushes[alg.kmap.values]} == {(v.index, (2, 1)),
                                             (v.index, (0, 1))}


def test_warm_product_pushes_nothing(monkeypatch):
    # once a product has filled the memo, repeating it at k and at 0 pushes
    # no polynomial and reads no monomial image
    calls = []
    for name in ("_push_poly", "_image"):
        method = getattr(HeckeAlgebra, name)

        def counting(self, *args, _name=name, _method=method):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(HeckeAlgebra, name, counting)
    alg = algebra("G2", 2, [1, 3])
    rng = random.Random(5)
    a, b = (nonzero_element(alg, rng) for _ in range(2))
    overrides = (None, make_parameter_map(alg.datum, 0))
    expected = [alg.multiply(a, b, k_override=k) for k in overrides]
    assert {"_push_poly", "_image"} <= set(calls)  # the cold products did
    calls.clear()
    assert [alg.multiply(a, b, k_override=k) for k in overrides] == expected
    assert calls == []


def test_k_override_is_checked_like_the_constructor():
    # k = (1, 2) on A2 breaks the braid relation s1 s2 s1 = s2 s1 s2, and a
    # map of the wrong length is no parameter: the constructor refuses both,
    # and so must a product at such an override, storing no memo entry
    alg = algebra("A2", 2, 1)
    x, s1 = alg.x(0), alg.s(0)
    for values, match in ((Q(1), Q(2)), "conjugate simple roots"), \
            ((Q(1),), "need 2 parameter values"), \
            ((Q(1),) * 3, "need 2 parameter values"):
        with pytest.raises(GradedHeckeError, match=match):
            HeckeAlgebra(alg.datum, ParameterMap(values))
        with pytest.raises(GradedHeckeError, match=match):
            alg.multiply(x, s1, k_override=ParameterMap(values))
    assert alg.pushes == {}
    swap = swap_algebra(k=1)
    with pytest.raises(GradedHeckeError) as built:
        HeckeAlgebra(swap.datum, [1, 2], swap.group.gamma)
    with pytest.raises(GradedHeckeError) as multiplied:
        swap.multiply(swap.x(0), swap.s(0),
                      k_override=ParameterMap((Q(1), Q(2))))
    assert str(multiplied.value) == str(built.value) and swap.pushes == {}
    # the checked overrides still work: x1 s1 = s1 s1(x1) + k <x1, a1^v>
    part = k_sensitive_part(x, s1)
    assert part == alg.one() * alg.datum.simple_coroots[0][0]
    assert set(alg.pushes) == {alg.kmap.values,
                               make_parameter_map(alg.datum, 0).values}


def test_each_build_and_new_override_checks_k_once(monkeypatch):
    # one check of k on the W'-orbits per build: build_algebra once ran it
    # in RunConfig and again in HeckeAlgebra.__init__; every module that
    # binds the check is patched, so a second call site anywhere is counted
    from gradedhecke import config, hecke, rootdata, weyl
    calls = []
    check = rootdata.check_parameters_conjugation

    def counting(*args):
        calls.append(args)
        return check(*args)
    for mod in (rootdata, weyl, hecke, config):
        if hasattr(mod, "check_parameters_conjugation"):
            monkeypatch.setattr(mod, "check_parameters_conjugation", counting)
    cfg = config.load_config(
        'datum { type="B2", ambient=2, k={alpha1=1, alpha2=2} }\n')
    alg = cfg.build_algebra()
    assert len(calls) == 1
    cfg.build_group()
    assert len(calls) == 2
    x, s1, zero_k = alg.x(0), alg.s(0), make_parameter_map(alg.datum, 0)
    alg.multiply(x, s1)  # k itself was checked when alg was built
    assert len(calls) == 2
    alg.multiply(x, s1, k_override=zero_k)
    assert len(calls) == 3
    alg.multiply(s1, x, k_override=zero_k)
    assert len(calls) == 3


# -- the products themselves, against a golden file and a construction count --

GOLDEN_PRODUCTS = Path(__file__).parent / "golden" / "hecke-products.txt"


def nonzero_element(alg, rng):
    while True:
        x = random_element(alg, rng, max_deg=2, max_den=3)
        if not x.is_zero():
            return x


def golden_product_lines():
    """`datum: (ab)c` in canonical text for seeded triples with rational
    coefficients, four per datum.  Regenerate the golden file only for an
    intended change of the products:

        PYTHONPATH=src:tests python -c "import test_hecke as t; \\
            print(*t.golden_product_lines(), sep='\\n')"
    """
    rng = random.Random(14)
    lines = []
    for name in ("G2-k13", "A3", "B2-k12", "A1xA1-swap", "B2-k(1/2,3)"):
        alg = ORACLE_ALGEBRAS[name]()
        for _ in range(4):
            a, b, c = (nonzero_element(alg, rng) for _ in range(3))
            lines.append(f"{name}: "
                         + alg.multiply(alg.multiply(a, b), c).to_text())
    return lines


def test_products_match_golden():
    assert "\n".join(golden_product_lines()) + "\n" == \
        GOLDEN_PRODUCTS.read_text(encoding="utf-8")


def test_warm_product_builds_no_poly_and_no_fraction(monkeypatch):
    # with the memo warm, a product is integer arithmetic throughout, on the
    # operands' integer forms and into the result's
    alg = algebra("G2", 2, [1, 3])
    rng = random.Random(3)
    a, b = (nonzero_element(alg, rng) for _ in range(2))
    expected = alg.multiply(a, b)
    built = []
    init, new = Poly.__init__, Fraction.__new__

    def counting_init(self, *args, **kwargs):
        built.append(Poly)
        init(self, *args, **kwargs)

    def counting_new(cls, *args, **kwargs):
        built.append(Fraction)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Poly, "__init__", counting_init)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    product = alg.multiply(a, b)
    monkeypatch.undo()
    assert built == []
    assert product == expected and len(expected.forms) > 1
    assert product.terms == expected.terms
