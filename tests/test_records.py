"""The engine's records: value equality and hashing where code relies on
them, immutability of the frozen ones, validation at construction, and
what a module copy keeps."""

import warnings
from fractions import Fraction

import pytest

from gradedhecke.hecke import HeckeAlgebra
from gradedhecke.homology import FinDimAlgebra, HomologyCensus, HomologyError
from gradedhecke.linalg import zero_vec
from gradedhecke.modules import (FinModule, InductionDatum, decompose,
                                 induce, one_dim_modules, parabolic_algebra,
                                 weights)
from gradedhecke.poly import PoincareSeries
from gradedhecke.rootdata import (build_root_datum, make_parameter_map,
                                  parabolic)
from gradedhecke.weyl import (DiagramAutomorphism, enumerate_group,
                              make_diagram_automorphism)

Q = Fraction
SWAP = [[0, 1], [1, 0]]


def principal_series(label="A1", amb=1):
    alg = HeckeAlgebra(build_root_datum(label, amb), 1)
    _, sub = parabolic_algebra(alg, [])
    d = alg.datum.ambient_dim
    xi = InductionDatum(P=(), delta=one_dim_modules(sub)[0],
                        lam_re=(Q(1, 3),) * d, lam_im=zero_vec(d))
    return induce(alg, xi)


def test_root_datum_and_parameter_map_compare_and_hash_by_value():
    a, b = build_root_datum("A2", 2), build_root_datum("A2", 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != build_root_datum("A2", 3) and a != build_root_datum("B2", 2)
    k, same = make_parameter_map(a, 1), make_parameter_map(b, [1, 1])
    assert k is not same and k == same and hash(k) == hash(same)
    assert k == make_parameter_map(a, Q(1, 2)).scaled(2)
    assert k != make_parameter_map(a, 2) and len({k, same}) == 1


def test_diagram_automorphism_compares_and_hashes_by_value():
    d = build_root_datum("A1xA1", 2)
    a = make_diagram_automorphism(d, "swap", SWAP)
    b = make_diagram_automorphism(d, "swap", SWAP)
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    # the label is part of the value
    assert DiagramAutomorphism("flip", a.perm, a.matrix) != a
    assert enumerate_group(d, [a]).gamma.elements[1] == b


def _frozen_records():
    d = build_root_datum("A2", 2)
    group = enumerate_group(d)
    return [
        (d, "label"), (make_parameter_map(d, 1), "values"),
        (parabolic(d, [0]), "P"),
        (make_diagram_automorphism(build_root_datum("A1xA1", 2), "swap",
                                   SWAP), "label"),
        (group.census, "entries"), (group.census.entries[0], "size"),
        (PoincareSeries(order=0, coeffs=(1,)), "coeffs"),
        (principal_series().induced, "d"),
    ]


def test_frozen_records_reject_assignment():
    records = _frozen_records()
    assert len({type(r).__name__ for r, _ in records}) == 8
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_fin_module_equality_ignores_memo_and_induced():
    V = principal_series()
    weights(V)
    copy = FinModule(algebra=V.algebra, dim=V.dim, refl=V.refl,
                     gammas=V.gammas, coord=V.coord, name=V.name, meta=V.meta)
    assert V.memo and not copy.memo
    assert V.induced is not None and copy.induced is None
    assert V == copy
    renamed = FinModule(algebra=V.algebra, dim=V.dim, refl=V.refl,
                        gammas=V.gammas, coord=V.coord, name="other",
                        meta=V.meta)
    assert V != renamed


def test_summand_copy_keeps_induced_and_starts_an_empty_memo():
    # an irreducible module is its own only leaf, so its summand is a copy
    V = principal_series()
    weights(V)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ((m, count),) = decompose(V)
    assert count == 1 and m is not V and m.name == f"{V.name}#0"
    assert m.induced is V.induced
    assert m.meta == V.meta and m.meta is not V.meta
    assert m.memo is not V.memo
    assert "weights" in V.memo and "weights" not in m.memo


@pytest.mark.parametrize("build, error, message", [
    (lambda: PoincareSeries(order=2, coeffs=(1, -1, 0)), ValueError,
     "Poincare coefficients must be dimensions >= 0"),
    (lambda: PoincareSeries(order=2, coeffs=(1, 1, 1),
                            witness=((1,), (1, -2))), ValueError,
     "witness does not expand to the coefficients"),
    (lambda: HomologyCensus(datum_label="A1", group_order=2, class_count=2,
                            truncation=0, entries=(), totals=(), hp0=1,
                            hp1=0), HomologyError,
     "HP census must satisfy HP0 = #classes"),
    (lambda: FinDimAlgebra(dim=1, table=(((),),), unit=(Q(1),)),
     HomologyError, "unit laws fail"),
    (lambda: FinDimAlgebra(dim=2, table=(((),),), unit=(Q(1),)),
     HomologyError, "structure constants have wrong shape"),
], ids=["negative", "witness", "hp0", "unit", "shape"])
def test_validation_messages(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message
