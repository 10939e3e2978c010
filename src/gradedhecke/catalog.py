"""Discrete-series catalog files.

One-dimensional discrete series are derived automatically; higher entries
are supplied as text blocks with exact rational generator matrices:

    entry {
      p = ["alpha1", "alpha2"]
      note = "supplied 2-dimensional discrete series"
      s1 = [[0,1],[1,0]]        # matrix of s for the 1st root in p
      x1 = [[-1,0],[0,-1]]      # coordinate matrix, coroot basis of a_P
      x2 = [[...],[...]]
    }

Matrix keys s<i>/x<i> refer to the i-th root of p in sorted order.  Entries
are verified against every defining relation and must be discrete series
(in particular their weights are real, as required).
"""

from __future__ import annotations

from typing import List

from .config import matrix, parse_blocks, root_indices
from .hecke import HeckeAlgebra
from .linalg import GradedHeckeError, mat
from .modules import DSCatalogEntry, FinModule, parabolic_algebra


class CatalogError(GradedHeckeError):
    pass


def load_catalog(algebra: HeckeAlgebra, text: str) -> List[DSCatalogEntry]:
    entries: List[DSCatalogEntry] = []
    for name, payload in parse_blocks(text):
        if name != "entry":
            raise CatalogError(f"unknown catalog block {name!r}")
        if "p" not in payload:
            raise CatalogError("catalog entry needs p")
        P = tuple(root_indices(algebra.datum, payload["p"], CatalogError))
        _, sub_alg = parabolic_algebra(algebra, P)
        rank = len(P)
        refl = {}
        coord = []
        dim = None
        for i in range(rank):
            key = f"s{i + 1}"
            if key not in payload:
                raise CatalogError(f"catalog entry missing {key}")
            m = mat(matrix(f"catalog {key}", payload[key]))
            refl[i] = m
            dim = len(m) if dim is None else dim
        for i in range(rank):
            key = f"x{i + 1}"
            if key not in payload:
                raise CatalogError(f"catalog entry missing {key}")
            coord.append(mat(matrix(f"catalog {key}", payload[key])))
        if dim is None:
            raise CatalogError("catalog entry has no matrices")
        known = {"p", "note"} | {f"s{i + 1}" for i in range(rank)} | \
            {f"x{i + 1}" for i in range(rank)}
        unknown = set(payload) - known
        if unknown:
            raise CatalogError(f"unknown catalog keys {sorted(unknown)}")
        mod = FinModule(algebra=sub_alg, dim=dim, refl=refl, gammas={},
                        coord=tuple(coord),
                        name=str(payload.get("note", "catalog")))
        mod.verify()
        entries.append(DSCatalogEntry(P=P, module=mod,
                                      note=str(payload.get("note", ""))))
    return entries
