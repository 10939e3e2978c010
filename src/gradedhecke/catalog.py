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
from .linalg import GradedHeckeError, mat
from .modules import DSCatalogEntry, FinModule, parabolic_algebra
from .weyl import HeckeDatum


class CatalogError(GradedHeckeError):
    pass


def load_catalog(algebra: HeckeDatum, text: str) -> List[DSCatalogEntry]:
    entries: List[DSCatalogEntry] = []
    for name, payload in parse_blocks(text):
        if name != "entry":
            raise CatalogError(f"unknown catalog block {name!r}")
        if "p" not in payload:
            raise CatalogError("catalog entry needs p")
        P = tuple(root_indices(algebra.datum, payload["p"], CatalogError))
        _, sub_alg = parabolic_algebra(algebra, P)
        rank = len(P)
        keys = [f"{c}{i + 1}" for c in "sx" for i in range(rank)]
        mats = []
        for key in keys:
            if key not in payload:
                raise CatalogError(f"catalog entry missing {key}")
            rows = matrix(f"catalog {key}", payload[key])
            n = len(rows)
            if not n or any(len(r) != n for r in rows):
                raise CatalogError(f"catalog {key} must be a nonempty square "
                                   "matrix")
            if mats and n != len(mats[0]):
                raise CatalogError(f"catalog {key} is {n}x{n}, but s1 is "
                                   f"{len(mats[0])}x{len(mats[0])}")
            mats.append(mat(rows))
        if not mats:
            raise CatalogError("catalog entry has no matrices")
        unknown = set(payload) - {"p", "note", *keys}
        if unknown:
            raise CatalogError(f"unknown catalog keys {sorted(unknown)}")
        refl, coord = dict(enumerate(mats[:rank])), tuple(mats[rank:])
        mod = FinModule(algebra=sub_alg, dim=n, refl=refl, gammas={},
                        coord=coord, name=str(payload.get("note", "catalog")))
        mod.verify()
        entries.append(DSCatalogEntry(P=P, module=mod,
                                      note=str(payload.get("note", ""))))
    return entries
