"""Batch front-end: parse a config, run a pipeline, emit deterministic reports.

Commands: datum, group, molien, hh-findim, hc-findim, crossed-census,
induce, irr0, verify-basis.  Reports are versioned JSON (plus a CSV mirror
of the verify-basis trace matrix), byte-identical across repeated runs and
cached on disk under a digest of the library version, the package's source
files, the effective config and the catalog file's contents; a hit imports
no engine module, a miss only what its command's handler uses.

Exit codes: 0 success, 2 falsification flag (count/rank mismatch), 1 error
(any library error, unreadable file or usage error).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from . import GradedHeckeError, __version__
from .config import (ConfigError, RunConfig, apply_k_override, integer,
                     load_config, number, root_indices)

if TYPE_CHECKING:
    from .weyl import HeckeDatum

SCHEMA = "gradedhecke-report/1"

COMMANDS = ("datum", "group", "molien", "hh-findim", "hc-findim",
            "crossed-census", "induce", "irr0", "verify-basis")


def _dump(report: Dict[str, Any]) -> str:
    from .linalg import QI

    def jsonable(x: Any) -> Any:
        if isinstance(x, Fraction):
            return str(x)
        if isinstance(x, QI):
            return {"re": str(x.re), "im": str(x.im)}
        if isinstance(x, dict):
            return {str(k): jsonable(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [jsonable(v) for v in x]
        return x
    return json.dumps(jsonable(report), sort_keys=True, indent=2) + "\n"


def _series_payload(series) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"order": series.order,
                               "coeffs": list(series.coeffs)}
    if series.witness is not None:
        num, den = series.witness
        payload["witness_num"] = [str(c) for c in num]
        payload["witness_den"] = [str(c) for c in den]
    return payload


def _base_report(command: str, cfg: RunConfig, algebra: HeckeDatum) -> Dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "datum": {"type": cfg.datum_type, "ambient": cfg.ambient,
                  "label": algebra.datum.label,
                  "crystallographic": algebra.datum.crystallographic},
        "k": [str(v) for v in algebra.kmap.values],
        "gamma_order": len(algebra.group.gamma),
    }


def _cmd_datum(cfg: RunConfig, algebra: HeckeDatum) -> Dict:
    d = algebra.datum

    def dense(m, n):
        return [[dict(row).get(j, Fraction(0)) for j in range(n)]
                for row in m]
    rep = _base_report("datum", cfg, algebra)
    rep.update({
        "cartan": dense(d.cartan(), d.rank),
        "gram": dense(d.gram, d.ambient_dim),
        "simple_roots": d.simple_roots,
        "simple_coroots": d.simple_coroots,
        "root_count": len(d.roots),
        "roots": d.roots,
        "positive_roots": d.positive_roots(),
    })
    return rep


def _cmd_group(cfg: RunConfig, algebra: HeckeDatum) -> Dict:
    census = algebra.group.census
    rep = _base_report("group", cfg, algebra)
    rep.update({
        "order": len(algebra.group),
        "classes": [{"representative": repr(e.rep), "size": e.size,
                     "fixed_dim": e.fixed_dim,
                     "centralizer_order": len(e.centralizer)}
                    for e in census.entries],
    })
    return rep


def _census_report(command: str, cfg: RunConfig, algebra: HeckeDatum):
    """The census and a report holding its truncation and per-class series."""
    from .homology import crossed_product_census
    census = crossed_product_census(algebra.datum, truncation=cfg.truncation,
                                    group=algebra.group)
    rep = _base_report(command, cfg, algebra)
    rep.update({
        "truncation": census.truncation,
        "classes": [{"representative": e.rep_word, "size": e.size,
                     "fixed_dim": e.fixed_dim,
                     "series": [_series_payload(s) for s in e.series]}
                    for e in census.entries],
    })
    return census, rep


def _cmd_molien(cfg: RunConfig, algebra: HeckeDatum) -> Dict:
    return _census_report("molien", cfg, algebra)[1]


def _cmd_crossed_census(cfg: RunConfig, algebra: HeckeDatum) -> Dict:
    census, rep = _census_report("crossed-census", cfg, algebra)
    rep.update({
        "class_count": census.class_count,
        "hp0": census.hp0,
        "hp1": census.hp1,
        "totals": [_series_payload(s) for s in census.totals],
    })
    return rep


def _findim_handler(command: str, key: str, cyclic: bool):
    def handler(cfg: RunConfig, algebra: HeckeDatum) -> Dict:
        from .homology import (FinDimAlgebra, check_size_bound,
                               cyclic_homology, hochschild_homology)
        size, group = cfg.findim_size, algebra.group
        dim, build = {  # check the bound first: it reads only the dim
            "ground": (1, FinDimAlgebra.ground_field),
            "matrix": (size ** 2, lambda: FinDimAlgebra.matrix_algebra(size)),
        }.get(cfg.findim_kind,
              (len(group), lambda: FinDimAlgebra.of_weyl_group(group)))
        check_size_bound(dim, cfg.n_max, cfg.max_dim, cyclic)
        a = build()
        homology = cyclic_homology if cyclic else hochschild_homology
        rep = _base_report(command, cfg, algebra)
        rep.update({"algebra": a.label, "algebra_dim": a.dim,
                    "n_max": cfg.n_max,
                    key: homology(a, cfg.n_max, bound=cfg.max_dim)})
        return rep
    return handler


def _cmd_induce(cfg: RunConfig, algebra: HeckeDatum) -> Dict:
    from .linalg import zero_vec
    from .modules import (InductionDatum, central_character, commutant,
                          decompose, induce, is_tempered, one_dim_modules,
                          parabolic_algebra, weights)
    if cfg.induce_block is None:
        raise ConfigError("the induce command needs an induce block")
    blk = cfg.induce_block
    datum = algebra.datum
    P = root_indices(datum, blk.get("p", []))
    _, sub_alg = parabolic_algebra(algebra, P)
    delta_name = str(blk.get("delta", "steinberg"))
    candidates = one_dim_modules(sub_alg)
    matching = [m for m in candidates if m.name == delta_name]
    if not matching:
        raise ConfigError(
            f"no one-dimensional module named {delta_name!r}; "
            f"available: {sorted(m.name for m in candidates)}")
    lam_re = blk.get("lambda_re")
    lam_im = blk.get("lambda_im")
    lam_re = tuple(number("lambda_re", x) for x in lam_re) if lam_re else \
        zero_vec(datum.ambient_dim)
    lam_im = tuple(number("lambda_im", x) for x in lam_im) if lam_im else \
        zero_vec(datum.ambient_dim)
    extended = bool(blk.get("extended", True))
    xi = InductionDatum(P=tuple(P), delta=matching[0], lam_re=lam_re,
                        lam_im=lam_im)
    module = induce(algebra, xi, extended=extended)
    wts = weights(module)
    orbit, real = central_character(module)
    dec = decompose(module) if not module.is_complex() else None
    rep = _base_report("induce", cfg, algebra)
    rep.update({
        "P": list(P),
        "delta": delta_name,
        "extended": extended,
        "dim": module.dim,
        "weights": [{"re": re, "im": im, "multiplicity": m}
                    for (re, im), m in wts],
        "central_character": [{"re": re, "im": im} for re, im in orbit],
        "real_central_character": real,
        "tempered": is_tempered(module),
        "commutant_dim": len(commutant(module)),
        "restriction_character": module.restriction_character(),
    })
    if dec is not None:
        rep["decomposition"] = [{"dim": m.dim, "multiplicity": c}
                                for m, c in dec]
    return rep


def _catalog_for(algebra: HeckeDatum, catalog_text: Optional[str]):
    from .modules import auto_catalog
    if not catalog_text:
        return auto_catalog(algebra)
    from .catalog import load_catalog
    return auto_catalog(algebra, load_catalog(algebra, catalog_text))


def _cmd_irr0(cfg: RunConfig, algebra: HeckeDatum, catalog_text) -> Dict:
    from .modules import central_character, irr0_census
    catalog = _catalog_for(algebra, catalog_text)
    modules = irr0_census(algebra, catalog)
    census = algebra.group.census
    rep = _base_report("irr0", cfg, algebra)
    rep.update({
        "class_count": len(census),
        "count": len(modules),
        "class_representatives": [repr(e.rep) for e in census.entries],
        "modules": [{
            "name": m.name,
            "dim": m.dim,
            "P": list(m.meta.get("P", ())),
            "delta": m.meta.get("delta", ""),
            "tempered": True,
            "central_character": [{"re": re, "im": im}
                                  for re, im in central_character(m)[0]],
            "restriction_character": m.restriction_character(),
        } for m in modules],
    })
    return rep


def _cmd_verify_basis(cfg: RunConfig, algebra: HeckeDatum, catalog_text) -> Dict:
    from .homology import verify_basis_theorem
    catalog = _catalog_for(algebra, catalog_text)
    report = verify_basis_theorem(algebra, catalog)
    census = algebra.group.census
    rep = _base_report("verify-basis", cfg, algebra)
    rep.update({
        "class_count": report.class_count,
        "class_representatives": [repr(e.rep) for e in census.entries],
        "hp0": report.hp0,
        "irr0_count": report.irr0_count,
        "module_names": list(report.module_names),
        "module_dims": list(report.module_dims),
        "trace_matrix": report.trace_matrix,
        "matrix_rank": report.matrix_rank,
        "counts_match": report.counts_match,
        "full_rank": report.full_rank,
        "passed": report.passed,
    })
    return rep


_HANDLERS = {"datum": _cmd_datum, "group": _cmd_group, "molien": _cmd_molien,
             "hh-findim": _findim_handler("hh-findim", "hh", cyclic=False),
             "hc-findim": _findim_handler("hc-findim", "hc", cyclic=True),
             "crossed-census": _cmd_crossed_census,
             "induce": _cmd_induce, "irr0": _cmd_irr0,
             "verify-basis": _cmd_verify_basis}
CATALOG_COMMANDS = ("irr0", "verify-basis")  # the handlers that read it


def _source_digest() -> str:
    """sha256 of the package's *.py files, names and bytes, sorted by name:
    a report cached by other code is not served as current."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run(command: str, cfg: RunConfig, out_dir: str = "out",
        catalog_path: Optional[str] = None) -> int:
    """Run one command; write report files; return the exit status."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; one of {COMMANDS}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cache_dir = out / ".cache"
    cache_dir.mkdir(exist_ok=True)
    catalog_path = catalog_path or cfg.catalog_path
    catalog_text = None
    if catalog_path and command in CATALOG_COMMANDS:
        catalog_text = Path(catalog_path).read_text(encoding="utf-8")
    digest_src = json.dumps({
        "version": __version__, "source": _source_digest(),
        "command": command,
        "config": cfg.source_text,
        "k": {k: str(v) for k, v in cfg.k_values.items()},
        "truncation": cfg.truncation, "max_dim": cfg.max_dim,
        "n_max": cfg.n_max, "catalog": catalog_path,
        "catalog_text": catalog_text,
    }, sort_keys=True)
    digest = hashlib.sha256(digest_src.encode()).hexdigest()[:24]
    cache_file = cache_dir / f"{command}-{digest}.json"
    report = None
    if cache_file.exists():
        try:  # a hit is the text _dump wrote under this key: canonical
            report = json.loads(text := cache_file.read_text(encoding="utf-8"))
        except ValueError:  # corrupt or truncated: recompute and replace
            pass
    if isinstance(report, dict) and isinstance(report.get("warnings"), list):
        sys.stderr.writelines(f"warning: {m}\n" for m in report["warnings"])
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                extra = (catalog_text,) if command in CATALOG_COMMANDS else ()
                report = _HANDLERS[command](cfg, cfg.build_group(), *extra)
            finally:  # a run that fails still shows what it warned about
                found = sorted({str(w.message) for w in caught})
                sys.stderr.writelines(f"warning: {m}\n" for m in found)
        report["warnings"] = found
        text = _dump(report)
        report = json.loads(text)
        # write aside, then rename: a reader never sees a partial file
        import tempfile
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, cache_file)
        except BaseException:
            os.unlink(tmp)
            raise
    (out / f"{command}.json").write_text(text, encoding="utf-8")
    if command == "verify-basis":
        import csv
        with open(out / "verify-basis.csv", "w", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for name, row in zip(report["module_names"],
                                 report["trace_matrix"]):
                writer.writerow([name] + [str(v) for v in row])
    status = 0
    if command == "verify-basis" and not report["passed"]:
        status = 2
    print(f"{command}: wrote {out / (command + '.json')}")
    if command == "verify-basis":
        print(f"verify-basis: passed={report['passed']} "
              f"rank={report['matrix_rank']} classes={report['class_count']}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradedhecke",
        description="Exact censuses for extended graded Hecke algebras.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--out", default="out", help="report directory")
    parser.add_argument("--truncation", type=int, default=None,
                        help="Poincare series truncation order")
    parser.add_argument("--max-dim", type=int, default=None,
                        help="entry bound for the largest bar-complex "
                             "boundary matrix")
    parser.add_argument("--catalog", default=None,
                        help="discrete-series catalog file")
    parser.add_argument("--k-override", default=None,
                        help="parameter override, e.g. 'alpha1=2,alpha2=2'")

    def usage_error(message: str):  # exit 2 is reserved for falsification
        raise ConfigError(message)
    parser.error = usage_error
    try:
        args = parser.parse_args(argv)
        cfg = load_config(Path(args.config).read_text(encoding="utf-8"))
        if args.k_override is not None:
            apply_k_override(cfg, args.k_override)
            cfg.source_text += f"\n# k-override {args.k_override}"
        if args.truncation is not None:
            cfg.truncation = integer("option truncation", args.truncation)
        if args.max_dim is not None:
            cfg.max_dim = integer("option max_dim", args.max_dim)
        return run(args.command, cfg, out_dir=args.out,
                   catalog_path=args.catalog)
    except (GradedHeckeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
