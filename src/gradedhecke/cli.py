"""Batch front-end: parse a config, run a pipeline, emit deterministic reports.

Commands: datum, group, molien, hh-findim, hc-findim, crossed-census,
induce, irr0, verify-basis.  Reports are versioned JSON (plus a CSV mirror
of the verify-basis trace matrix), byte-identical across repeated runs and
cached on disk, keyed by `importlib.util.source_hash` (no OpenSSL) of the
version, the package's source, the command and the inputs as given.  `main`
serves a hit before it parses or imports anything; a miss parses the same
text and calls `run`, which imports `reports` and its command's engine.

Exit codes: 0 success, 2 falsification flag (count/rank mismatch), 1 error
(any library error, unreadable file or usage error).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from importlib.util import source_hash
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from . import GradedHeckeError, __version__

if TYPE_CHECKING:
    from .config import RunConfig

COMMANDS = ("datum", "group", "molien", "hh-findim", "hc-findim",
            "crossed-census", "induce", "irr0", "verify-basis")
CATALOG_COMMANDS = ("irr0", "verify-basis")  # the handlers that read it


def _source_digest() -> str:
    """source_hash of the package's *.py names and bytes: new code, new key."""
    return source_hash(b"".join(
        path.name.encode() + b"\0" + path.read_bytes()
        for path in sorted(Path(__file__).parent.glob("*.py")))).hex()


def _serve_cached(command: str, source_text: str, out: Path,
                  catalog_path: Optional[str]):
    """(cache file, catalog text, exit status) of these inputs as given; a
    hit writes the reports and replays the warnings, a miss has status None."""
    if command not in CATALOG_COMMANDS:
        catalog_path = None  # the other handlers read no catalog
    catalog_text = catalog_path and Path(catalog_path).read_text("utf-8")
    key = json.dumps([__version__, _source_digest(), command, source_text,
                      catalog_path, catalog_text]).encode()
    cache_file = out / ".cache" / f"{command}-{source_hash(key).hex()}.json"
    try:  # a hit is the text _dump wrote under this key: canonical
        report = json.loads(text := cache_file.read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):  # absent, corrupt or truncated:
        report = None                         # recompute and replace
    if not (isinstance(report, dict)
            and isinstance(report.get("warnings"), list)):
        return cache_file, catalog_text, None
    sys.stderr.writelines(f"warning: {m}\n" for m in report["warnings"])
    return cache_file, catalog_text, _write_reports(out, command, text,
                                                    report)


def _write_reports(out: Path, command: str, text: str, report) -> int:
    """Write the report files from the canonical text; print the status."""
    (out / f"{command}.json").write_text(text, encoding="utf-8")
    if command == "verify-basis":
        import csv
        with open(out / "verify-basis.csv", "w", encoding="utf-8",
                  newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [name, *map(str, row)] for name, row in
                zip(report["module_names"], report["trace_matrix"]))
    print(f"{command}: wrote {out / (command + '.json')}")
    if command != "verify-basis":
        return 0
    print(f"verify-basis: passed={report['passed']} "
          f"rank={report['matrix_rank']} classes={report['class_count']}")
    return 0 if report["passed"] else 2


def run(command: str, cfg: RunConfig, out_dir: str = "out",
        catalog_path: Optional[str] = None) -> int:
    """Run one command; write report files; return the exit status.

    The cache key reads `cfg.source_text`, the inputs as given: a caller that
    changes a field after `load_config` records it there, as `main` does."""
    if command not in COMMANDS:
        from .config import ConfigError
        raise ConfigError(f"unknown command {command!r}; one of {COMMANDS}")
    out = Path(out_dir)
    (out / ".cache").mkdir(parents=True, exist_ok=True)
    cache_file, catalog_text, status = _serve_cached(
        command, cfg.source_text, out, catalog_path)
    if status is not None:
        return status
    from .reports import _HANDLERS, _dump
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
    # write aside, then rename: a reader never sees a partial file
    import tempfile
    fd, tmp = tempfile.mkstemp(dir=cache_file.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, cache_file)
    except BaseException:
        os.unlink(tmp)
        raise
    return _write_reports(out, command, text, json.loads(text))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradedhecke",
        description="Exact censuses for extended graded Hecke algebras.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--out", default="out", help="report directory")
    parser.add_argument("--truncation", type=int,
                        help="Poincare series truncation order")
    parser.add_argument("--max-dim", type=int, help="entry bound for the "
                        "largest bar-complex boundary matrix")
    parser.add_argument("--catalog", help="discrete-series catalog file")
    parser.add_argument("--k-override",
                        help="parameter override, e.g. 'alpha1=2,alpha2=2'")

    def usage_error(message: str):  # exit 2 is reserved for falsification
        raise GradedHeckeError(message)
    parser.error = usage_error
    try:
        args = parser.parse_args(argv)
        # the options given, in the order they apply, one comment line each
        # (repr keeps a value on its line): the text alone keys the cache
        given = {f: v for f in ("k_override", "truncation", "max_dim")
                 if (v := getattr(args, f)) is not None}
        text = Path(args.config).read_text(encoding="utf-8") + "".join(
            f"\n# --{f.replace('_', '-')} {v!r}" for f, v in given.items())
        status = _serve_cached(args.command, text, Path(args.out),
                               args.catalog)[2]
        if status is not None:
            return status
        from .config import apply_k_override, integer, load_config
        cfg = load_config(text)
        for field, value in given.items():
            if field == "k_override":
                apply_k_override(cfg, value)
            else:
                setattr(cfg, field, integer(f"option {field}", value))
        return run(args.command, cfg, out_dir=args.out,
                   catalog_path=args.catalog)
    except (GradedHeckeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
