"""Byte-identity sweep: every CLI command, cold, on every shipped config.

    python tests/report_sweep.py SRC_DIR > manifest.json

For each config in `bench/configs` and `tests/golden` and each of the nine
commands, runs the CLI of the package under SRC_DIR in a new process, with a
fresh `--out` directory and no bytecode written.  `induce`, `irr0` and
`verify-basis` are skipped on A4, D4 and D4 x| S3, which leaves 219 runs.
Prints one JSON manifest: per run, the exit code and the sha256 of stdout
(with the out directory replaced by `<OUT>`), of stderr and of each report
file.  The on-disk cache is left out, as its file names digest the source.

The configs are always this checkout's, so two sweeps compare two sources on
the same inputs; see the README for diffing a parent against a change.
Standard library only.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIRS = (ROOT / "bench" / "configs", ROOT / "tests" / "golden")
COMMANDS = ("datum", "group", "molien", "hh-findim", "hc-findim",
            "crossed-census", "induce", "irr0", "verify-basis")
HEAVY_COMMANDS = ("induce", "irr0", "verify-basis")
HEAVY_TYPES = ("A4", "D4")  # D4 covers D4 x| S3 too
RUN_CLI = "import sys; from gradedhecke.cli import main; sys.exit(main())"


def planned_runs():
    """(config path, command) for every run of the sweep, in a fixed order."""
    runs = []
    for path in sorted(p for d in CONFIG_DIRS for p in d.glob("*.cfg")):
        kind = re.search(r'type\s*=\s*"([^"]*)"', path.read_text("utf-8"))
        heavy = kind is not None and kind.group(1) in HEAVY_TYPES
        runs += [(path, c) for c in COMMANDS
                 if not (heavy and c in HEAVY_COMMANDS)]
    return runs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_one(src: Path, config: Path, command: str,
            timeout: float = 1800) -> dict:
    """One cold CLI run; its exit code and the digests of what it wrote."""
    out = Path(tempfile.mkdtemp(prefix="sweep-"))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-c", RUN_CLI, command, "--config", str(config),
             "--out", str(out)], capture_output=True, env=env,
            timeout=timeout)
        files = {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())
                 if p.is_file()}
        return {"exit": proc.returncode,
                "stdout": _sha(proc.stdout.replace(str(out).encode(),
                                                   b"<OUT>")),
                "stderr": _sha(proc.stderr), "files": files}
    except subprocess.TimeoutExpired:
        return {"exit": "timeout"}
    finally:
        shutil.rmtree(out, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="directory holding the gradedhecke "
                        "package, e.g. a checkout's src")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    runs = planned_runs()
    manifest = {f"{path.relative_to(ROOT)} {command}":
                run_one(src, path, command) for path, command in runs}
    json.dump({"runs": len(runs), "results": manifest}, sys.stdout,
              indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
