"""gradedhecke benchmark: cold CLI censuses and Hecke arithmetic, end to end.

Usage (from the repository root):

    python3 bench/run.py --workload basis-census --seed 1 --seconds 30 --trace 0

Workloads (see bench/NOTES.md for why each exists):
  basis-census     cold `verify-basis` for A1, A2, B2, G2 and A1xA1 with the
                   swap automorphism, each followed by a warm re-run
  hecke-arith      seeded associativity triples in four Hecke algebras,
                   multiplied in one library process
  homology-census  cold hh-findim, hc-findim, crossed-census and group runs
  smoke            a tiny A1-only pass of both kinds, for the harness test

Load is a closed loop with one client: one operation at a time.  A CLI
operation is a fresh `python -m gradedhecke.cli` process with a fresh --out
directory.  The run and its children are pinned to one CPU, and times are
reference-adjusted (see reference.py); measured times are kept beside them.

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it runs
one untraced and one traced pass and prints the per-layer metrics.  Every
output is checked against the oracles below.  The last line of standard
output is one JSON object; a copy of the result, with the per-operation
timings, is written under bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from reference import REF_NOMINAL_S, reference_seconds, speed_factor
from tracer import layer_metrics, merge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = BENCH / "configs"
RESULTS = BENCH / "results"
SCHEMA = "gradedhecke-bench/1"
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170.0     # children are killed after this; a run must end in 180 s

# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# Irr_0 must match the conjugacy classes of W' (the paper's theorem); the class
# counts are those of the classification.
BASIS_DATA = (("A1", "a1.cfg", 2), ("A2", "a2.cfg", 3), ("B2", "b2.cfg", 5),
              ("G2", "g2.cfg", 6), ("A1xA1-swap", "a1xa1-swap.cfg", 5))

# G2 at k=1 exits 2 because the automatic discrete-series catalog lacks the
# higher-dimensional modules (ROADMAP item 2), not because the theorem fails.
# Those operations count as failed; any other problem makes the run incorrect.
KNOWN_PROBLEMS = {
    "verify_basis.G2": {"exit status 2", "passed is false",
                        "5 modules for 6 classes"},
    "warm_report.G2": {"exit status 2"},
}

# name, config, rank, ambient dimension, longest word, gamma labels
HECKE_DATA = (("G2-k13", "g2-k13.cfg", 2, 2, 6, ()),
              ("A3", "a3.cfg", 3, 3, 6, ()),
              ("B2-k12", "b2-k12.cfg", 2, 2, 4, ()),
              ("A1xA1-swap", "a1xa1-swap.cfg", 2, 2, 2, ("swap",)))
HECKE_A1 = (("A1", "a1.cfg", 1, 1, 1, ()),)
TRIPLES_PER_DATUM = 4   # per pass; 16 products per datum


# metric name, CLI command, config, expected report fields ("classes" is the
# number of listed classes)
HOMOLOGY_OPS = (
    ("cmd.hh-findim", "hh-findim", "hh-a2.cfg", {"hh": [3, 0, 0]}),
    ("cmd.hc-findim", "hc-findim", "hc-a2.cfg", {"hc": [3, 0]}),
    ("cmd.crossed-census", "crossed-census", "a4.cfg",
     {"class_count": 7, "classes": 7, "hp0": 7, "hp1": 0}),
    ("cmd.group", "group", "d4.cfg", {"order": 192, "classes": 13}),
)


def check_fields(report, want):
    got = {**report, "classes": len(report.get("classes", []))}
    return [f"{k} {got.get(k)} != {v}" for k, v in want.items()
            if got.get(k) != v]


WORKLOADS = {
    "basis-census": {"basis": BASIS_DATA},
    "hecke-arith": {"hecke": HECKE_DATA},
    "homology-census": {"homology": HOMOLOGY_OPS},
    "smoke": {"basis": BASIS_DATA[:1], "hecke": HECKE_A1,
              "triples": 1},
}



def declared_units():
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json,
    where the metrics are declared once."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


SAMPLE_INTERVAL_S = 0.1


class Runner:
    """Runs child processes one at a time; keeps their peak RSS and the
    reference-kernel samples taken before, during and after each of them."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.peak_rss_kb = 0
        self.processes = 0
        self.refs = []          # (time, reference kernel seconds)

    def spawn(self, argv, stdout=subprocess.DEVNULL):
        """Run argv to completion; return (seconds, exit status, stderr)."""
        self.processes += 1
        err_path = self.work / f"stderr-{self.processes}.txt"
        limit = max(1.0, self.deadline - perf_counter())
        self._ref()
        stop = threading.Event()
        sampler = threading.Thread(target=self._sample, args=(stop,))
        with open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=stdout,
                                    stderr=err)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            sampler.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                stop.set()
            seconds = perf_counter() - t0
            timer.join()
            sampler.join()
        self._ref()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return seconds, proc.returncode, err_path.read_text(errors="replace")

    def _sample(self, stop: threading.Event) -> None:
        """While a child runs on the same CPU, time the reference kernel
        every SAMPLE_INTERVAL_S; the main thread waits in os.wait4."""
        while not stop.wait(SAMPLE_INTERVAL_S):
            self._ref()

    def _ref(self) -> None:
        self.refs.append((perf_counter(), reference_seconds()))

    def factor(self, t0: float, t1: float) -> float:
        """Reference adjustment for the window [t0, t1]; falls back to all
        of the run's samples when the window holds none."""
        inside = [v for t, v in self.refs if t0 <= t <= t1]
        return speed_factor(inside or [v for _, v in self.refs])

    def setup_sample(self, configs):
        """(measured set-up seconds, reference adjustment) of one probe."""
        out_path = self.work / "setup.json"
        t0 = perf_counter()
        with open(out_path, "wb") as out:
            _, status, err = self.spawn(
                [sys.executable, str(BENCH / "worker.py"), "setup",
                 *map(str, configs)], stdout=out)
        if status != 0:
            raise RuntimeError(f"setup probe failed: {err.strip()}")
        factor = self.factor(t0, perf_counter())
        return json.loads(out_path.read_text())["setup_s"], factor


# ---------------------------------------------------------------------------
# CLI operations
# ---------------------------------------------------------------------------

def cli_op(runner: Runner, name, command, config, out_dir, trace_out=None):
    argv = [command, "--config", str(CONFIGS / config), "--out", str(out_dir)]
    if trace_out is None:
        argv = [sys.executable, "-m", "gradedhecke.cli"] + argv
    else:
        argv = [sys.executable, str(BENCH / "worker.py"), "cli",
                str(trace_out)] + argv
    seconds, status, err = runner.spawn(argv)
    problems = [] if status == 0 else [f"exit status {status}"]
    if status not in (0, 2):
        problems.append(err.strip().splitlines()[-1] if err.strip()
                        else "no error output")
    report_path = Path(out_dir) / f"{command}.json"
    report = None
    if report_path.exists():
        report = json.loads(report_path.read_text(encoding="utf-8"))
    elif status in (0, 2):
        problems.append("no report written")
    return {"name": name, "seconds": seconds, "problems": problems}, report


def check_verify_basis(report, classes):
    """The paper's theorem, and the trace matrix's identity column."""
    problems = []
    if report["class_count"] != classes:
        problems.append(f"class_count {report['class_count']} != {classes}")
    if report["irr0_count"] != classes:
        problems.append(f"{report['irr0_count']} modules for {classes} classes")
    if report["passed"] is not True:
        problems.append("passed is false")
    reps = report["class_representatives"]
    if "e" not in reps:
        problems.append("no identity class")
    else:
        col = reps.index("e")
        ident = [Fraction(row[col]) for row in report["trace_matrix"]]
        if ident != [Fraction(d) for d in report["module_dims"]]:
            problems.append("identity column != module_dims")
    return problems


def basis_pass(runner, data, pass_dir, rng, trace_dir):
    order = list(data)
    rng.shuffle(order)
    ops, traces = [], []
    for label, config, classes in order:
        out = pass_dir / label
        files = ("verify-basis.json", "verify-basis.csv")
        tr = trace_dir and trace_dir / f"{label}-cold.json"
        op, report = cli_op(runner, f"verify_basis.{label}", "verify-basis",
                            config, out, tr)
        if report is not None:
            op["problems"] += check_verify_basis(report, classes)
        cold = [(out / f).read_bytes() if (out / f).exists() else None
                for f in files]
        ops.append(op)
        tr_warm = trace_dir and trace_dir / f"{label}-warm.json"
        op, _ = cli_op(runner, f"warm_report.{label}", "verify-basis",
                       config, out, tr_warm)
        warm = [(out / f).read_bytes() if (out / f).exists() else None
                for f in files]
        if warm != cold:
            op["problems"].append("warm report differs from the cold one")
        ops.append(op)
        traces += [tr, tr_warm]
    return ops, traces


def homology_pass(runner, ops_spec, pass_dir, rng, trace_dir):
    order = list(ops_spec)
    rng.shuffle(order)
    ops, traces = [], []
    for name, command, config, want in order:
        tr = trace_dir and trace_dir / f"{command}.json"
        op, report = cli_op(runner, name, command, config, pass_dir / command,
                            tr)
        if report is not None:
            op["problems"] += check_fields(report, want)
        ops.append(op)
        traces.append(tr)
    return ops, traces


# ---------------------------------------------------------------------------
# Hecke arithmetic
# ---------------------------------------------------------------------------

def _random_poly(rng, nvars, degree, terms):
    """`terms` monomials of degrees `degree`, `degree` - 1, ... (not below
    0), random variables and exact random coefficients."""
    parts = []
    for t in range(terms):
        d = max(degree - t, 0)
        expo = [0] * nvars
        for _ in range(d):
            expo[rng.randrange(nvars)] += 1
        coeff = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        factors = [str(coeff)] + [f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                                  for i, e in enumerate(expo) if e]
        sign = "-" if rng.random() < 0.5 else "+"
        parts.append((sign, "*".join(factors)))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _reduced_word(rng, rank, length):
    """A random reduced word of the given length, at most the longest.

    Rank <= 2 (dihedral, or A1xA1 with length <= 2): alternating letters.
    Rank 3 is A3 here: a walk in S4 that raises the inversion count."""
    if rank <= 2:
        first = rng.randrange(rank)
        return [(first + k) % rank for k in range(length)]
    perm = list(range(rank + 1))
    word = []
    for _ in range(length):
        i = rng.choice([j for j in range(rank) if perm[j] < perm[j + 1]])
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        word.append(i)
    return word


def _random_element(rng, rank, nvars, gammas, shape):
    """Two terms; shape fixes each term's word length and degree."""
    terms = []
    for length, degree in shape:
        word = [f"s{i + 1}" for i in _reduced_word(rng, rank, length)]
        if gammas and rng.random() < 0.5:
            word.insert(0, rng.choice(gammas))
        letters = "*".join(word) if word else "e"
        terms.append(f"{letters}*({_random_poly(rng, nvars, degree, 2)})")
    return " + ".join(terms)


def hecke_passes(data, seed, count, per_datum):
    """Seeded triples.  Word lengths and degrees follow a fixed cycle, so
    every pass has the same mix of shapes; letters and coefficients are
    random."""
    rng = random.Random(f"hecke-{seed}")
    passes = []
    for _ in range(count):
        triples = []
        for idx, (_, _, rank, nvars, longest, gammas) in enumerate(data):
            for j in range(per_datum):
                elems = []
                for e in range(3):
                    shape = [((j + e + 3 * t) % (longest + 1),
                              (j + 2 * e + t) % 4) for t in range(2)]
                    elems.append(_random_element(rng, rank, nvars, gammas,
                                                 shape))
                triples.append([idx] + elems)
        passes.append(triples)
    return passes


def hecke_run(runner, data, seed, seconds, per_datum, count, trace_out=None):
    job_path = runner.work / f"hecke-job-{runner.processes}.json"
    result_path = runner.work / f"hecke-result-{runner.processes}.json"
    job = {"data": [{"name": d[0],
                     "config": (CONFIGS / d[1]).read_text(encoding="utf-8")}
                    for d in data],
           "passes": hecke_passes(data, seed, count, per_datum),
           "seconds": seconds,
           "trace_out": str(trace_out) if trace_out else None}
    job_path.write_text(json.dumps(job), encoding="utf-8")
    _, status, err = runner.spawn([sys.executable, str(BENCH / "worker.py"),
                                   "hecke", str(job_path), str(result_path)])
    if status != 0 or not result_path.exists():
        detail = err.strip().splitlines()[-1] if err.strip() else ""
        return [{"wall_s": 0.0, "t_start": 0.0, "t_end": 0.0, "ops": [{
            "name": "hecke-worker", "seconds": None,
            "problems": [f"worker exit status {status}: {detail}"]}]}]
    return json.loads(result_path.read_text())["passes"]


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def run_passes(runner, spec, seed, budget, trace_dir=None, max_passes=None):
    """Closed loop: passes run back to back until the next one would
    overrun `budget` seconds; at least one.

    Each pass carries the reference adjustment of its own time window, and
    each timed operation its adjusted time `adjusted_s`."""
    rng = random.Random(seed)
    passes, traces = [], []
    start = perf_counter()
    cli_kinds = [k for k in ("basis", "homology") if k in spec]
    while cli_kinds:
        pass_dir = runner.work / f"pass-{len(passes)}"
        t_start = perf_counter()
        ops = []
        for kind in cli_kinds:
            fn = basis_pass if kind == "basis" else homology_pass
            o, tr = fn(runner, spec[kind], pass_dir, rng, trace_dir)
            ops += o
            traces += tr
        passes.append({"wall_s": sum(op["seconds"] for op in ops),
                       "t_start": t_start, "t_end": perf_counter(),
                       "ops": ops})
        shutil.rmtree(pass_dir, ignore_errors=True)
        elapsed = perf_counter() - start
        if (max_passes and len(passes) >= max_passes) or \
                elapsed + passes[-1]["wall_s"] > budget:
            break
    if "hecke" in spec:
        remaining = max(0.0, budget - (perf_counter() - start))
        per_datum = spec.get("triples", TRIPLES_PER_DATUM)
        tr = trace_dir and trace_dir / "hecke.json"
        passes += hecke_run(runner, spec["hecke"], seed, remaining, per_datum,
                            max_passes or 60, tr)
        traces.append(tr)
    for p in passes:
        p["factor"] = runner.factor(p.pop("t_start"), p.pop("t_end"))
        for op in p["ops"]:
            if op["seconds"] is not None:
                op["adjusted_s"] = op["seconds"] * p["factor"]
    return passes, traces


def summarize_ops(passes):
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["problems"]]
    unexpected = [op for op in failed
                  if not set(op["problems"]) <= KNOWN_PROBLEMS.get(op["name"],
                                                                   set())]
    return ops, failed, unexpected


def _quantile(values, q):
    """Nearest-rank quantile."""
    s = sorted(values)
    return s[max(1, math.ceil(q * len(s))) - 1]


def details(ops):
    """Per-operation medians of adjusted times (verify_basis_s.G2,
    cmd_s.group, product_ms.*): name -> (value, unit, samples)."""
    by_name = {}
    for op in ops:
        if op["seconds"] is not None:
            by_name.setdefault(op["name"], []).append(op["adjusted_s"])
    out = {}
    products, warm = [], []
    for name, vals in sorted(by_name.items()):
        kind, _, label = name.partition(".")
        if kind == "product":
            products += vals
            out[f"product_ms.p50.{label}"] = (
                statistics.median(vals) * 1e3, "ms", len(vals))
        elif kind == "warm_report":
            warm += vals
        else:
            out[f"{kind}_s.{label}"] = (statistics.median(vals), "s",
                                        len(vals))
    if warm:
        out["warm_report_s.p50"] = (statistics.median(warm), "s", len(warm))
    if products:
        out["product_ms.p50"] = (statistics.median(products) * 1e3, "ms",
                                 len(products))
        out["product_ms.p95"] = (_quantile(products, 0.95) * 1e3, "ms",
                                 len(products))
    return out


def _rate(count, seconds):
    """Operations per second; 0 when a failed worker timed nothing."""
    return count / seconds if seconds else 0.0


def end_to_end(runner, spec, seed, seconds):
    """Metric name -> (reference-adjusted value, measured value, samples)."""
    configs = [CONFIGS / d[1] for d in spec.get("hecke", ())]
    setups = [runner.setup_sample(configs) for _ in range(SETUP_SAMPLES)]
    passes, _ = run_passes(runner, spec, seed, seconds)
    ops, failed, unexpected = summarize_ops(passes)
    walls = [p["wall_s"] for p in passes]
    adjusted = [p["wall_s"] * p["factor"] for p in passes]
    rss = runner.peak_rss_kb / 1024
    ok = (len(ops) - len(failed)) / len(ops)
    metrics = {
        "setup_s": (statistics.median(raw * f for raw, f in setups),
                    statistics.median(raw for raw, _ in setups), len(setups)),
        "wall_s": (statistics.median(adjusted), statistics.median(walls),
                   len(walls)),
        "ops_per_s": (_rate(len(ops), sum(adjusted)),
                      _rate(len(ops), sum(walls)), len(ops)),
        "success_ratio": (ok, ok, len(ops)),
        "peak_rss_mb": (rss, rss, runner.processes),
    }
    return metrics, details(ops), passes, ops, failed, unexpected


def traced(runner, spec, seed, seconds):
    """One untraced pass, then the same pass traced in fresh processes.

    Layer times are as measured; the overhead compares reference-adjusted
    pass times."""
    plain, _ = run_passes(runner, spec, seed, seconds, max_passes=1)
    trace_dir = runner.work / "trace"
    trace_dir.mkdir()
    passes, traces = run_passes(runner, spec, seed, seconds,
                                trace_dir=trace_dir, max_passes=1)
    dumps = [json.loads(Path(t).read_text()) for t in traces
             if t and Path(t).exists()]
    layers = layer_metrics(merge(d["summary"] for d in dumps))
    untraced = sum(p["wall_s"] * p["factor"] for p in plain)
    traced_wall = sum(p["wall_s"] * p["factor"] for p in passes)
    layers["trace.overhead_s"] = traced_wall - untraced
    spans = [s for d in dumps for s in d["spans"]]
    ops, failed, unexpected = summarize_ops(plain + passes)
    extra = {"untraced_wall_s": untraced, "traced_wall_s": traced_wall,
             "span_count": len(spans), "traced_processes": len(dumps)}
    return layers, extra, spans, plain + passes, ops, failed, unexpected


def source_revision():
    rev = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gradedhecke").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return rev, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gradedhecke" / "__init__.py").is_file():
        print(f"error: no gradedhecke sources under {SRC}", file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_LIMIT_S
    end_to_end_units, per_layer_units = declared_units()
    # The reference kernel runs in this process, the operations in children;
    # both must run on the same CPU for its samples to track their speed.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    spec = WORKLOADS[args.workload]
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rev, src_digest = source_revision()
    meta = {"schema": SCHEMA, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "nproc": len(cpus), "pinned_cpu": cpus[0],
            "git_revision": rev, "source_sha256": src_digest,
            "load": "closed loop, one client, one operation at a time"}
    runner = Runner(work, deadline)
    try:
        if args.trace:
            layers, extra, spans, passes, ops, failed, unexpected = traced(
                runner, spec, args.seed, args.seconds)
            metrics = {n: (layers[n], u) for n, u in per_layer_units.items()}
            record = {**meta, **extra, "per_layer": layers}
        else:
            e2e, detail, passes, ops, failed, unexpected = end_to_end(
                runner, spec, args.seed, args.seconds)
            metrics = {n: (v, end_to_end_units[n]) for n, (v, _, _) in
                       e2e.items()}
            record = {**meta, "reference_nominal_s": REF_NOMINAL_S,
                      "reference_samples": len(runner.refs),
                      "end_to_end": {n: {"value": v, "measured": raw,
                                         "unit": end_to_end_units[n],
                                         "samples": k}
                                     for n, (v, raw, k) in e2e.items()},
                      "details": {n: {"value": v, "unit": u, "samples": k}
                                  for n, (v, u, k) in detail.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update({"attempted": len(ops), "failed": len(failed),
                   "fail_ratio": len(failed) / len(ops),
                   "unexpected_failures": len(unexpected),
                   "passes": passes})
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "op"],
             "spans": spans}))
        for name, value in sorted(layers.items()):
            print(f"{name} = {value:.6g} {layer_unit(name)}")
        print(f"trace overhead = {layers['trace.overhead_s']:.3f} s "
              f"(traced {extra['traced_wall_s']:.3f} s, untraced "
              f"{extra['untraced_wall_s']:.3f} s, reference-adjusted; "
              f"{extra['span_count']} spans)")
    else:
        for name, (v, raw, k) in e2e.items():
            unit = end_to_end_units[name]
            print(f"{name} = {v:.6g} {unit} (n={k}; measured {raw:.6g})")
        for name, (v, unit, k) in detail.items():
            print(f"  {name} = {v:.6g} {unit} (n={k})")
        factors = ", ".join(f"x{p['factor']:.3f}" for p in passes[:8])
        print(f"times adjusted to a {REF_NOMINAL_S * 1e3:g} ms reference "
              f"kernel; pass factors {factors}")
    for op in failed:
        tag = "known" if op not in unexpected else "UNEXPECTED"
        print(f"failed ({tag}): {op['name']}: {'; '.join(op['problems'])}")
    print(f"meta: python {meta['python']}, nproc {meta['nproc']}, "
          f"revision {rev or 'n/a'}, source {src_digest[:12]}, "
          f"seed {args.seed}")
    print(json.dumps({
        "correct": not unexpected, "attempted": len(ops),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
