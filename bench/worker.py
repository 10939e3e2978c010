"""Child processes of the benchmark; run.py itself never imports gradedhecke.

Modes:
  setup [CONFIG ...]   time `import gradedhecke` plus building the algebra of
                       each config; prints {"setup_s": seconds}
  cli TRACE_OUT ARGV   install the tracer, run gradedhecke.cli.main(ARGV),
                       write the trace to TRACE_OUT, exit with main's status
  hecke JOB RESULT     run the associativity passes described in JOB (JSON)
                       and write timings and oracle results to RESULT
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from tracer import Tracer


def _setup(config_paths):
    t0 = perf_counter()
    import gradedhecke  # noqa: F401  (timed import)
    from gradedhecke.config import load_config
    for path in config_paths:
        with open(path, encoding="utf-8") as fh:
            load_config(fh.read()).build_algebra()
    print(json.dumps({"setup_s": perf_counter() - t0}))
    return 0


def _cli(trace_out, argv):
    import gradedhecke.cli
    tracer = Tracer()
    tracer.install()
    tracer.op_id = 1
    try:
        return gradedhecke.cli.main(argv)
    finally:
        tracer.dump(trace_out)


def _triple(alg, texts, tracer, first_id):
    """Parse a, b, c and time ab, (ab)c, bc, a(bc) one product at a time.

    Returns (product times, problems); the oracle is (ab)c == a(bc)."""
    from gradedhecke.hecke import parse_element
    times = []

    def timed(x, y):
        if tracer is not None:
            tracer.op_id = first_id + len(times)
        t0 = perf_counter()
        result = alg.multiply(x, y)
        times.append(perf_counter() - t0)
        return result

    try:
        a, b, c = (parse_element(alg, t) for t in texts)
        if timed(timed(a, b), c) != timed(a, timed(b, c)):
            return times, ["(ab)c != a(bc)"]
    except Exception as exc:  # counted as a failed operation
        return times, [f"{type(exc).__name__}: {exc}"]
    return times, []


def _hecke(job_path, result_path):
    """Run passes of triples until the next pass would overrun the budget."""
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if job["trace_out"]:
        tracer = Tracer()
        tracer.install()
    from gradedhecke.config import load_config
    algebras = [load_config(d["config"]).build_algebra() for d in job["data"]]
    names = [d["name"] for d in job["data"]]
    passes = []
    start = perf_counter()
    products = 0
    for triples in job["passes"]:
        t_pass = perf_counter()
        ops = []
        for idx, *texts in triples:
            times, problems = _triple(algebras[idx], texts, tracer, products)
            products += len(times)
            name = f"product.{names[idx]}"
            ops += [{"name": name, "seconds": t, "problems": []}
                    for t in times]
            if problems:
                # the failing product: the last one timed, or the one that
                # raised
                if len(times) == 4:
                    ops[-1]["problems"] = problems
                else:
                    ops.append({"name": name, "seconds": None,
                                "problems": problems})
        t_end = perf_counter()
        passes.append({"wall_s": t_end - t_pass, "t_start": t_pass,
                       "t_end": t_end, "ops": ops})
        if t_end - start + passes[-1]["wall_s"] > job["seconds"]:
            break
    if tracer is not None:
        tracer.dump(job["trace_out"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"passes": passes}, fh)
    return 0


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return _setup(rest)
    if mode == "cli":
        return _cli(rest[0], rest[1:])
    if mode == "hecke":
        return _hecke(rest[0], rest[1])
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
