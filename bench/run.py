#!/usr/bin/env python3
"""idcalc benchmark: one workload, timed end to end or traced layer by layer.

Run from the root of a source checkout (the directory holding ``src/idcalc``):

    python3 bench/run.py --workload quad-matrix --seed 1 --seconds 20 --trace 0

The seed makes the inputs.  The run repeats whole rounds of the workload's
operations, one after another in this process, until ``--seconds`` is
used up, and checks every output against ``oracles``.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from traced rounds, alternated with untraced rounds to give the
tracing overhead.  Details and the spans go to ``bench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "_out"
SETUP_REPEATS = 5
IDENTITIES = ("lemma1c", "lemma1d", "lemma1e", "prop1", "cor1a", "cor1b", "prop2", "cor5", "levyarea")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def checkout_root() -> Path:
    """The working directory, which must hold the idcalc sources."""
    root = Path.cwd()
    if not (root / "src" / "idcalc" / "__init__.py").is_file():
        sys.exit(f"error: no src/idcalc under {root}; run from the root of an idcalc checkout")
    return root


def setup_probe(args, root: Path) -> None:
    """Child mode: time ``import idcalc`` plus building the inputs."""
    t0 = time.process_time()
    workloads.build_inputs(args.workload, args.seed, root)
    print(time.process_time() - t0)


def measure_setup(args, root: Path) -> list:
    """Set-up CPU time of fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def fill_oracles(table) -> None:
    """Answer the ops' oracle requests in one child process, so that this
    process, whose peak memory is measured, never imports mpmath."""
    keys = list(table.requests)
    done = subprocess.run([sys.executable, str(HERE / "oracles.py")],
                          input=json.dumps([table.requests[k] for k in keys]),
                          capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        sys.exit(f"error: oracle computation failed:\n{done.stderr}")
    table.values = dict(zip(keys, json.loads(done.stdout)))


@dataclass
class Round:
    traced: bool
    latencies: list = field(default_factory=list)
    failed: int = 0
    wrong: int = 0
    verdict_fails: int = 0
    notes: list = field(default_factory=list)

    @property
    def cpu(self) -> float:
        return sum(self.latencies)


def run_round(ops, tracer=None) -> Round:
    """One pass over all operations; only the calls into idcalc are timed.

    Times are process CPU seconds (all threads), which a shared host's
    scheduling does not inflate the way it does wall-clock time.
    """
    rnd = Round(traced=tracer is not None)
    for op in ops:
        if op.prepare is not None:
            op.prepare()
        call = op.run if tracer is None else tracer.wrap(f"op.{op.kind}", op.run)
        t0 = time.process_time()
        try:
            out = call()
        except Exception:  # a raising operation is counted and the run goes on
            rnd.latencies.append(time.process_time() - t0)
            rnd.failed += 1
            rnd.notes.append((op.label, traceback.format_exc(limit=2).strip().splitlines()[-1]))
            continue
        rnd.latencies.append(time.process_time() - t0)
        try:
            ok, note = op.check(out)
        except Exception:
            ok, note = False, "check raised: " + traceback.format_exc(limit=2).strip().splitlines()[-1]
        if not ok:
            rnd.failed += 1
            rnd.wrong += 1
            rnd.notes.append((op.label, note))
        if op.verdict is not None and not op.verdict(out):
            rnd.verdict_fails += 1
        if tracer is not None:
            for key in ("values", "jumps", "samples"):
                tracer.add(key, op.extra.get(key, 0))
    return rnd


def run_rounds(ops, seconds: float, traced_run: bool, leaf_measures=()):
    """Whole rounds until the time is used; traced runs alternate U, T."""
    import tracing

    tracer = tracing.Tracer() if traced_run else None
    rounds = []
    t_begin = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        if traced_run and len(rounds) % 2 == 1:
            restore = tracing.instrument(tracer, leaf_measures)
            try:
                rounds.append(run_round(ops, tracer))
            finally:
                restore()
        else:
            rounds.append(run_round(ops))
        last = time.perf_counter() - r0
        enough = len(rounds) >= (2 if traced_run else 1)
        if enough and time.perf_counter() - t_begin + last > seconds:
            break
    return rounds, tracer


def op_medians(rounds) -> list:
    return [statistics.median(lat) for lat in zip(*(r.latencies for r in rounds))]


def end_to_end(rounds, setup_times) -> dict:
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "pass_cpu_s": {"value": statistics.median(r.cpu for r in rounds), "unit": "s"},
        # median over operations of each one's median over rounds: pooling all
        # latencies would put the median in the gap between two kinds of op
        "op_p50_cpu_s": {"value": statistics.median(op_medians(rounds)), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def per_layer(rounds, tracer, probes) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    n = len(traced)
    span = tracer.summary()
    cnt = lambda k: span.get(k, (0, 0.0, 0.0))[0] / n
    tot = lambda k: span.get(k, (0, 0.0, 0.0))[1] / n
    own = lambda prefix: sum(v[2] for k, v in span.items() if k.startswith(prefix)) / n
    count = lambda k: tracer.counts.get(k, 0) / n
    ratio = lambda a, b: a / b if b else 0.0

    leaf_calls = cnt("core.leaf") + cnt("core.char_exponent")
    sample_s = tot("simulate.sample_integral")
    jumps = count("jumps")
    cpu_u = statistics.median(r.cpu for r in plain)
    cpu_t = statistics.median(r.cpu for r in traced)
    m = {
        "core.leaf_calls": (leaf_calls, "count"),
        "core.leaf_s": (tot("core.leaf") + tot("core.char_exponent"), "s"),
        "core.leaf_calls_per_value": (ratio(leaf_calls, count("values")), "count"),
        "core.char_exponent_calls": (cnt("core.char_exponent"), "count"),
        "core.char_exponent_s": (tot("core.char_exponent"), "s"),
        "quadrature.calls": (cnt("quadrature.quad_real"), "count"),
        "quadrature.integrand_evals": (count("quadrature.integrand_evals"), "count"),
        "quadrature.tail_calls": (cnt("quadrature.tail_quad") + cnt("quadrature.head_quad"), "count"),
        "quadrature.self_s": (own("quadrature."), "s"),
        "families.load_s": (tot("families.load_measure"), "s"),
        "reports.validate_s": (tot("reports.validate_report"), "s"),
        "reports.validate_calls": (cnt("reports.validate_report"), "count"),
        "cli.self_s": (own("cli."), "s"),
        "factorization.cor5_s": (tot("factorization.verify_corollary5"), "s"),
        "factorization.interval_mass_calls": (cnt("core.interval_mass"), "count"),
        "simulate.sample_s": (sample_s, "s"),
        "simulate.jumps": (jumps, "count"),
        "simulate.ns_per_jump": (ratio(sample_s * 1e9, jumps), "ns"),
        "simulate.ecf_s": (tot("simulate.ecf"), "s"),
        "simulate.cf_test_s": (tot("simulate.cf_distance_test"), "s"),
        "simulate.samples": (count("samples"), "count"),
        "levyarea.self_s": (own("levyarea."), "s"),
        "trace.overhead_s": (cpu_t - cpu_u, "s"),
        "trace.overhead_pct": (100.0 * ratio(cpu_t - cpu_u, cpu_u), "%"),
    }
    for ident in IDENTITIES:
        m[f"verify.{ident}_s"] = (tot(f"op.{ident}"), "s")
    m.update(probes)
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = checkout_root()
    sys.path.insert(0, str(root / "src"))
    if args.setup_probe:
        setup_probe(args, root)
        return 0
    OUT.mkdir(exist_ok=True)
    if args.workload == "spec-cli":
        workloads.write_specs(args.seed, root)
    setup_times = [] if args.trace else measure_setup(args, root)

    inputs = workloads.build_inputs(args.workload, args.seed, root)
    table = workloads.OracleTable()
    ops = workloads.make_ops(args.workload, args.seed, root, inputs, table)
    fill_oracles(table)
    leaf_measures = inputs.values() if args.workload != "spec-cli" else ()
    rounds, tracer = run_rounds(ops, args.seconds, bool(args.trace), leaf_measures)

    if args.trace:
        import probes

        metrics = per_layer(rounds, tracer, probes.run_all())
        tracer.dump(OUT / f"trace-{args.workload}.npz")
    else:
        metrics = end_to_end(rounds, setup_times)
    attempted = len(ops) * len(rounds)
    failed = sum(r.failed for r in rounds)
    result = {
        "correct": not any(r.wrong for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": [{"traced": r.traced, "cpu_s": r.cpu, "failed": r.failed,
                    "program_verdict_fails": r.verdict_fails} for r in rounds],
        "setup_s": setup_times,
        "op_median_cpu_s": dict(zip((op.label for op in ops), op_medians(rounds))),
        "failures": sorted({f"{label}: {note}" for r in rounds for label, note in r.notes}),
        "result": result,
    }
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1), encoding="utf-8")
    verdicts = sum(r.verdict_fails for r in rounds)
    print(f"{args.workload}: {len(rounds)} rounds of {len(ops)} ops, {failed} failed, "
          f"program's own verdict failed on {verdicts}", file=sys.stderr)
    for line in details["failures"][:10]:
        print("  " + line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
