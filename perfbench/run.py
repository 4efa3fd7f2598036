"""flagiso benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload iso_dense --seed 1 --seconds 20 --trace 0

Runs single-process and closed-loop: the next operation starts only after
the previous one returned (for ``cli``, one child process at a time).  With
``--trace 0`` it sets up the workload several times (setup_s is the median),
then issues whole passes over the workload's deck of operations for about
``--seconds`` seconds, checking every output outside the timed region.
With ``--trace 1`` it runs one fixed pass untraced, then sets up again and
runs the same pass with every public flagiso layer wrapped in spans, and
reports per-layer numbers.  Lines before the last one are a human-readable
report under the names used in perfbench/README.md; the last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# end-to-end metrics, emitted with --trace 0 by every workload.  Each
# workload defines its operation kinds a and b (``Workload.kinds``).
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "a_ms_p50": "ms",
    "a_ms_p90": "ms",
    "b_ms_p50": "ms",
    "b_ms_p90": "ms",
}

# per-layer metrics, emitted with --trace 1 by every workload (0 where a
# workload never enters the layer)
_CALLS_AND_SELF = (
    "groups.construct", "groups.left_coset", "modlinalg.solve_congruences",
    "cocycles.cohomologous", "cocycles.transport", "cocycles.is_corrector",
    "division.shift_conjugate", "division.iso_division", "algebras.realize",
    "algebras.check_grading", "algebras.invariants", "iso.iso_algebras",
    "iso.build_witness", "iso.verify_witness", "iso.canonical_form",
    "io.load_presentation",
)
PER_LAYER = {
    **{f"{layer}.{m}": u for layer in _CALLS_AND_SELF
       for m, u in (("calls", "count"), ("self_ms", "ms"))},
    "modlinalg.solve_congruences.rows": "count",
    "division.iso_division.hit_ratio": "ratio",
    "algebras.realize.per_query": "count",
    "algebras.realize.in_iso": "count",
    "algebras.realize.seed_formula": "count",
    "iso.verify_witness.pairs": "count",
    "iso.verify_witness.pairs_in_iso": "count",
    "iso.verify_witness.seed_formula": "count",
    "iso.certify_share": "ratio",
    "iso.classify.self_ms": "ms",
    "iso.classify.tuples": "count",
    "tables.enumerate_classes.self_ms": "ms",
    "tables.crosscheck.iso_calls": "count",
    "io.load_witness.self_ms": "ms",
    "io.save_witness.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.startup_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}

STARTUP_SAMPLES = 5

# Every time reported is converted to reference speed: multiplied by
# REF_MS / (the calibration loop's time measured next to it).  The machine
# the benchmark was built on (2 vCPUs) changes speed by up to 1.65x for
# seconds at a time.  The ratio of a call to the calibration loop next to it
# holds to about 1% for short in-memory calls and to 5-10% for long,
# memory-heavy calls and child processes.  REF_MS is the loop's time on that
# machine at its faster speed, so times at reference speed read as
# milliseconds there.
REF_MS = 0.21


def _pin_to_one_cpu() -> None:
    """Run this process, and so every child it starts, on one CPU, so that the
    calibration loop and the calls it calibrates run on the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _hermetic() -> None:
    """Import flagiso from this tree's src/ only, with no budget from the environment."""
    if not os.path.isfile(os.path.join(SRC, "flagiso", "__init__.py")):
        sys.exit(f"perfbench: no flagiso sources under {SRC}")
    sys.path.insert(0, SRC)
    os.environ.pop("FLAGISO_BUDGET", None)
    import flagiso

    if not os.path.abspath(flagiso.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported flagiso from {flagiso.__file__}, not from {SRC}")


# -- measuring ----------------------------------------------------------------------


def calibration() -> None:
    """Fixed pure-Python work (table, dict and tuple traffic like flagiso's
    inner loops), timed next to every measurement to read the machine's speed."""
    table = [[(x * 7 + y) % 24 for y in range(24)] for x in range(24)]
    seen: dict = {}
    for _ in range(2):
        for x in range(24):
            row = table[x]
            for y in range(24):
                key = (row[y], x)
                seen[key] = seen.get(key, 0) + 1


def reference_ms() -> float:
    t0 = perf_counter()
    calibration()
    return (perf_counter() - t0) * 1e3


def run_op(op):
    """Run one operation; returns (seconds, failure reason or None)."""
    start = perf_counter()
    try:
        result = op.run()
    except Exception as e:  # an unexpected exception is a failed operation
        return perf_counter() - start, f"{type(e).__name__}: {e}"
    elapsed = perf_counter() - start
    try:
        return elapsed, op.check(result)
    except Exception as e:
        return elapsed, f"check raised {type(e).__name__}: {e}"


def timed_at_reference(fn) -> float:
    """Run fn between two calibration runs; returns its time in ms at reference speed."""
    gc.collect()
    before = reference_ms()
    t0 = perf_counter()
    fn()
    ms = (perf_counter() - t0) * 1e3
    return ms * REF_MS / ((before + reference_ms()) / 2)


def one_pass(ops, before_op=None):
    """Run every op once; returns [(ms at reference speed, failure)] and the
    pass's speed factor (REF_MS over the median calibration time).

    A collection before each op gives every call the same collector state,
    so garbage left by one call is never collected on the next call's time.
    """
    runs = []
    refs = []
    for i, op in enumerate(ops):
        if before_op is not None:
            before_op(i)
        gc.collect()
        refs.append(reference_ms())
        dt, err = run_op(op)
        refs.append(reference_ms())
        runs.append((dt * 1e3 * REF_MS / ((refs[-2] + refs[-1]) / 2), err))
    return runs, REF_MS / statistics.median(refs)


def measure(ops, seconds: float):
    """Whole passes over ops until another pass would end after ``seconds``.

    Returns, per operation, its time at reference speed on every pass, and
    the failures.  Stopping only between passes keeps the mix of operations
    the same in every run.
    """
    times = [[] for _ in ops]
    failures = []
    start = perf_counter()
    passes = 0
    while True:
        runs, _ = one_pass(ops)
        for i, (ms, err) in enumerate(runs):
            times[i].append(ms)
            if err:
                failures.append((ops[i].label, err))
        passes += 1
        elapsed = perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            return times, failures


def p50(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# -- the two kinds of run -------------------------------------------------------------


def end_to_end(workload, seconds: float) -> dict:
    """Set-up time and per-kind latency percentiles over the deck's operations.

    An operation's latency is the median over passes of its time at
    reference speed; the percentiles are taken over the deck's operations.
    """
    setups = [timed_at_reference(workload.setup) / 1e3 for _ in range(workload.setup_repeats)]
    workload.prepare()
    ops = workload.deck()
    workload.warm_up()
    gc.collect()
    gc.freeze()  # the inputs live all run; keep them out of every collection
    try:
        times, failures = measure(ops, seconds)
    finally:
        gc.unfreeze()

    per_op = [statistics.median(t) for t in times]
    ms = {k: [t for op, t in zip(ops, per_op) if op.kind == k] for k in "ab"}
    work = [(op.weight, t / 1e3) for op, t in zip(ops, per_op)
            if op.kind in workload.throughput_kinds]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": sum(w for w, _ in work) / sum(t for _, t in work),
        "a_ms_p50": p50(ms["a"]),
        "a_ms_p90": p90(ms["a"]),
        "b_ms_p50": p50(ms["b"]),
        "b_ms_p90": p90(ms["b"]),
    }
    attempted = sum(len(t) for t in times)
    report = workload_report(workload, metrics, ms, len(times[0]), attempted, failures)
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "report": report, "selfcheck": []}


def traced(workload) -> dict:
    """Per-layer numbers from one traced pass over the workload's trace deck.

    The same pass also runs untraced first, for the tracing overhead.
    """
    from tracer import Tracer

    workload.setup()
    workload.prepare()
    ops = workload.trace_deck()
    for op in ops:  # warm-up, so neither timed pass pays first-call costs
        run_op(op)
    gc.collect()
    untraced, _ = one_pass(ops)

    tracer = Tracer()
    tracer.install()
    selfcheck = [f"unwrapped binding left: {b}" for b in tracer.unwrapped_bindings()]
    try:
        workload.setup()  # traced, so group construction is measured; inputs are identical
        gc.collect()
        traced_runs, speed = one_pass(
            ops, before_op=lambda qi: setattr(tracer, "current_query", qi))
    finally:
        tracer.uninstall()
    s = tracer.summary()

    issued = sum(op.queries for op in ops)
    if s["direct_iso_calls"] != issued:
        selfcheck.append(f"iso_algebras called {s['direct_iso_calls']} times for {issued} queries")

    calls = s["calls"]
    c = lambda layer: calls.get(layer, 0)  # noqa: E731
    self_ms = {layer: t * speed for layer, t in s["self_ms"].items()}  # at reference speed
    metrics = {}
    for layer in _CALLS_AND_SELF:
        metrics[f"{layer}.calls"] = c(layer)
        metrics[f"{layer}.self_ms"] = self_ms.get(layer, 0.0)
    t_untraced = sum(ms for ms, _ in untraced)
    t_traced = sum(ms for ms, _ in traced_runs)
    divisions = c("division.iso_division")
    metrics.update({
        "modlinalg.solve_congruences.rows": tracer.solve_rows,
        "division.iso_division.hit_ratio": tracer.division_hits / divisions if divisions else 0.0,
        "algebras.realize.per_query":
            c("algebras.realize") / c("iso.iso_algebras") if c("iso.iso_algebras") else 0.0,
        "algebras.realize.in_iso": s["realize_in_iso"],
        "algebras.realize.seed_formula": s["realize_seed_formula"],
        "iso.verify_witness.pairs": s["verify_pairs"],
        "iso.verify_witness.pairs_in_iso": s["verify_pairs_in_iso"],
        "iso.verify_witness.seed_formula": s["verify_pairs_seed_formula"],
        "iso.certify_share": s["certify_share"],
        "iso.classify.self_ms": self_ms.get("iso.classify", 0.0),
        "iso.classify.tuples": tracer.classify_tuples,
        "tables.enumerate_classes.self_ms": self_ms.get("tables.enumerate_classes", 0.0),
        "tables.crosscheck.iso_calls": s["crosscheck_iso_calls"],
        "io.load_witness.self_ms": self_ms.get("io.load_witness", 0.0),
        "io.save_witness.self_ms": self_ms.get("io.save_witness", 0.0),
        "cli.main.self_ms": self_ms.get("cli.main", 0.0),
        "cli.startup_ms": cli_startup_ms(workload) if workload.name == "cli" else 0.0,
        "trace.spans": s["spans"],
        "trace.overhead_pct": (t_traced - t_untraced) / t_untraced * 100 if t_untraced else 0.0,
    })

    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"trace-{workload.name}-seed{workload.seed}.tsv.gz")
    tracer.write(spans_path)

    labels = [op.label for op in ops]
    failures = [(labels[i], err) for runs in (untraced, traced_runs)
                for i, (_, err) in enumerate(runs) if err]
    report = [
        f"traced run of {workload.name}, seed {workload.seed}: {len(ops)} operations, "
        f"{s['spans']} spans written to {os.path.relpath(spans_path, ROOT)}",
        f"untraced pass {t_untraced / 1e3:.3f} s, traced pass {t_traced / 1e3:.3f} s "
        "at reference speed",
    ]
    for fact, formula in (("algebras.realize.in_iso", "algebras.realize.seed_formula"),
                          ("iso.verify_witness.pairs_in_iso", "iso.verify_witness.seed_formula")):
        if metrics[fact] != metrics[formula]:
            report.append(f"note: {fact} = {metrics[fact]} differs from "
                          f"{formula} = {metrics[formula]} (engine changed since the seed)")
    report += [f"selfcheck FAILED: {m}" for m in selfcheck]
    return {"metrics": metrics, "attempted": 2 * len(ops), "failures": failures,
            "report": report, "selfcheck": selfcheck}


def cli_startup_ms(workload) -> float:
    """Median time of `python -m flagiso --help`: interpreter start plus import."""
    def child():
        subprocess.run([sys.executable, "-m", "flagiso", "--help"], cwd=ROOT, env=workload.env,
                       capture_output=True, timeout=120, check=False)

    return statistics.median(timed_at_reference(child) for _ in range(STARTUP_SAMPLES))


# -- reporting ------------------------------------------------------------------------


def workload_report(workload, metrics, ms, passes, attempted, failures) -> list[str]:
    """The metrics under the names of perfbench/README.md, with sample counts."""
    name_a, name_b = workload.kinds["a"], workload.kinds["b"]
    lines = [
        f"{workload.name} seed {workload.seed}: {len(ms['a']) + len(ms['b'])} operations x "
        f"{passes} passes; times in ms at reference speed (REF_MS = {REF_MS})",
        f"setup_s {metrics['setup_s']:.6f} s (median of {workload.setup_repeats})",
        f"{name_a}_ms_p50 {metrics['a_ms_p50']:.3f} ms (n={len(ms['a'])})",
        f"{name_a}_ms_p90 {metrics['a_ms_p90']:.3f} ms (n={len(ms['a'])})",
        f"{name_b}_ms_p50 {metrics['b_ms_p50']:.3f} ms (n={len(ms['b'])})",
        f"{name_b}_ms_p90 {metrics['b_ms_p90']:.3f} ms (n={len(ms['b'])})",
        f"{workload.throughput_name} {metrics['throughput_per_s']:.3f} 1/s",
    ]
    if workload.name == "classify":
        lines.append(f"enumerate_set_s {sum(ms['b']) / 1e3:.4f} s")
    if workload.name == "cli":
        every = ms["a"] + ms["b"]
        lines.append(f"cli_ms_p50 {p50(every):.3f} ms (n={len(every)})")
        lines.append(f"cli_ms_p90 {p90(every):.3f} ms (n={len(every)})")
    lines.append(f"fail_frac {len(failures) / attempted:.6f} ratio ({len(failures)}/{attempted})")
    return lines


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        small: bool = False, inject_wrong: bool = False) -> dict:
    """One benchmark run; returns the result object and the report lines."""
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](ROOT, seed, small=small, inject_wrong=inject_wrong)
    try:
        out = traced(workload) if trace else end_to_end(workload, seconds)
    finally:
        workload.close()
    units = PER_LAYER if trace else END_TO_END
    failures = out["failures"]
    report = out["report"] + [f"FAILED {label}: {err}" for label, err in failures[:20]]
    return {
        "result": {
            "correct": not failures and not out["selfcheck"],
            "attempted": out["attempted"],
            "failed": len(failures),
            "metrics": {k: {"value": out["metrics"][k], "unit": u} for k, u in units.items()},
        },
        "report": report,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("iso_dense", "iso_wide", "classify", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _hermetic()
    _pin_to_one_cpu()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in out["report"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
