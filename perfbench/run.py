"""gsdyn benchmark: three workloads driven through the `gsdyn` command.

    python3 perfbench/run.py --workload fit_wide --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; gsdyn is imported from its ``src/``.  The
workload's inputs are made from ``--seed`` (see workloads.py).  The run sets
the inputs up several times, repeats whole timed rounds for about
``--seconds``, checks every output of the first round (checks.py), and prints
one JSON line last on stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
rounds alternate between untraced and traced (tracing.py), the metrics are
per layer, and the spans go to ``.perfbench_runs/trace-<workload>-seed<n>.json``.
The check results go to stderr.
"""

import os

# one BLAS thread: each workload is one process, and a second BLAS thread widens
# the spread of N=1000 fit times (see README)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing
from checks import Check
from workloads import WORKLOADS, Commands, digest, fresh

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"


def set_up(workload, seed, work):
    """Makes the inputs ``workload.setup_repeats`` times; the first copy is used."""
    run = Commands()
    seconds, fit_seconds, digests, inputs = [], [], [], None
    for k in range(workload.setup_repeats):
        directory = fresh(work / f"setup{k}")
        start = time.perf_counter()
        made, fit_s = workload.setup(run, directory, seed)
        seconds.append(time.perf_counter() - start)
        if fit_s is not None:
            fit_seconds.append(fit_s)
        digests.append(digest(directory))
        if inputs is None:
            inputs = made
        else:
            shutil.rmtree(directory)
    if run.failed:
        raise RuntimeError(f"{run.failed} of {run.attempted} setup commands failed")
    same = Check("setup outputs identical across repeats", len(set(digests)) == 1, len(set(digests)), 1)
    return inputs, seconds, fit_seconds, same


def timed_rounds(workload, inputs, work, seconds, traced):
    """Repeats whole rounds (an untraced and a traced one when ``traced``) for about ``seconds``.

    Returns (commands, untraced rounds, [(traced round, tracer)], determinism check).
    """
    run = Commands()
    plain, tracers, digests = [], [], []

    def one(k, tracer=None):
        out = fresh(work / f"round{k}")
        if tracer is None:
            plain.append(workload.round(run, inputs, out))
        else:
            tracer.install()
            try:
                with tracer.span("bench.round"):
                    tracers.append((workload.round(run, inputs, out), tracer))
            finally:
                tracer.uninstall()
        digests.append(digest(out))
        if k:
            shutil.rmtree(out)

    start = time.perf_counter()
    lap_times = []
    while True:
        lap = time.perf_counter()
        one(len(digests))
        if traced:
            one(len(digests), tracing.Tracer())
        lap_times.append(time.perf_counter() - lap)
        if time.perf_counter() - start + statistics.median(lap_times) > seconds:
            break
    same = Check("round outputs identical across rounds", len(set(digests)) == 1, len(set(digests)), 1)
    return run, plain, tracers, same


def end_to_end(setup_seconds, fit_seconds, rounds):
    med = statistics.median
    fit = fit_seconds or [r.fit_s for r in rounds]
    values = {
        "setup_s": (med(setup_seconds), "s"),
        "fit_s": (med(fit), "s"),
        "pass_s": (med(r.pass_s for r in rounds), "s"),
        "rollout_gsteps_per_s": (sum(r.simulate_gsteps for r in rounds) / sum(r.simulate_s for r in rounds),
                                 "Gaussian-steps/s"),
        "render_fps": (sum(r.render_frames for r in rounds) / sum(r.render_s for r in rounds), "frames/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def traced_setup(workload, seed, work):
    """One traced setup; returns its tracer."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            workload.setup(Commands(), fresh(work / "setup-traced"), seed)
    finally:
        tracer.uninstall()
    return tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gsdyn" / "__init__.py").is_file():
        print(f"error: no gsdyn sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import gsdyn.cli  # noqa: F401  (imported here so that no timed phase pays for it)

    workload = WORKLOADS[args.workload]
    work = fresh(RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        inputs, setup_seconds, fit_seconds, setup_same = set_up(workload, args.seed, work)
        setup_tracer = traced_setup(workload, args.seed, work) if args.trace else None
        run, rounds, traced, rounds_same = timed_rounds(workload, inputs, work, args.seconds, args.trace)
        found = [setup_same, rounds_same, *workload.check(inputs, work / "round0")]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for c in found:
        print(c.line(), file=sys.stderr)

    if args.trace:
        metrics = tracing.per_layer(setup_tracer, statistics.median(setup_seconds), traced, rounds)
        trace_file = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w") as f:
            json.dump({
                "workload": args.workload, "seed": args.seed,
                "attempted": run.attempted, "failed": run.failed,
                "metrics": metrics, "missing": setup_tracer.missing,
                "spans": {"setup": setup_tracer.dump_spans(),
                          "rounds": [t.dump_spans() for _, t in traced]},
            }, f)
        print(f"spans and metrics written to {trace_file}", file=sys.stderr)
    else:
        metrics = end_to_end(setup_seconds, fit_seconds, rounds)
    print(json.dumps({
        "correct": all(c.ok for c in found),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
