"""craig's benchmark: one workload, closed loop, one process and thread.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; craig is imported from its `src/`.
Set-up (a fresh-process import of craig, seeded input generation and the
six `craig repro` scenarios as a gate) is repeated and timed.  A self-test
then checks that each checker counts one corrupted output as one failure.
The timed part runs whole passes over the workload's instances, each
instance starting after the previous one has finished and been checked:
at least two passes, and as many as make the timed part closest to
--seconds.  The counts of every pass must agree.  With --trace 1 every
second pass records spans around each call into craig; per-layer times and
counts are per pass, and the untraced passes after the first give the
tracing overhead.  End-to-end metrics come from untraced passes only.

The last line of standard output is the result object; the line before it
records the run's provenance and sample counts.  Both, plus the spans of a
traced run, are also written under `.bench_results/`.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
REPROS = ("prop3.2", "prop3.3", "thm6.1", "prop7.1", "thm7.2", "thm5.4")
SETUP_REPEATS = 3
MIN_PASSES = 2  # untraced; a traced run needs 3: warm-up, traced, untraced

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import craig.cli; print(time.perf_counter() - t)"
)


def import_craig():
    if not (SRC / "craig" / "__init__.py").is_file():
        sys.exit(f"bench: no craig sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import craig

    if Path(craig.__file__).resolve().parent != SRC / "craig":
        sys.exit(f"bench: imported craig from {craig.__file__}, not from {SRC}")


def import_seconds():
    """Import time of craig in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def repro_gate():
    """Seconds per scenario; exits when a scenario does not exit 0."""
    from craig import cli

    took = {}
    for name in REPROS:
        captured = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(captured):
            code = cli.main(["repro", name])
        took[name] = time.perf_counter() - start
        if code != 0:
            sys.exit(f"bench: craig repro {name} exited {code}\n{captured.getvalue()}")
    return took


def run_pass(items, api, tracer=None):
    """One closed-loop pass over (ident, run, input) items."""
    counts, latencies, failures = Counter(), [], []
    started = time.perf_counter()
    for ident, run, inst in items:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                run(api, inst, counts)
            else:
                with tracer.instance_span(ident):
                    run(api, inst, counts)
        except Exception:  # any error fails the instance; the run goes on
            failures.append((ident, traceback.format_exc()))
        latencies.append(time.perf_counter() - t0)
    return {
        "seconds": time.perf_counter() - started,
        "latencies": latencies,
        "failures": failures,
        "counts": counts,
        "spans": tracer.spans if tracer else None,
    }


def self_test(api):
    """Problems found: a checker that does not count its corrupted output as
    exactly one failure."""
    from workloads import self_test_cases

    problems = []
    for what, (check, outputs) in self_test_cases(api).items():
        items = [(i, lambda _api, x, _counts: check(x), x) for i, x in enumerate(outputs)]
        result = run_pass(items, api)
        failed = [ident for ident, _ in result["failures"]]
        if failed != [1]:
            problems.append(f"self-test {what}: failed {failed}, expected [1]")
    return problems


def provenance(workload, seed, suffix):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30).stdout.strip()
    except OSError:
        commit = ""
    digest = hashlib.sha256()
    for path in sorted((SRC / "craig").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "atom_suffix": suffix,
        "commit": commit or None,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def median_by_key(dicts):
    keys = set().union(*dicts)
    return {k: statistics.median(d.get(k, 0) for d in dicts) for k in keys}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import_craig()
    import gen
    from tracing import Api, Tracer, summarize
    from workloads import WORKLOADS, instances

    suffix, order_rng = gen.naming(args.seed)
    setups, gates = [], []
    for _ in range(SETUP_REPEATS):
        seconds = import_seconds()
        t0 = time.perf_counter()
        items = instances(args.workload, suffix)
        seconds += time.perf_counter() - t0
        gates.append(repro_gate())
        setups.append(seconds + sum(gates[-1].values()))
    order_rng.shuffle(items)

    plain = Api()
    problems = self_test(plain)
    passes = []
    started = time.perf_counter()
    # Whole passes only; another pass starts if at least half of it fits.
    while len(passes) < MIN_PASSES + args.trace or (
        (time.perf_counter() - started) * (1 + 0.5 / len(passes)) < args.seconds
    ):
        tracer = Tracer() if args.trace and len(passes) % 2 else None
        api = Api(tracer) if tracer else plain
        passes.append(run_pass(items, api, tracer))

    untraced = [p for p in passes if p["spans"] is None]
    traced = [p for p in passes if p["spans"] is not None]
    failures = [f for p in passes for f in p["failures"]]
    for ident, tb in failures[:3]:
        print(f"bench: instance {ident} failed\n{tb}", file=sys.stderr)
    if any(p["counts"] != passes[0]["counts"] for p in passes):
        problems.append("counts differ between passes over the same inputs")

    attempted = len(items) * len(passes)
    latencies = sorted(x for p in untraced for x in p["latencies"])
    deciles = statistics.quantiles(latencies, n=10)
    measured = {
        "instances_per_s": statistics.median(len(items) / p["seconds"] for p in untraced),
        "latency_p50_ms": deciles[4] * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "verified_ratio": 1 - len(failures) / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    measured.update({f"cli.repro.{k}.s": v for k, v in median_by_key(gates).items()})
    measured.update(passes[0]["counts"])
    if traced:
        measured.update(median_by_key([summarize(p["spans"]) for p in traced]))
        # The first pass fills craig's caches, so it is left out here.
        measured["trace.overhead_ratio"] = (
            statistics.median(p["seconds"] for p in traced)
            / statistics.median(p["seconds"] for p in untraced[1:])
        )

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unlisted = sorted(set(measured) - listed)
    if unlisted:
        problems.append(f"measured but not listed in BENCHMARK.json: {unlisted}")
    for problem in problems:
        print("bench: " + problem, file=sys.stderr)
    record = provenance(args.workload, args.seed, suffix) | {
        "trace": args.trace,
        "draws": {part: gen.DRAWS[part] for part in WORKLOADS[args.workload]},
        "instances_per_pass": len(items),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "latency_samples": len(latencies),
        "setup_samples": len(setups),
        "problems": problems,
    }
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"record": record, "result": result,
                               "measured": measured,
                               "latencies": {"ids": [i for i, _, _ in items],
                                             "passes": [p["latencies"] for p in passes]},
                               "spans": [p["spans"] for p in traced]}))
    print(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
