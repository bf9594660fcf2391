"""Benchmark of schemeforge: four workloads, timed at the package's public calls.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload once
    python3 perfbench/run.py --workload search --runs 5         # steadiness report

With one workload and one run, the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` gives the per-layer metrics of a traced
run.  With ``--workload all`` or ``--runs N`` the command runs each workload
N times as child processes, one at a time, and prints the median and the
quartiles of every end-to-end metric next to its bound in BENCHMARK.json.
README.md in this directory describes the workloads and the metrics.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("verify", "lattice", "search", "cli")
SETUP_REPEATS = 3      # setup_s is the median of this many set-ups
MIN_JOBS = 100         # so that at least 10 timed jobs lie beyond job_p90_ms
CLI_INTERPRETER_RUNS = 5
# The machine's speed drifts by +-20% over minutes (README.md, "Steadiness").
# Library jobs are therefore timed against a fixed pure-Python loop run between
# jobs: a latency is reported as it would be on a machine where the loop takes
# REFERENCE_LOOP_S.
REFERENCE_LOOP_S = 1.5e-3


def loop_seconds() -> float:
    """Best of 3 timings of a fixed pure-Python loop: the machine's current speed."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        best = min(best, perf_counter() - t0)
    return best


def _import_program():
    """Import schemeforge from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "schemeforge", "__init__.py")):
        sys.exit(f"run.py: no schemeforge sources under {SRC}")
    sys.path.insert(0, SRC)
    import schemeforge

    if not os.path.abspath(schemeforge.__file__).startswith(SRC + os.sep):
        sys.exit(f"run.py: imported schemeforge from {schemeforge.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# running rounds of jobs

class Stats:
    def __init__(self):
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.timed_s = 0.0
        self.wrong: list[str] = []

    def jobs_per_s(self) -> float:
        return len(self.latencies_ms) / self.timed_s


def run_rounds(jobs, tracer, seconds: float = 0.0, min_jobs: int = 0, scaled: bool = False) -> Stats:
    """Run whole rounds until `seconds` have passed (stopping at the round end
    nearest to it) and at least `min_jobs` jobs were timed.  With `scaled`,
    each job's time is scaled to the reference speed by the mean of the loop
    timings just before and just after it."""
    stats = Stats()
    start = perf_counter()
    scale, before = 1.0, loop_seconds() if scaled else 0.0
    while True:
        round_start = perf_counter()
        for job in jobs:
            stats.attempted += 1
            failure = None
            t0 = perf_counter()
            try:
                with tracer.span("job", job.family):
                    out = job.call(tracer)
            except Exception as exc:       # a failed job is counted, and the run goes on
                failure = exc
            t1 = perf_counter()
            if scaled:
                after = loop_seconds()
                scale, before = 2 * REFERENCE_LOOP_S / (before + after), after
            stats.timed_s += (t1 - t0) * scale
            if failure is not None:
                stats.failed += 1
                if job.expected_failure is None or not isinstance(failure, job.expected_failure):
                    print(f"unexpected failure in a {job.family} job:", file=sys.stderr)
                    traceback.print_exception(failure, file=sys.stderr)
                continue
            stats.latencies_ms.append(1000 * (t1 - t0) * scale)
            try:
                job.check(out)
            except AssertionError as exc:  # CheckFailure
                stats.wrong.append(f"{job.family}: {exc}")
        now = perf_counter()
        if len(stats.latencies_ms) >= min_jobs and (now - start) + (now - round_start) / 2 >= seconds:
            return stats


def set_up(workload: str, seed: int, tracer, workdir: str):
    """Build one round of the workload and, for a library workload, warm up."""
    import workloads as wl
    from tracing import NULL

    if workload == "cli":
        return wl.setup_cli(seed, tracer, workdir)
    jobs = wl.SETUP[workload](seed, tracer)
    for family in wl.WARM_UP[workload]:
        next(job for job in jobs if job.family == family).call(NULL)
    return jobs


def _result(stats_list, metrics) -> dict:
    wrong = [w for s in stats_list for w in s.wrong]
    for w in wrong[:20]:
        print(f"WRONG OUTPUT {w}", file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": sum(s.attempted for s in stats_list),
        "failed": sum(s.failed for s in stats_list),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def measure(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    """An untraced run: the end-to-end metrics."""
    from tracing import NULL

    import_s = perf_counter() - T0
    setups = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        jobs = set_up(workload, seed, NULL, workdir)
        setups.append(perf_counter() - t)
    stats = run_rounds(jobs, NULL, seconds, MIN_JOBS, scaled=workload != "cli")
    q = statistics.quantiles(stats.latencies_ms, n=10, method="inclusive")
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    print(f"{workload} seed={seed}: {stats.attempted // len(jobs)} rounds of {len(jobs)} jobs, "
          f"{stats.timed_s:.1f} s timed", file=sys.stderr)
    return _result([stats], {
        "jobs_per_s": (stats.jobs_per_s(), "1/s"),
        "job_p50_ms": (q[4], "ms"),
        "job_p90_ms": (q[8], "ms"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    })


# ---------------------------------------------------------------------------
# the traced run

def _span_metrics(wl):
    """(metric, span name, tags or None for all) for the median self time per call."""
    return [
        ("scheme.build_scheme.hamming_ms", "scheme.build_scheme", ("hamming",)),
        ("scheme.build_scheme.group_ms", "scheme.build_scheme", ("group",)),
        ("scheme.build_scheme.partition_ms", "scheme.build_scheme", ("partition",)),
        ("scheme.build_scheme.product_ms", "scheme.build_scheme", ("product",)),
        ("scheme.build_scheme.product_441_ms", "scheme.build_scheme", ("product-441",)),
        ("scheme.build_scheme.reject_ms", "scheme.build_scheme", ("refuse",)),
        ("realize.to_hypergroup.ms", "realize.to_hypergroup", wl.VERIFY_TAGS),
        ("realize.to_hypergroup.group_ms", "realize.to_hypergroup", ("group",)),
        ("scheme.closed_subsets.ms", "scheme.closed_subsets", None),
        ("scheme.closed_subsets.f64-f4_ms", "scheme.closed_subsets", ("F64/F4",)),
        ("hypergroup.sub_hypergroups.ms", "hypergroup.sub_hypergroups", None),
        ("scheme.is_normal_closed.ms", "scheme.is_normal_closed", None),
        ("scheme.quotient_scheme.ms", "scheme.quotient_scheme", None),
        ("hypergroup.quotient_hypergroup.ms", "hypergroup.quotient_hypergroup", None),
        ("realize.search_realization.found_ms", "realize.search_realization", wl.FOUND_FAMILIES),
        ("realize.search_realization.exhausted_ms", "realize.search_realization", wl.EMPTY_FAMILIES),
        ("constructions.gf_ring.ms", "constructions.gf_ring", None),
        ("constructions.partition_scheme.ms", "constructions.partition_scheme", None),
        ("constructions.hamming_scheme.ms", "constructions.hamming_scheme", None),
        ("constructions.group_scheme.ms", "constructions.group_scheme", None),
    ]


CLI_KEYS = ("catalog", "verify", "hyper", "sub", "triangle_holds", "triangle_fails", "search",
            "export", "build", "quotient", "product", "geometry")
SAMPLE_MEDIANS = (
    [f"realize.search_realization.n{k}_ms" for k in range(3, 9)]
    + ["cli.interpreter_ms", "cli.import_ms", "catalog.catalog_scheme.cold_ms"]
    + [f"cli.run.{key}_ms" for key in CLI_KEYS]
)
SAMPLE_SUMS = ("scheme.closed_subsets.found", "hypergroup.sub_hypergroups.found",
               "realize.search_realization.leaves")


def traced(workload: str, seed: int, workdir: str) -> dict:
    """One round of every workload with spans on, so that every traced run
    reports every layer; `workload` only names the trace file."""
    import workloads as wl
    from tracing import Tracer, span_cost_s

    tracer = Tracer()
    rounds = {w: set_up(w, seed, tracer, workdir) for w in WORKLOADS}
    first_span = len(tracer.spans)
    stats = {w: run_rounds(rounds[w], tracer) for w in WORKLOADS}
    spans = len(tracer.spans) - first_span
    for _ in range(CLI_INTERPRETER_RUNS):
        tracer.sample("cli.interpreter_ms", wl.cli_interpreter_ms())
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"))

    metrics = {}
    for name, span, tags in _span_metrics(wl):
        metrics[name] = (tracer.median_self_ms(span, tags), "ms")
    for name in SAMPLE_MEDIANS:
        metrics[name] = (statistics.median(tracer.samples[name]), "ms")
    for name in SAMPLE_SUMS:
        metrics[name] = (sum(tracer.samples[name]), "count")
    metrics["realize.search_realization.us_per_leaf"] = (
        1e6 * sum(tracer.samples["leaf_heavy.s"]) / sum(tracer.samples["leaf_heavy.leaves"]), "us")
    # the machine's speed drifts far more than spans cost, so the overhead is
    # the measured cost of one span times the spans recorded, not the
    # difference between a traced and an untraced round
    cost = span_cost_s()
    metrics["trace.span_us"] = (1e6 * cost, "us")
    metrics["trace.overhead_pct"] = (100 * spans * cost / sum(s.timed_s for s in stats.values()), "%")
    return _result(list(stats.values()), metrics)


# ---------------------------------------------------------------------------
# several runs: the steadiness report

def _quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return med, q1, q3


def report(workloads, seed: int, runs: int, seconds: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    summary = {}
    for w in workloads:
        results = []
        for i in range(runs):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
                   "--seed", str(seed + i), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
            if proc.returncode != 0:
                sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        print(f"\n{w}: {runs} runs, seeds {seed}..{seed + runs - 1}, "
              f"correct={all(r['correct'] for r in results)}, failed/attempted {', '.join(shares)}")
        print(f"  {'metric':12} {'unit':5} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
        rows = {}
        for name, m in spec.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3 = _quartiles(values)
            spread = (q3 - q1) / med
            rows[name] = {"values": values, "median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {name:12} {m['unit']:5} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{100 * spread:6.1f}% {100 * m['bound']:5.0f}%")
        summary[w] = {"seeds": [seed, seed + runs - 1], "correct": all(r["correct"] for r in results),
                      "failed_shares": shares, "metrics": rows}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"report-{'-'.join(workloads)}-seed{seed}x{runs}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"\nwritten to {os.path.relpath(path, ROOT)}")
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload; above 1 (or with --workload all) prints the report")
    args = parser.parse_args()
    _import_program()
    sys.path.insert(0, HERE)

    if args.workload == "all" or args.runs > 1:
        if args.trace:
            parser.error("the report runs untraced; trace one workload at a time")
        chosen = WORKLOADS if args.workload == "all" else (args.workload,)
        print(json.dumps(report(chosen, args.seed, args.runs, args.seconds)))
        return

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            result = traced(args.workload, args.seed, workdir)
        else:
            result = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
