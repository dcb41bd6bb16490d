"""hahnsat benchmark: one workload per run, from a single process.

    python3 bench/run.py --workload realize-group --seed 0 --seconds 20 --trace 0

With --trace 0 it times items of the workload for --seconds (whole passes
for workloads of fixed traffic), checks every item's output, and prints the
end-to-end metrics.  With --trace 1 it runs each item untraced and then
with the tracer installed, for --seconds, and prints the per-layer metrics;
the spans go to .bench_out/.  For cli-fixtures both runs call cli.main in
this process, and children time the interpreter and imports.  The last
line of stdout is always one JSON object: correct, attempted, failed,
metrics.

Times are scaled to a nominal machine speed.  On a shared host the same
work takes up to 40% longer in slow phases that last minutes, longer than
a run.  A fixed loop, timed after every item, measures the speed; each
item's wall time is multiplied by REFERENCE_NOMINAL_S over the median loop
time around it.  Wall-clock values are printed on the `#` lines.

hahnsat is imported from this checkout's src/ (children get PYTHONPATH).
"""

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("realize-group", "tail-field", "qe-basis", "cli-fixtures")
SETUP_SAMPLES = 5  # setup_s is the median of this many set-ups
TAIL_BEYOND = 10  # item_s.tail leaves this many samples above it
PROBE_TIMEOUT_S = 150
REFERENCE_NOMINAL_S = 0.008  # the loop's time at the speed times scale to
REFERENCE_WINDOW = 4  # items on each side whose loop times scale an item


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def reference_s():
    """Wall time of a fixed pure-Python loop, about 8 ms."""
    t0 = perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return perf_counter() - t0


def set_up(name, seed):
    """Imports, input generation and the untimed warm-up; returns the
    workload, and the set-up's wall and scaled seconds."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import hahnsat
    import workloads

    if Path(hahnsat.__file__).resolve().parent != SRC / "hahnsat":
        raise SystemExit(f"hahnsat imported from {hahnsat.__file__}, "
                         f"not from {SRC}")
    wl = workloads.WORKLOADS[name](ROOT, seed)
    wl.warm_up()
    wall = perf_counter() - t0
    ref = statistics.median(reference_s() for _ in range(10))
    return wl, wall, wall * REFERENCE_NOMINAL_S / ref


def setup_probe(name, seed):
    """One set-up in a fresh interpreter, as this run's own was."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, check=True, timeout=PROBE_TIMEOUT_S)
    return json.loads(proc.stdout.decode().splitlines()[-1])


def timed_phase(wl, seconds, step):
    """step(item) for items in order, cycling, until `seconds` have passed,
    or for a fixed number of whole passes (see Workload.pass_s)."""
    if wl.pass_s is not None:
        passes = max(1, round(seconds / wl.pass_s))
        return [step(item) for _ in range(passes) for item in wl.items]
    records = []
    start = perf_counter()
    for item in itertools.cycle(wl.items):
        records.append(step(item))
        if perf_counter() - start >= seconds:
            return records


def timed(wl, run, item):
    """Seconds that run(item) took, the verdict on its (untimed) check, and
    the reference loop's time right after."""
    t0 = perf_counter()
    outcome = run(item)
    dt = perf_counter() - t0
    return dt, wl.check(item, outcome), reference_s()


def scaled_times(records):
    """Each item's wall time at the nominal speed, by the median loop time
    of the items around it."""
    refs = [ref for _, _, ref in records]
    return [dt * REFERENCE_NOMINAL_S / statistics.median(
                refs[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 1])
            for i, (dt, _, _) in enumerate(records)]


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def end_to_end(records, setup_s, rss_mb):
    times = sorted(scaled_times(records))
    wall = sorted(dt for dt, _, _ in records)
    n = len(times)
    k = max(1, n - TAIL_BEYOND)
    failed = sum(v.failed for _, v, _ in records)
    decided = sum(v.decided for _, v, _ in records)
    print(f"# item_s.tail is the {100 * k / n:.1f}th percentile of {n} "
          f"items ({n - k} beyond it)")
    print(f"# failed_frac {failed / n:.6g} ({failed} of {n})")
    print(f"# wall clock: item_s.p50 {statistics.median(wall):.6g} s, "
          f"item_s.tail {wall[k - 1]:.6g} s, "
          f"items_per_s {n / sum(wall):.6g} 1/s")
    return {
        "setup_s": (setup_s, "s"),
        "item_s.p50": (statistics.median(times), "s"),
        "item_s.tail": (times[k - 1], "s"),
        "items_per_s": (n / sum(times), "1/s"),
        "passed_frac": ((n - failed) / n, "ratio"),
        "decided_frac": (decided / n, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def cli_probes(wl):
    """Interpreter plus `import hahnsat` wall time (median of three), and
    sympy's cumulative import time in a realize child (-X importtime)."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import hahnsat"], cwd=ROOT,
                       env=wl.env, check=True, timeout=PROBE_TIMEOUT_S)
        times.append(perf_counter() - t0)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "hahnsat.cli",
         *wl.items[0][0]],  # realize residue_sqrt2.type
        cwd=ROOT, env=wl.env, capture_output=True, timeout=PROBE_TIMEOUT_S)
    for line in proc.stderr.decode().splitlines():
        cols = line.split("|")
        if len(cols) == 3 and cols[2].strip() == "sympy":
            return statistics.median(times), int(cols[1]) / 1e6
    raise RuntimeError("the realize child did not import sympy")


def traced_run(name, wl, seconds):
    """Each item untraced, then traced, back to back, so that drifts in
    machine speed cancel in the overhead; the wrappers are restored (and
    that asserted) before every untraced run.  Returns the per-layer
    values, the verdicts of every run and the span records."""
    import tracer

    run = wl.run_in_process if name == "cli-fixtures" else wl.run
    if name == "cli-fixtures":
        for item in wl.items:  # warm-up: lazy imports, caches
            wl.check(item, run(item))
    t = tracer.Tracer()
    item_ids = itertools.count()

    def paired(item):
        plain = timed(wl, run, item)[:2]
        t.item = next(item_ids)
        t.install()
        try:
            t0 = perf_counter()
            outcome = run(item)
            dt = perf_counter() - t0
        finally:
            t.restore()
        verdict = wl.check(item, outcome)
        if verdict.report:
            t.add_report(verdict.report)
        return plain, (dt, verdict)

    pairs = timed_phase(wl, seconds, paired)
    untraced_s = sum(plain[0] for plain, _ in pairs)
    traced_s = sum(traced[0] for _, traced in pairs)
    values = t.layer_values()
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    # only cli-fixtures starts interpreters
    values["cli.import_s"], values["cli.sympy_import_s"] = \
        cli_probes(wl) if name == "cli-fixtures" else (0.0, 0.0)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise RuntimeError(f"per-layer metrics not recorded: {missing}")
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in listed}
    verdicts = [v for pair in pairs for _, v in pair]
    return metrics, verdicts, t.span_records()


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, timeout=PROBE_TIMEOUT_S)
    except FileNotFoundError:  # no git installed
        return None
    return proc.stdout.decode().strip() or None


def metadata(args, load_start):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "sympy": importlib.metadata.version("sympy"),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "reference_nominal_s": REFERENCE_NOMINAL_S,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hahnsat" / "__init__.py").is_file():
        print(f"error: no hahnsat package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(set_up(args.workload, args.seed)[1:]))
        return 0
    load_start = os.getloadavg()
    wl, *setup = set_up(args.workload, args.seed)

    if args.trace:
        metrics, verdicts, spans = traced_run(args.workload, wl, args.seconds)
    else:
        records = timed_phase(wl, args.seconds,
                              lambda item: timed(wl, wl.run, item))
        rss = peak_rss_mb(children=args.workload == "cli-fixtures")
        setups = [setup] + [setup_probe(args.workload, args.seed)
                            for _ in range(SETUP_SAMPLES - 1)]
        print(f"# setup_s samples, wall and scaled: {setups}")
        print(f"# reference loop median "
              f"{statistics.median(r for _, _, r in records):.6g} s "
              f"(nominal {REFERENCE_NOMINAL_S} s)")
        metrics = end_to_end(records, statistics.median(
            scaled for _, scaled in setups), rss)
        verdicts = [v for _, v, _ in records]

    meta = metadata(args, load_start)
    print("# meta " + json.dumps(meta))
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"meta": meta, "spans": spans,
                                    "metrics": metrics}))
        print(f"# spans: {len(spans)} written to "
              f"{path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        # a crash is a failure without an output; correct means no output
        # that was produced is wrong
        "correct": not any(v.failed and not v.crashed for v in verdicts),
        "attempted": len(verdicts),
        "failed": sum(v.failed for v in verdicts),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
