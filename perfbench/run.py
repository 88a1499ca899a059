"""Benchmark of riskbound: four closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; riskbound is imported from its ``src``
directory, never from an installed copy.  One caller in one thread runs whole
rounds of operations until ``--seconds`` have passed, checks every output
against the independent values in ``reference.py``, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of ``tracing.py`` with ``--trace 1``.  See README.md for the workloads, the
metrics and how their bounds were set.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

WORKLOADS = ("catalog-analytic", "numeric-hull", "verify", "report")
#: fresh interpreters timed per run for setup_s, after one untimed start
SETUP_PROBES = 5
#: percentiles considered for the printed tail, highest first
TAILS = (99.9, 99.0, 90.0)


def import_riskbound():
    """Import riskbound from the checkout; return (package, cli, seconds)."""
    if not os.path.isfile(os.path.join(SRC, "riskbound", "__init__.py")):
        raise SystemExit(f"riskbound sources not found under {SRC}")
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import riskbound
    from riskbound import cli
    seconds = perf_counter() - t0
    if not os.path.abspath(riskbound.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"riskbound was imported from {riskbound.__file__}, not {SRC}")
    return riskbound, cli, seconds


def round_maker(workload: str, seed: int, csv_path: str, write: bool = True):
    """The function (seed, k) -> operations of round k of a workload."""
    import workloads as W

    if workload == "catalog-analytic":
        return W.catalog_analytic_round
    if workload == "numeric-hull":
        return W.numeric_hull_round
    if workload == "verify":
        return W.verify_round
    inputs = W.ReportInputs(seed, csv_path, write)
    return lambda s, k: W.report_round(inputs, s, k)


def setup_probe(workload: str, seed: int):
    """Child process: import riskbound, build the inputs, report, exit."""
    rb, cli, import_s = import_riskbound()
    import workloads as W

    W.bind(rb, cli)
    round_maker(workload, seed, os.path.join(OUT, "returns.csv"), write=False)(seed, 0)
    print(f"ready {import_s!r}", flush=True)


class SetupProbes:
    """Fresh interpreters, started one at a time, each timed to inputs ready.

    The timed starts are spread over the run, between rounds, so that the
    median samples the machine over the whole run, not over its first
    seconds.  The first start is untimed: it also writes the bytecode caches.
    """

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                    "--workload", workload, "--seed", str(seed)]
        self.setups, self.imports = [], []
        self.start(timed=False)

    def start(self, timed=True):
        t0 = perf_counter()
        with subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or not line.startswith("ready "):
            raise SystemExit(f"setup probe failed with exit code {code}")
        if timed:
            self.setups.append(t1 - t0)
            self.imports.append(float(line.split()[1]))

    def result(self):
        """Median (setup_s, import_s), after starting any probes still due."""
        while len(self.setups) < SETUP_PROBES:
            self.start()
        return statistics.median(self.setups), statistics.median(self.imports)


def tail_percentile(latencies):
    """(percentile, value) of the highest percentile with 10+ samples beyond it."""
    n = len(latencies)
    for p in TAILS:
        if n * (100.0 - p) / 100.0 >= 10.0:
            ordered = sorted(latencies)
            return p, ordered[min(n - 1, int(round(p / 100.0 * n)))]
    return None, None


class Run:
    """Closed loop over whole rounds; one caller, outputs checked per op."""

    def __init__(self, make_round, seed, tracer=None):
        self.make_round, self.seed, self.tracer = make_round, seed, tracer
        self.attempted = self.failed = 0
        self.unexpected = []          # failures outside the named defects
        self.latencies = []           # untraced timed operations
        self.round_rates = {False: [], True: []}   # by traced
        self.next_op = 0

    def round(self, k, ops, timed, traced):
        total = 0.0
        if traced:
            self.tracer.install()
        try:
            for op in ops:
                if traced:
                    self.tracer.begin_op(self.next_op)
                self.next_op += 1
                t0 = perf_counter()
                try:
                    out = op.run()
                    err = None
                except Exception as exc:   # a failed op is counted, the run goes on
                    err = f"raised {type(exc).__name__}: {exc}"
                dt = perf_counter() - t0
                if err is None:
                    err = op.check(out)
                self.attempted += 1
                total += dt
                if timed and not traced:
                    self.latencies.append(dt)
                if err:
                    self.failed += 1
                    if not op.known_defect:
                        self.unexpected.append(f"round {k} {op.label}: {err}")
        finally:
            if traced:
                self.tracer.uninstall()
        if timed:
            self.round_rates[traced].append(len(ops) / total)

    def loop(self, seconds, probes):
        self.round(0, self.make_round(self.seed, 0), timed=False, traced=False)
        gc.collect()
        start = perf_counter()
        k = 1
        while True:
            # one set-up probe at the start of each fifth of the run
            if len(probes.setups) < SETUP_PROBES and \
                    perf_counter() - start >= len(probes.setups) * seconds / SETUP_PROBES:
                probes.start()
            ops = self.make_round(self.seed, k)
            if self.tracer is None:
                self.round(k, ops, timed=True, traced=False)
            else:
                # the same round untraced and traced, in alternating order,
                # so the overhead compares equal work
                for traced in ((False, True) if k % 2 else (True, False)):
                    self.round(k, ops, timed=True, traced=traced)
            k += 1
            if perf_counter() - start >= seconds:
                break


def benchmark(workload, seed, seconds, trace) -> dict:
    probes = SetupProbes(workload, seed)
    rb, cli, _ = import_riskbound()
    import workloads as W
    import tracing

    W.bind(rb, cli)
    os.makedirs(OUT, exist_ok=True)
    csv_path = os.path.join(OUT, f"returns-{seed}-{os.getpid()}.csv")
    try:
        make_round = round_maker(workload, seed, csv_path)
        tracer = tracing.Tracer() if trace else None
        run = Run(make_round, seed, tracer)
        run.loop(seconds, probes)
        setup_s, import_s = probes.result()
    finally:
        if os.path.exists(csv_path):
            os.remove(csv_path)

    for line in run.unexpected[:20]:
        print(f"CHECK FAILED {line}")
    lat = run.latencies
    if trace:
        metrics = tracer.metrics(import_s)
        for name, m in metrics.items():
            print(f"{workload} per-layer {name} = {m['value']:.6g} {m['unit']}")
        rates = run.round_rates
        overhead = statistics.median(p / t for p, t in zip(rates[False], rates[True])) - 1.0
        print(f"{workload} tracing overhead = {100.0 * overhead:+.1f}% time per op, "
              f"median over {len(rates[True])} rounds run both untraced and traced")
        path = os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl")
        tracer.write(path)
        print(f"{workload} wrote {len(tracer.spans)} spans to {os.path.relpath(path, ROOT)}")
    else:
        p, tail = tail_percentile(lat)
        if p is not None:
            print(f"{workload} latency p{p:g} = {1e3 * tail:.4f} ms over {len(lat)} ops")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(lat) / math.fsum(lat), "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    return {"correct": not run.unexpected, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def smoke() -> int:
    """Every workload briefly, untraced and traced, with all checks."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            ok = bool(result and result["correct"])
            status |= not ok
            summary = (f"attempted {result['attempted']} failed {result['failed']}"
                       if result else proc.stderr.strip()[-300:])
            print(f"{'ok  ' if ok else 'FAIL'} {workload:17s} trace={trace} {summary}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="short run of every workload")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = benchmark(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
