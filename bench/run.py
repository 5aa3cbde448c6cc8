"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload queries --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout of the repository; it imports
``trialogic`` from the checkout's ``src`` and reads the fixtures under
``tests/fixtures``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``,
with ``--trace 1`` the per-layer ones.  Failures and details go to
standard error and to the lines before the result.

A run builds the item list from the seed (set-up, repeated and timed),
then runs rounds over the list until ``--seconds`` have gone by, timing
each item.  The first round runs every item; later rounds run the items
that have used less than an equal share of the time, so a short item is
timed many times and a long one at least once.  Each time is scaled to
reference speed (see ``scaled``).  Outputs are checked between rounds,
outside the timed calls.  A traced run spends the first
half of its time untraced and the second half with spans around the
program's layer boundaries, running every item in every round so that
per-layer counts are per round over the whole list.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# Reported times are scaled to a machine on which ``reference`` takes
# this long.
REFERENCE_S = 0.001
TAIL_BEYOND = 10
PROBE_REPEATS = 10
SHOWN_FAILURES = 5


def reference() -> None:
    """Fixed interpreter work that does not touch the program."""
    table: dict[int, int] = {}
    for i in range(4000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
    sorted(table.items())


def reference_seconds() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` at reference speed, from the reference timed just
    before and just after it.  Other load on a shared machine slows the
    reference and the program alike, so this cancels most of it."""
    return elapsed * 2 * REFERENCE_S / (before + after)


class Measured:
    def __init__(self, count: int):
        self.latencies: list[list[float]] = [[] for _ in range(count)]
        self.failures: list[str] = []
        self.first: list = []
        self.rounds = 0

    def attempted(self) -> int:
        return sum(map(len, self.latencies))

    def round_seconds(self) -> float:
        return sum(map(sum, self.latencies)) / self.rounds


def setup(workload, seed: int, pool: dict):
    """Import the program and build the items, several times over; the
    median time is ``setup_s``.  The last import is the one used."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = reference_seconds()
        start = time.perf_counter()
        T = W.load_program(ROOT)
        items = workload.build(T, ROOT, random.Random(
            f"{workload.name}:{seed}"), pool)
        elapsed = time.perf_counter() - start
        times.append(scaled(elapsed, before, reference_seconds()))
    return T, items, statistics.median(times)


def verify(workload, expected: dict, items, results) -> list[str]:
    failures = []
    for item, result in zip(items, results):
        if isinstance(result, Exception):
            failures.append(f"{item.key}: raised {result!r}")
            continue
        try:
            record = json.loads(json.dumps(workload.record(item.arg, result)))
        except Exception as exc:
            failures.append(f"{item.key}: unreadable output {exc!r}")
            continue
        want = expected.get(item.key)
        if record != want:
            failures.append(f"{item.key}: got {record}, expected {want}")
    return failures


def measure(workload, T, items, expected, seconds, tracer=None,
            share=float("inf")) -> Measured:
    """Rounds over the items until ``seconds`` have gone by.  The first
    round runs every item; a later one runs each item that has spent
    less than ``share`` seconds so far."""
    out = Measured(len(items))
    start = time.perf_counter()
    while out.rounds == 0 or time.perf_counter() - start < seconds:
        chosen = [index for index, times in enumerate(out.latencies)
                  if sum(times) < share]
        if not chosen:
            break
        results = []
        for index in chosen:
            item = items[index]
            before = reference_seconds()
            begin = time.perf_counter()
            try:
                if tracer is None:
                    result = workload.run(T, item.arg)
                else:
                    result = tracer.span(spans.ITEM_SPAN, workload.run,
                                         T, item.arg)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                result = exc
            elapsed = time.perf_counter() - begin
            out.latencies[index].append(
                scaled(elapsed, before, reference_seconds()))
            results.append(result)
        out.rounds += 1
        out.failures += verify(workload, expected,
                               [items[index] for index in chosen], results)
        if not out.first:
            out.first = results
        del results
        gc.collect()
    return out


def extra_problems(workload, T, items, results) -> list[str]:
    pairs = [(item, result) for item, result in zip(items, results)
             if not isinstance(result, Exception)]
    problems = workload.check(T, [p[0] for p in pairs], [p[1] for p in pairs])
    return [problem for problem in problems if problem]


def end_to_end(workload, measured: Measured, setup_s: float):
    per_item = sorted(map(statistics.median, measured.latencies))
    count = len(per_item)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" \
        else resource.RUSAGE_SELF
    tail_at = count - TAIL_BEYOND - 1
    runs = sorted(map(len, measured.latencies))
    print(f"item_ms_tail is p{100 * (tail_at + 1) / count:.1f} of {count} "
          f"items; each item's latency is the median of its {runs[0]} "
          f"to {runs[-1]} runs")
    return {
        "setup_s": setup_s,
        "items_per_s": count / sum(per_item),
        "item_ms_p50": statistics.median(per_item) * 1000,
        "item_ms_tail": per_item[tail_at] * 1000,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def probe_ms(argv: list[str], env: dict) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                       capture_output=True, check=True,
                       timeout=W.CLI_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


def cli_layers(measured: Measured) -> dict:
    """Interpreter start, import of ``trialogic.cli`` on top of it, and
    the command on top of that, each a median over cold processes."""
    env = W.child_env(ROOT)
    interp = probe_ms(["-c", "pass"], env)
    imported = probe_ms(["-c", "import trialogic.cli"], env)
    command = statistics.median(
        statistics.median(times) for times in measured.latencies) * 1000
    return {"cli.interp_ms": interp, "cli.import_ms": imported - interp,
            "cli.run_ms": command - imported}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "trialogic" / "__init__.py").is_file() \
            or not (ROOT / W.FIXTURES).is_dir():
        print(f"no trialogic sources and fixtures under {ROOT}",
              file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    workload = W.WORKLOADS[args.workload]()
    pool = expected.get(args.workload, {})
    T, items, setup_s = setup(workload, args.seed, pool)
    records = pool["records"]

    if args.trace:
        plain = measure(workload, T, items, records, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = measure(workload, T, items, records, args.seconds / 2,
                             tracer)
        finally:
            tracer.uninstall()
        for name in tracer.absent:
            print(f"boundary {name} is absent from the program; its "
                  "metrics are left out", file=sys.stderr)
        values = spans.layer_metrics(tracer, traced.rounds)
        values["trace.overhead_frac"] = \
            traced.round_seconds() / plain.round_seconds() - 1
        values.update(cli_layers(plain) if workload.name == "cli" else
                      dict.fromkeys(("cli.interp_ms", "cli.import_ms",
                                     "cli.run_ms"), 0.0))
        runs = (plain, traced)
        wanted = declared["per_layer"]
    else:
        runs = (measure(workload, T, items, records, args.seconds,
                        share=args.seconds / len(items)),)
        values = end_to_end(workload, runs[0], setup_s)
        wanted = declared["end_to_end"]

    failures = [f for run in runs for f in run.failures]
    problems = extra_problems(workload, T, items, runs[0].first)
    for message in (failures + problems)[:SHOWN_FAILURES]:
        print(message, file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": sum(run.attempted() for run in runs),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
