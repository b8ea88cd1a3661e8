#!/usr/bin/env python3
"""Self-test of the benchmark at toy scale (populations divided by 50).

    python3 perfbench/selftest.py

Runs perfbench/run.py on every workload of BENCHMARK.json and checks that

  - every end-to-end and per-layer metric is emitted with its unit;
  - the deterministic per-layer counters repeat exactly across two
    traced runs of one seed;
  - the decorator spans plus sim.residual.s add up to the traced run time;
  - the digest check fails (exit 1, correct=false) when the traced mirror
    is fed a perturbed world.

Exit status 0 when every check passed.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3
TIME_UNITS = {"s", "ms", "us", "ns"}
# Non-time metrics that still depend on the host: memory and a time ratio.
HOST_DEPENDENT = {"runtime.rss_per_node_kib", "trace.overhead"}
SPANS = ["pss.init.s", "pss.round.s", "pss.on_message.s", "pss.read.s",
         "wire.size.s", "sim.residual.s"]

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--toy", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    if result is None:
        sys.stderr.write(proc.stderr)
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    sections = {0: bench["end_to_end"], 1: bench["per_layer"]}

    for workload in (w["name"] for w in bench["workloads"]):
        results = {}
        for trace, section in sections.items():
            code, result = run(workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  f"{workload} trace={trace}: run passes its checks")
            if result is None:
                continue
            results[trace] = result
            metrics = result["metrics"]
            missing = [m["name"] for m in section
                       if metrics.get(m["name"], {}).get("unit") != m["unit"]]
            check(not missing, f"{workload} trace={trace}: every metric "
                               f"emitted with its unit {missing or ''}")
        if 1 not in results:
            continue

        first = results[1]["metrics"]
        _, again = run(workload, 1)
        if again is None:
            check(False, f"{workload}: second traced run produced a result")
            continue
        counters = [m["name"] for m in sections[1]
                    if m["unit"] not in TIME_UNITS
                    and m["name"] not in HOST_DEPENDENT]
        differ = [n for n in counters
                  if first[n]["value"] != again["metrics"][n]["value"]]
        check(not differ,
              f"{workload}: {len(counters)} counters repeat exactly "
              f"{differ or ''}")

        total = sum(first[n]["value"] for n in SPANS)
        traced = first["trace.run_s"]["value"]
        check(abs(total - traced) <= 1e-9 * max(1.0, traced),
              f"{workload}: spans + residual = traced run_s "
              f"({total:.6f} vs {traced:.6f})")

        code, perturbed = run(workload, 1, "--perturb-mirror", "0.001")
        check(code == 1 and perturbed is not None
              and not perturbed["correct"] and perturbed["failed"] >= 1,
              f"{workload}: digest check fails on a perturbed world")

    print("selftest:", "FAILED" if failures else "passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
