#!/usr/bin/env python3
"""Same-host benchmark of the croupier simulator.

    python3 perfbench/run.py --workload steady-20k --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout. Builds perfbench/ (and the program from
src/) as a Release build under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), refuses a sanitized or non-Release build, runs
one workload (plus, without tracing, set-up samples in fresh processes),
and prints:

  - a `# host ...` line: CPU model, nproc, MHz, compiler, build type;
  - one `metric  value  unit` line per metric, end-to-end metrics with
    --trace 0 and per-layer metrics with --trace 1 (BENCHMARK.json names
    them all);
  - as the last line, the result as one JSON object with the keys
    correct, attempted, failed and metrics.

Exit status 0 when every correctness check passed, 1 when one failed,
2 when the benchmark could not run (no JSON line then).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
MIN_SETUPS = 5
MAX_SETUPS = 21
SETUP_BUDGET_S = 2.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds perfbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no program sources under {ROOT}/src; run from a checkout")
    out = build_dir()
    scratch = os.path.join(out, "tmp")
    os.makedirs(scratch, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout.
    env = dict(os.environ, TMPDIR=scratch)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--parallel", jobs],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {' '.join(step)} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited {done.returncode}")
    return os.path.join(out, "perfbench")


def build_info(binary):
    text = subprocess.run([binary, "--build-info"], capture_output=True,
                          text=True, timeout=30, check=True).stdout
    pairs = (line.split("=", 1) for line in text.splitlines() if "=" in line)
    return dict(pairs)


def cpu_fingerprint():
    model, mhz = "unknown", "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                key, _, value = line.partition(":")
                key, value = key.strip(), value.strip()
                if key == "model name" and model == "unknown":
                    model = value
                elif key == "cpu MHz" and mhz == "unknown":
                    mhz = value
    except OSError:
        pass
    return model, mhz


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def run(cmd):
    """Runs one perfbench process; returns its JSON result."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{' '.join(cmd)} ran past {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{' '.join(cmd)} exited {proc.returncode} without a result")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{' '.join(cmd)} printed no JSON result: {lines[-1]!r}")


def measure(binary, args):
    """The binary's result, with setup_s added when not tracing.

    Set-up time depends on the heap that earlier work left behind, so
    each sample is one construction in a fresh process: at least
    MIN_SETUPS of them, then more until SETUP_BUDGET_S of set-up time or
    MAX_SETUPS samples. setup_s is their median.
    """
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}"]
    if args.toy:
        cmd.append("--toy")
    traced = [f"--perturb-mirror={args.perturb_mirror}"] \
        if args.perturb_mirror else []
    result = run(cmd + [f"--seconds={args.seconds}", f"--trace={args.trace}"]
                 + traced)
    if args.trace:
        return result

    setups = []
    while len(setups) < MIN_SETUPS or (sum(setups) < SETUP_BUDGET_S
                                       and len(setups) < MAX_SETUPS):
        sample = run(cmd + ["--setup-only"])
        result["attempted"] += sample["attempted"]
        result["failed"] += sample["failed"]
        result["correct"] = result["correct"] and sample["correct"]
        setups.append(sample["metrics"]["setup_s"]["value"])
    result["metrics"] = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        **result["metrics"]}
    print(f"perfbench: {len(setups)} set-up samples, "
          f"min {min(setups):.4f} s, max {max(setups):.4f} s",
          file=sys.stderr)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="populations divided by 50 (self-test scale)")
    parser.add_argument("--perturb-mirror", type=float, default=0.0,
                        help="clock-skew offset fed to the traced mirror "
                             "only (self-test of the digest check)")
    args = parser.parse_args()

    binary = build()
    info = build_info(binary)
    if info.get("build_type") != "Release" or info.get("sanitized") != "no":
        fail(f"refusing to record from build_type={info.get('build_type')} "
             f"sanitized={info.get('sanitized')}; rebuild as plain Release")
    model, mhz = cpu_fingerprint()
    print(f"# host cpu=\"{model}\" nproc={os.cpu_count()} mhz={mhz} "
          f"compiler=\"{info.get('compiler')}\" build={info['build_type']}")
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}"
          + (" toy" if args.toy else ""))

    result = measure(binary, args)
    metrics = result["metrics"]
    expected = expected_metrics(args.trace)
    problems = [f"{name} missing" for name in expected if name not in metrics]
    problems += [f"{name} unit {metrics[name]['unit']} != {unit}"
                 for name, unit in expected.items()
                 if name in metrics and metrics[name]["unit"] != unit]
    problems += [f"{name} not in BENCHMARK.json"
                 for name in metrics if name not in expected]
    if problems:
        fail("metric set disagrees with BENCHMARK.json: "
             + "; ".join(problems))

    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']!r:>24}  {m['unit']}")
    final = {key: result[key] for key in ("correct", "attempted", "failed")}
    final["metrics"] = metrics
    print(json.dumps(final))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
