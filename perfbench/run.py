"""syzlab benchmark: run one workload against this checkout's src/.

    python3 perfbench/run.py --workload quartic-cells --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Every item runs in a child process (perfbench/child.py) with a fresh, empty
store, one thread and syzlab's default engine flags; the seed picks the
primes and the request order.  Every answer is checked against
perfbench/reference.json.  Human-readable lines come first; the last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.

--trace 0 measures for --seconds: set-up probes, then the items in turn,
each started only while it is expected to end within the time.  Its times
are rescaled to the reference speed of perfbench/speed.py, which takes out
the drift of a shared machine's speed; the measured times are printed too.
--trace 1 runs one whole pass, each item once without and once with the
hooks of perfbench/tracing.py, and reports per-layer metrics, the tracing
overhead, and whether syzlab's stdout stayed byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = ".perfbench_work"
SETUP_PROBES = 7
RUN_LIMIT_S = 170          # every child is killed past this point of a run
EXIT_BROKEN = 2


class RunFailure(Exception):
    pass


def child(spec: dict, deadline: float) -> dict:
    """Run perfbench/child.py to completion and return its report.  The
    store path is the same for every child of a run, so that it reads the
    same in their stdout, and differs between runs that share a checkout."""
    spec = dict(spec, store=os.path.join(WORK, f"run-{os.getpid()}", "store"))
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunFailure("out of time before starting a child")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=left,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailure(f"child {spec} ran past the run limit") from exc
    if proc.returncode != 0:
        raise RunFailure(f"child {spec} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_facts() -> dict:
    """Commit, source digest, interpreter and CPU, recorded with every run."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "syzlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    commit = "not a git checkout"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            commit = "git unavailable"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit, "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
    }


def load_json(name: str) -> dict:
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Compares answers with the reference; counts answers checked and wrong."""

    def __init__(self, reference: dict):
        self.reference = reference["commands"]
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def _fail(self, what):
        self.failed += 1
        if len(self.wrong) < 5:
            self.wrong.append(what)

    def check(self, report: dict) -> None:
        for cmd in report["commands"]:
            ref = self.reference.get(cmd["key"])
            if ref is None:
                self.attempted += 1
                self._fail(f"no reference for {cmd['key']}")
                continue
            for key, want in ref["answers"].items():
                self.attempted += 1
                got = cmd["answers"].get(key)
                if cmd["exit"] != ref["exit"] or got != want:
                    self._fail(f"{cmd['key']} [{key}]: exit {cmd['exit']}, got {got!r}, "
                               f"want {want!r}")

    def same_stdout(self, plain: dict, hooked: dict) -> int:
        """Each command's stdout with hooks equals its stdout without;
        returns the number that differ."""
        changed = 0
        for a, b in zip(plain["commands"], hooked["commands"]):
            self.attempted += 1
            if a["sha256"] != b["sha256"]:
                changed += 1
                self._fail(f"stdout of {a['key']} changed under the hooks")
        return changed


def percentiles(latencies: list) -> tuple:
    """(p50, tail, tail percentile) of one pass: the tail is the highest
    percentile with at least ten requests beyond it, or the maximum when a
    pass has fewer than eleven requests."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return statistics.median(xs), xs[-1], 100.0
    return statistics.median(xs), xs[n - 11], 100.0 * (n - 10) / n


def measure(workload: str, seed: int, seconds: int, checker: Checker, deadline: float) -> tuple:
    """Untraced run: end-to-end metrics and the lines that explain them."""
    start = time.monotonic()
    setups = [child({"workload": workload, "item": None, "seed": seed}, deadline)
              for _ in range(SETUP_PROBES)]
    names = [name for name, _ in workloads.items(workload, seed)]
    runs = {i: [] for i in range(len(names))}
    k = 0
    while True:
        i = k % len(names)
        if k >= len(names) and time.monotonic() - start + runs[i][-1]["wall_s"] > seconds:
            break
        report = child({"workload": workload, "item": i, "seed": seed}, deadline)
        checker.check(report)
        setups.append(report)
        runs[i].append(report)
        k += 1

    ref = timings(runs, "ref_wall_s", "ref_seconds")
    measured = timings(runs, "wall_s", "seconds")
    wall, p50, tail, tail_pct, requests, passes = ref
    setup_ref = [p["setup_ref_s"] for p in setups]
    rss_mb = max(r["rss_kib"] for i in runs for r in runs[i]) / 1024
    failed_frac = checker.failed / checker.attempted
    metrics = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": (1.0 - failed_frac, "frac"),
        "request_p50_ms": (p50 * 1000, "ms"),
        "request_tail_ms": (tail * 1000, "ms"),
    }
    lines = [
        f"syzlab imported from {setups[0]['syzlab_file']}",
        "items: " + "; ".join(
            f"{names[i]} x{len(runs[i])} median {statistics.median(r['wall_s'] for r in runs[i]):.3f} s"
            for i in runs),
        "times at the reference speed of perfbench/speed.py, measured times in brackets",
        f"setup_s {metrics['setup_s'][0]:.4f} s [{statistics.median(p['setup_s'] for p in setups):.4f}]"
        f" (median of {len(setups)} set-ups)",
        f"wall_s {wall:.3f} s [{measured[0]:.3f}] (sum over items of the median item time)",
        f"peak_rss_mb {rss_mb:.1f} MB (largest child ru_maxrss)",
        f"failed_frac {failed_frac:.6f} ({checker.failed} of {checker.attempted} answers wrong)",
        f"request_p50_ms {p50 * 1000:.3f} ms [{measured[1] * 1000:.3f}], "
        f"request_tail_ms {tail * 1000:.3f} ms [{measured[2] * 1000:.3f}] "
        f"(p{tail_pct:.2f} of {requests} requests per pass, median over {passes} pass(es))",
        f"machine speed: {wall / measured[0]:.3f} x the reference speed",
        "requests by command (share of a pass, median time): " + command_mix(runs),
        "waits: none; one client in a single-threaded closed loop never queues",
    ]
    raw = {"items": names,
           "setups": [[p["setup_s"], p["setup_ref_s"]] for p in setups],
           "wall_s": [[[r["wall_s"], r["ref_wall_s"]] for r in runs[i]] for i in runs],
           "request_s": [[[[c["seconds"], c["ref_seconds"]] for c in r["commands"]]
                          for r in runs[i]] for i in runs]}
    return metrics, lines, raw


def command_mix(runs: dict) -> str:
    """Share of each command type among the requests of a pass, and its
    median request time at the reference speed."""
    times = {}
    for i in runs:
        for r in runs[i]:
            for cmd in r["commands"]:
                times.setdefault(cmd["key"].split()[0], []).append(cmd["ref_seconds"])
    total = sum(len(t) for t in times.values())
    return "; ".join(f"{name} {100 * len(t) / total:.1f}% {statistics.median(t) * 1000:.2f} ms"
                     for name, t in sorted(times.items(), key=lambda kv: -len(kv[1])))


def timings(runs: dict, wall_key: str, seconds_key: str) -> tuple:
    """(wall, p50, tail, tail percentile, requests per pass, passes) of the
    item runs, reading times under the given keys.  wall is the sum over
    items of the median item time.  A pass is one run of each item: for a
    one-item workload each run; otherwise each item's median run."""
    wall = sum(statistics.median(r[wall_key] for r in runs[i]) for i in runs)
    if len(runs) == 1:
        passes = [[c[seconds_key] for c in r["commands"]] for r in runs[0]]
    else:
        passes = [[statistics.median(c[seconds_key] for r in runs[i] for c in r["commands"])
                   for i in runs]]
    per_pass = [percentiles(p) for p in passes]
    return (wall, statistics.median(x[0] for x in per_pass),
            statistics.median(x[1] for x in per_pass), per_pass[0][2],
            len(passes[0]), len(passes))


def traced(workload: str, seed: int, checker: Checker, deadline: float) -> tuple:
    """One pass, each item untraced then traced: per-layer metrics."""
    os.makedirs(os.path.join(ROOT, WORK, "trace"), exist_ok=True)
    plain_wall = hooked_wall = 0.0
    changed = commands = 0
    parts, probes, absent = [], [], set()
    for i, (name, _) in enumerate(workloads.items(workload, seed)):
        plain = child({"workload": workload, "item": i, "seed": seed}, deadline)
        trace_file = os.path.join(WORK, "trace", f"{workload}-{i}.jsonl")
        hooked = child({"workload": workload, "item": i, "seed": seed, "hooked": True,
                        "trace_file": trace_file}, deadline)
        for report in (plain, hooked):
            checker.check(report)
        changed += checker.same_stdout(plain, hooked)
        commands += len(plain["commands"])
        plain_wall += plain["wall_s"]
        hooked_wall += hooked["wall_s"]
        parts.append((hooked["stats"], hooked["counters"]))
        absent.update(hooked["absent"])
        if hooked["probe"]:
            probes.append(hooked["probe"])

    stats, counters = tracing.merge(parts)
    absent_spans = tracing.absent_span_names(absent)
    layers = {k: (v["value"], v["unit"]) for k, v in
              tracing.layer_metrics(stats, counters, absent_spans).items()}
    layers["trace.wall_s"] = (hooked_wall, "s")
    layers["trace.untraced_wall_s"] = (plain_wall, "s")
    layers["trace.overhead_s"] = (hooked_wall - plain_wall, "s")
    lines = [f"syzlab imported from {plain['syzlab_file']}"]
    if probes:
        probe = max(probes, key=lambda p: p["nnz"])
        layers["linalg.rank_peak_mib"] = (probe["peak_bytes"] / (1 << 20), "MiB")
        if probe["estimate_bytes"] is not None:
            layers["koszul.estimate_mib"] = (probe["estimate_bytes"] / (1 << 20), "MiB")
        lines.append(
            f"memory probe: largest matrix ranked {probe['rows']}x{probe['cols']}, "
            f"nnz {probe['nnz']}, block mid_dim {probe['mid_dim']}: tracemalloc peak of "
            f"rank_mod_p {probe['peak_bytes'] / (1 << 20):.2f} MiB, koszul estimate "
            + (f"{probe['estimate_bytes'] / (1 << 20):.2f} MiB" if probe["estimate_bytes"]
               is not None else "absent"))
    lines.append(f"tracing overhead {hooked_wall - plain_wall:+.3f} s "
                 f"(traced wall_s {hooked_wall:.3f} s - untraced wall_s {plain_wall:.3f} s, "
                 f"{sum(r[0] for r in stats.values())} spans)")
    by_layer = {}
    for name, (_, _, self_s) in stats.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + self_s
    lines.append("self time by layer: " + ", ".join(
        f"{layer} {t:.3f} s ({100 * t / hooked_wall:.1f}%)"
        for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1])))
    lines.append(f"stdout under hooks: {commands - changed} of {commands} commands byte-identical")
    lines.append("absent hooks: " + (", ".join(sorted(absent)) or "none"))
    lines.append("waits: none; one client in a single-threaded closed loop never queues")
    for name, (value, unit) in sorted(layers.items()):
        lines.append(f"  {name} = {value:.6g} {unit}")
    return layers, lines, {"span_stats": stats, "counters": counters}


def run_one(workload, seed, seconds, trace, reference, deadline) -> tuple:
    checker = Checker(reference)
    if trace:
        metrics, lines, raw = traced(workload, seed, checker, deadline)
    else:
        metrics, lines, raw = measure(workload, seed, seconds, checker, deadline)
    lines += [f"wrong: {w}" for w in checker.wrong]
    return metrics, lines, raw, checker


def select(metrics: dict, wanted: list) -> dict:
    """The metrics BENCHMARK.json lists, in its order and with its units."""
    out = {}
    for spec in wanted:
        if spec["name"] not in metrics:
            print(f"metric {spec['name']} not measured (its hooks are absent)", file=sys.stderr)
            continue
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise RunFailure(f"{spec['name']} measured in {unit}, BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "syzlab", "__init__.py")):
        print("perfbench: no src/syzlab in this checkout", file=sys.stderr)
        return EXIT_BROKEN
    try:
        bench = load_json("BENCHMARK.json")
        reference = load_json(os.path.join("perfbench", "reference.json"))
    except (OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_BROKEN
    os.makedirs(os.path.join(ROOT, WORK, "runs"), exist_ok=True)
    syzcache_before = os.path.exists(os.path.join(ROOT, ".syzcache"))
    facts = machine_facts()
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.workload == "all":
        deadline += RUN_LIMIT_S * (len(names) - 1)

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            metrics, lines, raw, checker = run_one(name, args.seed, args.seconds, args.trace,
                                              reference, deadline)
            chosen = select(metrics, wanted)
            print(f"perfbench {name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
            print("facts: " + " ".join(f"{k}={v}" for k, v in facts.items()))
            for line in lines:
                print("  " + line)
            with open(os.path.join(ROOT, WORK, "runs", f"{name}-trace{args.trace}.json"),
                      "w", encoding="utf-8") as fh:
                json.dump({"workload": name, "seed": args.seed, "seconds": args.seconds,
                           "trace": args.trace, "facts": facts, "lines": lines,
                           "metrics": {k: list(v) for k, v in metrics.items()},
                           "raw": raw}, fh)
            result["attempted"] += checker.attempted
            result["failed"] += checker.failed
            prefix = f"{name}." if args.workload == "all" else ""
            result["metrics"].update({prefix + k: v for k, v in chosen.items()})
    except RunFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, WORK, f"run-{os.getpid()}"), ignore_errors=True)

    if not syzcache_before and os.path.exists(os.path.join(ROOT, ".syzcache")):
        print("perfbench: a run wrote ./.syzcache", file=sys.stderr)
        result["failed"] += 1
    result["correct"] = result["failed"] == 0
    print(json.dumps(result, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
