"""Run one item of a workload in a fresh interpreter and report on stdout.

    python3 perfbench/child.py '{"workload": "quartic-cells", "item": 0, "seed": 1,
                                 "store": ".perfbench_work/run-1/store"}'

The set-up time runs from the first line of this file to the moment the
inputs exist: importing syzlab from the checkout's src/, drawing the seed's
primes, creating the empty store and generating the command lines of every
item.  With "item": null the child stops there (a set-up probe), so probes
and item children time the same set-up.  The last line of
stdout is one JSON object; syzlab's own stdout and stderr are captured.
Every time is also given at the reference speed of speed.py: the set-up
time from kernel samples taken right after it, command times from samples
taken while the commands run.
With "hooked": true and "trace_file": PATH the commands run under the hooks
of tracing.py, with no speed samples, the spans go to PATH, and the memory
probe runs afterwards.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 8         # kernel samples that give the speed of the set-up


def import_syzlab():
    """syzlab from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    import syzlab
    import syzlab.cli

    where = os.path.realpath(syzlab.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"syzlab imported from {where}, not from {SRC}")
    return syzlab


def run_command(cli, argv):
    """(exit code, stdout) of one syzlab command, its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def run_commands(syzlab, workloads, commands, plain, seeds, store, sampler, tracer):
    """Per-command results.  Only the syzlab call is timed, less the time the
    sampler took within it.  Each stdout is hashed and read right away and
    then dropped, so the outputs never add to the peak RSS; the follow-up of
    a `verify` runs straight after it, untimed and untraced."""
    results = []
    for argv, bare in zip(commands, plain):
        out, err = io.StringIO(), io.StringIO()
        t, s = time.perf_counter(), sampler.spent
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = syzlab.cli.main(argv)
        end, sampled = time.perf_counter(), sampler.spent - s
        stdout = out.getvalue()
        if tracer is not None:
            tracer.active = False
        check = workloads.check_command(bare)
        check_out = None
        if check is not None and code == 0:
            _, check_out = run_command(syzlab.cli, workloads.with_engine_flags(check, seeds, store))
        try:
            got = workloads.answers(bare, stdout, check_out)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            got = {"unreadable": str(exc)}
        results.append({
            "key": workloads.command_key(bare), "exit": code, "seconds": end - t - sampled,
            "span": (t, end), "answers": got,
            "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        })
        if tracer is not None:
            tracer.active = True
    return results


def memory_probe(syzlab, tracer, primes):
    """tracemalloc peak of rank_mod_p on the largest matrix ranked, beside the
    byte estimate koszul makes for its block (read off the
    InfeasibleBlockError it raises under a zero cap)."""
    import tracemalloc

    if tracer.largest_block is None:
        return None
    _, cell, weight, block = tracer.largest_block
    m = max((block.d_in, block.d_out), key=lambda x: x.nnz)
    rank = syzlab.linalg.rank_mod_p
    rank = getattr(rank, "__wrapped__", rank)
    field = syzlab.arith.PrimeField(primes[0])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rank(m, field)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    probe = {"rows": m.rows, "cols": m.cols, "nnz": m.nnz,
             "mid_dim": block.mid_dim, "peak_bytes": peak, "estimate_bytes": None}
    build = getattr(type(cell).block, "__wrapped__", type(cell).block)
    cap = cell.memory_cap
    cell.memory_cap = 0
    try:
        build(cell, weight)
    except syzlab.koszul.InfeasibleBlockError as exc:
        probe["estimate_bytes"] = exc.estimated_bytes
    finally:
        cell.memory_cap = cap
    return probe


def main():
    spec = json.loads(sys.argv[1])
    os.chdir(ROOT)
    syzlab = import_syzlab()
    import workloads

    # Commands get --cache-dir; this keeps ./.syzcache out of reach anyway.
    store = spec["store"]
    os.environ["SYZ_CACHE_DIR"] = store

    seeds = workloads.prime_seeds(spec["seed"])
    primes = [syzlab.arith.random_prime(31, s) for s in seeds]
    shutil.rmtree(store, ignore_errors=True)
    os.makedirs(store)
    # Every child, set-up probes too, generates the inputs of every item.
    inputs = [(plain, [workloads.with_engine_flags(argv, seeds, store) for argv in plain])
              for _, plain in workloads.items(spec["workload"], spec["seed"])]
    setup_s = time.perf_counter() - T0
    sampler = speed.Sampler()
    for _ in range(SETUP_SAMPLES):
        sampler.sample()
    report = {"setup_s": setup_s, "setup_ref_s": setup_s * sampler.speed(T0, T0 + setup_s),
              "primes": primes, "syzlab_file": syzlab.__file__}
    if spec["item"] is None:
        print(json.dumps(report))
        return

    plain, commands = inputs[spec["item"]]
    tracer = None
    if spec.get("hooked"):
        import tracing
        tracer = tracing.install(syzlab)
        sampler = speed.Sampler()   # no samples inside spans
    else:
        sampler.start()
    results = run_commands(syzlab, workloads, commands, plain, seeds, store, sampler, tracer)
    sampler.stop()
    if tracer is not None:
        tracer.active = False

    for cmd in results:
        start, end = cmd.pop("span")
        cmd["ref_seconds"] = (cmd["seconds"] * sampler.speed(start, end)
                              if sampler.samples else None)
    report.update(wall_s=sum(c["seconds"] for c in results), commands=results,
                  rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sampler.samples:
        report["ref_wall_s"] = sum(c["ref_seconds"] for c in results)
    if tracer is not None:
        report["stats"] = tracer.span_stats()
        report["counters"] = tracer.counters
        report["absent"] = tracer.absent
        report["probe"] = memory_probe(syzlab, tracer, primes)
        tracer.dump(spec["trace_file"])
    print(json.dumps(report))


if __name__ == "__main__":
    main()
