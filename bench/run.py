"""quivpush benchmark: time to a witnessed verdict, end to end and per layer.

    python3 bench/run.py --workload leavitt-q [--seed N] [--seconds S]
                         [--trace 0|1] [--out RECORD.json]
    python3 bench/run.py --workload all        # every workload in turn

Run it from anywhere; it works in the checkout that holds it and imports
quivpush from that checkout's ``src``.  Each workload runs the commands
users run (``verify``, ``pushout``, ``classify``, property suites) in
process, single threaded, on an instance set drawn from the seed, and
checks every verdict against the answer the instance is known to have.

With ``--trace 0`` it repeats untraced passes over the corpus for the given
seconds and reports the end-to-end metrics from all passes but the first.
With ``--trace 1`` it runs two untraced passes and then a traced pass that
records spans around every public function of the library's layers, and
reports per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ".bench_work"
# Generators iterate frozensets, so their draws depend on string hashing;
# one pinned hash seed makes a workload seed name one instance set.
HASH_SEED = "0"
SETUP_REPS = 7
MIN_PASSES = 2

WORKLOADS = {
    # name: (default seed, whether linalg.rank runs on it)
    "leavitt-q": (111, True),
    "leavitt-fp": (111, True),
    "path-cyclic": (112, True),
    "proptest-suites": (1, False),
}

UNITS = {
    "verdicts_per_s": "items/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_tail": "ms",
    "verdict_ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_unit(name):
    suffix = name.rsplit(".", 1)[1]
    if suffix == "s" or suffix.endswith("_s"):
        return "s"
    if suffix in ("density", "distinct_ratio", "overhead_ratio"):
        return "ratio"
    if suffix == "bytes":
        return "bytes"
    return "count"


def die(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def build_corpus(name, seed, workdir):
    import corpus
    if name == "leavitt-q":
        return corpus.leavitt_corpus(seed, workdir, "q")
    if name == "leavitt-fp":
        return corpus.leavitt_corpus(seed, workdir, "fp:2147483647")
    if name == "path-cyclic":
        return corpus.path_corpus(seed, workdir)
    return corpus.proptest_corpus(seed)


def setup_argvs(corpus_, seed):
    """The argv of every CLI call the workload stands for."""
    from corpus import PROPTEST_CASES, PROPTEST_SUITES
    if any(item.argv for item in corpus_.items):
        return [list(item.argv) for item in corpus_.items]
    return [["proptest", "--suite", suite, "--seed", str(seed),
             "--cases", str(PROPTEST_CASES)] for suite in PROPTEST_SUITES]


def measure_setup(argvs, manifest):
    """Median seconds, at reference speed, from spawning an interpreter to
    quivpush.cli imported and the inputs parsed."""
    from speed import Speedometer
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(argvs, fh)
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), manifest]
    speed = Speedometer()
    times = []
    for _ in range(SETUP_REPS):
        for _ in range(3):
            speed.sample()
        start = time.perf_counter()
        # a plain blocking wait: waiting with a timeout polls in 50 ms steps
        code = subprocess.Popen(cmd).wait()
        seconds = time.perf_counter() - start
        for _ in range(3):
            speed.sample()
        if code != 0:
            raise RuntimeError(f"setup probe exited with {code}")
        times.append(seconds * speed.scale(start + seconds / 2))
    return statistics.median(times), times


Run = namedtuple("Run", "start seconds code cert error")


class Runner:
    """Runs items in process and keeps what each run returned."""

    def __init__(self, items, seed):
        from quivpush import cli, randgen
        from quivpush.proptest import SUITES
        self.items = items
        self.seed = seed
        self.cli = cli
        self.randgen = randgen
        self.suites = SUITES

    def _suite_case(self, item, tracer):
        suite = self.suites[item.suite]
        rng = self.randgen.case_rng(self.seed, item.case)
        if tracer is None:
            result = suite(rng)
        else:
            result = tracer.span(f"proptest.suite.{item.suite}", suite, rng)
        print(repr(result))
        return 0 if result.ok else 1

    def run_item(self, item, tracer=None):
        """Run one item; the exit code is None if it raised."""
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if item.argv:
                    code = self.cli.main(list(item.argv))
                else:
                    code = self._suite_case(item, tracer)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:   # a verdict that raised is a failed item
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        cert = hashlib.sha256((out.getvalue() + "\0" + err.getvalue()).encode())
        return Run(start, seconds, code, cert.hexdigest(), error)

    def run_pass(self, number, tracer=None, speed=None):
        """Run every item once, in an order shuffled by the pass number so
        that an item's runs fall at different times; results in item order."""
        order = list(range(len(self.items)))
        random.Random(number).shuffle(order)
        results = [None] * len(order)
        start = time.perf_counter()
        for n in order:
            if speed is not None:
                speed.tick()
            if tracer is not None:
                tracer.item = n
            results[n] = self.run_item(self.items[n], tracer)
        seconds = time.perf_counter() - start
        if speed is not None:
            speed.sample()
        return seconds, results


def check(items, passes):
    """Count executions whose exit code differs from the known answer, that
    raised, or whose certificate differs from the item's first one."""
    attempted = failed = 0
    problems = []
    for n, item in enumerate(items):
        first_cert = passes[0][1][n].cert
        for p, (_, results) in enumerate(passes):
            run = results[n]
            attempted += 1
            if run.error:
                why = run.error
            elif run.code != item.expect:
                why = f"exit {run.code}, expected {item.expect}"
            elif run.cert != first_cert:
                why = "certificate differs between passes"
            else:
                continue
            failed += 1
            problems.append(f"{item.name} pass {p + 1}: {why}")
    return attempted, failed, problems


def tail_index(n):
    """Index of the highest percentile with at least ten items beyond it."""
    return max(n - 11, 0)


def scaled_times(passes, speed):
    """Per pass, every item's time at reference speed (see speed.py)."""
    return [[run.seconds * speed.scale(run.start + run.seconds / 2) for run in results]
            for _, results in passes]


def end_to_end(items, scaled, failed, attempted, setup_s):
    # an item's time is its median over the passes after the first
    per_item = sorted(statistics.median(p[n] for p in scaled[1:])
                      for n in range(len(items)))
    k = tail_index(len(per_item))
    metrics = {
        "verdicts_per_s": len(items) / sum(per_item),
        "verdict_ms_p50": 1000 * statistics.median(per_item),
        "verdict_ms_tail": 1000 * per_item[k],
        "verdict_ok_ratio": 1 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    tail = {"percentile": round(100 * (k + 1) / len(per_item), 2),
            "items": len(per_item), "beyond": len(per_item) - k - 1}
    return metrics, tail


def run_workload(args):
    if not (SRC / "quivpush" / "__init__.py").is_file():
        die(f"no quivpush sources under {SRC}")
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import quivpush
    if Path(quivpush.__file__).resolve().parent != SRC / "quivpush":
        die(f"imported quivpush from {quivpush.__file__}, not from {SRC}")
    from corpus import PROPTEST_SUITES
    from tracer import Tracer

    default_seed, runs_rank = WORKLOADS[args.workload]
    seed = default_seed if args.seed is None else args.seed
    context = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
               "trace": args.trace, "nproc": os.cpu_count(),
               "python": platform.python_version(),
               "hash_seed": os.environ.get("PYTHONHASHSEED"),
               "loadavg_start": loadavg()}
    workdir = f"{WORKDIR}/{args.workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = Tracer() if args.trace else None
    try:
        start = time.perf_counter()
        if tracer:
            tracer.install()
        corpus_ = build_corpus(args.workload, seed, workdir)
        if tracer:
            tracer.uninstall()
        context["generate_s"] = time.perf_counter() - start
        os.makedirs(workdir)
        corpus_.write()
        context["corpus_sha256"] = corpus_.digest()
        context["corpus"] = corpus_.note
        print(f"workload {args.workload} seed {seed}: {len(corpus_.items)} items "
              f"({corpus_.note}); corpus sha256 {context['corpus_sha256']}", flush=True)
        runner = Runner(corpus_.items, seed)
        record = {"context": context}
        if args.trace:
            result = traced_run(runner, tracer, runs_rank, PROPTEST_SUITES, record)
        else:
            setup_s, setup_all = measure_setup(setup_argvs(corpus_, seed),
                                               f"{workdir}/setup_manifest.json")
            context["setup_runs_s"] = setup_all
            result = timed_run(runner, args.seconds, setup_s, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    context["loadavg_end"] = loadavg()
    for key in ("nproc", "python", "hash_seed", "loadavg_start", "loadavg_end",
                "generate_s"):
        print(f"context {key}: {context[key]}")
    if args.out:
        record["result"] = result
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def report(problems, attempted, failed):
    for line in problems[:20]:
        print(f"FAILED {line}")
    print(f"failed_ratio {failed / attempted:.6f} ratio "
          f"({failed} of {attempted} item runs)")


def timed_run(runner, seconds, setup_s, record):
    from speed import Speedometer
    items = runner.items
    speed = Speedometer()
    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(runner.run_pass(len(passes), speed=speed))
        elapsed = time.perf_counter() - begin
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    attempted, failed, problems = check(items, passes)
    scaled = scaled_times(passes, speed)
    metrics, tail = end_to_end(items, scaled, failed, attempted, setup_s)
    pass_s = [p[0] for p in passes]
    scaled_s = [sum(p) for p in scaled]
    print(f"first pass {pass_s[0]:.4f} s (not in the metrics); "
          f"{len(pass_s) - 1} measured passes: "
          + ", ".join(f"{s:.4f}" for s in pass_s[1:]) + " s; at reference speed: "
          + ", ".join(f"{s:.4f}" for s in scaled_s) + " s")
    report(problems, attempted, failed)
    print(f"verdict_ms_tail is p{tail['percentile']} of {tail['items']} items "
          f"({tail['beyond']} beyond it)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {UNITS[name]}")
    record["passes_s"] = pass_s
    record["passes_scaled_s"] = scaled_s
    record["tail"] = tail
    record["problems"] = problems
    record["items"] = [
        {"name": item.name, "expect": item.expect, "argv": list(item.argv),
         "exit": passes[-1][1][n].code,
         "certificate_sha256": passes[-1][1][n].cert,
         "seconds": [p[1][n].seconds for p in passes],
         "scaled_seconds": [p[n] for p in scaled]}
        for n, item in enumerate(items)]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": UNITS[name]}
                        for name, value in metrics.items()}}


def traced_run(runner, tracer, runs_rank, suites, record):
    warm = runner.run_pass(0)
    untraced = runner.run_pass(1)
    tracer.install()
    try:
        traced = runner.run_pass(1, tracer)
    finally:
        tracer.uninstall()
    attempted, failed, problems = check(runner.items, [warm, untraced, traced])
    metrics = tracer.metrics(suites)
    untraced_s = min(warm[0], untraced[0])
    metrics["trace.untraced_pass_s"] = untraced_s
    metrics["trace.traced_pass_s"] = traced[0]
    metrics["trace.overhead_ratio"] = traced[0] / untraced_s
    rank_calls = metrics["linalg.rank.calls"]
    if (rank_calls > 0) != runs_rank:
        failed += 1
        problems.append(f"linalg.rank.calls is {rank_calls}, expected "
                        + ("> 0" if runs_rank else "0"))
    report(problems, attempted, failed)
    print(f"tracing overhead {metrics['trace.overhead_ratio']:.3f} ratio "
          f"(traced pass {traced[0]:.4f} s, best untraced pass {untraced_s:.4f} s)")
    from tracer import LAYERS
    layers = sorted(((metrics[f"layer.{layer}.self_s"], layer) for layer in LAYERS),
                    reverse=True)
    print("layer self time: " + ", ".join(f"{layer} {s:.4f} s" for s, layer in layers))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {layer_unit(name)}")
    record["problems"] = problems
    record["item_layer_self_s"] = {runner.items[n].name: dict(layers_)
                                   for n, layers_ in tracer.item_layers().items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": layer_unit(name)}
                        for name, value in metrics.items()}}


def run_all(args):
    """Every workload in its own process, one at a time."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            die(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="instance-set seed (default: per workload)")
    parser.add_argument("--seconds", type=float, default=25,
                        help="how long the untraced passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="write the full result record (JSON) here")
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                   *sys.argv[1:]], env)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
