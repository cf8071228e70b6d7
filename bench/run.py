"""Benchmark of the jointtri command line, run in-process, one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

A closed loop with one caller: each op is one ``jointtri.cli.run(argv)``
call on a generated input, sent only after the previous one returned, and
its output is checked before the next.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics, op times in refs (see reference.py);
with ``--trace 1`` ops run in pairs, one untraced and one traced, and it
carries the per-layer metrics of the traced ops plus the tracing overhead.
The line before it is a report with every metric, the environment and the
workload's quality figure.
``--workload all`` runs each workload in its own process and prints a
table.  See bench/README.md.
"""

import os
import time

START = time.perf_counter()

# Pin BLAS before numpy is first imported: the benchmark measures a single
# thread, and the machine it was written on has two cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
from reference import timed  # noqa: E402
from tracer import Tracer, patched  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
MIN_OPS = 11  # the tail percentile needs ten samples beyond it
TAIL_BEYOND = 10
SEED_STRIDE = 1000  # input k of workload seed s is generated with seed s*1000+k


def load_cli(root=ROOT):
    """Import jointtri.cli from the checkout's src, or exit 2 if it is absent."""
    src = root / "src"
    if not (src / "jointtri" / "cli.py").is_file():
        print(f"bench: no jointtri sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    from jointtri import cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        print(f"bench: imported jointtri from {cli.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return cli


def tail(samples):
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With fewer than eleven samples no such percentile exists; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(samples)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = len(ordered) - TAIL_BEYOND  # samples at or below the value
    return ordered[rank - 1], 100.0 * rank / len(ordered)


class Runner:
    """Generates a workload's inputs, runs and checks its ops, keeps the results."""

    def __init__(self, cli, workload, seed, workdir):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = Path(workdir)
        self.inputs = [self.workdir / f"input-{k}.json" for k in range(workload.pool)]
        self._parsed = {}
        self.times = []
        self.failures = []  # (op number, reason); a pair's two ops share an index
        self.problems = 0
        self.quality = []
        self.notes = {}  # extra report fields

    def generate(self):
        for k, path in enumerate(self.inputs):
            argv = ["generate", *self.workload.generate,
                    "--seed", str(self.seed * SEED_STRIDE + k), "--output", str(path)]
            if self.cli.run(argv) != 0:
                raise RuntimeError(f"input generation failed: {argv}")

    def paths(self, i):
        """(input, output) of op i."""
        k = i % len(self.inputs)
        return self.inputs[k], self.workdir / f"output-{k}.json"

    def call(self, i, tracer=None):
        """One op, unchecked: (seconds, exit code or exception)."""
        source, target = self.paths(i)
        target.unlink(missing_ok=True)
        argv = [*self.workload.command, "--input", str(source), "--output", str(target)]
        start = time.perf_counter()
        try:
            if tracer is None:
                code = self.cli.run(argv)
            else:
                code = tracer.span("cli.run", self.cli.run, argv)
        except Exception as exc:  # the loop goes on; the op counts as failed
            traceback.print_exc()
            return time.perf_counter() - start, exc
        return time.perf_counter() - start, code

    def op(self, i, tracer=None):
        """Run op i, check its output and record the outcome; returns seconds."""
        if tracer is None:
            seconds, code = self.call(i)
        else:
            with patched(tracer):
                seconds, code = self.call(i, tracer)
        self.times.append(seconds)
        reasons = self.check(i, code)
        if reasons:
            self.failures.extend((len(self.times) - 1, r) for r in reasons)
        else:
            self.problems += self.workload.problems_per_op
        return seconds

    def check(self, i, code):
        if code != 0:
            return [f"op {i} ended with {code!r}"]
        source, target = self.paths(i)
        try:
            with open(target) as fh:
                output = json.load(fh)
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        if checks.non_finite(output):
            return ["output holds a non-finite number"]
        if source not in self._parsed:
            with open(source) as fh:
                self._parsed[source] = json.load(fh)
        try:
            reasons = self.workload.check(output, self._parsed[source])
        except (KeyError, TypeError, ValueError) as exc:
            reasons = [f"malformed output: {type(exc).__name__}: {exc}"]
        if not reasons:
            self.quality.append(self.workload.quality.extract(output))
        return reasons


def set_up(runner, reps):
    """Generate the inputs, run one warm-up op and the reference, ``reps`` times.

    Returns the seconds of each repetition.
    """
    times = []
    for rep in range(reps):
        start = time.perf_counter()
        runner.generate()
        runner.call(rep)
        runner.workload.reference()
        times.append(time.perf_counter() - start)
    return times


def run_workload(cli, workload, seed, seconds, trace, workdir,
                 min_ops=MIN_OPS, setup_reps=SETUP_REPS, import_s=0.0):
    """Set up, measure for ``seconds`` and return (report, contract result)."""
    runner = Runner(cli, workload, seed, workdir)
    setup_times = set_up(runner, setup_reps)
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "src_lines": src_lines(),
        "setup": {"import_s": import_s, "reps_s": setup_times},
    }
    if trace:
        metrics = measure_traced(runner, seconds, min_ops)
    else:
        metrics = measure(runner, seconds, min_ops)
        metrics["setup_s"] = _metric(import_s + statistics.median(setup_times), "s")
    attempted = len(runner.times)
    failed = len({n for n, _ in runner.failures})
    report["failed_frac"] = failed / attempted
    report["failures"] = [f"op #{n}: {r}" for n, r in runner.failures[:20]]
    quality = workload.quality
    report["quality"] = {
        quality.name: {
            "value": quality.aggregate(runner.quality) if runner.quality else None,
            "unit": quality.unit,
            "better": quality.better,
        }
    }
    report["metrics"] = metrics
    report.update(runner.notes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    return report, result


def _metric(value, unit, **notes):
    return {"value": value, "unit": unit, **notes}


def measure(runner, seconds, min_ops):
    """Ops in a closed loop, each between two timings of the workload's reference.

    The gated times are in refs (see reference.py): an op's seconds over the
    mean of the reference's seconds just before and just after it.  The same
    figures in seconds go to the report.
    """
    reference = runner.workload.reference
    refs = [timed(reference)]
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        runner.op(i)
        refs.append(timed(reference))
        i += 1
    times = runner.times
    in_refs = [t / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:])]
    runner.notes["wall_clock"] = {
        "problems_per_s": _metric(runner.problems / sum(times), "1/s"),
        "op_s_p50": _metric(statistics.median(times), "s"),
        "op_s_tail": _tail_metric(times, "s"),
        "ref_s_p50": _metric(statistics.median(refs), "s", reference=reference.__name__),
    }
    return {
        "problems_per_ref": _metric(runner.problems / sum(in_refs), "1/ref"),
        "op_ref_p50": _metric(statistics.median(in_refs), "ref", samples=len(times)),
        "op_ref_tail": _tail_metric(in_refs, "ref"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def _tail_metric(samples, unit):
    value, percentile = tail(samples)
    return _metric(value, unit, percentile=percentile, samples=len(samples),
                   beyond=min(TAIL_BEYOND, len(samples) - 1))


def measure_traced(runner, seconds, min_ops):
    """Pairs of ops on one input, one traced and one not, in alternating order."""
    tracer = Tracer()
    plain = traced = 0.0
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                traced += runner.op(i, tracer)
            else:
                plain += runner.op(i)
        i += 1
    metrics = layer_metrics(tracer, ops=i)
    runner.notes["self_time_share"] = shares(tracer)
    metrics["trace_overhead_frac"] = _metric(traced / plain - 1.0, "fraction")
    return metrics


def layer_metrics(tracer, ops):
    """Per-layer metrics; times and counts are per traced op."""
    stats = tracer.stats
    per_op = {}

    iterations = stats["descent.iterations"]
    descents = len(iterations)
    in_descent = tracer.calls["triangularize.descend", "triangularize.loss"]
    backtracks = in_descent - descents - sum(iterations)
    found = len(stats["nearest.found"])
    for name in ("triangularize.descend", "triangularize.loss", "triangularize.gradient",
                 "triangularize.init", "linalg.skew_exp", "linalg.orthogonal_log",
                 "bounds.assemble_t_tilde", "bounds.inverse_spectral_norm",
                 "bounds.certificates", "harness.enumerate",
                 "harness.distance_to_nearest", "harness.converge",
                 "tensor.observable_matrices", "tensor.match_columns", "tensor.other",
                 "io.load", "io.dump_canonical", "cli.run"):
        per_op[f"{name}.self_s"] = _metric(tracer.self_s.get(name, 0.0) / ops, "s/op")
    for name in ("triangularize.loss", "triangularize.gradient", "linalg.skew_exp",
                 "linalg.orthogonal_log", "bounds.assemble_t_tilde"):
        per_op[f"{name}.calls"] = _metric(tracer.total_calls(name) / ops, "calls/op")
    per_op.update({
        "triangularize.iters_p50": _metric(
            statistics.median(iterations) if iterations else 0, "iterations"),
        "triangularize.backtracks_per_iter": _metric(
            backtracks / sum(iterations) if sum(iterations) else 0.0, "ratio"),
        "triangularize.grad_tol_frac": _metric(
            stats["descent.termination"].count("grad_tol") / descents if descents else 0.0,
            "fraction"),
        "bounds.operator_bytes": _metric(
            max(stats["operator_bytes"], default=0), "bytes", computed=True),
        "harness.enumerate.frames": _metric(
            max(stats["enumerate.frames"], default=0), "count", computed=True),
        "harness.logs_per_nearest": _metric(
            tracer.total_calls("linalg.orthogonal_log") / found if found else 0.0, "ratio"),
        "tensor.match_columns.perms": _metric(
            max(stats["match_columns.perms"], default=0), "count", computed=True),
        "io.bytes_read": _metric(sum(stats["io.bytes_read"]) / ops, "bytes/op"),
        "io.bytes_written": _metric(sum(stats["io.bytes_written"]) / ops, "bytes/op"),
    })
    return per_op


def shares(tracer):
    """Each span's and each layer's share of the traced ops' total time."""
    total = sum(tracer.self_s.values())
    spans = {name: s / total for name, s in sorted(tracer.self_s.items())}
    layers = {}
    for name, share in spans.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + share
    return {"spans": spans, "layers": layers}


def environment(seed):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "workload_seed": seed,
    }


def src_lines(root=ROOT):
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def run_all(seed, seconds, trace):
    """Each workload in its own process; prints every metric by name and unit."""
    ok = True
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"== {name}  attempted {result['attempted']}  failed {result['failed']}"
              f"  failed_frac {report['failed_frac']:.4g}")
        rows = dict(report["metrics"], **report.get("wall_clock", {}), **report["quality"])
        for metric, entry in rows.items():
            if "value" not in entry:
                continue
            notes = {k: v for k, v in entry.items() if k not in ("value", "unit", "better")}
            value = entry["value"]
            text = f"{value:.6g}" if isinstance(value, (int, float)) else str(value)
            print(f"  {metric:38s} {text:>14s} {entry['unit']:10s}"
                  f" {json.dumps(notes) if notes else ''}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    cli = load_cli()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    import_s = time.perf_counter() - START
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work")
    try:
        report, result = run_workload(cli, WORKLOADS[args.workload], args.seed,
                                      args.seconds, args.trace, workdir,
                                      import_s=import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
