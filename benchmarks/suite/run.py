"""Benchmark of record: run one workload, check it, print its metrics.

Usage, from the repository root::

    python3 benchmarks/suite/run.py --workload fedclust-lenet5 --seed 0 \\
        --seconds 30 --trace 0
    python3 benchmarks/suite/run.py --smoke          # every workload, toy scale

A run repeats the workload's closed job — set up from ``--seed``, then
simulate to completion — for about ``--seconds`` and at least three
times, each time in a fresh single-threaded-BLAS process, and reports
medians.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 4, "failed": 0,
     "metrics": {"run_s": {"value": 5.61, "unit": "s"}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` untraced and traced repetitions alternate; the metrics are
the per-layer ones from the traced repetitions, the per-round table goes
to standard error and the spans to ``benchmarks/suite/out/``.  The exit
code is 1 when a repetition raised, timed out or failed a correctness
check, and 2 when the program's source is missing.
"""

import os

# Pin BLAS to one thread before NumPy is imported (the repetitions
# inherit it): accuracy is only bit-reproducible at a fixed thread
# count, and the pins in expected.json hold at one thread (README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
OUT = SUITE / "out"

#: No repetition starts that would end past this many seconds into the
#: run, whatever ``--seconds`` asks, so a run ends within 180 s.
HARD_LIMIT_S = 150.0
MIN_REPS = 3


def _import_program() -> None:
    """Put this checkout's ``src/`` first on the path, or exit 2."""
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        print(f"benchmark: no program source at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(SUITE))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        print(f"benchmark: imported repro from {repro.__file__}, not {package}",
              file=sys.stderr)
        sys.exit(2)


def machine() -> dict:
    """What the numbers were measured on."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_expected() -> dict:
    return json.loads((SUITE / "expected.json").read_text())


def declared(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in
    the order ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# ----------------------------------------------------------------------
# One repetition, in this process
# ----------------------------------------------------------------------
class Rep:
    """One set-up + run of a workload, with its checks."""

    def __init__(self, name: str, seed: int, smoke: bool, traced: bool) -> None:
        from tracer import Tracer
        from workloads import execute, setup

        self.name, self.traced = name, traced
        self.failures: list[str] = []
        self.setup_s = self.outcome = self.tracer = self.job = None
        try:
            t0 = time.perf_counter()
            self.job = setup(name, seed, smoke)
            self.setup_s = time.perf_counter() - t0
            if traced:
                self.tracer = Tracer()
                self.job.start = self._traced(self.job.start)
            self.outcome = execute(self.job)
        except Exception as exc:  # a raising run is a failed operation
            import traceback

            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"raised {type(exc).__name__}: {exc}")

    def _traced(self, start):
        tracer = self.tracer

        def run():
            with tracer.installed(), tracer.span("run"):
                return start()

        return run

    def check(self, expected: dict | None) -> str | None:
        """Check against the pins; return the federation digest."""
        from workloads import check_outcome, federation_digest

        if self.outcome is None:
            return None
        self.failures += check_outcome(self.name, self.outcome, expected)
        digest = federation_digest(self.job.federation)
        pinned = (expected or {}).get("federation_sha256")
        if pinned is not None and pinned != digest:
            self.failures.append(f"federation digest {digest} != pinned {pinned}")
        return digest


def one_run(name: str, seed: int, smoke: bool, traced: bool) -> dict:
    """Run the workload once here and summarise it as a JSON-ready dict."""
    from tracer import format_round_table, layer_metrics, round_table

    rep = Rep(name, seed, smoke, traced)
    digest = rep.check(None if smoke else load_expected().get(name, {}).get(str(seed)))
    record: dict = {"traced": traced, "failures": rep.failures}
    if rep.outcome is not None:
        out = rep.outcome
        record.update(
            notes=out.notes,
            setup_s=rep.setup_s,
            run_s=out.run_s,
            round_walls=out.round_walls,
            signature=list(out.signature()) + [digest],
        )
    if traced and not rep.failures:
        record["per_layer"] = layer_metrics(rep.tracer, rep.outcome)
        rows = round_table(rep.tracer)
        print(format_round_table(rows), file=sys.stderr)
        write_trace(name, seed, rep, record["per_layer"], rows)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return record


def write_trace(name: str, seed: int, rep: Rep, metrics: dict, rows: list) -> Path:
    """Spans, folded kernels and the round table of one traced run."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}.json"
    t = rep.tracer
    payload = {
        "workload": name,
        "seed": seed,
        "machine": machine(),
        "metrics": metrics,
        "rounds": rows,
        "span_fields": ["id", "name", "start_s", "end_s", "parent", "round", "self_s"],
        "spans": [list(s) for s in t.spans],
        "kernel_fields": ["parent", "name", "calls", "total_s", "self_s"],
        "kernels": [[owner, n, *acc] for (owner, n), acc in t.folded.items()],
    }
    path.write_text(json.dumps(payload) + "\n")
    print(f"spans written to {path}", file=sys.stderr)
    return path


# ----------------------------------------------------------------------
# A run: repetitions in fresh processes
# ----------------------------------------------------------------------
def _spawn(name: str, seed: int, smoke: bool, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--one-run",
           "--workload", name, "--seed", str(seed), "--trace", str(int(traced))]
    try:
        proc = subprocess.run(
            cmd + (["--smoke"] if smoke else []),
            stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "failures": [f"timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"traced": traced, "failures": [f"repetition exited {proc.returncode}"]}
    return json.loads(lines[-1])


def run_reps(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> list[dict]:
    """Repeat the job for about ``seconds`` (``MIN_REPS`` at least).

    Under ``trace`` untraced and traced repetitions alternate, starting
    untraced.  Every repetition must compute exactly what the first did.
    """
    records: list[dict] = []
    start = time.perf_counter()
    min_reps = 2 if trace else (1 if smoke else MIN_REPS)
    while True:
        rep_start = time.perf_counter()
        timeout = max(10.0, HARD_LIMIT_S + 20.0 - (rep_start - start))
        record = _spawn(name, seed, smoke, trace and len(records) % 2 == 1, timeout)
        reference = next((r for r in records if "signature" in r), None)
        if reference is not None and "signature" in record:
            if record["signature"] != reference["signature"]:
                what = "traced" if record["traced"] != reference["traced"] else "repeated"
                record["failures"].append(
                    f"{what} run differs from the first: "
                    f"{record['signature']} != {reference['signature']}"
                )
        for note in record.get("notes", []):
            print(f"{name} seed {seed}: {note}", file=sys.stderr)
        records.append(record)
        last = time.perf_counter() - rep_start
        elapsed = time.perf_counter() - start
        if len(records) >= min_reps and (
            smoke or elapsed + last > seconds or elapsed + last > HARD_LIMIT_S
        ):
            return records


def end_to_end(ok: list[dict]) -> dict[str, float]:
    """Medians over repetitions.

    The round time is each repetition's mean round, not a median over
    rounds: the host's speed flips between levels about 1.5x apart for
    seconds at a time, so round times are bimodal and their median jumps
    between the modes where a mean moves smoothly (README.md).
    """
    return {
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "run_s": statistics.median(r["run_s"] for r in ok),
        "round_mean_ms": statistics.median(
            statistics.fmean(r["round_walls"]) for r in ok
        ) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }


def per_layer(ok: list[dict]) -> dict[str, float]:
    """Median over traced repetitions; overhead against the untraced ones."""
    traced = [r for r in ok if r["traced"]]
    plain = statistics.median(r["run_s"] for r in ok if not r["traced"])
    values = {
        name: statistics.median(r["per_layer"][name] for r in traced)
        for name in traced[0]["per_layer"]
    }
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(r["run_s"] for r in traced) / plain - 1.0
    )
    return values


def report(name: str, seed: int, records: list[dict], trace: bool) -> dict:
    """Print the human-readable summary to stderr; return the JSON result."""
    failed = [r for r in records if r["failures"]]
    for record in failed:
        for failure in record["failures"]:
            print(f"FAILED {name} seed {seed}: {failure}", file=sys.stderr)
    ok = [r for r in records if not r["failures"]]
    needed = {False, True} if trace else {False}
    correct = not failed and needed <= {r["traced"] for r in ok}
    result = {"correct": correct, "attempted": len(records), "failed": len(failed),
              "metrics": {}}
    print(f"{name} seed {seed}: {len(ok)}/{len(records)} runs correct", file=sys.stderr)
    if not correct:
        return result
    units = declared("per_layer" if trace else "end_to_end")
    measured = per_layer(ok) if trace else end_to_end(ok)
    values = {key: measured[key] for key in units}
    if not trace:
        n = sum(len(r["round_walls"]) for r in ok)
        print(f"run_s {[round(r['run_s'], 4) for r in ok]}; "
              f"round_mean_ms over n={n} rounds", file=sys.stderr)
    for key, value in values.items():
        print(f"  {key:48s} {value:14.6g} {units[key]}", file=sys.stderr)
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name (default: all, with --smoke)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="toy scale (8 clients, 2 rounds), one repetition, no pins",
    )
    parser.add_argument("--one-run", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload is None and not args.smoke:
        parser.error("--workload is required without --smoke")
    names = [args.workload] if args.workload else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; options: {', '.join(WORKLOADS)}")
    if args.one_run:
        print(json.dumps(one_run(names[0], args.seed, args.smoke, bool(args.trace))))
        return 0
    print(f"measured on {machine()}", file=sys.stderr)
    results = {}
    for name in names:
        records = run_reps(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        results[name] = report(name, args.seed, records, bool(args.trace))
    result = results[names[0]] if len(names) == 1 else _merge(results)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _merge(results: dict) -> dict:
    """One result line for several workloads: metrics prefixed by name."""
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{key}": value
            for name, r in results.items()
            for key, value in r["metrics"].items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
