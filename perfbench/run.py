"""diecert benchmark: one seeded workload per run, every output checked.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory. ``--trace 0`` measures the end-to-end metrics with nothing
wrapped, over a fixed number of cycles that take about ``--seconds`` on the
machine ``CYCLE_SECONDS`` was measured on. ``--trace 1`` runs a fixed number
of cycles twice, first with the tracer installed and then without, checks
that both passes print the same bytes, and reports the per-layer metrics and
the tracing overhead.
``--workload all`` runs every workload in turn in this one process.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those of ``BENCHMARK.json``. Everything else (the metric table, the
environment, failure causes) comes before it. Spans and results are written
to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# one process, no worker threads: pin the numeric libraries before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from array import array  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("certify", "sweep", "sim_adaptive", "sim_iid")
HELD_OUT_SEED = 604  # never used while tuning; kept for later claims
SETUP_REPEATS = 11
# Wall time of one cycle on a shared 2-vCPU x86-64 VM (Python 3.11, numpy
# 2.4). An untraced run does a fixed number of cycles, --seconds over this,
# so a seed always gives the same ops, attempted and failed counts included.
CYCLE_SECONDS = {"certify": 20.0, "sweep": 0.027, "sim_adaptive": 4.2, "sim_iid": 1.45}
# cycles per pass in a traced run: fixed, so the counts repeat exactly
TRACE_CYCLES = {"certify": 1, "sweep": 200, "sim_adaptive": 1, "sim_iid": 6}
# the end-to-end metrics printed for people; the JSON line carries those of BENCHMARK.json
E2E_UNITS = {
    "setup_s": "s", "latency_p50_s": "s", "latency_tail_s": "s", "ops_per_s": "1/s",
    "rounds_per_s": "1/s", "failed_share": "ratio", "peak_rss_mb": "MB",
    "mean_rate_bits": "bits/round",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "diecert" / "__init__.py").is_file():
    fail(f"no diecert package under {SRC}")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import diecert  # noqa: E402
import workloads  # noqa: E402

if Path(diecert.__file__).resolve().parent != SRC / "diecert":
    fail(f"imported diecert from {diecert.__file__}, not from {SRC}")


class Tally:
    """Running totals of a pass. Per op it keeps one float (and, in a traced
    run, a 16-byte digest of the output), so the harness adds little to the
    peak memory however many ops it runs."""

    def __init__(self, keep_digests: bool):
        self.passed = array("d")  # seconds of each op that passed its check
        self.attempted = 0
        self.busy = 0.0
        self.rounds = 0
        self.cli_ops = 0
        self.cli_bytes = 0
        self.rates: list[float] = []
        self.causes: dict[str, int] = {}
        self.digests: list[bytes] | None = [] if keep_digests else None

    def execute(self, op: workloads.Op) -> None:
        start = perf_counter()
        try:
            output, error = op.run(), None
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            output, error = "", exc
        seconds = perf_counter() - start
        facts = {}
        if error is None:
            try:
                facts = op.check(output)
            except Exception as exc:  # wrong or unparsable output
                error = exc
        self.attempted += 1
        self.busy += seconds
        if op.cli:
            self.cli_ops += 1
            self.cli_bytes += len(output.encode())
        if error is None:
            self.passed.append(seconds)
            self.rounds += op.rounds
            if "rate" in facts:
                self.rates.append(facts["rate"])
        else:
            cause = op.known(error) or f"unexpected {op.kind}: {type(error).__name__}: {error}"
            self.causes[cause] = self.causes.get(cause, 0) + 1
            output += f"{type(error).__name__}: {error}"
        if self.digests is not None:
            self.digests.append(hashlib.blake2b(output.encode(), digest_size=16).digest())

    @property
    def failed(self) -> int:
        return self.attempted - len(self.passed)

    def latency(self) -> dict:
        passed = sorted(self.passed)
        if not passed:
            return {"p50": 0.0, "tail": 0.0, "percentile": 0.0, "samples": 0, "beyond": 0}
        # nearest rank: the highest rank with ten samples beyond it (the
        # fastest op if ten or fewer passed)
        rank = max(1, len(passed) - 10)
        return {
            "p50": statistics.median(passed),
            "tail": passed[rank - 1],
            "percentile": 100.0 * rank / len(passed),
            "samples": len(passed),
            "beyond": len(passed) - rank,
        }

    def mean_rate(self) -> float:
        return statistics.fmean(self.rates) if self.rates else 0.0


def run_cycles(workload: str, seed: int, cycles: int, keep_digests: bool = False) -> Tally:
    tally = Tally(keep_digests)
    for k in range(cycles):
        for op in workloads.cycle(workload, seed, k):
            tally.execute(op)
    return tally


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from starting a fresh interpreter until its first op is ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            times.append(perf_counter() - start)
            probe.stdout.read()
            code = probe.wait()
        if line.strip() != "ready" or code != 0:
            fail(f"setup probe for {workload} exited {code}")
    return statistics.median(times)


def untraced_run(workload: str, seed: int, seconds: float) -> tuple[dict, Tally]:
    setup = setup_seconds(workload, seed)
    tally = run_cycles(workload, seed, max(1, round(seconds / CYCLE_SECONDS[workload])))
    lat = tally.latency()
    metrics = {
        "setup_s": setup,
        "latency_p50_s": lat["p50"],
        "latency_tail_s": lat["tail"],
        "ops_per_s": len(tally.passed) / tally.busy,
        "rounds_per_s": tally.rounds / tally.busy,
        "failed_share": tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mean_rate_bits": tally.mean_rate(),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
        "latency_p50_s": f"median of {lat['samples']} passed ops",
        "latency_tail_s": f"p{lat['percentile']:.2f}, {lat['samples']} samples, "
                          f"{lat['beyond']} beyond",
        "failed_share": f"{tally.failed} of {tally.attempted} ops",
    }
    if not workload.startswith("sim"):
        notes["rounds_per_s"] = "not reported on this workload"
    if workload != "certify":
        notes["mean_rate_bits"] = "not reported on this workload"
    for name, value in metrics.items():
        print(f"  {name:<16} {value:>14.6g} {E2E_UNITS[name]:<10} {notes.get(name, '')}")
    return metrics, tally


def traced_run(workload: str, seed: int) -> tuple[dict, Tally, dict]:
    import tracing

    cycles = TRACE_CYCLES[workload]
    with tracing.Tracer() as tracer:
        traced = run_cycles(workload, seed, cycles, keep_digests=True)
    plain = run_cycles(workload, seed, cycles, keep_digests=True)
    same = traced.digests == plain.digests
    metrics = tracer.metrics(traced.attempted)
    base = plain.latency()["p50"]
    metrics["cli.output_bytes"] = plain.cli_bytes / plain.cli_ops if plain.cli_ops else 0.0
    metrics["trace.overhead_share"] = traced.latency()["p50"] / base - 1 if base else 0.0
    metrics["rates.mean_rate_bits"] = plain.mean_rate()
    for name, value in metrics.items():
        print(f"  {name:<52} {value:.6g}")
    print(f"  traced stdout identical to untraced: {same}")
    return metrics, plain, {"stdout_identical": same, **tracer.dump()}


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        workloads.cycle(args.workload, args.seed, 0)
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, reported = True, 0, 0, {}
    for workload in names:
        print(f"{workload} seed={args.seed} trace={args.trace}")
        extra = {}
        if args.trace:
            metrics, tally, extra = traced_run(workload, args.seed)
            correct = correct and extra["stdout_identical"]
        else:
            metrics, tally = untraced_run(workload, args.seed, args.seconds)
        found = tally.causes
        print("  failure causes " + json.dumps(found, sort_keys=True))
        correct = correct and all(c in workloads.KNOWN_DEFECTS for c in found)
        attempted += tally.attempted
        failed += tally.failed
        values = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}
        if args.workload == "all":
            reported.update({f"{workload}.{k}": v for k, v in values.items()})
        else:
            reported = values
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        record = {"env": env, "workload": workload, "metrics": metrics, "failures": found,
                  **extra}
        path = out / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
