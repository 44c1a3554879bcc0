"""Benchmark of the bhkovacic verifier: end-to-end workloads and a per-layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan|closed_form|verify_all \
        --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout this file sits in.

``--trace 0`` repeats the workload's calls while another batch fits in
``--seconds`` (at least once) and reports the end-to-end metrics:
``wall_at_ref_s`` (median over batches of the batch's wall time rescaled to
a fixed machine speed, see ``pace.py``; the plain wall times are printed
too), ``setup_s`` (median time to import ``bhkovacic.cli`` and call
``build_parser()`` in a fresh process: this one before the first batch and
five fresh interpreters before every batch) and ``peak_rss_mb``.

``--trace 1`` alternates untraced and traced batches the same way and
reports the per-layer metrics: the plain wall time of a batch, span times
and call counts of the public functions of each module, exact counts, kernel timings on inputs taken from
the workloads, the process CPU time and the tracing overhead.  Spans are
written to ``.perfbench/trace-<workload>.jsonl``.

Every run checks its outputs against the digests and work amounts pinned in
``perfbench/expected.json``, prints ``fail_ratio`` and ``output_mismatch``
with the machine facts, and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics``.

The grids are fixed, so the inputs do not depend on ``--seed``; it is
recorded with the result.  ``BHK_THREADS`` is left as found: a set value is
reported, because it changes how ``scan`` runs, and a traced run refuses a
value above 1, because the wrappers do not reach pool workers.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pace import Pacer, time_reference
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("scan", "closed_form", "verify_all")
# fresh-interpreter set-up samples before each batch, so that they spread over
# the run like the batches do instead of catching one moment of a noisy machine
SETUP_PER_BATCH = 5

_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import bhkovacic.cli
bhkovacic.cli.build_parser()
print(time.perf_counter() - t0)
"""


def _import_program() -> float:
    """Import the checkout's package; the seconds taken to import it and build the parser."""
    package = SRC / "bhkovacic"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    cli = importlib.import_module("bhkovacic.cli")
    cli.build_parser()
    elapsed = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported {cli.__file__}, not the checkout's source")
    return elapsed


def setup_sample() -> float:
    """Set-up time of one fresh interpreter, which has ended when this returns."""
    child = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(child.stdout.strip())


def machine_facts() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "BHK_THREADS": os.environ.get("BHK_THREADS", "unset"),
    }


def peak_rss_mb() -> float:
    """The larger ``ru_maxrss`` of this process and its children, in MB (Linux reports KiB)."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib * 1024 / 1e6


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def timed(calls):
    t0 = time.perf_counter()
    result = calls()
    return time.perf_counter() - t0, result


def measure_end_to_end(workload, seconds: float, first_setup: float):
    walls, paced, references, setups, outcomes = [], [], [], [first_setup], []
    for _ in range(20):  # warm the reference kernel before it is used as a yardstick
        time_reference()
    start = time.perf_counter()
    batch = 0.0
    # stop before a batch that would not fit, so a run lasts about ``seconds``
    while not walls or time.perf_counter() - start + batch <= seconds:
        setups.extend(setup_sample() for _ in range(SETUP_PER_BATCH))
        pacer = Pacer()
        t0 = time.perf_counter()
        result = pacer.run(workload.calls)
        batch = max(batch, time.perf_counter() - t0)
        walls.append(pacer.wall_s)
        paced.append(pacer.wall_at_ref_s)
        references.extend(pacer.reference_s)
        outcomes.append(workload.check(result))
        del result
    return walls, paced, references, setups, outcomes, peak_rss_mb()


def median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def kernel_metrics() -> dict:
    """Single kernels timed on inputs taken from the workloads, each a median of repeats."""
    from bhkovacic import auxode, evidence, hautot
    from bhkovacic.algebra import Poly, rational_roots

    cell = evidence.det_sequence("G3", 20, 500)  # the scan's largest G3 cell
    closed_form = auxode.chandrasekhar_coeffs(8)  # degree 1681, as in closed_form
    det_inputs = [hautot.det_A(l) for l in range(2, 7)]  # the verify_all range
    linear = Poly([2, 1])
    # x^3 + x + 7e12: trial division up to sqrt(|a0|) shows as time here
    cubic = Poly([7 * 10**12, 1, 0, 1])
    return {
        "evidence.cell_d500.s": median_time(lambda: evidence.det_sequence("G3", 20, 500), 21),
        "evidence.max_D_bits": max(abs(v).bit_length() for v in cell.values),
        "algebra.poly_mul_1681.s": median_time(lambda: closed_form * linear, 3),
        "algebra.closed_form_max_bits": max(
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for c in closed_form.coeffs
        ),
        "algebra.rational_roots.s": median_time(
            lambda: [rational_roots(p) for p in det_inputs], 5
        ),
        "algebra.rational_roots.calls": len(det_inputs),
        "algebra.rational_roots_cubic.s": median_time(lambda: rational_roots(cubic), 3),
    }


def measure_traced(workload, seconds: float, trace_path: Path):
    """Alternate untraced and traced batches; per-layer metrics as medians over pairs."""
    plain_walls, plain_cpu, traced_walls, layers, outcomes = [], [], [], [], []
    if trace_path.exists():
        trace_path.unlink()
    start = time.perf_counter()
    while True:
        cpu0 = cpu_seconds()
        wall, result = timed(workload.calls)
        plain_cpu.append(cpu_seconds() - cpu0)
        plain_walls.append(wall)
        outcomes.append(workload.check(result))
        del result

        tracer = Tracer()
        tracer.install()
        try:
            wall, result = timed(workload.calls)
        finally:
            tracer.restore()
        traced_walls.append(wall)
        outcomes.append(workload.check(result))
        del result
        layers.append(tracer.layer_metrics())
        tracer.write(trace_path, rep=len(layers) - 1)
        pair = statistics.median(plain_walls) + statistics.median(traced_walls)
        if time.perf_counter() - start + pair > seconds:
            break

    # the lower median keeps exact counts integral
    metrics = {key: statistics.median_low(layer[key] for layer in layers) for key in layers[0]}
    scan_self = metrics["evidence.scan.self_s"]
    metrics["evidence.cells_per_s"] = metrics["evidence.cells"] / scan_self if scan_self else 0.0
    metrics.update(kernel_metrics())
    metrics["wall_s"] = statistics.median(plain_walls)
    metrics["process.cpu_s"] = statistics.median(plain_cpu)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    return metrics, outcomes, len(layers)


def metric_spec(benchmark: dict, section: str) -> dict:
    return {m["name"]: m["unit"] for m in benchmark[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    first_setup = _import_program()
    from workloads import WORKLOADS, gate

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    facts = machine_facts()
    threads = os.environ.get("BHK_THREADS")
    if threads is not None:
        print(f"perfbench: BHK_THREADS={threads} is set; scan runs with it", file=sys.stderr)
        if args.trace and threads.strip() not in ("", "1"):
            print("perfbench: a traced run is serial only; unset BHK_THREADS", file=sys.stderr)
            return 2

    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    if args.trace:
        values, outcomes, samples = measure_traced(
            workload, args.seconds, WORK_DIR / f"trace-{args.workload}.jsonl"
        )
        units = metric_spec(benchmark, "per_layer")
    else:
        walls, paced, references, setups, outcomes, rss = measure_end_to_end(
            workload, args.seconds, first_setup
        )
        samples = len(walls)
        values = {
            "wall_at_ref_s": statistics.median(paced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        }
        units = metric_spec(benchmark, "end_to_end")
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as scratch:
        extra = workload.extra(scratch) if workload.extra else {}
    verdict = gate(outcomes, extra, expected)

    print(f"perfbench {args.workload} trace={args.trace} seed={args.seed}")
    print(f"  facts: {json.dumps(facts)}")
    if args.trace:
        print(f"  samples: {samples} traced batches")
    else:
        print(f"  samples: {samples} batches")
        print(f"  wall_s each: {' '.join(f'{w:.4f}' for w in walls)}")
        print(f"  wall_at_ref_s each: {' '.join(f'{w:.4f}' for w in paced)}")
        print(
            f"  reference kernel: median {statistics.median(references):.6f} s"
            f" over {len(references)} cuts"
        )
        print(f"  setup samples: {' '.join(f'{t:.4f}' for t in setups)}")
        print(f"  wall_s = {statistics.median(walls)} s (plain wall time, median of batches)")
    for name, value in values.items():
        print(f"  {name} = {value} {units[name]}")
    print(
        f"  fail_ratio = {verdict['fail_ratio']} ratio"
        f" ({verdict['failed']} failed of {verdict['attempted']} verdicts)"
    )
    print(
        f"  output_mismatch = {verdict['output_mismatch']} flag"
        " (1: a digest differs from expected.json)"
    )
    if not verdict["work_ok"]:
        print(f"  work examined differs from {expected['work']}")
    result = {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
