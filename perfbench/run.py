#!/usr/bin/env python3
"""ticketsift benchmark: a desk IMP run followed by the analysis commands on
its sparse last iteration, and the analysis commands on the dense iteration
of a stored run.

    python3 perfbench/run.py --workload imp_desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one after another

Run from a source checkout; the package is imported from ``src/``. One
client issues each operation after the previous one ends (a closed loop).
Operations are ``ticketsift.pruner.run_imp`` calls and ``ticketsift.cli.main``
command lines. Every operation's output is checked by the gates in
``gates.py``; a failed gate counts as a failed operation.

With ``--trace 0`` the last stdout line carries the end-to-end metrics named
in BENCHMARK.json, timings scaled to a reference machine speed (see
``REFERENCE_S``). With ``--trace 1`` operations alternate between untraced
and traced, and it carries the per-layer metrics from the traced ones plus
the tracing overhead. A full report (environment, digests, gate failures,
raw samples, every traced statistic) goes to ``.perfbench_work/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

WORKLOADS = ("imp_desk", "analyze_dense")
# The README desk config (3000 steps, eval every 500, rewind at 250) scaled
# by 1/25 so that one IMP run takes a few seconds.
STEPS = 120
SETUPS = {"imp_desk": 5, "analyze_dense": 3}
BIN_EDGES = [0, 2, 4, 8, 16, 32]
SMALL_CMDS = ("conn", "pixmap", "binomial", "export_masks")
# BLAS threads used unless the environment sets them, so that the thread
# count, which moves the result, is the same on every run. On a 2-core
# machine two OpenBLAS threads were not faster for run_imp.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
DEFAULT_THREADS = "1"
# The machine's speed drifts: on a shared 2-core host every timing of a run
# moved together by up to a third between runs minutes apart. Before each
# operation and command the benchmark times a fixed reference kernel, and
# reports each timing scaled to the speed at which that kernel takes
# REFERENCE_S (its median on the machine the baseline was measured on):
# timing * REFERENCE_S / median(kernel times of the run). Unscaled timings
# are printed and kept in the report.
REFERENCE_S = 0.015
ABLATION_ROWS = 22  # 11 default counts x 2 orders
MAX_FAILURES = 100
# Executions of each command in one pass: cheap commands run several times
# so that their medians rest on enough samples. The locality commands run
# once on a dense mask, where each takes seconds.
REPEATS = {"conn": 6, "pixmap": 6, "binomial": 6, "locality": 6, "locality_deep": 2,
           "locality_binned": 4, "effmask": 5, "ablate": 2, "export_masks": 4}


def recipe(seed: int, run_dir) -> dict:
    return {
        "dataset": {
            "format": "synthetic", "n_val": 1000, "seed": seed,
            "synthetic": {"width": 32, "height": 32, "channels": 1, "n_classes": 4,
                          "n_per_class": 1250, "patch": [12, 12, 8, 8], "noise_sd": 1.0},
        },
        "network": {"dims": [1024, 128, 128, 128, 4]},
        "train": {"batch_size": 100, "lr": 0.3, "steps": STEPS, "eval_every": STEPS // 6,
                  "rewind_step": STEPS // 12, "seed": seed},
        "imp": {"max_iterations": 10, "prune_fraction": 0.3, "rewind_step": STEPS // 12},
        "output": {"run_dir": str(run_dir)},
    }


def pass_commands(run_dir, it: int) -> list:
    """One pass of the analysis command list, as (metric key, argv)."""
    r, i = str(run_dir), str(it)
    return [
        ("conn", ["analyze", r, "conn", "--iteration", i]),
        ("pixmap", ["analyze", r, "pixmap", "--iteration", i]),
        ("binomial", ["analyze", r, "binomial", "--iteration", i]),
        ("locality", ["analyze", r, "locality", "--iteration", i, "--layer", "1"]),
        ("locality_deep", ["analyze", r, "locality", "--iteration", i, "--layer", "3"]),
        ("locality_binned", ["analyze", r, "locality-binned", "--iteration", i,
                             "--bin-edges", ",".join(map(str, BIN_EDGES))]),
        ("effmask", ["analyze", r, "effmask", "--iteration", i, "--layer", "3"]),
        ("ablate", ["ablate", r, "--iteration", i, "--order", "both"]),
        ("export_masks", ["export-masks", r, "--iteration", i, "--top", "8", "--weighted"]),
    ]


def commit_id(root: Path):
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def environment(root: Path, found: dict) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {}
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads_found": found,
        "threads_used": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit_id(root),
        "src_sha256": src.hexdigest(),
    }


class Bench:
    """One workload run: set-ups, the measured loop, gates and accounting."""

    def __init__(self, ts, gates, tracer, seed: int):
        self.ts, self.gates, self.tracer, self.seed = ts, gates, tracer, seed
        self.attempted = self.failed = 0
        self.failures: list = []  # the first MAX_FAILURES messages
        self.digests: list = []  # combined digest of every IMP run made
        self.first_digests = None
        self.reference_s: list = []  # every reference kernel time of the run
        import numpy  # after main() has set the BLAS thread variables

        rng = numpy.random.default_rng(0)
        self._grid = numpy.arange(1024, dtype=numpy.int64)
        self._acts = rng.standard_normal((100, 1024))
        self._weights = rng.standard_normal((1024, 128))

    def reference(self) -> None:
        """Time the reference kernel: the kinds of work the package does, in a
        fixed amount that the code under test cannot change. An interpreter
        loop, an outer difference and bincount over 1024 input positions (as
        the locality map does per node) and first-layer matrix products of
        the desk network at batch 100 (as training does)."""
        import numpy

        start = perf_counter()
        acc = 0
        for i in range(40000):
            acc += i * i
        d = self._grid[None, :] - self._grid[:, None]
        numpy.bincount((d + 1023).ravel())
        for _ in range(3):
            self._acts @ self._weights
        self.reference_s.append(perf_counter() - start)

    def traced(self, kind: str, on: bool):
        return self.tracer.unit(kind) if on else contextlib.nullcontext()

    def record(self, what: str, errors: list) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES:
                self.failures.append(f"{what}: {'; '.join(errors)}")

    def config(self, run_dir: Path):
        path = run_dir.with_suffix(".json")
        path.write_text(json.dumps(recipe(self.seed, run_dir)))
        return path

    def imp_run(self, cfg: dict, datasets, run_dir: Path) -> float:
        """run_imp on prepared datasets, then its gates; returns its wall time."""
        ts = self.ts
        imp_cfg = ts.pruner.ImpConfig(train_cfg=ts.trainer.TrainConfig(**cfg["train"]), **cfg["imp"])
        self.reference()
        start = perf_counter()
        try:
            ts.pruner.run_imp(cfg["network"]["dims"], datasets[0], datasets[1], imp_cfg, run_dir,
                              run_config=cfg)
            wall = perf_counter() - start
            errors = self.gates.check_imp_run(run_dir, cfg)
        except Exception as e:  # counted as a failed operation
            wall, errors = perf_counter() - start, [repr(e)]
        self.record("run_imp", errors)
        if not errors:
            digests = self.gates.run_digests(run_dir)
            self.first_digests = self.first_digests or digests
            self.digests.append(self.gates.combined_digest(digests))
        return wall

    def command(self, argv: list):
        out, err = io.StringIO(), io.StringIO()
        self.reference()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            rc = self.ts.cli.main(argv)
            seconds = perf_counter() - start
        return seconds, ([] if rc == 0 else [f"exit {rc}: {err.getvalue().strip()}"])

    def analysis_pass(self, run_dir: Path, it: int, masks: list) -> dict:
        """Run the command list in rounds until each command has run REPEATS
        times, and gate every execution. Rounds rather than back-to-back
        repeats spread each command's samples over the whole pass. Returns
        each command's latencies."""
        g = self.gates
        out, stem = run_dir / "analysis", f"iter{it:03d}"
        checks = {
            "locality": lambda: g.check_locality(out / f"{stem}_locality_l1_same.csv", masks[0]),
            "locality_deep": lambda: g.check_locality(
                out / f"{stem}_locality_l3_same.csv", g.effective_oracle(masks, 3)),
            "locality_binned": lambda: g.check_locality_binned(
                out, f"{stem}_locality_l1_same", masks[0], BIN_EDGES),
            "effmask": lambda: g.check_effmask(out / f"{stem}_effmask_l3.tkms", masks, 3),
            "ablate": lambda: g.check_ablation(out / f"{stem}_ablation.csv", ABLATION_ROWS),
        }
        dense = masks[0].all()
        commands = pass_commands(run_dir, it)
        latency = {key: [] for key, _ in commands}
        for round_ in range(max(REPEATS.values())):
            for key, argv in commands:
                if round_ >= (1 if dense and key.startswith("locality") else REPEATS[key]):
                    continue
                shutil.rmtree(out, ignore_errors=True)  # gate only what this execution wrote
                seconds, errors = self.command(argv)
                if not errors and key in checks:
                    try:
                        errors = checks[key]()
                    except (OSError, ValueError, KeyError) as e:
                        errors = [repr(e)]
                self.record(key, errors)
                latency[key].append(seconds)
        return latency


def run_workload(args, root: Path, spec: dict, found: dict) -> dict:
    import gates
    import ticketsift.cli  # the package __init__ does not import the CLI
    from spans import Tracer

    ts = ticketsift
    work = root / ".perfbench_work" / f"tmp-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    out_dir = root / ".perfbench_work" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    bench = Bench(ts, gates, tracer, args.seed)
    analysis = args.workload == "analyze_dense"
    setup_s, walls, traced_walls, samples = [], [], [], {}
    try:
        # set-up: build the dataset (and, for analyze_dense, the stored run)
        stored = None
        for k in range(SETUPS[args.workload]):
            run_dir = work / f"setup{k}"
            cfg_path = bench.config(run_dir)
            with bench.traced("setup", bool(args.trace)):
                start = perf_counter()
                cfg = ts.cli.load_run_config(cfg_path)
                datasets = ts.cli.build_dataset(cfg)
                prepare = perf_counter() - start
                setup_s.append(prepare + (bench.imp_run(cfg, datasets, run_dir) if analysis else 0.0))
            if analysis and k == 0:
                stored = run_dir
            elif analysis:
                shutil.rmtree(run_dir)

        if analysis:
            masks = gates.read_masks(stored / "iters/000/masks.tkms")
        start, i = perf_counter(), 0
        while i < (2 if args.trace else 1) or perf_counter() - start < args.seconds:
            on = bool(args.trace) and i % 2 == 1
            with bench.traced("op", on):
                if analysis:
                    latency = bench.analysis_pass(stored, 0, masks)
                    wall = sum(statistics.median(v) for v in latency.values())
                else:
                    run_dir = work / f"imp{i}"
                    wall = bench.imp_run(dict(cfg, output={"run_dir": str(run_dir)}), datasets, run_dir)
                    last = run_dir / f"iters/{cfg['imp']['max_iterations']:03d}"
                    latency = {}
                    if (last / "masks.tkms").is_file():
                        latency = bench.analysis_pass(
                            run_dir, int(last.name), gates.read_masks(last / "masks.tkms"))
                    shutil.rmtree(run_dir, ignore_errors=True)
            (traced_walls if on else walls).append(wall)
            if not on:
                for key, values in latency.items():
                    samples.setdefault(key, []).extend(values)
            i += 1
    except Exception:  # a defect that stops the workload is reported as a failure
        bench.record("workload", [traceback.format_exc(limit=4)])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # A metric with no samples (only after failures, so correct is false) reads 0.
    median = {key: statistics.median(values) for key, values in samples.items() if values}
    unscaled = {
        "setup_s": _median(setup_s),
        # analysis: one pass of the command list, from each command's median
        "wall_s": sum(median.values(), 0.0) if analysis else _median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "small_cmds_s": sum(median.get(key, 0.0) for key in SMALL_CMDS),
    }
    for key in ("locality", "locality_deep", "locality_binned", "effmask", "ablate"):
        unscaled[f"{key}_s"] = median.get(key, 0.0)
    scale = REFERENCE_S / _median(bench.reference_s) if bench.reference_s else 1.0
    metric_values = {key: value if key == "peak_rss_mb" else value * scale
                     for key, value in unscaled.items()}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(root, found),
        "attempted": bench.attempted, "failed": bench.failed,
        "error_rate": bench.failed / max(bench.attempted, 1),
        "failures": bench.failures,
        "digests": bench.first_digests, "combined_digests": bench.digests,
        "samples": {"setup_s": setup_s, "wall_s": walls, "traced_wall_s": traced_walls,
                    "latency_s": samples, "reference_s": bench.reference_s},
    }
    if args.trace:
        stats = tracer.stats()
        stats["trace.overhead_s"] = _median(traced_walls) - _median(walls)
        report["trace_stats"] = stats
        metrics = {m["name"]: {"value": stats.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        tracer.write(out_dir / f"spans-{args.workload}-s{args.seed}.jsonl")
    else:
        report["end_to_end"] = metric_values
        report["end_to_end_unscaled"] = unscaled
        report["scale"] = scale
        metrics = {m["name"]: {"value": metric_values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    report_path = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"environment: {json.dumps(report['environment'])}")
    print(f"operations: attempted {bench.attempted}, failed {bench.failed}, "
          f"error_rate {report['error_rate']}")
    for failure in bench.failures[:10]:
        print(f"  FAILED {failure}")
    repeat = "same" if len(set(bench.digests)) == 1 else "DIFFERENT"
    print(f"result digest: {bench.digests[0] if bench.digests else None} "
          f"({len(bench.digests)} IMP runs, {repeat})")
    print(f"reference kernel: median {_median(bench.reference_s)!r} s over "
          f"{len(bench.reference_s)} runs; timings scaled by {scale!r}")
    for name, m in metrics.items():
        raw = f" (unscaled {unscaled[name]!r})" if not args.trace and name != "peak_rss_mb" else ""
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}{raw}")
    print(f"report: {report_path.relative_to(root)}")
    return {"correct": not bench.failed, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def run_all(args) -> int:
    """Run every workload in its own process (peak RSS is per process)."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{workload}: benchmark exited {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "ticketsift" / "__init__.py").is_file():
        print(f"error: no ticketsift sources under {root / 'src'}", file=sys.stderr)
        return 2
    if not (root / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {root}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    found = {var: os.environ.get(var) for var in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ.setdefault(var, DEFAULT_THREADS)  # before numpy is imported
    sys.path.insert(0, str(root / "src"))
    import ticketsift

    if Path(ticketsift.__file__).resolve().parent != root / "src" / "ticketsift":
        print(f"error: imported ticketsift from {ticketsift.__file__}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    print(json.dumps(run_workload(args, root, spec, found)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
