"""diffnet benchmark: end-to-end and per-layer metrics on four workloads.

Usage (from the repository root):

    python3 bench/run.py --workload lms_atc --seed 1 --seconds 15 --trace 0

The benchmark generates every job's config from the seed (``jobs.py``),
measures set-up in fresh interpreters, then runs the workload's jobs in this
process through ``diffnet.cli.main`` in repeated passes until ``--seconds``
have been measured.  The first pass warms caches and is the reference: its
outputs go through the gates in ``gates.py`` and the oracle in
``oracle.py``, and every later pass must write byte-identical files.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
The last stdout line is the JSON result; the full record, with the
environment block, goes to ``.bench_out/``.  The exit status is 1 when any
job fails a gate and 2 when the program to measure is missing.
"""

import os

# one BLAS thread in this process and its children only; set before numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gates  # noqa: E402
import oracle  # noqa: E402
from jobs import WORKLOADS, make_jobs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# fresh interpreters timed per run for setup_s.  The fastest is reported: set-up
# is mostly imports, which slow down by 20-60% for seconds at a time when other
# tenants load a shared machine.  On a shared 2-core VM the median of a run's
# probes followed those spells (spread over ten seeds 12-19%, against 5-9% for
# the minimum).
SETUP_PROBES = 51
# msd_gap_db above this means the simulation and its theory disagree
MSD_GAP_TOL_DB = 3.0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "git_commit": commit,
    }


def setup_probe(job_list: Path) -> float:
    """One cold set-up in a fresh interpreter (see setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(job_list)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs passes over a workload's jobs and keeps the gate verdicts."""

    def __init__(self, cli, jobs, work: Path):
        self.cli = cli
        self.jobs = jobs
        self.paths = []
        for job in jobs:
            cfg_path = work / "configs" / f"{job.name}.json"
            out_dir = work / "out" / job.name
            cfg_path.parent.mkdir(parents=True, exist_ok=True)
            cfg_path.write_text(json.dumps({**job.config, "outputs": str(out_dir)}, indent=1))
            self.paths.append((cfg_path, out_dir))
        self.reference = [None] * len(jobs)  # bytes of the first pass
        self.problems = [[] for _ in jobs]  # gate problems of the first pass
        self.summaries = [None] * len(jobs)
        self.attempted = 0
        self.failed = 0

    def run_pass(self) -> list[float]:
        """Run every job once; returns each job's wall time."""
        times = []
        for idx, job in enumerate(self.jobs):
            cfg_path, out_dir = self.paths[idx]
            shutil.rmtree(out_dir, ignore_errors=True)
            error = None
            t0 = time.perf_counter()
            try:
                status = self.cli.main([job.command, "--config", str(cfg_path)])
            except (Exception, SystemExit):  # a crashed job is a failed job, not a crashed run
                status, error = None, traceback.format_exc()
            times.append(time.perf_counter() - t0)
            self._judge(idx, job, status, error, out_dir)
        return times

    def _judge(self, idx, job, status, error, out_dir):
        files = {}
        for name in job.outputs:
            path = out_dir / name
            files[name] = path.read_bytes() if path.is_file() else None
        problems = []
        if status != 0:
            problems.append(f"exit status {status}" + (f"\n{error}" if error else ""))
        if self.reference[idx] is None:
            self.reference[idx] = files
            gate_problems, self.summaries[idx] = gates.check_outputs(job, files)
            self.problems[idx] = gate_problems
        elif files != self.reference[idx]:
            problems.append("outputs differ from the same job earlier in this run")
        problems += self.problems[idx]
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAIL {job.name}: " + "; ".join(problems), file=sys.stderr)

    def accuracy(self) -> tuple[float | None, float | None]:
        """(msd_gap_db, theory_rel_err), also gating both on the reference pass."""
        gaps, errs = [], []
        for idx, job in enumerate(self.jobs):
            summary = self.summaries[idx]
            if not (job.gap_valid or job.perfect_exchange):
                continue
            if summary is None or self.problems[idx] or not summary["stable_ms"]:
                continue
            if job.gap_valid:
                gap = abs(summary["msd_gap_db"])
                gaps.append(gap)
                if not gap <= MSD_GAP_TOL_DB:
                    self._late_failure(idx, f"msd_gap_db {gap:.3g} dB exceeds {MSD_GAP_TOL_DB} dB")
            if job.perfect_exchange:
                ref = oracle.reference_msd(summary["inputs"])
                err = abs(summary["msd_theory"] - ref) / ref
                errs.append(err)
                if not err <= gates.THEORY_REL_TOL:
                    self._late_failure(idx, f"theory off the oracle by {err:.3g} (relative)")
        return (max(gaps) if gaps else None), (max(errs) if errs else None)

    def _late_failure(self, idx, problem):
        # called after the reference pass only: that execution fails here, and
        # every later one through self.problems
        self.problems[idx].append(problem)
        self.failed += 1
        print(f"FAIL {self.jobs[idx].name}: {problem}", file=sys.stderr)


def run_untraced(runner: Runner, seconds: float, probe) -> tuple[list[list[float]], list[float]]:
    """Timed passes until their time reaches ``seconds``; returns per-pass job
    times and the set-up samples.  The samples are spread evenly over the
    passes, so that set-up and passes see the same spells of the machine."""
    times, setup = [], []
    while not times or sum(map(sum, times)) < seconds:
        times.append(runner.run_pass())
        done = min(sum(map(sum, times)) / seconds, 1.0)
        while len(setup) < round(SETUP_PROBES * done):
            setup.append(probe())
    return times, setup


def run_traced(runner: Runner, tracer, seconds: float, spans_path: Path):
    """Alternate untraced and traced passes; returns both lists of pass walls."""
    plain, traced = [], []
    first = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(sum(runner.run_pass()))
        begin = tracer.mark()
        tracer.install()
        try:
            traced.append(sum(runner.run_pass()))
        finally:
            tracer.uninstall()
        first = first or (begin, tracer.mark())
    tracer.dump(spans_path, *first)
    return plain, traced


def layer_metrics(tracer, jobs, passes: int, overhead_s: float) -> tuple[dict, dict]:
    """Per-layer metrics (see README.md) and the raw per-span aggregate."""
    agg = tracer.aggregate()
    steps = sum(job.steps for job in jobs if job.command == "simulate")

    def calls(name):
        return agg[name][0] / passes

    def self_per_call(name, scale):
        n, _, self_s = agg[name]
        return self_s / n * scale if n else 0.0

    def total_per_pass(*names):
        return sum(agg[name][1] for name in names) / passes

    out = {
        "datamodel.sample_snapshot.calls": calls("datamodel.sample_snapshot"),
        "diffusion.adaptive_step.calls": calls("diffusion.adaptive_step"),
        "diffusion.simulate_trial.self_us_per_step": (
            agg["diffusion.simulate_trial"][2] / (steps * passes) * 1e6 if steps else 0.0
        ),
        "cli.main.self_s": self_per_call("cli.main", 1.0),
        "cli.build.s": total_per_pass("cli.build_topology_spec", "cli.build_model_spec", "cli.build_strategy"),
        "trace.overhead_s": overhead_s,
    }
    for name in (
        "datamodel.sample_snapshot", "datamodel.sample_link_noise", "diffusion.adaptive_step",
        "diffusion.consensus_lms_step", "diffusion.smoothing_step", "combiners.adapt_weights_all",
        "rls.drls_step", "rls.crls_step", "kalman.dkf_tm_step", "kalman.ckf_step",
        "kalman.centralized_kf_step",
    ):
        out[f"{name}.self_us"] = self_per_call(name, 1e6)
    for name in (
        "diffusion.run_trials", "analysis.performance_report", "analysis.variance_constructs",
        "analysis.imperfect_constructs", "analysis.build_moments", "analysis.mean_stability",
        "analysis.learning_curve_theory", "kalman.simulate_state_trajectory",
    ):
        out[f"{name}.s"] = total_per_pass(name)
    for method in ("linear_solve", "series"):
        key = f"analysis.performance_report.{method}"
        out[key] = tracer.counts.get(key, 0) / passes
    return out, agg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="diffnet benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diffnet" / "__init__.py").is_file():
        print(f"error: diffnet sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    jobs = make_jobs(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        sys.path.insert(0, str(SRC))
        from diffnet import cli

        runner = Runner(cli, jobs, work)
        job_list = work / "jobs.json"
        job_list.write_text(json.dumps([(j.command, str(cfg)) for j, (cfg, _) in zip(jobs, runner.paths)]))

        env = environment()
        runner.run_pass()  # warm-up and reference pass, not timed
        msd_gap_db, theory_rel_err = runner.accuracy()
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "env": env,
            "jobs": [{"name": j.name, "command": j.command, "config": j.config} for j in jobs],
        }
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            plain, traced = run_traced(runner, tracer, args.seconds, OUT / f"spans-{tag}.npz")
            overhead = statistics.median(traced) - statistics.median(plain)
            computed, agg = layer_metrics(tracer, jobs, len(traced), overhead)
            record.update(untraced_pass_s=plain, traced_pass_s=traced, spans=agg)
        else:
            times, setup = run_untraced(runner, args.seconds, lambda: setup_probe(job_list))
            # per-job medians: a slow spell during one job does not move the others
            wall = sum(statistics.median(job_times) for job_times in zip(*times))
            node_steps = sum(job.node_steps for job in jobs)
            computed = {
                "setup_s": min(setup),
                "wall_s": wall,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            record.update(job_s=times, setup_samples_s=setup)
            # reported here, not in BENCHMARK.json: see bench/README.md
            printed = {
                "node_steps_per_s": (node_steps / wall if node_steps else None, "node-steps/s"),
                "msd_gap_db": (msd_gap_db, "dB"),
                "theory_rel_err": (theory_rel_err, "1"),
            }
            record["printed_metrics"] = {name: value for name, (value, _) in printed.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}
    fail_frac = runner.failed / runner.attempted
    record.update(metrics=metrics, attempted=runner.attempted, failed=runner.failed,
                  fail_frac=fail_frac, msd_gap_db=msd_gap_db, theory_rel_err=theory_rel_err)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str))

    print("env " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"attempted {runner.attempted} failed {runner.failed}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, (value, unit) in printed.items():
            print(f"  {name:48s} " + (f"{value:.6g} {unit}" if value is not None else "n/a"))
        print(f"  {'fail_frac':48s} {fail_frac:.6g} 1")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
