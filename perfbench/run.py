"""Benchmark the ``emap`` CLI end to end, or per layer with ``--trace 1``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload diagnose --seed 1 --seconds 30 --trace 0

Workloads: ``diagnose``, ``verify``, ``logic-sweep`` (see
``perfbench/README.md``).  Every CLI invocation is a child process
(``perfbench/shim.py``), run one at a time from this process, with BLAS
pinned to one thread.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the human report.  Inputs, outputs and the artifact digest
store live under ``.perfbench_work/`` in the checkout.
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
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from layers import METRICS, MOVES, SpanSet, coverage, per_layer
from workloads import WORKLOADS, Step

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
SHIM = BENCH / "shim.py"

SETUP_REPEATS = 3
STARTUP_REPEATS = 3
RUN_BUDGET_S = 150.0  # no new job repetition starts after this much run time
RUN_LIMIT_S = 170.0  # a step still running at this run time is killed and fails
BLAS_THREADS = 1

END_TO_END = {
    "work_per_s": "work/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
}


@dataclass
class Invocation:
    label: str
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    problem: str | None = None
    spans: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and self.problem is None


class Runner:
    """Runs CLI steps one at a time and keeps every invocation it made."""

    def __init__(self, root: Path, env: dict, started: float):
        self.root = root
        self.env = env
        self.started = started
        self.invocations: list[Invocation] = []
        self.trace = False

    def __call__(self, step, cwd: Path) -> bool:
        return self.run(step, cwd).ok

    def run(self, step, cwd: Path) -> Invocation:
        cwd.mkdir(parents=True, exist_ok=True)
        env = dict(self.env)
        trace_file = cwd / ".spans.json"
        if self.trace:
            env["PERFBENCH_TRACE"] = str(trace_file)
            trace_file.unlink(missing_ok=True)
        stdout_path = cwd / (step.stdout or ".stdout")
        with open(stdout_path, "wb") as out, open(cwd / "stderr.log", "ab") as err:
            begin = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(SHIM), *step.argv], cwd=cwd, env=env, stdout=out, stderr=err
            )
            remaining = self.started + RUN_LIMIT_S - time.perf_counter()
            timer = threading.Timer(max(remaining, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - begin
        proc.returncode = os.waitstatus_to_exitcode(status)
        inv = Invocation(
            step.label, proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6
        )
        if inv.returncode != 0:
            inv.problem = f"exit code {inv.returncode}"
        elif step.check is not None:
            inv.problem = step.check(cwd, stdout_path)
        for name in step.artifacts + ((step.stdout,) if step.stdout else ()):
            inv.digests[name] = sha256_file(cwd / name)
        if self.trace and trace_file.exists():
            inv.spans = json.loads(trace_file.read_text(encoding="utf-8"))["spans"]
        if not inv.ok:
            print(f"FAILED {step.label}: {inv.problem}", file=sys.stderr)
        self.invocations.append(inv)
        return inv

    def out_of_time(self, next_rep_s: float) -> bool:
        return time.perf_counter() - self.started + next_rep_s > RUN_BUDGET_S


@dataclass
class Rep:
    work: float
    wall_s: float
    invocations: list
    digests: dict

    @property
    def rate(self) -> float:
        return self.work / self.wall_s if self.wall_s > 0 else 0.0


def sha256_file(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def tree_digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def blas_name() -> str:
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def child_env(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PERFBENCH_TRACE", "EMAP_THREADS")}
    blas = str(BLAS_THREADS)
    env.update(
        OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas, MKL_NUM_THREADS=blas,
        PYTHONHASHSEED="0", TMPDIR=str(tmp),
    )
    return env


def run_setup(workload, runner: Runner, run_dir: Path):
    setup_dir = run_dir / "setup"
    shutil.rmtree(setup_dir, ignore_errors=True)
    setup_dir.mkdir(parents=True)
    begin = time.perf_counter()
    plan = workload.setup(runner, setup_dir)
    elapsed = time.perf_counter() - begin
    digests = {name: sha256_file(setup_dir / name) for name in plan.artifacts}
    return plan, elapsed, digests


def run_job(plan, runner: Runner, job_dir: Path) -> Rep:
    invs = [runner.run(step, job_dir) for step in plan.steps]
    work = sum(step.work for step, inv in zip(plan.steps, invs) if inv.ok)
    digests = {k: v for inv in invs for k, v in inv.digests.items()}
    return Rep(work, sum(inv.wall_s for inv in invs), invs, digests)


class DigestLedger:
    """Artifact digests per (code, workload, seed), kept across runs in the checkout."""

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key
        self.problems: list[str] = []
        self.seen: dict[str, str | None] = {}

    def record(self, digests: dict, where: str) -> None:
        for name, digest in digests.items():
            if name in self.seen and self.seen[name] != digest:
                self.problems.append(f"{name} changed within the run ({where})")
            self.seen.setdefault(name, digest)

    def compare_and_store(self) -> None:
        try:
            ledger = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            ledger = {}
        earlier = ledger.get(self.key, {})
        for name, digest in self.seen.items():
            if name in earlier and earlier[name] != digest:
                self.problems.append(f"{name} differs from an earlier run of the same code and seed")
        ledger[self.key] = {**earlier, **self.seen}
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True), encoding="utf-8")
        tmp.replace(self.path)


def job_rate(plan, reps) -> float:
    """Work per second of a typical job repetition.

    Each step's wall time is its median over the repetitions, so one slow
    invocation does not move the figure; a step that failed in any
    repetition contributes no work.
    """
    work = wall = 0.0
    for i, step in enumerate(plan.steps):
        invs = [rep.invocations[i] for rep in reps]
        wall += statistics.median(inv.wall_s for inv in invs)
        if all(inv.ok for inv in invs):
            work += step.work
    return work / wall if wall > 0 else 0.0


def untraced(workload, runner, run_dir, seconds, ledger):
    plan, elapsed, digests = run_setup(workload, runner, run_dir)
    setups = [elapsed]
    ledger.record(digests, "set-up 1")
    reps = []
    job_s = 0.0
    while plan.steps:
        rep = run_job(plan, runner, run_dir / "job")
        reps.append(rep)
        job_s += rep.wall_s
        ledger.record(rep.digests, f"job repetition {len(reps)}")
        print(f"job repetition {len(reps)}: {rep.work:.0f} work in {rep.wall_s:.3f} s = {rep.rate:.2f} work/s")
        if len(setups) < SETUP_REPEATS:
            # the later set-ups interleave with the job, so the job's samples
            # spread over the whole run rather than one stretch of it
            _, elapsed, digests = run_setup(workload, runner, run_dir)
            setups.append(elapsed)
            ledger.record(digests, f"set-up {len(setups)}")
        # stop at the repetition count whose total job time lands nearest to --seconds
        enough = job_s + job_s / len(reps) / 2 >= seconds
        if (enough and len(setups) >= SETUP_REPEATS) or runner.out_of_time(rep.wall_s):
            break
    print(f"set-up: {len(setups)} runs, " + ", ".join(f"{s:.3f}" for s in setups) + " s")
    job_invs = [inv for rep in reps for inv in rep.invocations]
    total = len(runner.invocations)
    failed = sum(not inv.ok for inv in runner.invocations)
    return {
        "work_per_s": job_rate(plan, reps) if reps else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max((inv.rss_mb for inv in job_invs), default=0.0),
        "success_rate": (total - failed) / total if total else 0.0,
    }


def traced(workload, runner, run_dir, seconds, ledger):
    version = Step(["--version"], label="--version")
    startup = statistics.median(runner.run(version, run_dir / "startup").wall_s for _ in range(STARTUP_REPEATS))
    runner.trace = True
    plan, _, digests = run_setup(workload, runner, run_dir)
    ledger.record(digests, "traced set-up")
    setup_invs = list(runner.invocations[STARTUP_REPEATS:])
    plain, traced_reps = [], []
    begin = time.perf_counter()
    while plan.steps:
        runner.trace = False
        plain.append(run_job(plan, runner, run_dir / "job"))
        runner.trace = True
        traced_reps.append(run_job(plan, runner, run_dir / "job-traced"))
        for rep in (plain[-1], traced_reps[-1]):
            ledger.record(rep.digests, f"job pair {len(plain)}")
        pair_s = plain[-1].wall_s + traced_reps[-1].wall_s
        if time.perf_counter() - begin >= seconds or runner.out_of_time(pair_s):
            break

    spans = SpanSet()
    for inv in setup_invs:
        spans.add(inv.spans, inv.wall_s, 1.0)
    job_invs = [inv for rep in traced_reps for inv in rep.invocations]
    for inv in job_invs:
        spans.add(inv.spans, inv.wall_s, 1.0 / len(traced_reps))
    plain_rate = job_rate(plan, plain) if plain else 0.0
    traced_rate = job_rate(plan, traced_reps) if traced_reps else 0.0
    overhead = plain_rate / traced_rate - 1.0 if traced_rate > 0 else 0.0
    total_wall = sum(inv.wall_s for inv in job_invs)
    cover = sum(coverage(inv.wall_s, inv.spans) * inv.wall_s for inv in job_invs) / total_wall if total_wall else 0.0
    metrics = per_layer(spans, startup, overhead, cover)

    print(f"cli start-up (emap --version, median of {STARTUP_REPEATS}): {startup:.4f} s")
    print(f"tracing overhead: untraced {plain_rate:.2f} work/s vs traced {traced_rate:.2f} work/s "
          f"({len(plain)} repetitions each) = {overhead:+.2%}")
    print("per invocation: step | untraced s | traced s | overhead | span coverage")
    for i, step in enumerate(plan.steps):
        u = statistics.median(r.invocations[i].wall_s for r in plain)
        t = statistics.median(r.invocations[i].wall_s for r in traced_reps)
        c = statistics.median(coverage(r.invocations[i].wall_s, r.invocations[i].spans) for r in traced_reps)
        print(f"  {step.label:<28} {u:9.4f} {t:9.4f} {t / u - 1:+9.2%} {c:9.2%}")
    return metrics


def report_layers(metrics: dict, units: dict) -> None:
    layer = None
    for name, value in metrics.items():
        head = name.split(".")[0]
        if head != layer:
            layer = head
            print(f"[{layer}] should move: {MOVES[layer]}")
        print(f"  {name:<38} {value:>18.6g} {units[name]}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    if not (ROOT / "src" / "emap" / "cli.py").is_file():
        print(f"error: no emap sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    args = parse_args(argv)
    seed = args.seed % 2**32
    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    run_dir = WORK / f"{args.workload}-{seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    src_files = [p for p in (ROOT / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    bench_files = list(BENCH.glob("*.py"))
    code_id = tree_digest(src_files + bench_files)[:16]
    env_record = {
        "workload": args.workload, "seed": seed, "trace": args.trace, "seconds": args.seconds,
        "nproc": nproc, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "blas": blas_name(), "blas_threads": BLAS_THREADS, "threads_flag": threads,
        "git_commit": git_commit(ROOT), "code_digest": code_id,
    }
    workload = WORKLOADS[args.workload](seed, threads)
    runner = Runner(ROOT, child_env(run_dir / "tmp"), started)
    ledger = DigestLedger(WORK / "digests.json", f"{code_id}/{args.workload}/{seed}")

    print(f"perfbench {args.workload}: work unit = {workload.unit}")
    print("env: " + json.dumps(env_record, sort_keys=True))
    if args.trace:
        metrics, units = traced(workload, runner, run_dir, args.seconds, ledger), METRICS
    else:
        metrics, units = untraced(workload, runner, run_dir, args.seconds, ledger), END_TO_END
    ledger.compare_and_store()

    attempted = len(runner.invocations)
    failed = sum(not inv.ok for inv in runner.invocations)
    problems = [f"{inv.label}: {inv.problem}" for inv in runner.invocations if not inv.ok] + ledger.problems
    print("artifacts (sha256):")
    for name, digest in sorted(ledger.seen.items()):
        print(f"  {digest} {name}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print(f"invocations: {attempted} attempted, {failed} failed (error_rate {failed / max(attempted, 1):.4f})")
    if args.trace:
        report_layers(metrics, units)
    else:
        for name, value in metrics.items():
            print(f"  {name:<14} {value:>18.6f} {units[name]}")
    correct = not problems and attempted > 0 and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (run_dir / "result.json").write_text(
        json.dumps({"env": env_record, "artifacts": ledger.seen, "problems": problems, **result,
                    "invocations": [
                        {"label": i.label, "returncode": i.returncode, "wall_s": i.wall_s,
                         "cpu_s": i.cpu_s, "rss_mb": i.rss_mb}
                        for i in runner.invocations
                    ]}, indent=1),
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
