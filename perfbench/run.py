"""fairtune benchmark: runs one workload through the fairtune CLI and prints
its metrics.

    python3 perfbench/run.py --workload tune --seed 1 --seconds 16 --trace 0

Run from the repository root (any checkout holding src/fairtune). With
--trace 0 every command runs in its own interpreter, as users run it, and the
end-to-end metrics are printed. With --trace 1 the workload runs inside this
process, in untraced passes and traced ones with spans around fairtune's
module functions (see spans.py), and the per-layer metrics are printed.
The last stdout line is one JSON object: correct, attempted, failed, metrics.

Thread settings (OPENBLAS_NUM_THREADS and friends) are recorded, never set:
the program runs in the environment it is given.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from arith import declared_candidates, fail_share
from spans import TAILED, Tracer, classify_tuning_training, layer_metrics, per_layer_units, span_cost_s
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_REPS = 3  # timed cycles of set-up and timed phase; see run_untraced
IMPORT_SAMPLES = 5
GRAD_CALLS = 1000
EPOCH_CALLS = 20
JOBS_SAMPLES = 2
OVERHEAD_PAIRS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "out_bytes": "bytes",
    "candidates_per_s": "1/s",
    "pseudo_acc": "fraction",
}


class Ops:
    """Counts operations (command runs and output checks) and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_proc(argv: list[str], log: Path) -> Proc:
    """Run a child to completion; wall time, and CPU and peak RSS of the
    child with its reaped descendants (pool workers), from wait4."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def fairtune_args(cmd: tuple[str, ...], config: Path, out: Path, seed: int) -> list[str]:
    if cmd[0] == "report":
        return ["report", str(out / "tuner_result.json")]
    return [cmd[0], "--config", str(config), "--out", str(out), "--seed", str(seed), *cmd[1:]]


def fairtune_cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "fairtune.cli", *args]


def snapshot(out: Path) -> dict[str, tuple[int, int]]:
    if not out.exists():
        return {}
    return {
        str(p.relative_to(out)): (p.stat().st_size, p.stat().st_mtime_ns)
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def phase_outputs(out: Path, before: dict) -> dict[str, tuple[int, str]]:
    """Files the phase created or rewrote under out: size and sha256."""
    after = snapshot(out)
    return {rel: (st[0], sha256_file(out / rel)) for rel, st in after.items() if before.get(rel) != st}


def remove_new_files(out: Path, before: dict) -> None:
    for rel in snapshot(out):
        if rel not in before:
            (out / rel).unlink()


def outputs_digest(files: dict[str, tuple[int, str]]) -> str:
    return hashlib.sha256("".join(f"{rel} {sha}\n" for rel, (_, sha) in sorted(files.items())).encode()).hexdigest()


def _sensitive_column(path: Path) -> dict[str, str]:
    """row id -> __sensitive cell of a canonical dataset CSV (metadata lines
    start with '#'; the reserved columns __row_id, __target, __sensitive come
    first)."""
    column = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("__row_id"):
                continue
            row_id, _, sensitive, _ = line.split(",", 3)
            column[row_id] = sensitive
    return column


def pseudo_accuracy(out: Path) -> float:
    """Share of validation rows whose pseudo attribute equals the ground
    truth the synthetic generator kept."""
    truth = _sensitive_column(out / "datasets" / "validation.csv")
    pseudo = _sensitive_column(out / "labelled_validation.csv")
    if set(truth) != set(pseudo) or not truth:
        raise ValueError("labelled validation rows do not match the validation split")
    return sum(pseudo[r] == truth[r] for r in truth) / len(truth)


def check_tuner_result(out: Path, ops: Ops, report_log: Path | None) -> float | None:
    """Round-trip tuner_result.json through TunerResult, render it with
    `fairtune report` and require a populated JTT bin. Returns the mean test
    DP gap over populated JTT bins."""
    from fairtune.tuning import TunerResult

    path = out / "tuner_result.json"
    try:
        stored = json.loads(path.read_text(encoding="utf-8"))["result"]
        round_trips = TunerResult.from_dict(stored).to_dict() == stored
    except (OSError, ValueError, KeyError, TypeError) as exc:
        ops.record(False, f"tuner_result.json unreadable: {exc}")
        return None
    ops.record(round_trips, "tuner_result.json does not round-trip")
    if report_log is not None:
        proc = run_proc(fairtune_cli(["report", str(path)]), report_log)
        text = report_log.read_text(encoding="utf-8", errors="replace")
        ops.record(proc.rc == 0 and "objective: dp_gap" in text, "fairtune report did not render the result")
    gaps = [b["test"]["dp_gap"] for b in stored["bins"] if b["winner"] is not None and b["test"]["dp_gap"] is not None]
    ops.record(bool(gaps), "no JTT accuracy bin populated")
    return sum(gaps) / len(gaps) if gaps else None


def check_labels(out: Path, ops: Ops) -> float | None:
    try:
        acc = pseudo_accuracy(out)
    except (OSError, ValueError) as exc:
        ops.record(False, f"pseudo labels unreadable: {exc}")
        return None
    ops.record(acc > 0.5, f"pseudo_acc {acc:.4f} does not beat chance")
    return acc


def write_config(wl: Workload, seed: int, where: Path) -> Path:
    where.mkdir(parents=True, exist_ok=True)
    path = where / "config.json"
    path.write_text(json.dumps(wl.config(seed), indent=1) + "\n", encoding="utf-8")
    return path


def run_untraced(wl: Workload, seed: int, seconds: float, work: Path, ops: Ops) -> tuple[dict, dict]:
    """Repeat cycles of a fresh set-up (config and prerequisite commands)
    and one pass of the timed commands on its outputs, until the timed
    passes add up to `seconds`, and at least MIN_REPS times. Alternating the
    two spreads both kinds of sample over the whole run, so that a slow
    spell of the machine weighs on set-up and timed phase alike. The first
    cycle runs slower than the rest (cold caches); it is not timed, and its
    outputs are checked and are the reference for the later cycles'."""
    logs = work / "logs"
    logs.mkdir(parents=True)
    # Every cycle uses the same paths, so that its outputs can be compared
    # byte for byte with the first cycle's.
    cycle = work / "cycle"
    out = cycle / "out"
    setup_walls: list[float] = []
    reps: list[dict] = []
    warmup: dict = {}
    first_setup = first_outputs = None
    identical = True
    pseudo_acc = test_dp_gap = None
    i = 0
    while len(reps) < MIN_REPS or sum(r["wall_s"] for r in reps) < seconds:
        shutil.rmtree(cycle, ignore_errors=True)
        start = time.perf_counter()
        config = write_config(wl, seed, cycle)
        for cmd in wl.setup:
            proc = run_proc(fairtune_cli(fairtune_args(cmd, config, out, seed)), logs / f"setup{i}-{cmd[0]}.log")
            ops.record(proc.rc == 0, f"setup {cmd[0]} exited {proc.rc}")
        setup_wall = time.perf_counter() - start
        setup_files = phase_outputs(out, {})

        before = snapshot(out)
        self_before = os.times()
        procs = []
        for cmd in wl.timed:
            proc = run_proc(fairtune_cli(fairtune_args(cmd, config, out, seed)), logs / f"rep{i}-{cmd[0]}.log")
            ops.record(proc.rc == 0, f"{cmd[0]} exited {proc.rc}")
            procs.append(proc)
        self_after = os.times()
        own_cpu = (self_after.user - self_before.user) + (self_after.system - self_before.system)
        files = phase_outputs(out, before)
        rep = {
            "wall_s": sum(p.wall_s for p in procs),
            "cpu_s": sum(p.cpu_s for p in procs) + own_cpu,
            "peak_rss_mb": max(p.maxrss_mb for p in procs),
            "out_bytes": sum(size for size, _ in files.values()),
            "commands_s": [round(p.wall_s, 4) for p in procs],
        }
        if i == 0:
            warmup = {"setup_s": setup_wall, **rep}
            first_setup, first_outputs = setup_files, files
            pseudo_acc = check_labels(out, ops)
            if wl.runs_tune:
                test_dp_gap = check_tuner_result(out, ops, logs / "report-check.log")
        else:
            setup_walls.append(setup_wall)
            reps.append(rep)
            same = setup_files == first_setup and files == first_outputs
            identical &= same
            ops.record(same, f"outputs of cycle {i} differ from the first cycle's")
        i += 1

    wall = statistics.median([r["wall_s"] for r in reps])
    stages = [cmd[0] for cmd in wl.timed]
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_walls),
        "cpu_s": statistics.median([r["cpu_s"] for r in reps]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in reps]),
        "out_bytes": reps[-1]["out_bytes"],
        "candidates_per_s": declared_candidates(wl.config(seed), stages) / wall,
        "pseudo_acc": pseudo_acc if pseudo_acc is not None else 0.0,
    }
    detail = {
        "warmup_cycle": warmup,
        "setup_walls_s": [round(w, 4) for w in setup_walls],
        "reps": reps,
        "declared_candidates": declared_candidates(wl.config(seed), stages),
        "test_dp_gap": test_dp_gap,
        "outputs_identical_across_reps": identical,
        "outputs_sha256": outputs_digest(first_outputs or {}),
        "output_files": {rel: {"bytes": size, "sha256": sha} for rel, (size, sha) in sorted((first_outputs or {}).items())},
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# Traced mode


def run_in_process(cmd: tuple[str, ...], config: Path, out: Path, seed: int, tracer: Tracer | None) -> int:
    """One fairtune command through fairtune.cli.main in this process, its
    stdout and stderr kept off the benchmark's own."""
    import fairtune.cli

    args = fairtune_args(cmd, config, out, seed)
    sink = io.StringIO()
    span = tracer.span("cli." + cmd[0].replace("-", "_")) if tracer else contextlib.nullcontext()
    with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return fairtune.cli.main(args)
        except Exception as exc:  # a traceback is a failed command, not a benchmark crash
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 1


def timed_pass(wl: Workload, config: Path, out: Path, seed: int, tracer: Tracer | None, ops: Ops) -> float:
    """One in-process pass of the timed commands, traced when a tracer is
    given; returns its wall time."""
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        for cmd in wl.timed:
            rc = run_in_process(cmd, config, out, seed, tracer)
            ops.record(rc == 0, f"in-process {cmd[0]} exited {rc}")
        return time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()


def micro_measures(wl: Workload, config_path: Path, out: Path, seed: int, tracer: Tracer) -> None:
    """Interpreter start plus import, one gradient step on batches of the
    workload's train split, and one-epoch training on that split, each
    with the hyper-parameters of the workload's first training grid point."""
    import numpy as np

    from fairtune.config import load_config
    from fairtune.data import read_dataset
    from fairtune.training import gradients, init_params, train_erm

    for i in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        run_proc([sys.executable, "-c", "import fairtune.cli"], out.parent / f"import{i}.log")
        tracer.record("cli.import", start, time.perf_counter())

    config = load_config(config_path, seed_override=seed, out_override=str(out))
    grid = config.jtt.stage2_grid if wl.train_grid == "stage2_grid" else config.labeller_grid
    hp = grid[0]
    train = read_dataset(out / "datasets" / "train.csv")
    X, y = train.features, train.targets.astype(np.float64)
    model = init_params(hp, X.shape[1])
    order = np.random.default_rng(hp.seed).permutation(X.shape[0])
    batches = max(1, X.shape[0] // hp.batch_size)
    for k in range(GRAD_CALLS):
        b = k % batches
        idx = order[b * hp.batch_size : (b + 1) * hp.batch_size]
        Xb, yb = X[idx], y[idx]
        start = time.perf_counter()
        gradients(model, Xb, yb, hp.weight_decay)
        tracer.record("training.grad", start, time.perf_counter())
    one_epoch = replace(hp, epochs=1)
    for _ in range(EPOCH_CALLS):
        start = time.perf_counter()
        train_erm(train, one_epoch)
        tracer.record("training.epoch", start, time.perf_counter())


def run_traced(wl: Workload, seed: int, work: Path, ops: Ops, spans_out: Path) -> tuple[dict, dict]:
    tracer = Tracer()
    config = write_config(wl, seed, work / "traced")
    out = work / "traced" / "out"
    tracer.run = "setup"
    tracer.install()
    try:
        for cmd in wl.setup:
            rc = run_in_process(cmd, config, out, seed, tracer)
            ops.record(rc == 0, f"in-process setup {cmd[0]} exited {rc}")
    finally:
        tracer.uninstall()
    before = snapshot(out)
    # The first in-process pass runs slower, so an untraced pass warms up.
    warmup_s = timed_pass(wl, config, out, seed, None, ops)
    remove_new_files(out, before)
    # Pairs of an untraced and a traced pass, alternating which runs first.
    # The first traced pass gives the timed phase's spans; later ones record
    # into a tracer that is thrown away.
    tracer.run = "timed"
    first_span = len(tracer.spans)
    pairs: list[tuple[float, float]] = []
    for i in range(OVERHEAD_PAIRS):
        pass_tracer = tracer if i == 0 else Tracer()
        wall = {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            wall[traced] = timed_pass(wl, config, out, seed, pass_tracer if traced else None, ops)
            if traced and i == 0:
                check_labels(out, ops)
                if wl.runs_tune:
                    check_tuner_result(out, ops, None)
            remove_new_files(out, before)
        pairs.append((wall[False], wall[True]))
    timed_spans = len(tracer.spans) - first_span

    tracer.run = "micro"
    micro_measures(wl, config, out, seed, tracer)
    if wl.compare_jobs:
        for i in range(JOBS_SAMPLES):
            for jobs in ("1", "2"):
                start = time.perf_counter()
                args = fairtune_args(("tune", "--jobs", jobs), config, out, seed)
                proc = run_proc(fairtune_cli(args), work / f"tune-jobs{jobs}-{i}.log")
                tracer.record(f"tuning.tune_jobs{jobs}", start, time.perf_counter())
                ops.record(proc.rc == 0, f"tune --jobs {jobs} exited {proc.rc}")
    classify_tuning_training(tracer.spans)
    tracer.write(spans_out)

    values, summaries = layer_metrics(tracer.spans)
    # The tracing overhead is what the spans of the first traced pass cost,
    # as a share of that pass. The pairs' difference, far noisier than the
    # overhead it would measure, is on the detail line as a cross-check.
    cost_s = span_cost_s()
    values["trace.overhead_share"] = timed_spans * cost_s / pairs[0][1]
    values["trace.spans"] = timed_spans
    detail = {
        "warmup_pass_s": warmup_s,
        "untraced_traced_pairs_s": pairs,
        "pairs_difference_share_median": statistics.median([(t - u) / u for u, t in pairs]),
        "span_cost_us": cost_s * 1e6,
        "spans_file": str(spans_out.relative_to(ROOT)),
        "tails": {m: s["tail_pct"] for m, s in summaries.items() if m in TAILED and s["n"]},
    }
    return values, detail


# ---------------------------------------------------------------------------


def environment(wl: Workload, seed: int) -> dict:
    """The machine and thread settings as found, never set."""
    import numpy as np

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = {}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version"), "config": dep.get("openblas configuration")}
    except (KeyError, TypeError, ValueError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "workload": wl.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fairtune" / "cli.py").is_file():
        print(f"perfbench: no fairtune sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-{os.getpid()}"
    ops = Ops()
    try:
        if args.trace:
            spans_out = ROOT / ".perfbench_out" / f"spans-{wl.name}-seed{args.seed}.jsonl"
            values, detail = run_traced(wl, args.seed, work, ops, spans_out)
            units = per_layer_units()
        else:
            values, detail = run_untraced(wl, args.seed, args.seconds, work, ops)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    detail["environment"] = environment(wl, args.seed)
    detail["fail_share"] = fail_share(ops.attempted, ops.failed)
    detail["failures"] = ops.failures
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}")
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:>16.6g} {unit}")
    print(f"  {'fail_share':34s} {detail['fail_share']:>16.6g} fraction")
    if "outputs_sha256" in detail:
        print(f"  outputs sha256 {detail['outputs_sha256']}")
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
