"""Compare the pipeline's output files with those of another revision.

    python tools/compare_outputs.py BASE_REV

BASE_REV's `src/` is extracted with `git archive` into a temporary
directory, which is removed at the end. With that tree and with this working
tree, the script runs prepare -> train-grid -> label -> mc-sweep -> tune,
skipping a command whose config section (`mc_noise`, `jtt`) is absent, and
then `report` as a table and as JSON. It does so for configs/synthetic.json
and for the `tune`, `label` and `pipeline_small` configs of
perfbench/workloads.py at seed 1, each three times: at --jobs 1, at --jobs 2,
and at --jobs 1 with OPENBLAS_NUM_THREADS=2 exported (no thread variable is
set for the other two). Both trees run here, in this interpreter, so BLAS
differences between machines cannot show up as differences.

Every one of those outputs is computed from thresholded predictions, so a
change in the last bits of training reaches them only once it flips a
prediction. Each run therefore also stores trained parameters, computed
from that run's own `datasets/train.csv` through `pool_map` at the run's
--jobs: `labeller_params.npy`, every epoch checkpoint of every labeller grid
point (`train_erm`), and, for a config with a `jtt` section,
`stage2_params.npy`, every epoch checkpoint of the first stage-2 grid point
(`train_upsampled`, with every third training row repeated at the largest
lambda), which covers the hidden-layer step where the labeller grid is
linear.

It prints one line per file of the --jobs 1 and --jobs 2 runs: `same`,
`differs`, `only in base` or `only in head`. Inside each tree it then
compares the --jobs 2 and the two-thread outputs, parameters included, with
the --jobs 1 outputs, and prints each file that differs. It exits
1 if a command fails, if a file differs inside head, or if a file differs
between the trees (or exists in one only) that no `Outputs changed:`
sentence of the newest CHANGES.md entry names in backquotes, by its path
inside --out or by its file name. A difference inside base is only printed.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

SEED = 1
# Run name -> (--jobs, thread variables exported); `jobs1` is the reference.
RUNS = {"jobs1": ("1", {}), "jobs2": ("2", {}), "blas2": ("1", {"OPENBLAS_NUM_THREADS": "2"})}
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHAIN = ("prepare", "train-grid", "label", "mc-sweep", "tune")
NEEDS = {"mc-sweep": "mc_noise", "tune": "jtt"}
# Run as a file, not with -c, so that pool workers started without fork can
# import its functions.
PARAMS_PROBE = """
import sys
import numpy as np
from fairtune import read_dataset, train_erm, train_upsampled
from fairtune.config import load_config
from fairtune.training import pool_map


def flat(checkpoints):
    return np.concatenate([t.ravel() for model in checkpoints for t in model.tensors])


def labeller(train, hp):
    return flat(train_erm(train, hp))


def stage2(ctx, hp):
    train, lam = ctx
    return flat(train_upsampled(train, train.row_ids[::3], lam, hp))


if __name__ == "__main__":
    config, train, jobs = load_config(sys.argv[1]), read_dataset(sys.argv[2]), int(sys.argv[3])
    np.save("labeller_params.npy", np.concatenate(pool_map(labeller, train, config.labeller_grid, jobs)))
    if config.jtt is not None:
        ctx, grid = (train, max(config.jtt.lambda_grid)), config.jtt.stage2_grid[:1]
        np.save("stage2_params.npy", np.concatenate(pool_map(stage2, ctx, grid, jobs)))
"""


def configs() -> dict[str, dict]:
    """Case name -> raw config. Setting the master seed in the config
    resolves as `--seed` does."""
    cases = {"synthetic": json.loads((ROOT / "configs" / "synthetic.json").read_text(encoding="utf-8"))}
    for name in ("tune", "label", "pipeline_small"):
        cases[name] = {**WORKLOADS[name].config(SEED), "seed": SEED}
    return cases


def run_case(src: Path, raw: dict, run: str, where: Path) -> list[str]:
    """Run the chain, `report` and the parameter probe with fairtune from
    `src` into `where`; returns a line per failed command."""
    where.mkdir(parents=True)
    config = where / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = where / "out"
    jobs, threads = RUNS[run]
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(threads, PYTHONPATH=str(src))
    runs = [
        ["-m", "fairtune.cli", cmd, "--config", str(config), "--out", str(out), "--jobs", jobs]
        for cmd in CHAIN
        if cmd not in NEEDS or NEEDS[cmd] in raw
    ]
    if "jtt" in raw:
        runs += [["-m", "fairtune.cli", "report", str(out / "tuner_result.json"), "--format", f] for f in ("table", "json")]
    probe = where / "params_probe.py"
    probe.write_text(PARAMS_PROBE, encoding="utf-8")
    runs.append([str(probe), str(config), str(out / "datasets" / "train.csv"), jobs])
    failures = []
    for args in runs:
        proc = subprocess.run([sys.executable, *args], cwd=where, env=env, capture_output=True, text=True)
        what = args[2] if args[0] == "-m" else "parameter probe"
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
            failures.append(f"{what} exited {proc.returncode}: {last}")
        elif what == "report":
            (where / f"report.{'txt' if args[-1] == 'table' else 'json'}").write_text(proc.stdout, encoding="utf-8")
    return failures


def files(case_dir: Path) -> dict[str, bytes]:
    """The outputs of one case: every file under out/ by its path there, the
    two report renderings and the probed parameters."""
    found = {str(p.relative_to(case_dir / "out")): p for p in (case_dir / "out").rglob("*") if p.is_file()}
    found.update({p.name: p for p in [*case_dir.glob("report.*"), *case_dir.glob("*_params.npy")]})
    return {rel: p.read_bytes() for rel, p in found.items()}


def named_changes(changes: Path) -> set[str]:
    """The backquoted names in `Outputs changed:` sentences of the newest
    CHANGES.md entry (its last line that starts with "- **")."""
    entries = [line for line in changes.read_text(encoding="utf-8").splitlines() if line.startswith("- **")]
    names: set[str] = set()
    # A quoted `Outputs changed:` only mentions the marker.
    for sentence in re.findall(r"(?<!`)Outputs changed:(.*?)(?:\.\s|\.?$)", entries[-1] if entries else ""):
        names.update(re.findall(r"`([^`]+)`", sentence))
    return names


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    named = named_changes(ROOT / "CHANGES.md")
    unexplained = inside_head = failed = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        archive = Path(tmp) / "base.tar"
        subprocess.run(["git", "-C", str(ROOT), "archive", "--prefix=base/", "-o", str(archive), argv[0], "src"], check=True)
        subprocess.run(["tar", "-xf", str(archive), "-C", tmp], check=True)
        trees = {"base": Path(tmp) / "base" / "src", "head": ROOT / "src"}
        for case, raw in configs().items():
            outputs = {}
            for run in RUNS:
                for tree, src in trees.items():
                    where = Path(tmp) / tree / f"{case}-{run}"
                    for failure in run_case(src, raw, run, where):
                        print(f"FAILED      {case}-{run} ({tree}) {failure}")
                        failed += 1
                    outputs[tree, run] = files(where)
            for run in ("jobs1", "jobs2"):
                old_files, new_files = outputs["base", run], outputs["head", run]
                for rel in sorted(old_files.keys() | new_files.keys()):
                    old, new = old_files.get(rel), new_files.get(rel)
                    if old == new:
                        status = "same"
                    else:
                        status = "differs" if old is not None and new is not None else (
                            "only in base" if new is None else "only in head"
                        )
                        if rel in named or Path(rel).name in named:
                            status += " (named)"
                        else:
                            unexplained += 1
                    print(f"{status:<12} {case}-{run}/{rel}")
            for tree in trees:
                reference = outputs[tree, "jobs1"]
                for run in ("jobs2", "blas2"):
                    other = outputs[tree, run]
                    differing = [
                        rel
                        for rel in sorted(reference.keys() | other.keys())
                        if reference.get(rel) != other.get(rel)
                    ]
                    for rel in differing:
                        print(f"{'differs':<12} {case}-{run}/{rel} from {case}-jobs1, inside {tree}")
                    if tree == "head":
                        inside_head += len(differing)
                    if not differing:
                        print(f"{'same':<12} {case}-{run} as {case}-jobs1, inside {tree}")
    print(f"{unexplained} unexplained difference(s), {inside_head} inside head, {failed} failed command(s)")
    return 1 if unexplained or inside_head or failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
