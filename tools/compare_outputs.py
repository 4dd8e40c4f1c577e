"""Compare the pipeline's output files with those of another revision.

    python tools/compare_outputs.py BASE_REV

BASE_REV is checked out with `git worktree add` in a temporary directory,
which is removed at the end. On that checkout and on this working tree, the
script runs prepare -> train-grid -> label -> mc-sweep -> tune, skipping a
command whose config section (`mc_noise`, `jtt`) is absent, and then
`report` as a table and as JSON. It does so for configs/synthetic.json and
for the `tune`, `label` and `pipeline_small` configs of
perfbench/workloads.py at seed 1, each at --jobs 1 and --jobs 2. Both trees
run here, in this interpreter, so BLAS differences between machines cannot
show up as differences.

Every one of those outputs is computed from thresholded predictions, so a
change in the last bits of training reaches them only once it flips a
prediction. The --jobs 1 run therefore also stores `labeller_params.npy`:
every epoch checkpoint's parameters of every labeller grid point, trained
with `fairtune.train_erm` on that run's own `datasets/train.csv`.

It prints one line per file: `same`, `differs`, `only in base` or `only in
head`. It exits 1 if a command fails, or if a file differs (or exists in one
tree only) that no `Outputs changed:` sentence of the newest CHANGES.md
entry names in backquotes, by its path inside --out or by its file name.
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
JOBS = ("1", "2")
CHAIN = ("prepare", "train-grid", "label", "mc-sweep", "tune")
NEEDS = {"mc-sweep": "mc_noise", "tune": "jtt"}
PARAMS_PROBE = """
import sys
import numpy as np
from fairtune import read_dataset, train_erm
from fairtune.config import load_config
grid, train = load_config(sys.argv[1]).labeller_grid, read_dataset(sys.argv[2])
params = [t.ravel() for hp in grid for model in train_erm(train, hp) for t in model.tensors]
np.save(sys.argv[3], np.concatenate(params), allow_pickle=False)
"""


def configs() -> dict[str, dict]:
    """Case name -> raw config. Setting the master seed in the config
    resolves as `--seed` does."""
    cases = {"synthetic": json.loads((ROOT / "configs" / "synthetic.json").read_text(encoding="utf-8"))}
    for name in ("tune", "label", "pipeline_small"):
        cases[name] = {**WORKLOADS[name].config(SEED), "seed": SEED}
    return cases


def run_case(src: Path, raw: dict, jobs: str, where: Path) -> list[str]:
    """Run the chain and `report` with fairtune from `src` into `where`,
    and at the first --jobs value the parameter probe; returns a line per
    failed command."""
    where.mkdir(parents=True)
    config = where / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = where / "out"
    env = {**os.environ, "PYTHONPATH": str(src)}
    runs = [
        ["-m", "fairtune.cli", cmd, "--config", str(config), "--out", str(out), "--jobs", jobs]
        for cmd in CHAIN
        if cmd not in NEEDS or NEEDS[cmd] in raw
    ]
    if "jtt" in raw:
        runs += [["-m", "fairtune.cli", "report", str(out / "tuner_result.json"), "--format", f] for f in ("table", "json")]
    if jobs == JOBS[0]:
        runs.append(["-c", PARAMS_PROBE, str(config), str(out / "datasets" / "train.csv"), "labeller_params.npy"])
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
    found.update({p.name: p for p in [*case_dir.glob("report.*"), *case_dir.glob("labeller_params.npy")]})
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
    unexplained = failed = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        base = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(base), argv[0]], check=True)
        try:
            for case, raw in configs().items():
                for jobs in JOBS:
                    tag = f"{case}-jobs{jobs}"
                    trees = {}
                    for tree, src in (("base", base / "src"), ("head", ROOT / "src")):
                        where = Path(tmp) / tree / tag
                        for failure in run_case(src, raw, jobs, where):
                            print(f"FAILED      {tag} ({tree}) {failure}")
                            failed += 1
                        trees[tree] = files(where)
                    for rel in sorted(trees["base"].keys() | trees["head"].keys()):
                        old, new = trees["base"].get(rel), trees["head"].get(rel)
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
                        print(f"{status:<12} {tag}/{rel}")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)], check=False)
    print(f"{unexplained} unexplained difference(s), {failed} failed command(s)")
    return 1 if unexplained or failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
