"""Compare the workflow outputs of two semrel source trees, byte for byte.

    python3 tools/compare_artifacts.py PARENT_SRC CHANGE_SRC [--workloads ...] [--seeds ...]

For each workload and seed it writes the benchmark world once with
bench/world.py, then runs the six commands of bench/run.py's ``workflow`` as
``python3 -m semrel`` with PYTHONPATH set to PARENT_SRC and to CHANGE_SRC in
turn, and compares the eight artifacts of the two runs. It also compares what
each command printed: a command's standard output goes to ``<stage>.stdout``
beside its artifacts, and that side's output directory is replaced in it by
the token ``<out>`` before the two sides are compared. What ``semrel
--help`` and each command's ``--help`` print, with their exit codes, is
compared once per side and counted among the command outputs. Every artifact
or output that differs, or that one side did not write, gets a line; the exit
code is 1 if any does and 0 otherwise. A .json artifact whose bytes differ
but whose document is the same, as when only the layout changed, is reported
as "same JSON content" and counted apart in the summary; it still sets exit
code 1.
When the two documents have the same structure (the same keys, list lengths,
strings and nulls) and differ only in numbers, the line gives the largest
absolute numeric difference, as for a model retrained with other rounding;
it also sets exit code 1.
``--train-args`` adds flags to both ``train`` commands, to compare settings
that no workload trains.

Each side's workflow runs RUNS times per workload and seed, the sides
alternating. The artifacts and outputs of the first runs are compared as
above, and each later run must repeat its side's first run byte for byte
(rerun determinism): every artifact or output that does not gets a line and
sets exit code 1. For each workload and seed, one line also gives each
command's median peak resident memory over the runs on both sides, with the
lowest and highest run beside it, read from the command's own rusage as
bench/run.py reads it. One run's peak is bimodal by about 1 MB on some
commands, and so can the median of three be, so the range shows whether two
sides' medians are apart by more than that noise. All commands run before any artifact
is compared, so that this process stays as lean as bench/run.py's runner.
Before the summary, one line counts the rerun comparisons and the ones that
differ, and one gives the physical lines of each side's semrel/*.py as
``wc -l`` counts them.

Nothing under bench/ is written; worlds and outputs go to a temporary
directory that is removed at the end.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import ARTIFACTS, STAGES, workflow  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The commands whose --help texts are compared, after that of semrel itself.
COMMANDS = ("extract-paths", "train", "tune", "predict", "evaluate")
# Workflow runs per side, workload and seed.
RUNS = 3


def run_workflow(src: Path, workload: str, world: Path, out: Path,
                 train_args: list[str]) -> dict[str, float]:
    """Run the six commands against ``src``, stopping after the first failure;
    returns the peak resident memory in MB of each command that ran, read from
    its own rusage as bench/run.py reads it. A command's standard output goes
    to a file, not a pipe, since the command is waited for with os.wait4."""
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src))
    peaks = {}
    for stage, argv in workflow(WORKLOADS[workload], world, out):
        if stage.startswith("train"):
            argv = argv + train_args
        with open(out / f"{stage}.stdout", "w") as stdout, tempfile.TemporaryFile("w+") as err:
            proc = subprocess.Popen([sys.executable, "-m", "semrel", *argv], env=env, cwd=out,
                                    stdout=stdout, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            peaks[stage] = usage.ru_maxrss / 1024.0
            if proc.returncode != 0:
                err.seek(0)
                print(f"{src}: {stage} exited with {proc.returncode}: {err.read().strip()}")
                break
    return peaks


def peak_summary(runs: list[dict[str, float]]) -> dict[str, tuple[float, float, float]]:
    """Each command's lowest, median and highest peak over one side's
    ``runs``, in the first run's command order; a run that stopped before a
    command is left out of that command's figures."""
    summary = {}
    for stage in runs[0]:
        peaks = [run[stage] for run in runs if stage in run]
        summary[stage] = (min(peaks), statistics.median(peaks), max(peaks))
    return summary


def _peak_text(low: float, median: float, high: float) -> str:
    return f"{median:.1f} ({low:.1f}-{high:.1f})"


def rerun_differences(first: Path, later: Path) -> list[str]:
    """The artifacts and printed outputs that the run in ``later`` wrote
    otherwise than the run in ``first``, or that only one of them wrote."""
    names = []
    for name in ARTIFACTS:
        a, b = first / name, later / name
        if a.is_file() != b.is_file() or a.is_file() and not filecmp.cmp(a, b, shallow=False):
            names.append(name)
    names.extend(f"output of {stage}" for stage in STAGES
                 if _read_output(first, stage) != _read_output(later, stage))
    return names


def help_texts(src: Path) -> dict[str, tuple[int, str, str]]:
    """The exit code, standard output and standard error of ``semrel --help``
    and of each command's ``--help`` against ``src``, by command line."""
    env = dict(os.environ, PYTHONPATH=str(src))
    texts = {}
    for argv in ([], *([command] for command in COMMANDS)):
        result = subprocess.run([sys.executable, "-m", "semrel", *argv, "--help"], env=env,
                                capture_output=True, text=True)
        texts[" ".join(["semrel", *argv, "--help"])] = (result.returncode, result.stdout,
                                                         result.stderr)
    return texts


def masked_output(text: str, out: Path) -> str:
    """A command's printed ``text`` with its side's output directory ``out``
    replaced by a token, so that the two sides' texts can be compared."""
    return text.replace(str(out), "<out>")


def _read_output(out: Path, stage: str) -> str | None:
    path = out / f"{stage}.stdout"
    return masked_output(path.read_text(encoding="utf-8"), out) if path.is_file() else None


def line_count(src: Path) -> int:
    """The physical lines of ``src``'s semrel/*.py, counted as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "semrel").glob("*.py"))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def largest_difference(a, b) -> float | None:
    """The largest absolute difference between the numbers at the same place
    in two JSON documents, or None when their structure differs."""
    if _is_number(a) and _is_number(b):
        return abs(a - b)
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return None
        pairs = zip(a.values(), b.values())
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        pairs = zip(a, b)
    else:
        return 0.0 if type(a) is type(b) and a == b else None
    largest = 0.0
    for x, y in pairs:
        diff = largest_difference(x, y)
        if diff is None:
            return None
        largest = max(largest, diff)
    return largest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 5])
    parser.add_argument("--train-args", default="",
                        help='extra flags for both train commands, e.g. "--hidden-layers 1"')
    return parser


def main() -> int:
    parser = build_parser()
    args = parser.parse_args()
    sides = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
    for src in sides.values():
        if not (src / "semrel" / "cli.py").is_file():
            parser.error(f"{src} holds no semrel package")
    train_args = shlex.split(args.train_args)
    compared = differ = same_content = outputs_compared = outputs_differ = 0
    reruns_compared = reruns_differ = 0
    with tempfile.TemporaryDirectory(prefix="compare-artifacts-") as tmp:
        cases = [(workload, seed, Path(tmp) / f"{workload}-{seed}")
                 for workload in args.workloads for seed in args.seeds]
        # Every command runs before any artifact is read: a child inherits
        # this process's peak RSS, which loading a large model would raise.
        for workload, seed, case in cases:
            world = case / "world"
            subprocess.run([sys.executable, str(ROOT / "bench" / "world.py"), "--workload",
                            workload, "--seed", str(seed), "--out", str(world)], check=True)
            runs = {side: [] for side in sides}
            for n in range(RUNS):
                for side, src in sides.items():
                    runs[side].append(run_workflow(src, workload, world, case / f"{side}-{n}",
                                                   train_args))
            peaks = {side: peak_summary(side_runs) for side, side_runs in runs.items()}
            print(f"{workload} seed {seed}: median (lowest-highest) peak RSS of {RUNS} runs "
                  f"in MB, parent -> change: " + ", ".join(
                      f"{stage} {_peak_text(*mb)} -> {_peak_text(*peaks['change'][stage])}"
                      for stage, mb in peaks["parent"].items() if stage in peaks["change"]))
        helps = {side: help_texts(src) for side, src in sides.items()}
        for workload, seed, case in cases:
            for name in ARTIFACTS:
                compared += 1
                a, b = case / "parent-0" / name, case / "change-0" / name
                if a.is_file() and b.is_file() and filecmp.cmp(a, b, shallow=False):
                    continue
                differ += 1
                if not (a.is_file() and b.is_file()):
                    state = "missing"
                elif name.endswith(".json"):
                    doc_a, doc_b = (json.loads(p.read_text(encoding="utf-8")) for p in (a, b))
                    diff = largest_difference(doc_a, doc_b)
                    if json.dumps(doc_a) == json.dumps(doc_b):
                        same_content += 1
                        state = "differs in bytes, same JSON content"
                    elif diff is not None:
                        state = f"differs, same structure, largest numeric difference {diff:.2g}"
                    else:
                        state = "differs"
                else:
                    state = "differs"
                print(f"{workload} seed {seed}: {name} {state}")
            for stage in STAGES:
                outputs_compared += 1
                a, b = (_read_output(case / f"{side}-0", stage) for side in sides)
                if a is not None and a == b:
                    continue
                outputs_differ += 1
                state = "missing" if a is None or b is None else "differs"
                print(f"{workload} seed {seed}: output of {stage} {state}")
            for side in sides:
                for n in range(1, RUNS):
                    reruns_compared += len(ARTIFACTS) + len(STAGES)
                    for name in rerun_differences(case / f"{side}-0", case / f"{side}-{n}"):
                        reruns_differ += 1
                        print(f"{workload} seed {seed}: {side} run {n + 1}: {name} differs "
                              f"from run 1")
    for line, text in helps["parent"].items():
        outputs_compared += 1
        if text != helps["change"][line]:
            outputs_differ += 1
            print(f"output of {line} differs")
    print(f"{reruns_compared} rerun artifacts and outputs compared with their side's first run, "
          f"{reruns_differ} differ")
    print(f"src/semrel lines: parent {line_count(sides['parent'])} -> "
          f"change {line_count(sides['change'])}")
    print(f"{compared} artifacts compared, {differ} differ, "
          f"{same_content} of them with the same JSON content; "
          f"{outputs_compared} command outputs compared, {outputs_differ} differ")
    return 1 if differ or outputs_differ or reruns_differ else 0


if __name__ == "__main__":
    sys.exit(main())
