"""Benchmark of the semrel command-line workflow on seeded synthetic worlds.

    python3 bench/run.py --workload acceptance --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it needs src/semrel and the test
suite's tests/synthcorpus.py and tests/oracles.py, and exits with code 2 when
they are missing. The world comes from --seed, so one seed gives one world.

With --trace 0 it sets the world up three times, then runs rounds until
--seconds have passed, at least two. A round runs the six workflow commands
one at a time, each as its own ``python3 -m semrel`` process, times each from
spawn to exit, reads each process's peak resident memory from its own
rusage, and then checks the outputs. It reports the median over the set-ups
and rounds of the end-to-end metrics.

The time metrics are scaled to a reference machine speed. Before each set-up,
and twice in each round (before the first and the fourth command), the
runner also times bench/calibrate.py, a fixed piece of work of the same
kind, and multiplies each time metric by CALIBRATION_S over the median of
those calibration times. A shared machine that runs a whole run slower or
faster changes the calibration time in step with the stage times, so the
scaled figure stays put, while a change to the program moves the stage
times alone. The raw medians and the calibration times go to standard error.

With --trace 1 it alternates an untraced round with a traced one, in which
each command runs under bench/tracing.py, and reports the layer metrics of
the traced rounds, the start-up time of ``semrel --help`` and the tracing
overhead.

This process imports nothing but the standard library and holds no workload
data, so that the commands it forks do not count its pages in their peak
memory. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. An operation is a set-up, a command
or a check; a failed one counts in ``failed``, and ``correct`` is false if a
check found a wrong output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Totals, layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
NEEDED = ("src/semrel/cli.py", "tests/synthcorpus.py", "tests/oracles.py")

SETUPS = 3
# The calibration's median time on the reference machine (see bench/README.md);
# it sets the scale of the reported seconds and never changes with the program.
CALIBRATION_S = 0.70
MIN_ROUNDS = 2
STARTUP_RUNS = 5
DEADLINE_S = 170  # a run stops itself, with no result, before three minutes

STAGES = ("extract", "train_relatedness", "tune", "train_relations", "predict", "evaluate")
ARTIFACTS = ("index.tsv", "relatedness.json", "relatedness.manifest.json", "combiner.json",
             "relations.json", "relations.manifest.json", "pred.tsv", "report.tsv")
CALIBRATE_BEFORE = ("extract", "train_relations")
CHECKS = ("index", "predictions", "f1", "combiner", "finite")


def workflow(spec, world, out):
    """The six commands of acceptance criterion 7, as (stage, arguments)."""
    epochs = {task: ["--epochs", str(n)] for task, n in spec["epochs"].items()}
    data = ["--index", out / "index.tsv", "--embeddings", world / "embeddings.txt"]
    steps = [
        ["extract-paths", "--corpus", world / "corpus.conll", "--pairs", world / "all_pairs.tsv",
         "--output", out / "index.tsv"],
        ["train", "--task", "relatedness", "--pairs", world / "train.tsv", *data,
         "--model", out / "relatedness.json", "--seed", "7", *epochs.get("relatedness", [])],
        ["tune", "--pairs", world / "train.tsv", *data, "--model", out / "relatedness.json",
         "--output", out / "combiner.json"],
        ["train", "--task", "relations", "--pairs", world / "train.tsv", *data,
         "--model", out / "relations.json", "--seed", "7", *epochs.get("relations", [])],
        ["predict", "--task", "relations", "--pairs", world / "val.tsv", *data,
         "--combiner", out / "combiner.json", "--relatedness-model", out / "relatedness.json",
         "--relation-model", out / "relations.json", "--output", out / "pred.tsv"],
        ["evaluate", "--pairs", world / "val.tsv", "--predictions", out / "pred.tsv",
         "--output", out / "report.tsv"],
    ]
    return [(stage, [str(a) for a in argv]) for stage, argv in zip(STAGES, steps)]


def workflow_seconds(result):
    return sum(seconds for seconds, _ in result["stages"].values())


def digest(directory, names):
    """SHA-256 of each file, read in blocks to keep this process small."""
    out = {}
    for name in names:
        sha = hashlib.sha256()
        with open(directory / name, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                sha.update(block)
        out[name] = sha.hexdigest()
    return out


class Run:
    def __init__(self, workload, seed, out):
        self.spec = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.out = out
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # what the checks found
        self.first_digest = None
        self.calibration = []  # seconds of each bench/calibrate.py run

    def op(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed: {what}", file=sys.stderr)
        return ok

    def child(self, argv, log):
        """Run one process to its end: (seconds, peak RSS in MB, exit code)."""
        with open(log, "ab") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, usage.ru_maxrss / 1024.0, proc.returncode

    def calibrate(self):
        seconds, _, code = self.child([sys.executable, str(BENCH / "calibrate.py")],
                                      self.out / "calibrate.log")
        if self.op(code == 0, f"calibration exited with {code}"):
            self.calibration.append(seconds)

    def setup(self, k):
        """Write world ``k``; every world of a run must equal the first."""
        world = self.out / f"world{k}"
        self.calibrate()
        seconds, _, code = self.child(
            [sys.executable, str(BENCH / "world.py"), "--workload", self.workload,
             "--seed", str(self.seed), "--out", str(world)], self.out / "setup.log")
        ok = code == 0
        if ok and k > 0:
            names = sorted(p.name for p in (self.out / "world0").iterdir())
            ok = digest(world, names) == digest(self.out / "world0", names)
            shutil.rmtree(world)
        return seconds if self.op(ok, f"set-up {k}") else None

    def round(self, index, traced=False):
        """One pass of the workflow plus its checks; None if a command failed."""
        world = self.out / "world0"
        out = self.out / f"round{index}"
        out.mkdir()
        stages, spans = {}, []
        for stage, argv in workflow(self.spec, world, out):
            if stage in CALIBRATE_BEFORE:
                self.calibrate()
            if traced:
                spans.append(out / f"{stage}.spans.json")
                prefix = [sys.executable, str(BENCH / "tracing.py"), str(spans[-1])]
            else:
                prefix = [sys.executable, "-m", "semrel"]
            seconds, rss, code = self.child(prefix + argv, out / "commands.log")
            if not self.op(code == 0, f"{stage} exited with {code}, see {out}/commands.log"):
                break
            stages[stage] = (seconds, rss)
        if len(stages) < len(STAGES):
            for _ in range(len(STAGES) - len(stages) - 1 + len(CHECKS)):
                self.op(False, "not run after a failed command")
            return None
        _, _, code = self.child(
            [sys.executable, str(BENCH / "check.py"), "--workload", self.workload,
             "--world", str(world), "--round", str(out)], out / "check.log")
        lines = (out / "check.log").read_text(encoding="utf-8").splitlines()
        report = json.loads(lines[-1]) if code == 0 and lines else {"checks": {}}
        for name in CHECKS:
            problem = report["checks"].get(name, f"the checker exited with {code}")
            if not self.op(problem is None, f"check {name}: {problem}"):
                self.wrong.append(name)
        result = {
            "stages": stages,
            "relations_f1": report.get("relations_f1"),
            "digest": digest(out, ARTIFACTS),
            "totals": None,
        }
        if traced:
            docs = {stage: json.loads(path.read_text(encoding="utf-8"))
                    for stage, path in zip(STAGES, spans)}
            result["totals"] = Totals()
            for doc in docs.values():
                result["totals"].add(doc)
            (OUT / f"spans-{self.workload}.json").write_text(json.dumps(docs), encoding="utf-8")
        if self.first_digest is None:
            self.first_digest = result["digest"]
        elif not self.op(result["digest"] == self.first_digest,
                         f"round {index} artifacts differ from the first round"):
            self.wrong.append("determinism")
        if not self.wrong:
            shutil.rmtree(out)
        return result

    def rounds(self, seconds, pattern):
        """Rounds cycling through ``pattern`` (traced or not) until time is up."""
        done, durations = [], []
        start = time.perf_counter()
        while len(done) < MIN_ROUNDS or (
                time.perf_counter() - start + statistics.mean(durations) <= seconds):
            began = time.perf_counter()
            traced = pattern[len(done) % len(pattern)]
            done.append((traced, self.round(len(done), traced)))
            durations.append(time.perf_counter() - began)
        return done

    def end_to_end(self, seconds):
        setups = [self.setup(k) for k in range(SETUPS)]
        if setups[0] is None:
            return {}
        rounds = [r for _, r in self.rounds(seconds, (False,)) if r is not None]
        raw = {"setup_s": statistics.median(s for s in setups if s is not None)}
        if rounds:
            for stage in STAGES[:-1]:
                raw[f"{stage}_s"] = statistics.median(r["stages"][stage][0] for r in rounds)
            raw["workflow_s"] = statistics.median(map(workflow_seconds, rounds))
        if not self.calibration:
            return {}
        speed = CALIBRATION_S / statistics.median(self.calibration)  # below 1 on a slow spell
        print("raw medians, s:", json.dumps(raw), file=sys.stderr)
        print("calibration, s:", json.dumps(self.calibration), file=sys.stderr)
        metrics = {name: (value * speed, "s") for name, value in raw.items()}
        if rounds:
            metrics["peak_rss_mb"] = (statistics.median(
                max(rss for _, rss in r["stages"].values()) for r in rounds), "MB")
            metrics["relations_f1"] = (rounds[0]["relations_f1"], "1")
        return metrics

    def layers(self, seconds):
        if self.setup(0) is None:
            return {}
        startup = []
        for _ in range(STARTUP_RUNS):
            took, _, code = self.child([sys.executable, "-m", "semrel", "--help"],
                                       self.out / "startup.log")
            if self.op(code == 0, f"semrel --help exited with {code}"):
                startup.append(took)
        done = self.rounds(seconds, (False, True))
        plain = [r for traced, r in done if r is not None and not traced]
        traced = [r for t, r in done if r is not None and t]
        metrics = {}
        if startup:
            metrics["cli.startup_s"] = (statistics.median(startup), "s")
        if traced:
            per_round = [layer_metrics(r["totals"]) for r in traced]
            for name, (_, unit) in per_round[0].items():
                metrics[name] = (statistics.median(m[name][0] for m in per_round), unit)
            if plain:
                metrics["trace.overhead_share"] = (
                    statistics.median(map(workflow_seconds, traced))
                    / statistics.median(map(workflow_seconds, plain)) - 1.0, "ratio")
        return metrics


def _deadline(signum, frame):
    raise TimeoutError(f"the run passed its limit of {DEADLINE_S} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    missing = [name for name in NEEDED if not (ROOT / name).is_file()]
    if missing:
        print(f"not a semrel source checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    out = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = Run(args.workload, args.seed, out)
    try:
        metrics = run.layers(args.seconds) if args.trace else run.end_to_end(args.seconds)
    except TimeoutError as exc:
        print(exc, file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    if not run.failed:  # otherwise keep the worlds, outputs and logs to look at
        shutil.rmtree(out)
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
