"""jspkdm benchmark: seeded webapps through the real CLI, checked against ground truth.

Usage, from the root of a checkout::

    python3 bench/run.py --workload linked-site --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20        # one row per workload

Each workload is generated from ``--seed`` under ``.bench_work/``, then
analysed again and again, one child process at a time, for ``--seconds``
seconds. A child is ``python -m jspkdm.cli analyze`` with ``src`` on the path
(for hostile-pages, ``bench/hostile.py``). Every run checks the artifacts
(XMI parses, JSON fits ``docs/model.schema.json``, DOT braces balance, repeats
are byte-identical) and counts the pages and references whose outcome
differs from the generator's ground truth.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates plain
and traced children (``bench/tracer.py``) and reports the per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object; rows for people go before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "model.schema.json"
WORK = ROOT / ".bench_work"

SETUP_PER_SAMPLE = 2   # import-only children behind setup_s, after each analyze child
MIN_SAMPLES = 3        # analyze children per run, even past --seconds ...
LOOP_LIMIT_S = 120.0   # ... unless that would take the loop past this
CHILD_LIMIT_S = 150.0  # a child running longer is killed and counts as a crash


class BenchError(RuntimeError):
    """The benchmark cannot run or cannot check its results."""


def _require_checkout() -> None:
    missing = [str(p.relative_to(ROOT)) for p in (SRC / "jspkdm" / "cli.py", SCHEMA)
               if not p.is_file()]
    if missing:
        raise BenchError(f"run from the repository root; missing {', '.join(missing)}")


def run_child(argv: list[str], cwd: Path, log: Path) -> tuple[float, float, int]:
    """(wall seconds from spawn to exit, peak RSS in MB, exit code) of one child."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


class Run:
    """One workload at one seed: its inputs, children and checks."""

    def __init__(self, name: str, seed: int):
        from workloads import GENERATORS

        self.app = GENERATORS[name](seed)
        self.work = WORK / f"{name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.input_bytes = self.app.write(self.work)
        self.schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
        self.attempted = len(self.app.pages) + len(self.app.refs)
        self.failed: int | None = None
        self.problems: list[str] = []
        self.digest: str | None = None
        self.output_bytes = 0

    def argv(self, traced: int | None = None) -> list[str]:
        """The child's command line; traced children run under tracer.py."""
        if self.app.per_page:
            mode, entry = "hostile", [str(BENCH / "hostile.py")]
            args = [self.app.root, "out"]
        else:
            mode, entry = "cli", ["-m", "jspkdm.cli"]
            args = ["analyze", self.app.root, "--out", "out", *self.app.args]
        if traced is None:
            return [sys.executable, *entry, *args]
        return [sys.executable, str(BENCH / "tracer.py"), f"spans-{traced}.json",
                str(traced), mode, *args]

    def analyze(self, traced: int | None = None) -> tuple[float, float]:
        """Run one child and check its artifacts; (wall seconds, peak RSS MB)."""
        from check import (CLI_ARTIFACTS, RUNNER_ARTIFACTS, artifact_problems,
                           failed_operations, read_artifacts)

        for stale in ("out", "servlets"):
            shutil.rmtree(self.work / stale, ignore_errors=True)
        wall, rss, code = run_child(self.argv(traced), self.work, self.work / "child.log")
        names = RUNNER_ARTIFACTS if self.app.per_page else CLI_ARTIFACTS
        blobs = read_artifacts(self.work / "out", names) if code in (0, 1) else None
        if blobs is None:
            log = (self.work / "child.log").read_text(errors="replace")[-400:]
            self.problems.append(f"child exited {code}; artifacts missing: {log}")
            self.failed = self.attempted
            return wall, rss
        digest = hashlib.sha256(b"".join(blobs[n] for n in names)).hexdigest()
        if self.digest is None:
            self.digest = digest
            self.output_bytes = sum(map(len, blobs.values()))
            self.problems.extend(artifact_problems(blobs, self.schema))
            self.failed = failed_operations(self.app, blobs)
        elif digest != self.digest:
            self.problems.append("artifacts differ between repeats of one seed")
        return wall, rss

    def spans(self, traced: int) -> dict:
        return json.loads((self.work / f"spans-{traced}.json").read_text(encoding="utf-8"))

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def setup_seconds() -> list[float]:
    """Spawn-to-exit times of children that only import jspkdm.cli."""
    log = WORK / f"setup-{os.getpid()}.log"
    argv = [sys.executable, "-c", "import jspkdm.cli"]
    times = []
    for _ in range(SETUP_PER_SAMPLE):
        wall, _, code = run_child(argv, ROOT, log)
        if code != 0:
            raise BenchError(f"importing jspkdm.cli failed: {log.read_text()[-400:]}")
        times.append(wall)
    log.unlink()
    return times


def _loop(seconds: float, step, minimum: int) -> None:
    """Call ``step`` until the next call would end past ``seconds``."""
    start = time.monotonic()
    durations: list[float] = []
    while True:
        began = time.monotonic()
        step()
        durations.append(time.monotonic() - began)
        next_end = time.monotonic() - start + statistics.median(durations)
        if next_end > seconds and (len(durations) >= minimum or next_end > LOOP_LIMIT_S):
            return


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; the result object the last output line carries."""
    WORK.mkdir(exist_ok=True)
    run = Run(name, seed)
    try:
        if trace:
            metrics, info = _traced(run, seconds)
        else:
            metrics, info = _plain(run, seconds)
    finally:
        run.close()
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics,
            "info": info, "problems": run.problems}


def _plain(run: Run, seconds: float) -> tuple[dict, dict]:
    setup_seconds()  # discarded: the first import may compile bytecode
    run.analyze()  # warm-up: file cache and bytecode, as a user's second run
    samples: list[tuple[float, float]] = []
    setup: list[float] = []

    def step() -> None:
        # Set-up children are spread over the run, so that a slow spell of
        # the machine weighs on setup_s no more than on analyze_s.
        samples.append(run.analyze())
        setup.extend(setup_seconds())

    _loop(seconds, step, MIN_SAMPLES)
    wall = statistics.median(s[0] for s in samples)
    metrics = {
        "analyze_s": (wall, "s"),
        "input_mb_per_s": (run.input_bytes / 1e6 / wall, "MB/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(s[1] for s in samples), "MB"),
        "output_mb": (run.output_bytes / 1e6, "MB"),
        "correct_frac": (1 - run.failed / run.attempted, "ratio"),
    }
    return metrics, {"analyze_n": len(samples), "setup_n": len(setup),
                     "failed_frac": run.failed / run.attempted}


def _traced(run: Run, seconds: float) -> tuple[dict, dict]:
    from tracer import layer_metrics

    run.analyze()  # warm-up
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    modules: list[dict[str, float]] = []

    def pair() -> None:
        plain.append(run.analyze()[0])
        index = len(traced)
        traced.append(run.analyze(traced=index)[0])
        per_layer, per_module = layer_metrics(run.spans(index))
        layers.append(per_layer)
        modules.append(per_module)

    _loop(seconds, pair, 2)
    metrics = {key: (statistics.median(l[key] for l in layers), _unit(key))
               for key in layers[0]}
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    self_s = {m: statistics.median(d[m] for d in modules) for m in modules[0]}
    return metrics, {"pairs": len(plain), "module_self_s": self_s,
                     "plain_s": statistics.median(plain),
                     "overhead_frac": overhead / statistics.median(plain)}


def _unit(key: str) -> str:
    for suffix, unit in ((".mb_per_s", "MB/s"), (".us_per_call", "us"),
                         ("_ratio", "ratio"), (".s", "s"), ("_s", "s")):
        if key.endswith(suffix):
            return unit
    return "count"


def _row(name: str, result: dict) -> str:
    info = result["info"]
    if "pairs" in info:
        cells = [f"{m}={v:.3f}s" for m, v in info["module_self_s"].items()]
        return (f"{name:17} self time per layer ({info['pairs']} traced children): "
                + " ".join(cells)
                + f" | untraced analyze_s {info['plain_s']:.3f}s"
                + f" | overhead {result['metrics']['trace.overhead_s'][0]:.3f}s "
                  f"({info['overhead_frac']:.1%})")
    m = result["metrics"]
    return (f"{name:17} analyze_s {m['analyze_s'][0]:.3f} s (median of {info['analyze_n']})"
            f" | input_mb_per_s {m['input_mb_per_s'][0]:.3f} MB/s"
            f" | setup_s {m['setup_s'][0]:.4f} s (median of {info['setup_n']})"
            f" | peak_rss_mb {m['peak_rss_mb'][0]:.1f} MB"
            f" | output_mb {m['output_mb'][0]:.3f} MB"
            f" | failed_frac {info['failed_frac']:.4f} ({result['failed']}/{result['attempted']})"
            f" | correct_frac {m['correct_frac'][0]:.4f}")


def main(argv: list[str] | None = None) -> int:
    from workloads import GENERATORS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _require_checkout()
        import check  # noqa: F401  (needs jsonschema: fail before any work)
    except (BenchError, ImportError) as exc:
        print(f"bench: cannot run the correctness check: {exc}", file=sys.stderr)
        return 2
    names = list(GENERATORS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        print(_row(name, results[name]), flush=True)
        for problem in results[name]["problems"]:
            print(f"{name:17} CHECK FAILED: {problem}", flush=True)
    ok = all(r["correct"] for r in results.values())
    if len(names) == 1:
        result = results[names[0]]
        print(json.dumps({
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
