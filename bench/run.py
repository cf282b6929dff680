"""Benchmark of the ``demqa`` command-line tool on seeded synthetic scenes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]

Run it from a source checkout; the program under test is the checkout's
``src/demqa``, put on ``PYTHONPATH``, so nothing needs installing. Work
files go to ``.bench_work/`` at the checkout root.

``--trace 0`` builds the workload's inputs from the seed at least
SETUP_MIN_REPEATS times and SETUP_MIN_S seconds (``setup_s`` is the
median), then runs the workload's job -- its
``demqa`` commands as child processes, one at a time, each after a run
of the fixed ``reference.py`` -- over and over for ``--seconds``. It
reports the total time of the jobs divided by the total time of their
reference runs (see ``reference.py``), so that the host's speed of the
moment cancels, and the other end-to-end metrics as medians.

``--trace 1`` runs the job alternately as is and through ``tracer.py``
(a span per public ``demqa`` function) for ``--seconds``, then once more
with tracemalloc around the grid reader and the weights builder, and
reports the per-layer metrics.

Every job's outputs are checked (see ``checks.py``); the first job that
passes the oracle checks is the reference the others must match byte
for byte. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--all`` runs both passes on
every workload, prints every metric with its unit and exits 1 if any
job failed.
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
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from checks import output_hashes, stats_total_errors

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
ENTRY = "import sys; from demqa.cli import main; sys.exit(main())"

SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 4.0
COMMAND_TIMEOUT_S = 120.0

E2E_UNITS = {"wall_rel": "ratio", "cpu_rel": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "raster.read_s": "s",
    "raster.read_cells": "count",
    "raster.read_cells_per_s": "1/s",
    "raster.read_peak_mb": "MB",
    "raster.write_s": "s",
    "raster.write_cells": "count",
    "sample.read_gcp_s": "s",
    "sample.extract_s": "s",
    "sample.attach_s": "s",
    "sample.records": "count",
    "terrain.slope_aspect_s": "s",
    "terrain.cells_computed": "count",
    "terrain.useful_ratio": "ratio",
    "screen.s": "s",
    "screen.kept": "count",
    "screen.removed": "count",
    "stats.s": "s",
    "spatial.build_weights_s": "s",
    "spatial.build_weights_peak_mb": "MB",
    "spatial.weights_n": "count",
    "spatial.weights_nnz": "count",
    "spatial.nnz_per_point": "ratio",
    "spatial.moran_s": "s",
    "spatial.permutation_s": "s",
    "spatial.permutations_per_s": "1/s",
    "landcover.train_s": "s",
    "landcover.classify_s": "s",
    "cli.self_s": "s",
    "cli.write_outputs_s": "s",
    "cli.report_bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (as opposed to a failed job)."""


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    errors: list[str]
    ref_wall_s: float = 0.0  # reference runs before the job's commands
    ref_cpu_s: float = 0.0
    report_bytes: int = 0
    trace: dict = field(default_factory=dict)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _tree_hash(root: Path, pattern: str) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob(pattern)):
        h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _run_command(cmd: list[str], cwd: Path, env: dict, log: Path):
    """Run one child to exit; return its exit code and resource usage."""
    with open(log, "wb") as out:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _merge(summaries: list[dict]) -> dict:
    """Sum the tracer summaries of a job's commands."""
    merged: dict = {"functions": {}, "layers": {}, "counts": {}, "peaks_mb": {}}
    for s in summaries:
        for kind in ("functions", "layers"):
            for name, stats in s.get(kind, {}).items():
                acc = merged[kind].setdefault(name, dict.fromkeys(stats, 0))
                for key, value in stats.items():
                    acc[key] += value
        for name, value in s.get("counts", {}).items():
            merged["counts"][name] = merged["counts"].get(name, 0) + value
        for name, value in s.get("peaks_mb", {}).items():
            merged["peaks_mb"][name] = max(merged["peaks_mb"].get(name, 0.0), value)
    return merged


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced job (all its commands)."""
    fn, lay, c = trace["functions"], trace["layers"], trace["counts"]

    def total(*names: str) -> float:
        return sum(fn.get(n, {}).get("total_s", 0.0) for n in names)

    read_s = total("raster.read_ascii_grid")
    perm_s = total("spatial.permutation_test")
    write_outputs_s = total("cli.write_assess_outputs")
    return {
        "raster.read_s": read_s,
        "raster.read_cells": c.get("raster.read_cells", 0),
        "raster.read_cells_per_s": _ratio(c.get("raster.read_cells", 0), read_s),
        "raster.write_s": total("raster.write_ascii_grid"),
        "raster.write_cells": c.get("raster.write_cells", 0),
        "sample.read_gcp_s": total("sample.read_gcp_csv"),
        "sample.extract_s": total("sample.extract_coincident"),
        "sample.attach_s": total("sample.attach_class", "sample.attach_derivatives"),
        "sample.records": c.get("sample.records", 0),
        "terrain.slope_aspect_s": lay["terrain"]["outer_s"],
        "terrain.cells_computed": c.get("terrain.cells_computed", 0),
        "terrain.useful_ratio": _ratio(
            c.get("terrain.cells_used", 0), c.get("terrain.cells_computed", 0)
        ),
        "screen.s": lay["screen"]["outer_s"],
        "screen.kept": c.get("screen.kept", 0),
        "screen.removed": c.get("screen.removed", 0),
        "stats.s": lay["stats"]["outer_s"],
        "spatial.build_weights_s": total("spatial.build_weights"),
        "spatial.weights_n": c.get("spatial.weights_n", 0),
        "spatial.weights_nnz": c.get("spatial.weights_nnz", 0),
        "spatial.nnz_per_point": _ratio(
            c.get("spatial.weights_nnz", 0), c.get("spatial.weights_n", 0)
        ),
        "spatial.moran_s": total("spatial.morans_significance"),
        "spatial.permutation_s": perm_s,
        "spatial.permutations_per_s": _ratio(c.get("spatial.permutations", 0), perm_s),
        "landcover.train_s": total("landcover.train_parallelepiped"),
        "landcover.classify_s": total("landcover.classify"),
        # cli self time: orchestration no wrapped call of another layer covers
        "cli.self_s": lay["cli"]["self_s"] - write_outputs_s,
        "cli.write_outputs_s": write_outputs_s,
    }


class Bench:
    """One workload at one seed in its own work directory."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = WORK / workload.name
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        threads = str(len(os.sched_getaffinity(0)))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = threads
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] | None = None
        self.raw: dict[str, float] = {}  # medians in seconds, printed beside the result

    def setup(self, min_repeats: int, min_seconds: float) -> list[float]:
        """Build the inputs at least ``min_repeats`` times and for at least
        ``min_seconds``; they must come out identical every time."""
        shutil.rmtree(self.dir, ignore_errors=True)
        in_dir = self.dir / "in"
        times, digests = [], set()
        while len(times) < min_repeats or sum(times) < min_seconds:
            shutil.rmtree(in_dir, ignore_errors=True)
            in_dir.mkdir(parents=True)
            start = perf_counter()
            self.workload.make_inputs(self.seed, in_dir)
            times.append(perf_counter() - start)
            digests.add(_tree_hash(in_dir, "*"))
        if len(digests) != 1:
            raise BenchError("inputs differ between set-ups at one seed")
        return times

    def job(self, mode: str | None = None, reference: bool = False) -> Job:
        """Run the workload's commands once, one process each, and check the outputs.

        With ``reference``, ``reference.py`` runs before each command and
        its time is recorded apart from the commands'."""
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        wall_s = cpu_s = peak_kb = ref_wall_s = ref_cpu_s = 0.0
        errors: list[str] = []
        summaries: list[dict] = []
        for k, argv in enumerate(self.workload.jobs):
            if reference:
                start = perf_counter()
                code, usage = _run_command(
                    [sys.executable, str(REFERENCE)], self.dir, self.env, self.dir / "reference.log"
                )
                ref_wall_s += perf_counter() - start
                ref_cpu_s += usage.ru_utime + usage.ru_stime
                if code != 0:
                    raise BenchError(f"reference.py exited with {code}; see {self.dir}/reference.log")
            if mode is None:
                cmd = [sys.executable, "-c", ENTRY, *argv]
            else:
                summary = self.dir / f"trace{k}.json"
                cmd = [sys.executable, str(TRACER), mode, str(summary), "--", *argv]
            log = self.dir / f"command{k}.log"
            start = perf_counter()
            code, usage = _run_command(cmd, self.dir, self.env, log)
            wall_s += perf_counter() - start
            cpu_s += usage.ru_utime + usage.ru_stime
            peak_kb = max(peak_kb, usage.ru_maxrss)
            if code != 0:
                tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
                errors.append(f"'demqa {argv[0]}' exited with {code}: {tail}")
                break
            if mode is not None:
                summaries.append(json.loads(summary.read_text(encoding="utf-8")))
        if not errors:
            errors = self._check(out)
        self.attempted += 1
        if errors:
            self.failed += 1
            for e in errors:
                print(f"bench: {self.workload.name} seed {self.seed}: {e}", file=sys.stderr)
        report = out / "report.json"
        return Job(
            wall_s=wall_s,
            cpu_s=cpu_s,
            peak_rss_mb=peak_kb / 1024.0,
            errors=errors,
            ref_wall_s=ref_wall_s,
            ref_cpu_s=ref_cpu_s,
            report_bytes=report.stat().st_size if report.exists() else 0,
            trace=_merge(summaries),
        )

    def _check(self, out: Path) -> list[str]:
        hashes = output_hashes(out)
        if self.reference is None:
            errors = self.workload.oracle(self.dir) + self._against_earlier_runs(hashes)
            if not errors:
                self.reference = hashes
            return errors
        errors = []
        if hashes != self.reference:
            differ = sorted(k for k in hashes.keys() | self.reference.keys()
                            if hashes.get(k) != self.reference.get(k))
            errors.append(f"outputs differ from the first run: {', '.join(differ)}")
        if "report.json" in hashes:
            errors += stats_total_errors(out)
        return errors

    def _against_earlier_runs(self, hashes: dict[str, str]) -> list[str]:
        """Same sources and seed as an earlier run in this checkout: same bytes."""
        src = _tree_hash(SRC / "demqa", "*.py")[:16]
        path = WORK / "refs" / f"{self.workload.name}-seed{self.seed}-{src}.json"
        if path.exists():
            earlier = json.loads(path.read_text(encoding="utf-8"))
            if earlier != hashes:
                return [f"outputs differ from an earlier run of these sources ({path.name})"]
            return []
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(hashes, indent=1, sort_keys=True), encoding="utf-8")
        return []

    def repeat(self, seconds: float, modes: tuple, reference: bool = False) -> list[list[Job]]:
        """Run the job once per mode, in turn, until ``seconds`` have passed."""
        deadline = perf_counter() + seconds
        runs: list[list[Job]] = [[] for _ in modes]
        while not runs[0] or perf_counter() < deadline:
            for mode, jobs in zip(modes, runs):
                jobs.append(self.job(mode, reference))
        for name, digest in sorted((self.reference or {}).items()):
            print(f"{self.workload.name} seed {self.seed}: {name} sha256 {digest}")
        return runs

    def end_to_end(self, seconds: float) -> dict[str, float]:
        setup = self.setup(SETUP_MIN_REPEATS, SETUP_MIN_S)
        (jobs,) = self.repeat(seconds, (None,), reference=True)
        self.raw = {
            name: statistics.median(getattr(j, name) for j in jobs)
            for name in ("wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s")
        }
        # Totals, not medians: each job sits between its reference runs, so
        # the host's mean speed over the run cancels in the ratio of sums.
        return {
            "wall_rel": sum(j.wall_s for j in jobs) / sum(j.ref_wall_s for j in jobs),
            "cpu_rel": sum(j.cpu_s for j in jobs) / sum(j.ref_cpu_s for j in jobs),
            "peak_rss_mb": statistics.median(j.peak_rss_mb for j in jobs),
            "setup_s": statistics.median(setup),
        }

    def per_layer(self, seconds: float) -> dict[str, float]:
        self.setup(1, 0.0)
        plain, traced = self.repeat(seconds, (None, "spans"))
        traced = [j for j in traced if not j.errors]
        if not traced:
            raise BenchError(f"{self.workload.name}: every traced run failed")
        for job in traced:
            silent = [lay for lay in sorted(self.workload.layers)
                      if job.trace["layers"][lay]["calls"] == 0]
            if silent:
                raise BenchError(
                    f"{self.workload.name}: no traced calls in layer(s) {', '.join(silent)}; "
                    "the tracer no longer sees the code it should time"
                )
        per_job = [layer_metrics(j.trace) for j in traced]
        metrics = {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
        peaks = self.job("memory").trace["peaks_mb"]
        metrics["raster.read_peak_mb"] = peaks.get("raster.read_peak_mb", 0.0)
        metrics["spatial.build_weights_peak_mb"] = peaks.get("spatial.build_weights_peak_mb", 0.0)
        metrics["cli.report_bytes"] = traced[-1].report_bytes
        traced_wall = statistics.median(j.wall_s for j in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(j.wall_s for j in plain)
        return {k: metrics[k] for k in LAYER_UNITS}


def run_one(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict[str, float]]:
    """The result object, and the untraced pass's medians in seconds."""
    bench = Bench(workload, seed)
    if trace:
        metrics, units = bench.per_layer(seconds), LAYER_UNITS
    else:
        metrics, units = bench.end_to_end(seconds), E2E_UNITS
        print(f"{workload.name} seed {seed}: medians in s: "
              + ", ".join(f"{k} {v:.4f}" for k, v in bench.raw.items()))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, bench.raw


def print_all(workloads, seed: int, seconds: float) -> int:
    failed = 0
    rows = []
    for w in workloads.values():
        attempted = w_failed = 0
        for trace in (False, True):
            result, raw = run_one(w, seed, seconds, trace)
            attempted += result["attempted"]
            w_failed += result["failed"]
            for name, m in result["metrics"].items():
                rows.append((w.name, name, m["value"], m["unit"]))
            rows += [(w.name, name, value, "s") for name, value in raw.items()]
        rows.append((w.name, "failed_ratio", w_failed / attempted, f"of {attempted}"))
        failed += w_failed
    print(f"{'workload':<16} {'metric':<30} {'value':>16}  unit")
    for wl, name, value, unit in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{wl:<16} {name:<30} {text:>16}  {unit}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name (see workloads.py)")
    parser.add_argument("--all", action="store_true", help="every workload, both passes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "demqa" / "__init__.py").is_file():
        print(f"bench: no demqa sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import demqa
    from workloads import WORKLOADS

    if Path(demqa.__file__).resolve().parent != (SRC / "demqa").resolve():
        print(f"bench: imported demqa from {demqa.__file__}, not {SRC}", file=sys.stderr)
        return 2
    try:
        if args.all:
            return print_all(WORKLOADS, args.seed, args.seconds)
        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
        result, _ = run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
