"""End-to-end and per-stage benchmark of the headcount counting pipeline.

    python3 benchmarks/bench.py --workload {sparse,crowd,noise} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root. Set-up renders the workload's scene from the
seed and writes it under ``.bench_work/``, as a PGM directory or one raw file.
Measurement then replays it in fresh single-threaded worker processes
(``worker.py``), one closed-loop stream each, until ``--seconds`` have passed.
Every pass is checked against the scene's analytic ground truth and its
report digest against the other passes. Timings are rescaled to a host of
fixed speed by a reference kernel the worker times before each frame, since
a shared host's speed drifts by tens of percent (see README.md).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` pairs an untraced
and a traced pass in each worker and prints the per-layer metrics. The last
stdout line is the result object; the line before it holds the details
(host, digests, sample counts, metrics marked n/a).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# one thread per pool: the measured stream is single-threaded by design
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)

DEFAULT_SEED = 1
# time of the worker's reference kernel on the host the baseline was taken
# on when idle; timings are reported as if the kernel took exactly this long
REFERENCE_MS = 0.5
REFERENCE_WINDOW = 8    # frames either side whose kernel times scale a frame
# time for a fresh interpreter to import numpy on that host when idle; each
# set-up probe is scaled by it over the time of such a start made just before
REFERENCE_START_S = 0.125
SETUP_PROBES = 9        # fresh processes that stop after frame 0
MIN_WORKERS = 2         # timed passes per run, at least; digests must agree
WORKER_TIMEOUT_S = 60     # a pass takes under 10 s on the baseline host

END_TO_END = {"fps": "1/s", "frame_ms_p50": "ms", "frame_ms_p90": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "frame_io.read_ms": "ms", "frame_io.bytes": "bytes",
    "background.update_ms": "ms", "background.subtract_ms": "ms",
    "background.fg_frac": "frac", "background.open_ms": "ms",
    "background.open_kept_frac": "frac",
    "blobs.label_ms": "ms", "blobs.components": "count",
    "blobs.filter_self_ms": "ms", "blobs.measure_ms": "ms",
    "blobs.measure_calls": "count", "blobs.keypoints": "count",
    "blobs.keep_ratio": "frac",
    "tracking.step_ms": "ms", "tracking.live_tracks": "count",
    "tracking.spawned": "count", "tracking.expired": "count",
    "counting.advance_ms": "ms", "counting.advance_calls": "count",
    "counting.events": "count",
    "pipeline.self_ms": "ms", "metrics.report_ms": "ms",
    "trace.overhead_frac": "frac",
}


def _import_package():
    """Import headcount and the workloads from this checkout's sources only."""
    if not (SRC / "headcount" / "__init__.py").is_file():
        raise SystemExit(f"bench: no headcount sources under {SRC}; "
                         "run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import headcount
    import workloads
    return headcount, workloads


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record(numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "commit": _git_commit(),
    }


def render(hc, workload, out: Path) -> tuple[Path, int]:
    """Write the scene's frames; return the source path and bytes per frame."""
    frames = hc.render_scene(workload.scene)
    if workload.raw:
        path = out / "frames.raw"
        with open(path, "wb") as fh:
            for frame in frames:
                fh.write(frame.pixels.tobytes())
    else:
        path = out / "frames"
        path.mkdir()
        for frame in frames:
            hc.write_frame(frame, path / f"{frame.index:06d}.pgm")
    files = [path] if workload.raw else list(path.iterdir())
    return path, sum(f.stat().st_size for f in files) // workload.scene.frames


def run_worker(job: dict) -> tuple[dict | None, str]:
    """One fresh measuring process; returns (its output, error text).

    ``setup_ns`` in the output runs from just before the process is started
    to the moment it reports: the end of frame 0, or of the numpy import for
    a ``start`` probe (both ends on the system-wide monotonic clock).
    """
    start_ns = time.monotonic_ns()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {WORKER_TIMEOUT_S} s"
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        return None, lines[-1] if lines else f"worker exited with {proc.returncode}"
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if "setup_end_ns" in out:
        out["setup_ns"] = out["setup_end_ns"] - start_ns
    return out, ""


def _check(result: dict, truth: tuple[int, int]) -> str:
    """Why a pass is wrong, or '' when its counts equal the truth."""
    if (result["in"], result["out"]) != truth:
        return f"counted in/out {result['in']}/{result['out']}, truth {truth[0]}/{truth[1]}"
    if result["events"] != sum(truth):
        return f"{result['events']} events for {sum(truth)} true crossings"
    return ""


def _scales(p: dict) -> list[float]:
    """Factors that put a pass's timed frames on a host of reference speed.

    Frame i is scaled by REFERENCE_MS over the median reference-kernel time
    of the frames around it. This cancels the slow spells of a shared host,
    which stretch frame and kernel alike for seconds to minutes.
    """
    ref = p["reference_ns"]
    return [REFERENCE_MS * 1e6 / statistics.median(ref[max(0, i - REFERENCE_WINDOW):
                                                         i + REFERENCE_WINDOW + 1])
            for i in range(len(ref))]


def _normalized_ms(p: dict) -> list[float]:
    """A pass's timed-frame latencies in ms on a host of reference speed."""
    return [ns / 1e6 * f for ns, f in zip(p["latency_ns"], _scales(p))]


def _per_frame(passes: list[dict]) -> list[float]:
    """Each timed frame's median normalized latency over the given passes.

    The passes replay identical frames, so the k-th timed frame does the
    same work in each.
    """
    return [statistics.median(ms) for ms in zip(*map(_normalized_ms, passes))]


def _fps(latencies_ms: list[float]) -> float:
    return len(latencies_ms) / (sum(latencies_ms) / 1e3)


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              timed: int | None = None) -> tuple[dict, dict]:
    """Run one benchmark; returns (result object, details)."""
    hc, workloads = _import_package()
    import numpy
    import tracing

    workload = workloads.build(name, seed, timed)
    truth_counts, _ = hc.ground_truth_events(workload.scene, hc.LinePair(*workloads.LINES))
    truth = (truth_counts.true_in, truth_counts.true_out)
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        source, frame_bytes = render(hc, workload, work)
        job = {
            "src": str(SRC), "source": str(source),
            "width": workloads.WIDTH if workload.raw else None,
            "height": workloads.HEIGHT if workload.raw else None,
            "lines": list(workloads.LINES), "params": workload.params,
            "truth": list(truth), "timed_from": workload.timed_from,
            "spans_path": str(work / "spans.json"),
        }
        # the run's time budget covers the set-up probes and the passes; a
        # pass starts only if one more of average length still fits
        start = time.monotonic()
        # passes that counted correctly, by kind; per-layer numbers per traced pass
        untraced, traced, layers, rss_kb, errors = [], [], [], [], []
        setup_s: list[float] = []
        for _ in range(0 if trace else SETUP_PROBES):
            start_ref, err = run_worker(dict(job, mode="start"))
            out, err = run_worker(dict(job, mode="setup")) if start_ref else (None, err)
            if out is None:
                errors.append(f"set-up probe: {err}")
            else:
                setup_s.append(out["setup_ns"] / start_ref["setup_ns"] * REFERENCE_START_S)

        na: list[str] = []
        attempted = workers = 0
        first_pass = time.monotonic()
        while workers < (1 if trace else MIN_WORKERS) or (
                time.monotonic() + (time.monotonic() - first_pass) / workers
                <= start + seconds):
            out, err = run_worker(dict(job, mode="trace" if trace else "pass",
                                       trace_first=workers % 2 == 1))
            workers += 1
            attempted += 2 if trace else 1
            if out is None:
                errors.append(err)
                break  # a crashing build would crash on every pass
            rss_kb.append(out["peak_rss_kb"])
            if trace and not out["restored"]:
                errors.append("tracing wrappers were not restored")
            kinds = (("untraced", untraced), ("traced", traced)) if trace else ((None, untraced),)
            for kind, found in kinds:
                p = out[kind] if kind else out
                problem = _check(p, truth)
                if problem:
                    errors.append(f"{kind or 'timed'} pass: {problem}")
                    continue
                found.append(p)
                if kind == "traced":
                    recorded = json.loads(Path(job["spans_path"]).read_text())
                    scales = _scales(p)
                    metrics, na = tracing.summarize(
                        recorded["spans"], recorded["counts"], workload.timed_from,
                        workloads.WIDTH * workloads.HEIGHT,
                        dict(enumerate(scales, workload.timed_from)))
                    metrics["metrics.report_ms"] = p["report_ns"] / 1e6 * scales[-1]
                    layers.append(metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's files are still there

    passes = untraced + traced
    digests = sorted({p["digest"] for p in passes})
    if len(digests) > 1:
        errors.append(f"report digests differ between passes: {digests}")
    failed = attempted - len(passes)
    correct = not errors and failed == 0

    metrics: dict[str, float] = {}
    if trace and traced and untraced:
        metrics = tracing.median_metrics(layers)
        metrics["frame_io.bytes"] = frame_bytes
        metrics["trace.overhead_frac"] = 1.0 - _fps(_per_frame(traced)) / _fps(_per_frame(untraced))
    elif not trace and untraced and setup_s:
        frame_ms = _per_frame(untraced)
        metrics = {
            "fps": _fps(frame_ms),
            "frame_ms_p50": statistics.median(frame_ms),
            "frame_ms_p90": _quantile(frame_ms, 0.9),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(rss_kb) / 1024,
        }
    # as run, before rescaling: wall-clock fps and the host's speed
    wall_fps = (sum(len(p["latency_ns"]) for p in untraced)
                / (sum(p["timed_ns"] for p in untraced) / 1e9)) if untraced else None
    reference_ms = statistics.median(
        ns for p in untraced for ns in p["reference_ns"]) / 1e6 if untraced else None
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()
                    if k in metrics},
    }
    details = {
        "workload": name, "seed": seed, "trace": int(trace), "why": workload.why,
        "truth": {"in": truth[0], "out": truth[1]},
        "frames": workload.scene.frames, "timed_from": workload.timed_from,
        "workers": workers, "passes": len(untraced), "wall_fps": wall_fps,
        "reference_ms": reference_ms,
        "timed_frames": len(untraced[0]["latency_ns"]) if untraced else 0,
        "setup_samples": len(setup_s), "digests": digests, "errors": errors,
        "na": na, "host": host_record(numpy.__version__),
    }
    return result, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sparse", "crowd", "noise"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, details = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
