"""One measuring process: replays a rendered scene through headcount.

Run by bench.py as ``python3 worker.py JOB_JSON``; prints one JSON object.
The process does what ``headcount count`` does, reading frames with
``open_sequence`` and running ``CountingPipeline.process_frame`` on each
before reading the next, then building ``report(...).to_json()``. It never
holds more than the frame in flight, so its peak RSS is the counter's.

Before each timed frame it also times a fixed reference kernel, outside the
frame's latency, so that bench.py can rescale the latencies to a host of
fixed speed.

Modes: ``start`` only imports numpy, as the reference for set-up time;
``setup`` stops after frame 0; ``pass`` makes one pass; ``trace`` makes one
untraced and one traced pass, in the order ``trace_first`` gives, and writes
the traced pass's spans to ``spans_path``.
"""

import json
import sys
import time


class Reference:
    """Fixed work whose time tracks the host's current speed.

    A subtract-like numpy pass over a quarter frame plus a union-find-like
    Python loop, about 0.5 ms on an idle 2-core Xeon. Slow spells on a
    shared host stretch it by nearly the same factor as a frame.
    Its two arrays add 1.2 MB to the worker's peak RSS.
    """

    def __init__(self, np):
        # fixed pseudo-random pixels without numpy.random, whose import would
        # add megabytes to the worker's peak RSS
        pixels = np.arange(240 * 320, dtype=np.float64).reshape(240, 320)
        self._np = np
        self._a = pixels * 7919.0 % 256.0
        self._b = pixels * 104729.0 % 256.0

    def time_ns(self) -> int:
        start = time.perf_counter_ns()
        x = int(self._np.count_nonzero(self._np.abs(self._a - self._b) > 25.0))
        for i in range(3000):
            x = (x * 31 + i) & 0xFFFF
        return time.perf_counter_ns() - start


def _one_pass(hc, job, config, truth, tracer=None):
    spec = hc.SequenceSpec(source=job["source"], width=job["width"], height=job["height"])
    pipeline = hc.CountingPipeline(config)
    frames = hc.open_sequence(spec)
    if tracer is not None:
        frames = tracer.frames(frames)
    timed_from = job["timed_from"]
    clock = time.perf_counter_ns
    reference = None
    latencies, reference_ns = [], []
    first = last = 0
    while True:
        timed = reference is not None and pipeline.frames_processed >= timed_from
        if timed:
            reference_ns.append(reference.time_ns())
        t0 = clock()
        frame = next(frames, None)
        if frame is None:
            if timed:
                reference_ns.pop()
            break
        pipeline.process_frame(frame)
        t1 = clock()
        if reference is None:
            setup_end = time.monotonic_ns()
            import numpy
            reference = Reference(numpy)
            if job["mode"] == "setup":
                return {"setup_end_ns": setup_end}
        if timed:
            if not latencies:
                first = t0
            latencies.append(t1 - t0)
            last = t1
    t0 = clock()
    text = pipeline.report(truth).to_json()
    report_ns = clock() - t0
    import hashlib  # imported late so that it stays out of the set-up time
    return {
        "setup_end_ns": setup_end,
        "frames": pipeline.frames_processed,
        "latency_ns": latencies,
        "reference_ns": reference_ns,
        "timed_ns": last - first,
        "report_ns": report_ns,
        "in": pipeline.counters.in_count,
        "out": pipeline.counters.out_count,
        "events": len(pipeline.events),
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }


def main(job):
    if job["mode"] == "start":
        import numpy  # noqa: F401  (the start-up cost every set-up includes)
        return {"setup_end_ns": time.monotonic_ns()}
    sys.path.insert(0, job["src"])
    import headcount as hc

    config = hc.PipelineConfig(lines=hc.LinePair(*job["lines"]), **job["params"])
    truth = hc.GroundTruth(job["truth"][0], job["truth"][1], sum(job["truth"]))

    if job["mode"] != "trace":
        out = _one_pass(hc, job, config, truth)
    else:
        import tracing
        bound = tracing.originals()
        out = {}
        for traced in (job["trace_first"], not job["trace_first"]):
            if not traced:
                out["untraced"] = _one_pass(hc, job, config, truth)
                continue
            with tracing.Tracer() as tracer:
                out["traced"] = _one_pass(hc, job, config, truth, tracer)
            with open(job["spans_path"], "w") as fh:
                json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
        out["restored"] = tracing.originals() == bound
    import resource
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
