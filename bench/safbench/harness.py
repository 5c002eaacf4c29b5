"""One benchmark run: set-up, timed rounds, output checks, metrics."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
from time import perf_counter

import numpy as np
from scipy.signal import welch

from . import tracer as tracing
from .workloads import FULL, WORKLOADS, Ops, Round, Sizes

# set-up runs this many times per run; setup_s is their median
SETUP_REPS = 5
GEMM_N = 512
# The yardstick's time on the 2-CPU host where the bounds were set, a fixed
# constant: times are reported in seconds of a machine that runs the
# yardstick in this long (see Yardstick).
YARDSTICK_REF_S = 0.020


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workload_jobs(name: str) -> int:
    """Worker processes of a workload: the grid uses every CPU, at least two
    so the pool path always runs, at most four to bound memory."""
    return min(max(nproc(), 2), 4) if name == "grid" else 1


def _openblas():
    """The OpenBLAS library numpy loaded, and its symbol suffix."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None, ""
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                return lib, (prefix, suffix)
    return None, ""


def blas_info() -> dict:
    lib, names = _openblas()
    if lib is None:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"openblas": f"{build.get('name')} {build.get('version')}",
                "blas_threads": None}
    prefix, suffix = names
    config = getattr(lib, f"{prefix}_get_config{suffix}")
    config.restype = ctypes.c_char_p
    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
    threads.restype = ctypes.c_int
    return {"openblas": config().decode(), "blas_threads": int(threads())}


def gemm_ceiling_gflops(n: int = GEMM_N, reps: int = 20) -> float:
    """Best float32 matmul rate of n x n operands, with the BLAS threads in
    effect for the run."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)).astype(np.float32)
    b = rng.standard_normal((n, n)).astype(np.float32)
    a @ b
    best = float("inf")
    for _ in range(reps):
        t0 = perf_counter()
        a @ b
        best = min(best, perf_counter() - t0)
    return 2.0 * n ** 3 / best / 1e9


class Yardstick:
    """A fixed computation from outside safnet (Welch PSDs, a Python loop, a
    small float32 GEMM and elementwise array work), timed between set-ups,
    rounds and (loso) fits. A shared host's speed drifts by tens of percent
    over seconds to minutes, and the yardstick's time follows it: over 10 s
    windows of welch-based feature extraction both medians moved by 30 %,
    their ratio by 4 %. Each set-up and round is rescaled by
    YARDSTICK_REF_S over the mean yardstick time around it, so the timed
    metrics compare runs made at different machine speeds."""

    reps = 5  # passes per measurement between pieces, about 0.1 s in all
    # A piece's scale comes from the measurements within window_s of it:
    # those on either side and those taken during it. Mean, not median: on
    # a shared host one measurement reads about 12 ms or about 22 ms
    # depending on what shares the core at that moment, and the mean
    # estimates the piece's average speed.
    window_s = 0.5

    def __init__(self):
        rng = np.random.default_rng(0)
        self.signal = rng.standard_normal((6, 256))
        self.matrix = rng.standard_normal((128, 128)).astype(np.float32)
        self.vector = rng.standard_normal(1 << 15).astype(np.float32)
        self.at: list[float] = []  # mid-time of each measurement
        self.times: list[float] = []  # its time per pass
        self._once()

    def _once(self) -> None:
        for _ in range(30):
            welch(self.signal, fs=128.0, nperseg=128)
        x = 0
        for i in range(60_000):
            x += i
        for _ in range(8):
            self.matrix @ self.matrix
            np.exp(np.tanh(self.vector))

    def measure(self, reps: int = reps) -> float:
        """Time a few passes; return the seconds the measurement took."""
        t0 = perf_counter()
        for _ in range(reps):
            self._once()
        t1 = perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.times.append((t1 - t0) / reps)
        return t1 - t0

    def scale(self, start: float, end: float) -> float:
        """Factor to reference seconds of a piece timed from start to end:
        YARDSTICK_REF_S over the mean of the measurements from window_s
        before it to window_s after it."""
        near = [y for t, y in zip(self.at, self.times)
                if start - self.window_s <= t <= end + self.window_s]
        return YARDSTICK_REF_S / float(np.mean(near))


def git_commit(root: str) -> str:
    """HEAD of the checkout's own .git, read without running git (which
    would search the parent directories of a checkout that has none)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: str, workload: str, seed: int, jobs: int,
               gemm: float) -> dict:
    import scipy

    return {"workload": workload, "seed": seed, "nproc": nproc(),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            **blas_info(), "jobs": jobs, "git_commit": git_commit(root),
            "gemm_ceiling_gflops": gemm}


def peak_rss_mb() -> float:
    """Peak RSS of the benchmark process or of its largest ended child (the
    grid's pool workers); ru_maxrss is in KiB on Linux."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: str,
        root: str, sizes: Sizes = FULL) -> dict:
    """Run one workload and return the result line plus everything the
    result file records."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = workload_jobs(workload)
    gemm = gemm_ceiling_gflops()
    wl = WORKLOADS[workload](seed, sizes, jobs, out_dir)
    tracer = tracing.Tracer(f"{workload}-seed{seed}-pid{os.getpid()}") if trace else None

    yard = Yardstick()
    paused = 0.0

    def pause() -> None:
        """A short measurement inside a round, whose time is not the
        round's: samples spread over the round follow the host's speed
        more closely than one sample after it."""
        nonlocal paused
        paused += yard.measure(reps=2)

    wl.pause = pause
    yard.measure()
    setups: list[tuple[float, float]] = []
    spans: list[tuple[float, float]] = []
    state = None
    rounds: list[Round] = []
    start = perf_counter()
    try:
        r = 0
        while True:
            if len(setups) < SETUP_REPS:
                # set-up repeats between the first rounds rather than back to
                # back, so one slow spell of a shared machine cannot take all
                # of its repetitions; a traced run traces the last one
                if state is not None:
                    wl.teardown(state)
                    state = None
                last = len(setups) == SETUP_REPS - 1
                if tracer is not None:
                    tracer.round = -1
                with tracing.instrument(tracer if trace and last else None):
                    t0 = perf_counter()
                    state = wl.setup()
                    setups.append((t0, perf_counter()))
                yard.measure()
            traced = trace and r % 2 == 1
            if tracer is not None:
                tracer.round = r
            with tracing.instrument(tracer if traced else None):
                paused = 0.0
                t0 = perf_counter()
                out = wl.run_round(state, r, trace)
                spans.append((t0, perf_counter()))
            rounds.append(Round(r, traced, spans[-1][1] - t0 - paused, 1.0, out))
            yard.measure()
            r += 1
            # traced runs stop after a traced round, so both kinds are paired
            if (len(setups) == SETUP_REPS and r >= wl.min_rounds(trace)
                    and perf_counter() - start >= seconds
                    and (not trace or r % 2 == 0)):
                break
        for rd, (t0, t1) in zip(rounds, spans):
            rd.scale = yard.scale(t0, t1)
        setup_raw = [t1 - t0 for t0, t1 in setups]
        setup_s = [(t1 - t0) * yard.scale(t0, t1) for t0, t1 in setups]
        ops = Ops()
        items_per_s, quality, named = wl.finish(state, rounds, ops)
    finally:
        if state is not None:
            wl.teardown(state)

    walls = {kind: float(np.median([rd.wall_s * rd.scale for rd in rounds
                                    if rd.traced == t]))
             if any(rd.traced == t for rd in rounds) else 0.0
             for kind, t in (("traced", True), ("untraced", False))}
    record = {
        "provenance": provenance(root, workload, seed, jobs, gemm),
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "setup_spans": [(t0 - start, t1 - start) for t0, t1 in setups],
        "yardstick": {"at": [t - start for t in yard.at], "s": yard.times},
        "rounds": [{"index": rd.index, "traced": rd.traced, "wall_s": rd.wall_s,
                    "scale": rd.scale, "span": (t0 - start, t1 - start)}
                   for rd, (t0, t1) in zip(rounds, spans)],
        "raw": {"setup_s": float(np.median(setup_raw)),
                "wall_s": float(np.median([rd.wall_s for rd in rounds
                                           if not rd.traced])),
                "yardstick_s": float(np.median(yard.times))},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "errors": ops.errors,
    }
    if trace:
        layers = tracing.layer_metrics(tracer, sum(rd.traced for rd in rounds),
                                       walls, gemm)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
        record["op_shares"] = tracing.op_shares(layers)
        record["spans"] = tracing.summarize(tracer.spans)
        tracer.write_spans(os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl"))
    else:
        metrics = {
            "setup_s": {"value": float(np.median(setup_s)), "unit": "s"},
            "wall_s": {"value": walls["untraced"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "quality": {"value": quality, "unit": "1"},
        }
    record["result"] = {"correct": ops.failed == 0, "attempted": ops.attempted,
                        "failed": ops.failed, "metrics": metrics}
    path = os.path.join(out_dir, f"result-{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record
