"""Extraction benchmark: one workload, one seed, one Ray session.

    python3 perfbench/run.py --workload fused_extract --seed 1 --seconds 15 --trace 0

Generates (or reuses from ``.perfbench/cache``) the seeded inputs and the
single-process reference outputs, starts a 1-CPU local Ray session, and
either

* ``--trace 0``: sets up ``SETUP_CYCLES`` times (Ray start + one untimed
  run of the job; median reported as ``setup_s``) and after each set-up
  repeats the job for its share of ``--seconds`` of timed wall time,
  checking every output against the reference; or
* ``--trace 1``: runs the job untraced and traced ``TRACE_PAIRS`` times,
  times the calls into each layer, writes the spans to
  ``.perfbench/traces/`` and reports the per-layer metrics.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits non-zero without a result if the
program sources are missing, another Ray cluster is running, or a Ray
process the run started cannot be stopped.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".perfbench")
PROGRAM = os.path.join(ROOT, "pdf_extract_ray")

# nproc on the box the benchmark was calibrated on; pinned so a run does
# not depend on the environment variables nproc reads
NUM_CPUS = 1
SETUP_CYCLES = 2
# untraced/traced rep pairs of a traced run; the tracing overhead is the
# difference of their medians
TRACE_PAIRS = 3

END_TO_END = (("docs_per_s", "docs/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("stages.html_parser.parse_s", "s"),
    ("stages.html_parser.blocks", "count"),
    ("stages.html_parser.fallback_docs", "count"),
    ("stages.merge.merge_s", "s"),
    ("stages.merge.fragments", "count"),
    ("stages.splitter.compose_s", "s"),
    ("stages.splitter.sentences", "count"),
    ("stages.assemble.assemble_s", "s"),
    ("pipelines.extract.fused_s", "s"),
    ("pipelines.extract.staged_s", "s"),
    ("pipelines.extract.ray_overhead_s", "s"),
    ("pipelines.extract.staged_parse_s", "s"),
    ("pipelines.extract.oracle_docs_per_s", "docs/s"),
    ("stages.agg.shuffle_s", "s"),
    ("stages.agg.shuffled_mb", "MB"),
    ("stages.agg.bucket_rows_max_over_mean", "ratio"),
    ("stages.textquality.repetition_s", "s"),
    ("stages.textquality.quality_s", "s"),
    ("pipelines.webtext.tier_s", "s"),
    ("pipelines.webtext.tier_rows.tier1", "count"),
    ("pipelines.webtext.tier_rows.tier2", "count"),
    ("pipelines.webtext.tier_rows.reject_short", "count"),
    ("pipelines.webtext.tier_rows.reject_repetitive", "count"),
    ("pipelines.webtext.partition_wall_p50_s", "s"),
    ("state.manifest.bookkeeping_s", "s"),
    ("state.manifest.partitions_completed", "count"),
    ("state.manifest.partitions_skipped", "count"),
    ("state.manifest.partitions_failed", "count"),
    ("raydata.read_s", "s"),
    ("raydata.read_mb", "MB"),
    ("raydata.write_s", "s"),
    ("raydata.files_written", "count"),
    ("trace.overhead_s", "s"),
    ("trace.untraced_wall_s", "s"),
)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def program_digest() -> str:
    """Digest of the program sources; keys the cached reference outputs."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(PROGRAM):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as f:
                    h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def prepare(workload: str, seed: int) -> tuple[list[str], dict]:
    """(input files, expected outputs), generated single-process and cached
    by workload, seed, size, generator version and program."""
    import loadgen
    import oracle

    key = f"{workload}-s{seed}-n{loadgen.input_size(workload)}-g{loadgen.GEN_VERSION}"
    cache = os.path.join(WORK, "cache", key)
    if not os.path.isdir(cache):
        tmp = cache + f".tmp{os.getpid()}"
        os.makedirs(tmp)
        loadgen.write_inputs(workload, seed, tmp)
        os.replace(tmp, cache)
    files = sorted(os.path.join(cache, f) for f in os.listdir(cache)
                   if f.endswith(".parquet"))
    exp_path = os.path.join(cache, f"expected-{program_digest()}.json")
    if not os.path.exists(exp_path):
        rows = loadgen.read_rows(files)
        if workload == "webtext_resume":
            digests, counts = oracle.expected_tiers(rows)
            expected = {"digests": digests, "tier_counts": counts}
        else:
            expected = {"digests": oracle.expected_extract(rows)}
        with open(exp_path + ".tmp", "w") as f:
            json.dump(expected, f)
        os.replace(exp_path + ".tmp", exp_path)
    with open(exp_path) as f:
        return files, json.load(f)


class Tally:
    """Attempts, failures and reference mismatches over a run's reps."""

    def __init__(self):
        self.attempted = self.failed = self.mismatched = self.expected = 0
        self.rates: list[float] = []
        self.timed_s = 0.0

    def rep(self, wl, out: str, sampler=None) -> float:
        """Prepare, time and check one rep of ``wl``; returns its wall."""
        from contextlib import nullcontext

        wl.before_rep(out)
        with sampler or nullcontext():
            t0 = time.perf_counter()
            try:
                docs, attempted = wl.run(out)
                error = None
            except Exception:
                error = traceback.format_exc()
            wall = time.perf_counter() - t0
        self.timed_s += wall
        if error is None:
            self.attempted += attempted
            self.rates.append(docs / wall)
        else:
            log(error)
            attempted, failed = wl.failure_counts(out)
            self.attempted += attempted
            self.failed += failed
        self.check(wl, out)
        return wall

    def warm(self, wl) -> bool:
        """The untimed run that ends set-up.  If it raises, its failure is
        counted and the expected outputs of the reps it stops count as
        missing; returns whether it succeeded."""
        try:
            wl.warm()
            return True
        except Exception:
            log(traceback.format_exc())
        attempted, failed = wl.warm_failure_counts()
        self.attempted += attempted
        self.failed += failed
        self.mismatched += len(wl.expected)
        self.expected += len(wl.expected)
        return False

    def check(self, wl, out: str) -> None:
        self.mismatched += wl.mismatches(out)
        self.expected += len(wl.expected)

    @property
    def mismatch_frac(self) -> float:
        return self.mismatched / max(self.expected, 1)

    @property
    def error_rate(self) -> float:
        return self.failed / max(self.attempted, 1)


def run_untraced(wl, seconds: float, session_factory, import_s: float,
                 group) -> tuple[Tally, dict]:
    from raysession import PssSampler

    setups = []
    tally = Tally()
    sampler = PssSampler(group)
    out = os.path.join(wl.work_dir, "out")
    for cycle in range(SETUP_CYCLES):
        t0 = time.perf_counter()
        with session_factory():
            t1 = time.perf_counter()
            warm = tally.warm(wl)
            setups.append(import_s + time.perf_counter() - t0)
            log(f"setup cycle {cycle}: {setups[-1]:.3f} s (ray.init "
                f"{t1 - t0:.2f} s, warm run {time.perf_counter() - t1:.2f} s)")
            if not warm:
                break
            # the timed reps are split over the sessions, so that one slow
            # session moves the median less
            while tally.timed_s < seconds * (cycle + 1) / SETUP_CYCLES:
                tally.rep(wl, out, sampler)
    metrics = {
        "docs_per_s": statistics.median(tally.rates) if tally.rates else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": sampler.peak_mb,
    }
    log(f"{len(tally.rates)} timed reps, docs/s per rep: "
        + " ".join(f"{r:.1f}" for r in tally.rates))
    return tally, metrics


def run_traced(wl, session_factory, seed: int) -> tuple[Tally, dict]:
    from spans import Tracer

    tally = Tally()
    tr = Tracer(wl.name)
    out = os.path.join(wl.work_dir, "out")
    untraced = []
    with session_factory():
        if not tally.warm(wl):
            return tally, {name: 0.0 for name, _ in PER_LAYER}
        for _ in range(TRACE_PAIRS):
            untraced.append(tally.rep(wl, out))
            wl.before_rep(out)
            with tr.span("rep"):
                _, attempted = wl.traced_run(tr, out)
            tally.attempted += attempted
            tally.check(wl, out)
        with tr.span("layers"):
            layer = wl.layers(tr, out)
    untraced_s = statistics.median(untraced)
    layer["trace.overhead_s"] = statistics.median(tr.durations("rep")) - untraced_s
    layer["trace.untraced_wall_s"] = untraced_s
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    path = os.path.join(WORK, "traces", f"{wl.name}-seed{seed}.jsonl")
    tr.write(path)
    log(f"spans: {path}")
    for name, s in sorted(tr.self_times().items(), key=lambda kv: -kv[1]):
        print(f"  self {name}: {s:.4f} s")
    kernel = sum(layer.get(k, 0.0) for k in (
        "stages.html_parser.parse_s", "stages.merge.merge_s",
        "stages.splitter.compose_s", "stages.assemble.assemble_s"))
    if kernel:
        # the kernel is timed in this process over the same documents, not
        # inside the Ray worker that runs the plan
        print(f"  kernel self time = {kernel / untraced_s:.1%} of untraced wall "
              f"({kernel:.3f} of {untraced_s:.3f} s); ray overhead "
              f"{layer['pipelines.extract.ray_overhead_s']:.3f} s")
    return tally, {name: layer.get(name, 0.0) for name, _ in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_start = time.perf_counter()
    if not os.path.isdir(PROGRAM):
        log(f"program sources not found at {PROGRAM}")
        return 2
    sys.path.insert(0, ROOT)
    import raysession

    daemons = raysession.running_ray_daemons()
    if daemons:
        log(f"another Ray cluster is running (pids {daemons}); refusing to start")
        return 3
    import pdf_extract_ray.pipelines.extract  # noqa: F401
    import pdf_extract_ray.pipelines.webtext  # noqa: F401
    import ray.data  # noqa: F401
    import_s = time.perf_counter() - t_start

    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
        return 2
    t0 = time.perf_counter()
    files, expected = prepare(args.workload, args.seed)
    log(f"imports {import_s:.2f} s; inputs + reference ready in "
        f"{time.perf_counter() - t0:.1f} s")
    wl_dir = os.path.join(WORK, "run", args.workload)
    wl = workloads.WORKLOADS[args.workload](files, expected, wl_dir)
    # the timed loop allocates little; keeping the collector off the
    # long-lived inputs removes collection pauses from the timings
    gc.collect()
    gc.freeze()

    group = raysession.ProcessGroup()
    temp_dir = raysession.ray_temp_dir(WORK)

    def session():
        return raysession.RaySession(group, os.pathsep.join([ROOT, BENCH_DIR]),
                                     temp_dir, NUM_CPUS)

    try:
        if args.trace:
            tally, metrics = run_traced(wl, session, args.seed)
            units = dict(PER_LAYER)
        else:
            tally, metrics = run_untraced(wl, args.seconds, session, import_s, group)
            units = dict(END_TO_END)
    finally:
        # each session stops its processes on exit; this catches any started
        # outside a session
        group.stop()
        shutil.rmtree(temp_dir, ignore_errors=True)
        shutil.rmtree(wl_dir, ignore_errors=True)
    if group.left_running:
        log(f"Ray processes survived SIGKILL: {group.left_running}")
        return 4

    print(f"{args.workload} seed={args.seed}: "
          f"mismatch_frac={tally.mismatch_frac:.6f} (fraction of expected urls), "
          f"error_rate={tally.error_rate:.6f} (failed/attempted)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.mismatched == 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
