"""oceseg benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {segment,postproc_1k,train,all} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; oceseg is imported from ``src/``.  The run
sets up ``SETUP_REPEATS`` times (reporting the median as ``setup_s``), then
issues operations in a closed loop until ``--seconds`` have passed and at
least the workload's minimum number of operations is done.  With
``--trace 1`` wrappers from ``bench/spans.py`` time every layer.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json untraced, its per-layer metrics
traced.  A full record, spans included, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5

sys.path.insert(0, HERE)

import host  # noqa: E402  (no numpy import yet: threads are pinned first)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_workload(cls, seed, seconds, tracer):
    """Set-up repeats, the closed loop and the final checks of one workload."""
    from workloads import OpResult

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    run_dir = os.path.join(WORK_ROOT, f"{cls.name}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            work = os.path.join(run_dir, f"rep{rep}")
            os.makedirs(work)
            wl = cls(work, seed)
            with span("bench.setup"):
                start = time.perf_counter()
                wl.setup()
                setup_times.append(time.perf_counter() - start)
        ops = []
        notes = []
        start = time.perf_counter()
        while len(ops) < cls.min_ops or time.perf_counter() - start < seconds:
            try:
                with span("bench.op"):
                    result = wl.op(len(ops))
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc()
                result = OpResult(0.0, 0.0, False, "raised")
            if not result.ok:
                notes.append(f"op {len(ops)}: {result.note}")
            ops.append(result)
        final_ok, extra = wl.finish(ops)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return setup_times, ops, notes, final_ok, extra


def _per_layer(tracer, host_rec, e2e):
    """Per-layer metrics of BENCHMARK.json from the spans of the timed loop."""
    from oceseg import network

    ops = tracer.summary("bench.op")

    def get(name):
        return ops.get(name, {"calls": 0, "median_ms": 0.0, "total_ms": 0.0,
                              "self_ms": 0.0, "attrs": {}})

    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    for layer, *_ in network._layer_plan(network.ModelConfig()):
        for phase in ("fwd", "bwd"):
            s = get(f"autodiff.conv.{layer}.{phase}")
            put(f"autodiff.conv.{layer}.{phase}_ms", s["median_ms"], "ms")
            gflops = s["attrs"].get("flops", 0) / s["total_ms"] / 1e6 if s["total_ms"] else 0.0
            put(f"autodiff.conv.{layer}.{phase}_gflops", gflops, "GFLOP/s")
    for op in ("relu", "maxpool2", "upsample_nearest2", "crop_concat", "gather_coords"):
        for phase in ("fwd", "bwd"):
            put(f"autodiff.{op}.{phase}_ms", get(f"autodiff.{op}.{phase}")["median_ms"], "ms")
    put("autodiff.tape_backward_ms", get("autodiff.tape_backward")["median_ms"], "ms")
    put("loss.sample_pairs_ms", get("loss.sample_pairs")["median_ms"], "ms")
    put("loss.oce_loss.fwd_ms", get("loss.oce_loss.fwd")["median_ms"], "ms")
    put("loss.oce_loss.bwd_ms", get("loss.oce_loss.bwd")["median_ms"], "ms")
    put("network.adam_step_ms", get("network.adam_step")["median_ms"], "ms")
    put("network.save_checkpoint_ms", get("network.save_checkpoint")["median_ms"], "ms")
    put("network.forward_ms", get("network.forward")["median_ms"], "ms")

    images = get("segmentation.segment_image")["calls"]
    forward = get("network.forward")
    predict = get("segmentation.predict_full")
    put("segmentation.predict_full_ms", predict["median_ms"], "ms")
    put("segmentation.embedding_variance_ms",
        get("segmentation.embedding_variance")["median_ms"], "ms")
    put("segmentation.forward_calls_per_image",
        forward["calls"] / images if images else 0.0, "count")
    computed = forward["attrs"].get("out_px", 0) if predict["calls"] else 0
    put("segmentation.tile_useful_frac",
        predict["attrs"].get("kept_px", 0) / computed if computed else 0.0, "ratio")
    put("segmentation.detect_foreground_ms",
        get("segmentation.detect_foreground")["median_ms"], "ms")
    ms = get("segmentation.mean_shift")
    put("segmentation.mean_shift_ms", ms["median_ms"], "ms")
    seg = get("segmentation.segment")
    put("segmentation.segment_ms", seg["self_ms"] / seg["calls"] if seg["calls"] else 0.0, "ms")
    shrink = get("segmentation.shrink_instances")
    put("segmentation.shrink_instances_ms", shrink["median_ms"], "ms")
    for key in ("points", "modes"):
        put(f"segmentation.mean_shift.{key}",
            ms["attrs"].get(key, 0) / ms["calls"] if ms["calls"] else 0.0, "count")
    put("segmentation.instances",
        shrink["attrs"].get("instances", 0) / shrink["calls"] if shrink["calls"] else 0.0,
        "count")

    put("data.load_dataset_ms", get("data.load_dataset")["median_ms"], "ms")
    put("data.tensor_write_ms", get("data.tensor_write")["median_ms"], "ms")
    roots = tracer.roots()
    evals = sum(1 for row, r in zip(tracer.spans, roots)
                if row[0] == "cli.main" and row[4].get("command") == "eval"
                and tracer.spans[r][0] == "bench.op")
    scoring = get("metrics.threshold_sweep")["total_ms"] + get("metrics.seg_score_dataset")["total_ms"]
    put("metrics.eval_ms", scoring / evals if evals else 0.0, "ms")
    put("synth.synth_generate_ms",
        tracer.summary("bench.setup").get("synth.synth_generate", {"median_ms": 0.0})["median_ms"],
        "ms")
    cli_calls = get("cli.main")
    put("cli.self_ms", cli_calls["self_ms"] / cli_calls["calls"] if cli_calls["calls"] else 0.0,
        "ms")

    put("host.sgemm_gflops", host_rec["sgemm_gflops"], "GFLOP/s")
    put("host.blas_threads", host_rec["blas_threads"], "count")
    put("trace.s_per_mpix", e2e["s_per_mpix"][0], "s/Mpix")
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "oceseg", "__init__.py")):
        print(f"error: no oceseg package under {SRC}", file=sys.stderr)
        return 2
    host.pin_blas_threads()
    sys.path.insert(0, SRC)

    from workloads import WORKLOADS, s_per_mpix

    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one child process per workload, so peak memory stays per workload
        codes = [
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    host_rec = host.host_record()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.recording = True
    try:
        setup_times, ops, notes, final_ok, extra = _run_workload(
            cls, args.seed, args.seconds, tracer)
    finally:
        if tracer:
            tracer.recording = False
            tracer.uninstall()

    failed = sum(1 for o in ops if not o.ok)
    if tracer and tracer.nonfinite:
        notes.append(f"{tracer.nonfinite} forward outputs held NaN or inf")
        failed += 1
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "s_per_mpix": (s_per_mpix(ops), "s/Mpix"),
    }
    correct = failed == 0 and final_ok
    metrics = _per_layer(tracer, host_rec, e2e) if tracer else e2e

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_rec, "setup_times_s": setup_times,
        "ops": [o.__dict__ for o in ops], "notes": notes, "correct": correct,
        "end_to_end": {k: v[0] for k, v in e2e.items()},
        "workload_metrics": {k: v[0] for k, v in extra.items()},
    }
    if tracer:
        record["per_layer"] = {k: v[0] for k, v in metrics.items()}
        record["layers"] = tracer.summary("bench.op")
        untraced = os.path.join(OUT_DIR, f"BENCH_{stem}_trace0.json")
        if os.path.exists(untraced):
            with open(untraced, encoding="utf-8") as fh:
                base = json.load(fh)["end_to_end"]["s_per_mpix"]
            record["trace_overhead_s_per_mpix"] = e2e["s_per_mpix"][0] - base
        with open(os.path.join(OUT_DIR, f"spans_{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    with open(os.path.join(OUT_DIR, f"BENCH_{stem}_trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=float)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} attempted, {failed} failed, correct {correct}")
    for note in notes:
        print(f"  failed {note}")
    print(f"host: {host_rec['blas_threads']} BLAS threads of {host_rec['nproc']} cpus, "
          f"sgemm {host_rec['sgemm_gflops']:.1f} GFLOP/s, numpy {host_rec['numpy']}, "
          f"scipy {host_rec['scipy']}")
    for name, (value, unit) in list(e2e.items()) + list(extra.items()):
        print(f"metric {name} = {value:.6g} {unit}")
    if "trace_overhead_s_per_mpix" in record:
        print(f"tracing overhead {record['trace_overhead_s_per_mpix']:+.4g} s/Mpix")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
