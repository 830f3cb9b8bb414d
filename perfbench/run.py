"""Seeded enroll/probe/churn benchmark of enexmatch.

Run from the repository root; see perfbench/README.md.

  python3 perfbench/run.py --workload extract --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --runs 5     # every workload, summary
  python3 perfbench/run.py --workload churn --smoke    # quick correctness run

The last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every operation and every check passed.
"""

import os

# Pinned before anything imports numpy: with two BLAS threads, fit times
# alternate between two levels on a two-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RUN_TIMEOUT_S = 900


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _filesystem(path: Path) -> str:
    """Type and mount point of the filesystem holding ``path``."""
    target = str(path.resolve())
    best = ("", "unknown")
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best[0]):
                    best = (mount, fields[2])
    except OSError:
        pass
    return f"{best[1]} on {best[0] or '?'}"


def provenance(data_dir: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "dataset_fs": _filesystem(data_dir),
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _write_json(path: Path, data: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def layer_metrics(names, tracer, traced, untraced) -> dict[str, float]:
    """Per-layer totals of the traced pass, by the names BENCHMARK.json uses.

    ``<span>.calls``, ``<span>.ms`` and ``<span>.self_ms`` come from the
    spans; the others are derived below.
    """
    totals = tracer.totals()
    counters = tracer.counters

    def calls(span: str) -> int:
        return max(1, totals.get(span, {}).get("calls", 0))

    derived = {
        "features.complexion.valid_frac": counters.get("features.complexion.valid", 0.0)
        / calls("features.complexion"),
        "matching.traits_used.mean": counters.get("matching.traits_used", 0.0)
        / calls("matching.match_probe"),
        "gallery.snapshot_bytes": counters.get("gallery.snapshot_bytes", 0.0),
        # Slowdown of warm probe requests and rounds, averaged.
        "trace.overhead_pct": 100.0 * (
            (traced.mean_probe_s() / untraced.mean_probe_s()
             + traced.mean_round_s() / untraced.mean_round_s()) / 2 - 1
        ),
    }
    kinds = {"calls": ("calls", 1.0), "ms": ("s", 1e3), "self_ms": ("self_s", 1e3)}
    out = {}
    for name in names:
        if name in derived:
            out[name] = float(derived[name])
            continue
        span, kind = name.rsplit(".", 1)
        key, scale = kinds[kind]
        out[name] = float(totals.get(span, {}).get(key, 0.0)) * scale
    return out


def run_one(args, spec: dict) -> int:
    from measure import measure
    from spans import TARGETS, Tracer
    from workloads import SHARDS, WORKLOADS, build_dataset, warm_up

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK / "tmp", prefix=f"{workload.name}-") as tmp:
        tmp = Path(tmp)
        ds = build_dataset(workload, args.seed, tmp / "data")
        start = time.perf_counter()
        warm_up(ds, tmp / "warm.bin")
        setup_s = (
            SHARDS * statistics.median(ds.shard_seconds)
            + ds.prepare_seconds
            + time.perf_counter()
            - start
        )
        snapshot = tmp / "gallery.bin"
        untraced = measure(workload, ds, args.seed, args.seconds, snapshot)
        passes = [untraced]
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                passes.append(measure(workload, ds, args.seed, args.seconds, snapshot, tracer))
            finally:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        prov = provenance(tmp)

    measured = untraced.metrics()
    measured["setup_s"] = setup_s
    measured["peak_rss_mb"] = peak_rss_mb
    if tracer is None:
        chosen = spec["end_to_end"]
        values = measured
    else:
        chosen = spec["per_layer"]
        values = layer_metrics([m["name"] for m in chosen], tracer, passes[1], untraced)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    checker = untraced.checker
    problems = [q for p in passes for q in p.checker.problems]
    correct = failed == 0 and not problems

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  {'metric':<36} {'value':>14}  unit")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g}  {m['unit']}")
    samples = untraced.samples()
    print(
        "  samples: {enroll_s} enroll job(s), {probe_ms} probe requests "
        "({probe_ms_p90_beyond} beyond p90), {round_ms} rounds, "
        "rank-1 over {rank1_acc} reports".format(**samples)
    )
    print(
        f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations); "
        f"checks {checker.counts}; reports sha256 {checker.digest.hexdigest()}"
    )
    for problem in problems[:20]:
        print(f"  CHECK FAILED {problem}")
    shares = {}
    if tracer is not None:
        for kind in ("enroll", "probe", "round"):
            shares[kind] = tracer.layer_shares(kind)
            line = ", ".join(f"{k} {v:.1%}" for k, v in shares[kind].items())
            print(f"  {kind} time by layer: {line}")
        idle = sorted(name for name, *_ in TARGETS if name not in tracer.totals())
        if idle:
            print(f"  wrappers with no calls: {', '.join(idle)}")

    if not args.smoke:
        out = Path(args.out) if args.out else WORK / "results"
        stem = f"{workload.name}-s{args.seed}-t{args.trace}"
        _write_json(
            out / f"{stem}.json",
            {
                "workload": workload.name,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "config": dict(dataclasses.asdict(workload), shards=SHARDS),
                "provenance": prov,
                "metrics": metrics,
                "all_end_to_end": measured,
                "samples": samples,
                "checks": dict(checker.counts, reports_sha256=checker.digest.hexdigest()),
                "problems": problems,
                "layer_shares": shares,
                "attempted": attempted,
                "failed": failed,
                "correct": correct,
            },
        )
        if tracer is not None:
            tracer.write(out / f"{stem}-spans.jsonl")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, spec: dict, names: list[str]) -> int:
    """Each workload and seed in its own process, then the summary."""
    from compare import load_set, summarize

    out = Path(args.out) if args.out else WORK / "results" / time.strftime("%Y%m%d-%H%M%S")
    status = 0
    for name in names:
        for seed in range(args.seed, args.seed + args.runs):
            cmd = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(out),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{name} seed {seed}: exit {done.returncode} {last[0][:160]}", flush=True)
            if done.returncode != 0:
                status = 1
                sys.stderr.write(done.stdout + done.stderr)
    if not args.smoke:
        print(f"results in {out}")
        print(summarize(load_set(out), spec), end="")
    return status


def main(argv: list[str] | None = None) -> int:
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured window (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=3, help="seeds per workload with --workload all")
    parser.add_argument("--out", help="result directory (default .perfbench/results)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets and minimum counts, same code paths: "
                        "a quick correctness run")
    args = parser.parse_args(argv)
    if not (SRC / "enexmatch" / "__init__.py").is_file():
        print(f"perfbench: no enexmatch sources at {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        args.seconds = 0.0
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args, spec, names)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
