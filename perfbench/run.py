"""Layered benchmark for btzgeo: end-to-end metrics per workload, spans per module.

Run from the root of a checkout (nothing needs installing; ``src/`` is put on
the path):

    python3 perfbench/run.py --workload surgery --seed 1 --seconds 36 --trace 0

Workloads (see ``workloads.py``): ``volume_time`` (criterion 9 at N = 10^6),
``surgery`` (criterion 6: complete end, slack scan, certified cap) and
``verify_all`` (``btzgeo verify --suite all`` in process).  Traffic is a
closed loop: one client, no threads, each op starts when the previous one
has returned.

``--trace 0`` measures untraced and prints the end-to-end metrics:
``setup_s`` (median of five set-ups, this process's and four in fresh
processes: import of btzgeo, input generation, warm-up), ``ops_per_s``, ``op_p50_ms``, ``op_tail_ms`` (a fixed
per-workload percentile with at least ten ops beyond it at this run length)
and ``peak_rss_mb``.  ``--trace 1`` runs every input twice in a row, first
untraced and then with the public functions of each module wrapped
(``tracing.py``), and prints the per-layer metrics of the traced ops, with
the tracing overhead taken pair by pair (same input, adjacent in time, so
that neither the input mix nor slow drifts of the host's speed enter it).

Every op is checked; an op that raises, fails a check, or (for the fixed
golden inputs) differs from the digest in ``reference.json`` counts as
failed.  The last stdout line is the JSON result; with ``--results DIR`` the
full record (host facts, op times, op digests) is also written to DIR for
``compare.py``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from before btzgeo (and numpy) import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 5  # setup_s is the median of this run's set-up and four fresh processes'
# slack of the per-op check that the layer spans account for the op time
UNATTRIBUTED_SLACK = 0.01
UNATTRIBUTED_FLOOR_MS = 0.05


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", type=Path, default=None, help="directory for the full record")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("need --seed >= 0 and --seconds > 0")
    return args


# =========================================================================
# Host facts
# =========================================================================


def _cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def host_facts(seed):
    import scipy

    try:
        from btzgeo import _kernels

        backend = _kernels.BACKEND
    except ImportError:
        backend = "absent (no btzgeo._kernels)"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernels_backend": backend,
        "caches": _cache_sizes(),
        "commit": _git_commit(),
        "seed": seed,
    }


# =========================================================================
# Measurement
# =========================================================================


def measure(wl, seconds, tracer=None):
    """Closed loop for ``seconds``: returns a list of per-op records.

    With a tracer, each input runs twice: op 2j untraced, then op 2j + 1
    traced, both on input j.
    """
    ops = []
    clock = time.perf_counter
    deadline = clock() + seconds
    i = 0
    while len(ops) < 2 or clock() < deadline or (tracer is not None and i % 2):
        traced = tracer is not None and i % 2 == 1
        j = i // 2 if tracer is not None else i
        inp = wl.make_input(j, tracer if traced else None)
        if traced:
            tracer.install()
            tracer.begin(i)
        t0 = clock()
        try:
            out = wl.run(inp)
            error = None
        except Exception as exc:  # an op that raises is a failed op, the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        dt = clock() - t0
        if traced:
            tracer.end()
            tracer.uninstall()
        ok, digest = False, None
        if error is None:
            try:
                ok, digest = wl.check(j, inp, out)
            except Exception as exc:  # a check that cannot run is a failed check
                error = f"check {type(exc).__name__}: {exc}"
        ops.append(
            {"ms": dt * 1e3, "ok": bool(ok), "digest": digest, "error": error, "traced": traced}
        )
        i += 1
    return ops


def setup_samples(args, first):
    """setup_s samples: this process's own set-up plus fresh processes."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(ops, tail_pct, setup, rss_mb):
    ms = np.array([op["ms"] for op in ops])
    good = sum(op["ok"] for op in ops)
    tail = float(np.percentile(ms, tail_pct))
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": good / (ms.sum() / 1e3),
        "op_p50_ms": float(np.percentile(ms, 50)),
        "op_tail_ms": tail,
        "peak_rss_mb": rss_mb,
    }
    tail_info = {
        "tail_pct": tail_pct,
        "tail_beyond": int(np.count_nonzero(ms > tail)),
        "n_ops": len(ops),
    }
    return {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC["end_to_end"]}, tail_info


def overhead_frac(ops):
    """Median over input pairs of traced / untraced op time, minus 1."""
    return statistics.median(b["ms"] / a["ms"] for a, b in zip(ops[0::2], ops[1::2])) - 1.0


def per_layer(tracer, table, ops, span_cost_us):
    """Per-layer metrics over the traced ops, plus the tracing overhead.

    ``.ms``/``.self_ms`` are medians over ops of the time spent in a span per
    op, ``.calls`` and exact counts are means per op, and ``.bytes_computed``
    is the median per op of the kernel's input array sizes.  A span that a
    workload never enters reads 0.
    """
    traced = [i for i, op in enumerate(ops) if op["traced"]]

    def spans(key):
        return [table[i].get(key, 0.0) for i in traced]

    def counts(key):
        return [tracer.counts.get((i, key), 0.0) for i in traced]

    k = "kernels.count_causal_members"
    cap = "surfaces.extend_boundary_cap"
    k_ms = sum(spans(k + ".ms"))
    points = sum(counts("causal.points_tested"))
    root_ms = sum(spans("op.ms"))
    special = {
        # shares of the op time below the workload's entry span
        k + ".op_share": k_ms / root_ms,
        cap + ".op_share": sum(spans(cap + ".ms")) / root_ms,
        k + ".gbps_computed": sum(counts(k + ".bytes_computed")) / (k_ms * 1e6) if k_ms else 0.0,
        # the first call in the process: the warm-up's cold query that builds a pool
        "causal.volume_time_report.first_ms": tracer.first_ms("causal.volume_time_report"),
        "causal.member_fraction": sum(counts("causal.hits")) / points if points else 0.0,
        "trace.overhead_frac": overhead_frac(ops),
        "trace.unattributed_frac": sum(spans("op.self_ms")) / root_ms,
        "trace.span_cost_us": span_cost_us,
    }
    metrics = {}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name in special:
            value = special[name]
        elif name.endswith(".bytes_computed"):
            value = np.median(counts(name))
        elif name.endswith((".ms", ".self_ms")):
            value = np.median(spans(name))
        elif name.endswith(".calls"):
            value = np.mean(spans(name))
        else:
            value = np.mean(counts(name))
        metrics[name] = (float(value), m["unit"])
    return metrics


def attribution_failures(table, ops, span_cost_us):
    """Mark traced ops whose op time the layer spans do not account for.

    Per op, the time outside every layer span (the root span's self time)
    must stay within the tracing overhead: the median overhead share times
    the untraced op on the same input, or the calibrated span cost times the
    op's span count, whichever is larger.  A slack of 1% of the op plus
    0.05 ms absorbs the loop's own clock reads and interpreter pauses such
    as garbage collection.  Every workload's op calls a traced entry point
    directly, so this guards the benchmark's own glue between those calls,
    not the coverage of the layers below them (see the ``.op_share`` metrics).
    """
    share = max(overhead_frac(ops), 0.0)
    failed = 0
    for i, op in enumerate(ops):
        if not op["traced"]:
            continue
        row = table[i]
        allowance = max(share * ops[i - 1]["ms"], row["layers.spans"] * span_cost_us * 1e-3)
        gap = row["op.self_ms"]
        if gap > allowance + UNATTRIBUTED_SLACK * op["ms"] + UNATTRIBUTED_FLOOR_MS and op["ok"]:
            op["ok"] = False
            op["error"] = f"spans leave {gap:.3f} ms of the op unattributed"
            failed += 1
    return failed


# =========================================================================
# Main
# =========================================================================


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "btzgeo" / "__init__.py").is_file():
        print(f"perfbench: no btzgeo sources at {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import btzgeo

    if Path(btzgeo.__file__).resolve().parent != (src / "btzgeo").resolve():
        print(f"perfbench: btzgeo imported from {btzgeo.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    SCRATCH.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, SCRATCH)
    try:
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
            tracer.begin("setup")
        wl.warm_up()
        if tracer is not None:
            tracer.end()
            tracer.uninstall()
        setup_first = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_first}))
            return 0
        record = run_workload(args, wl, tracer, setup_first)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    report(args, record)
    return 0


def run_workload(args, wl, tracer, setup_first):
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "host": host_facts(args.seed)}
    if tracer is None:
        ops = measure(wl, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        golden = wl.golden()
        setup = setup_samples(args, setup_first)
        metrics, tail = end_to_end(ops, wl.tail_pct, setup, rss_mb)
        record.update(tail, setup_samples=setup)
        extra_failed = 0
    else:
        span_cost = tracer.span_cost_us()
        ops = measure(wl, args.seconds, tracer)
        golden = wl.golden()
        table = tracer.per_op()
        extra_failed = attribution_failures(table, ops, span_cost)
        metrics = per_layer(tracer, table, ops, span_cost)
        record.update(
            absent_spans=tracer.absent,
            traced_op_spans={i: dict(table[i]) for i, op in enumerate(ops) if op["traced"]},
        )
    golden_ok = [got == want for got, want in golden]
    attempted = len(ops) + len(golden)
    failed = sum(not op["ok"] for op in ops) + golden_ok.count(False)
    record.update(
        attempted=attempted,
        failed=failed,
        fail_frac=failed / attempted,
        attribution_failures=extra_failed,
        golden=[{"digest": got, "expected": want} for got, want in golden],
        errors=sorted({op["error"] for op in ops if op["error"]})[:10],
        op_ms=[op["ms"] for op in ops],
        op_digests=[op["digest"] for op in ops],
        metrics={k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    )
    return record


def report(args, record):
    if args.results is not None:
        args.results.mkdir(parents=True, exist_ok=True)
        path = args.results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record))
    host = record["host"]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"nproc={host['nproc']} python={host['python']} numpy={host['numpy']} "
          f"scipy={host['scipy']} backend={host['kernels_backend']} caches={host['caches']} "
          f"commit={host['commit']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':<44} {record['fail_frac']:>14.6g} frac "
          f"({record['failed']} of {record['attempted']} ops)")
    if "tail_pct" in record:
        print(f"  op_tail_ms is p{record['tail_pct']} of {record['n_ops']} ops "
              f"({record['tail_beyond']} beyond it)")
    if record.get("absent_spans"):
        print(f"  absent spans (reported as 0): {', '.join(record['absent_spans'])}")
    for g in record["golden"]:
        state = "match" if g["digest"] == g["expected"] else "MISMATCH"
        print(f"  golden digest {g['digest']} {state} (reference {g['expected']})")
    for err in record["errors"]:
        print(f"  error: {err}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
