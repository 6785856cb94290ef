#!/usr/bin/env python3
"""pencilred benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
One caller runs the workload's items in a closed loop until the items' own
run time adds up to S seconds, then every output is checked against exact
references.  The library caches are cleared before each timed loop, after a
warm-up on a seed stream disjoint from the timed one.

Before each item the loop also times a fixed calibration kernel.  A shared
machine changes speed by a third within seconds, so the gated latency is
normalized: each item's latency is divided by the median of the five
nearest kernel times and scaled to a kernel time of CAL_MS.  The gated
norm_latency_ms is the trimmed geometric mean of those latencies.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same items
twice, untraced and then traced, and prints the per-layer metrics with the
tracing overhead: the change in norm_latency_ms.  Lines starting with '#' are for people; the last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import importlib.util
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 170
# Normalized latencies read as ms on a machine where the kernel takes this.
CAL_MS = 5.0
# (module, attribute) of the library's lru caches.
CACHES = {
    "pencil.invariant_form": ("pencilred.pencil", "invariant_form"),
    "forms.discriminant": ("pencilred.forms", "discriminant"),
    "forms.certified_roots": ("pencilred.roots", "_certified_roots_cached"),
}
COUNTERS = ("irreducible_calls", "irreducible_unknown", "escalations",
            "integralize_calls", "integralize_found", "bound_checks",
            "bound_holds")


def load_library():
    """Put the checkout's `src/` first on sys.path; exit if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "pencilred", "__init__.py")):
        sys.exit("perfbench: no pencilred sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import pencilred
    if not os.path.abspath(pencilred.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: imported pencilred from %s" % pencilred.__file__)


def caches():
    out = {}
    for name, (module, attr) in CACHES.items():
        fn = getattr(sys.modules.get(module), attr, None)
        if hasattr(fn, "cache_clear"):
            out[name] = fn
    return out


def clear_caches():
    for fn in caches().values():
        fn.cache_clear()


def setup(w, seed, seconds):
    """Build the input pool for `seconds` of loop and warm up on one item of
    the warm-up stream.  Returns (pool, generator that extends the pool)."""
    from seeded import TIMED, WARMUP
    more = w.items(TIMED, seed)
    pool = [next(more) for _ in range(int(seconds * w.max_rate) + 1)]
    w.run(next(w.items(WARMUP, seed)))
    return pool, more


def calibration_kernel():
    """Fixed work of the library's kind: Fraction sums and mpmath complex
    arithmetic at 160 bits.  It never calls the library."""
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(k, k * k + 1)
    with mpmath.workprec(160):
        z = mpmath.mpc(0.3, 0.4)
        for _ in range(150):
            z = z * z * mpmath.mpf(0.5) + mpmath.mpc(0.1, 0.2)
    return acc, z


def loop(w, pool, more, seconds=None, count=None, tracer=None):
    """Closed loop over the pool until `seconds` of run time or `count`
    items.  Returns ([(item, latency s, output or exception)], [kernel s])."""
    done, cal, busy = [], [], 0.0
    while (busy < seconds) if count is None else (len(done) < count):
        if len(done) == len(pool):
            pool.append(next(more))
        item = pool[len(done)]
        if tracer is not None:
            tracer.item = len(done)
        t0 = time.perf_counter()
        calibration_kernel()
        cal.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        try:
            out = w.run(item)
        except Exception as exc:        # counted as failed by check()
            out = exc
        dt = time.perf_counter() - t0
        busy += dt
        done.append((item, dt, out))
    return done, cal


def check(w, done):
    """Number of failed operations among the done items.  An item whose run
    raised, or whose output the check cannot even read, failed entirely."""
    failed = 0
    for item, _, out in done:
        try:
            if isinstance(out, Exception):
                raise out
            failed += w.check(item, out)
        except Exception as exc:
            sys.stderr.write("perfbench: %s failed: %r\n" % (w.name, exc))
            failed += w.size(item)
    return failed


def setup_seconds(args):
    """Median wall time of fresh interpreters that only set up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
                       timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def metadata():
    lines = 0
    for base, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name)) as fh:
                    lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
            "numpy_importable": importlib.util.find_spec("numpy") is not None,
            "src_lines": lines}


def trimmed_gmean(values, trim=0.1):
    """Geometric mean of the values left after dropping the lowest and the
    highest `trim` share: the workload's mix of input classes is fixed, and
    the rare slow instances of its tail are dropped."""
    values = sorted(values)
    k = int(len(values) * trim)
    kept = values[k:len(values) - k]
    return math.exp(statistics.fmean(math.log(v) for v in kept))


def norm_latency_ms(w, done, cal):
    """Trimmed geometric mean of the per-item latencies, each divided by the
    median of the five nearest kernel times and scaled to CAL_MS."""
    return trimmed_gmean([
        dt / w.size(item) * CAL_MS / statistics.median(
            cal[max(0, i - 2):i + 3])
        for i, (item, dt, _) in enumerate(done)])


def latency_rows(w, done, cal, traced=False):
    """(name, value, unit, samples) rows for one loop."""
    items = sum(w.size(item) for item, _, _ in done)
    busy = sum(dt for _, dt, _ in done)
    per_item = [dt / w.size(item) * 1e3 for item, dt, _ in done]
    classes = {}
    for (item, _, _), ms in zip(done, per_item):
        classes.setdefault(w.group(item), []).append(ms)
    prefix = ("traced." if traced else "") + w.tag + "."
    rows = [(prefix + w.unit + "_per_s", items / busy, "1/s", items),
            (prefix + "ms_p50", statistics.median(per_item), "ms",
             len(per_item))]
    # the highest whole percentile with at least ten samples beyond it
    if len(per_item) >= 20:
        q = int(100 * (1 - 10 / len(per_item)))
        rows.append((prefix + "ms_p%d" % q, statistics.quantiles(
            per_item, n=100, method="inclusive")[q - 1], "ms", len(per_item)))
    if len(classes) > 1:
        rows += [(prefix + "%s_ms_p50" % c, statistics.median(classes[c]),
                  "ms", len(classes[c]))
                 for c in sorted(classes, key=natural)]
    rows += [(prefix + "calibration_ms_p50", statistics.median(cal) * 1e3,
              "ms", len(cal)),
             (("traced." if traced else "") + "norm_latency_ms",
              norm_latency_ms(w, done, cal), "ms", len(done))]
    return rows


def natural(label):
    return [int(x) for x in re.findall(r"\d+", label)]


def observer(w, counts):
    """Counts taken from traced calls' arguments and results."""
    def observe(name, args, kwargs, result, error):
        if name == "forms.is_irreducible":
            counts["irreducible_calls"] += 1
            counts["irreducible_unknown"] += error is None and result is None
        elif name == "covariant.simultaneous_diagonalize":
            prec = args[1] if len(args) > 1 else kwargs.get("precision")
            counts["escalations"] += prec is not None and prec > w.precision
        elif name == "orbits.integralize":
            counts["integralize_calls"] += 1
            counts["integralize_found"] += error is None
        elif name in ("heights.prop_bound_check",
                      "heights.vector_length_bound_check") and error is None:
            counts["bound_checks"] += 1
            counts["bound_holds"] += bool(result.holds)
    return observe


def layer_metrics(w, done, spans, counts, cache_info):
    """{name: (value, unit)} of the per-layer metrics of a traced loop."""
    from tracing import ENTRY_POINTS, self_times
    items = sum(w.size(item) for item, _, _ in done)
    st = self_times(spans)
    m = {}
    for name, _, _ in ENTRY_POINTS:
        suffix = ".self_ms_per_item" if name.startswith("equidist.") \
            else ".self_ms"
        m[name + suffix] = (st.get(name, (0, 0.0))[1] * 1e3 / items,
                            "ms/item")
    for name in ("forms.certified_roots", "reduce.lll_gram"):
        m[name + ".calls_per_item"] = (st.get(name, (0, 0))[0] / items,
                                       "calls/item")
    for name, (hits, misses) in cache_info.items():
        m[name + ".hit_ratio"] = (hits / max(hits + misses, 1), "ratio")

    def ratio(num, den):
        return (counts[num] / max(counts[den], 1), "ratio")

    m["forms.is_irreducible.unknown_ratio"] = ratio("irreducible_unknown",
                                                    "irreducible_calls")
    m["covariant.escalations"] = (counts["escalations"], "count")
    m["orbits.integralize.found_ratio"] = ratio("integralize_found",
                                                "integralize_calls")
    m["heights.holds_ratio"] = ratio("bound_holds", "bound_checks")
    degenerate = sum(w.degenerate(out) for _, _, out in done
                     if not isinstance(out, Exception))
    m["equidist.degenerate_ratio"] = (degenerate / items, "ratio")
    return m


def print_rows(rows):
    for name, value, unit, n in rows:
        print("# %-44s %14.6g  %-10s %s" % (name, value, unit, n))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    load_library()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(WORKLOADS)))
    w = WORKLOADS[args.workload]
    if args.setup_only:
        setup(w, args.seed, args.seconds)
        return 0

    print("# perfbench %s seed=%d seconds=%g trace=%d; closed loop, 1 caller"
          % (w.name, args.seed, args.seconds, args.trace))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    print("# why: " + next(x["why"] for x in bench["workloads"]
                           if x["name"] == w.name))
    print("# meta " + json.dumps(metadata(), sort_keys=True))
    if not args.trace:
        setup_s = setup_seconds(args)
    pool, more = setup(w, args.seed, args.seconds)
    clear_caches()
    done, cal = loop(w, pool, more, seconds=args.seconds)
    rows = latency_rows(w, done, cal)
    print("# %-44s %14s  %-10s %s" % ("metric", "value", "unit", "samples"))

    if args.trace:
        from tracing import Tracer
        clear_caches()
        counts = dict.fromkeys(COUNTERS, 0)
        with Tracer(observer(w, counts)) as tracer:
            traced, traced_cal = loop(w, pool, more, count=len(done),
                                      tracer=tracer)
        cache_info = {name: fn.cache_info()[:2]
                      for name, fn in caches().items()}
        metrics = layer_metrics(w, traced, tracer.spans, counts, cache_info)
        metrics["trace.overhead_pct"] = (100 * (
            norm_latency_ms(w, traced, traced_cal)
            / norm_latency_ms(w, done, cal) - 1), "%")
        rows += latency_rows(w, traced, traced_cal, traced=True)
        done = traced
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rows += [("setup_s", setup_s, "s", SETUP_RUNS),
                 ("peak_rss_mb", rss_mb, "MB", 1)]
        gated = [x["name"] for x in bench["end_to_end"]]
        metrics = {name: (value, unit) for name, value, unit, _ in rows
                   if name in gated}
    attempted = sum(w.size(item) for item, _, _ in done)
    failed = check(w, done)
    rows.append(("failed_ratio", failed / attempted, "ratio", attempted))
    print_rows(rows)
    if args.trace:
        print_rows((k, v, u, "") for k, (v, u) in metrics.items())
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
