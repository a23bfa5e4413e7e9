"""difflab benchmark: time to a certified report, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]
    python3 perfbench/run.py --regenerate-reference

One process runs one workload, closed loop and single-threaded: each pass
computes every item of the workload and checks it against its oracle and,
where one applies, the stored reference (``reference.json``).

``--trace 0`` times passes for about ``--seconds`` (at least one pass) and
reports the end-to-end metrics.  ``--trace 1`` runs one untraced pass and
two traced passes and reports the per-layer metrics; the two traced passes
must give identical counters.  The last line of standard output is the
result JSON; the line before it carries provenance and pass statistics.
The exit code is 0 when every check passed, 1 when one failed, and 2 when
the program cannot be imported from ``src/``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# single-threaded numerics, set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import refcheck  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOAD_NAMES = ("interval_certify", "cli_defaults")
SETUP_PROBES = 4          # extra set-ups in child processes, for the median
REL_TOL, ABS_TOL = 1e-6, 1e-9   # float bounds written next to the reference
# the traced pass time that the layer self times (difflab spans plus the
# benchmark's own checks) must account for
SELF_SUM_MIN = 0.9

END_TO_END = {"setup_s": "s", "time_to_report_s": "s", "peak_rss_mb": "MB"}

_LAYERS = """
gridfn.GridFunction.call.{n,s,points}
diffeo.bisect_monotone.{n,s,iters,points,useful_frac}
diffeo.InverseMap.value.{n,s}
diffeo.CircleInverse.lift.{n,s}
diffeo.node_evals.n
diffeo.leaf_evals.points
diffeo.{metric,commutator_residual,rotation_number,fixed_point_analysis}.{n,s}
szekeres.SzekeresField.init.{n,s}
szekeres.SzekeresField.terms
szekeres.SzekeresField.{sigma,X}.{n,s}
szekeres.SzekeresField.{tau,tau_inv}.s
szekeres.FlowTime.value.s
szekeres.FlowTime.log_deriv.{n,s}
invariants.asymptotic_variation.{n,s}
invariants.{mather_invariant,coboundary_drift}.s
deform.DeformationPath.{init,at,certificate}.s
deform.{classify_action,regularize_flow,geometric_mean_conjugacy,herman_average,interpolation_path}.s
counterexamples.{build_staircase,staircase_report,bv_group_demo,hyperbolic_example,sergeraert_check}.s
cli.load_spec.s
cli.run_command.{szekeres,flow,metrics,rot,vinf,mather,drift,herman,gmconj,interp,regularize,classify,deform,staircase,bvdemo,hyperbolic,sergeraert}.s
cli.emit_report.{s,bytes}
{gridfn,diffeo,szekeres,invariants,deform,counterexamples,cli}.errors
perfbench.check.s
trace.{overhead_frac,self_sum_frac,pass_s,untraced_pass_s}
"""

_UNITS = {"n": "count", "points": "count", "iters": "count", "terms": "count",
          "errors": "count", "s": "s", "pass_s": "s", "untraced_pass_s": "s",
          "bytes": "bytes", "useful_frac": "ratio", "overhead_frac": "ratio",
          "self_sum_frac": "ratio"}


def _expand(pattern: str) -> list:
    m = re.search(r"\{([^{}]*)\}", pattern)
    if not m:
        return [pattern]
    return [name for alt in m.group(1).split(",")
            for name in _expand(pattern[:m.start()] + alt + pattern[m.end():])]


PER_LAYER = {name: _UNITS[name.rsplit(".", 1)[1]]
             for line in _LAYERS.split() for name in _expand(line)}


# ---------------------------------------------------------------------------
# provenance


def _git(*args):
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                             text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed: int, passes: int) -> dict:
    import numpy
    import scipy
    import difflab

    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "grid_N": difflab.DEFAULT_CONFIG.grid_N,
        "seed": seed,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "passes": passes,
        "malloc_trim": _MALLOC_TRIM is not None,
    }


# ---------------------------------------------------------------------------
# passes


def load_reference(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def references_for(workload, seed: int, reference: dict) -> dict | None:
    """Stored results that apply to this workload at this seed, or None."""
    if not (workload.seed_free or seed == reference["seed"]):
        return None
    return reference["workloads"][workload.name]


# glibc keeps freed heap pages resident, so without a trim between items the
# peak RSS would depend on the order in which items free memory (the seed
# shuffles the CLI commands); a CLI user runs one command per process
_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None)


def run_pass(items, refs, reference, tracer=None) -> tuple:
    """Compute and check every item.

    Returns the failures as [(item, [problems])] and the wall seconds of
    each item, its checks included."""
    failures, seconds = [], []
    for item in items:
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)
        t0 = time.perf_counter()
        try:
            result = item.run()
            with tracer.region("perfbench.check") if tracer else contextlib.nullcontext():
                problems = item.check(result)
                if refs is not None:
                    if item.name not in refs:
                        problems.append("no stored reference")
                    else:
                        problems += refcheck.compare(
                            refs[item.name], result, reference["rel_tol"],
                            reference["abs_tol"])
        except Exception as exc:  # an item that raises counts as failed
            problems = [f"raised {type(exc).__name__}: {exc}"]
        seconds.append(time.perf_counter() - t0)
        if problems:
            failures.append((item.name, problems))
    return failures, seconds


def _quartiles(values: list) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3, "min": min(values),
            "max": max(values), "count": len(values)}


def setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds of a fresh process (imports plus input building)."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, check=True)
    return float(out.stdout.split()[-1])


def measure(workload, seed, items, refs, reference, seconds: float,
            setup_s: float) -> tuple:
    """Untraced run: passes for about `seconds`, then extra set-ups.

    The time of one report is the sum over items of each item's median
    time.  From three passes on, a host slowdown during one item of one
    pass does not move it; it would move the median of the pass totals."""
    times, item_times, failures = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        pass_failures, pass_items = run_pass(items, refs, reference)
        times.append(time.perf_counter() - t0)
        failures += pass_failures
        item_times.append(pass_items)
        if len(times) == 1:
            # later passes add a few MB of fragmentation, and the pass count
            # follows the machine's speed: take the peak of one report
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(times) > seconds:
            break
    setups = [setup_s] + [setup_probe(workload.name, seed)
                          for _ in range(SETUP_PROBES)]
    metrics = {"setup_s": statistics.median(setups),
               "time_to_report_s": sum(statistics.median(column)
                                       for column in zip(*item_times)),
               "peak_rss_mb": rss_mb}
    detail = {"pass_s": _quartiles(times), "setup_s": setups}
    return metrics, len(times), failures, detail


def measure_traced(items, refs, reference) -> tuple:
    """One untraced pass, then two traced passes with equal counters."""
    t0 = time.perf_counter()
    failures, _ = run_pass(items, refs, reference)
    untraced = time.perf_counter() - t0
    tracers, times = [], []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            failures += run_pass(items, refs, reference, tracer)[0]
            times.append(time.perf_counter() - t0)
        tracers.append(tracer)
    counters = [t.counters() for t in tracers]
    if counters[0] != counters[1]:
        diff = sorted(k for k in counters[0].keys() | counters[1].keys()
                      if counters[0].get(k) != counters[1].get(k))
        failures.append(("trace", [f"counters differ between traced passes: {diff}"]))
    self_sum = [sum(t.self_s.values()) / dt for t, dt in zip(tracers, times)]
    if not all(SELF_SUM_MIN <= s <= 1.0 + 1e-9 for s in self_sum):
        failures.append(("trace", [f"self times cover {self_sum} of the pass, "
                                   f"outside [{SELF_SUM_MIN}, 1]"]))

    c = counters[0]
    seconds = [t.self_seconds() for t in tracers]
    values = {}
    for name in PER_LAYER:
        if name.endswith(".s"):
            values[name] = statistics.fmean(s.get(name, 0.0) for s in seconds)
        else:
            values[name] = c.get(name, 0)
    point_iters = c.get("diffeo.bisect_monotone.point_iters", 0)
    values["diffeo.bisect_monotone.useful_frac"] = (
        c.get("diffeo.bisect_monotone.useful_point_iters", 0) / point_iters
        if point_iters else 0.0)
    traced = statistics.fmean(times)
    values["trace.pass_s"] = traced
    values["trace.untraced_pass_s"] = untraced
    values["trace.overhead_frac"] = traced / untraced - 1.0
    values["trace.self_sum_frac"] = statistics.fmean(self_sum)
    return values, 3, failures, {"traced_pass_s": times}


# ---------------------------------------------------------------------------
# entry points


def _import_program():
    """Import difflab from this checkout's src/, or return an error."""
    sys.path.insert(0, SRC)
    try:
        import difflab
        import difflab.cli  # noqa: F401
    except ImportError as exc:
        return f"cannot import difflab from {SRC}: {exc}"
    if not os.path.abspath(difflab.__file__).startswith(SRC + os.sep):
        return f"difflab was imported from {difflab.__file__}, not {SRC}"
    return None


def run_workload(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    reference = load_reference(args.reference)
    refs = references_for(workload, args.seed, reference)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        items = workload.build(args.seed, workdir)
        setup_s = time.perf_counter() - _T0
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if args.trace:
            values, passes, failures, detail = measure_traced(items, refs, reference)
            units = PER_LAYER
        else:
            values, passes, failures, detail = measure(
                workload, args.seed, items, refs, reference, args.seconds, setup_s)
            units = END_TO_END
    attempted = passes * len(items)
    for name, problems in failures:
        for p in problems:
            print(f"FAILED {args.workload}/{name}: {p}", file=sys.stderr)
    detail.update({"workload": args.workload, "trace": args.trace,
                   "failed_frac": len(failures) / attempted,
                   "failures": [name for name, _ in failures],
                   "provenance": provenance(args.seed, passes)})
    print(json.dumps(detail, sort_keys=True))
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": values[k], "unit": u}
                          for k, u in units.items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another, as a table."""
    rows, results, status = [], {}, 0
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--reference", args.reference],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        if out.returncode not in (0, 1):
            return out.returncode
        status = max(status, out.returncode)
        res = json.loads(out.stdout.splitlines()[-1])
        results[name] = res
        rows.append((name, "failed_frac", res["failed"] / res["attempted"], "ratio"))
        rows += [(name, k, m["value"], m["unit"]) for k, m in res["metrics"].items()]
    for row in rows:
        print(f"{row[0]:<18} {row[1]:<44} {row[2]:>14.6g} {row[3]}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items()
                    for k, m in r["metrics"].items()}}))
    return status


def regenerate_reference(args) -> int:
    """Rewrite reference.json from one pass of every workload."""
    from workloads import WORKLOADS

    out = {"source": {"git_sha": _git("rev-parse", "HEAD") or "unknown",
                      "git_dirty": bool(_git("status", "--porcelain", "--", "src"))},
           "seed": args.seed, "rel_tol": REL_TOL, "abs_tol": ABS_TOL,
           "workloads": {}}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        for name in WORKLOAD_NAMES:
            results = {}
            for item in WORKLOADS[name].build(args.seed, os.path.join(workdir, name)):
                result = item.run()
                problems = item.check(result)
                if problems:
                    print(f"{name}/{item.name}: {problems}", file=sys.stderr)
                    return 1
                results[item.name] = result
            out["workloads"][name] = results
    with open(args.reference, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.reference} from {out['source']}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", default=REFERENCE,
                   help="stored reference results (default: %(default)s)")
    p.add_argument("--regenerate-reference", action="store_true",
                   help="rewrite the reference from the current src/")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all" and not args.regenerate_reference:
        return run_all(args)
    error = _import_program()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if args.regenerate_reference:
        return regenerate_reference(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
