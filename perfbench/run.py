"""Benchmark of magsys-lab: the systole census and the volume oracle.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one ``magsys-lab systole|volume`` command, run in this
process through ``magsys_lab.cli.main`` with one worker and one BLAS/OpenMP
thread.  The workload seed reaches the program only as ``--seed``.

--trace 0  repeats the command with tracing off for about S seconds (at least
           three times) and reports the end-to-end metrics: the median command
           time divided by the time of a fixed reference kernel run just
           before and after it (reference.py), the median set-up time of fresh
           processes, the share of Newton seeds that converged and the peak
           RSS.
--trace 1  alternates untraced and traced runs of the command and reports the
           per-layer metrics of the traced runs (medians), with the tracing
           overhead.  See tracer.py.

Every result is gated on what the mathematics fixes (workloads.py); a command
that fails a gate counts as a failed operation.  Results per seed and the
spans of traced runs are written under perfbench/.out/.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import os

# one BLAS/OpenMP thread, here and in the set-up probes; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import Reference  # noqa: E402
from tracer import TARGETS, RHS_TARGETS, Tracer, TraceError  # noqa: E402
from workloads import WORKLOADS, zoll_magnetic_length  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / ".out"
SETUP_PROBES = 3
# a median that outvotes one slow repeat; report.json is compared across repeats
MIN_REPEATS = 3
MAX_REPEATS = 50
PROBE_TIMEOUT_S = 60
# a correct oracle is this far from the closed form on 5.7e-7 of seeds
AGREE_SIGMAS = 5.0


def load_cli(src):
    """Import magsys_lab from the checkout's src/, never from elsewhere."""
    pkg = src / "magsys_lab"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: no magsys_lab sources at {pkg}; "
                 "run from the root of a magsys-lab checkout")
    sys.path.insert(0, str(src))
    from magsys_lab import cli
    if Path(cli.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported magsys_lab from {cli.__file__}, not {pkg}")
    return cli


class SkippedSeeds(logging.Handler):
    """Counts the seeds that ``enumerate_orbits`` logs as skipped: those whose
    ``find_closed_orbit`` raised."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.count = 0

    def emit(self, record):
        if "skipped" in record.getMessage():
            self.count += 1


def run_command(cli, workload, config, out_dir, cli_seed, skipped, call=None):
    """One command; returns (exit code, wall seconds, CPU seconds, stdout)."""
    argv = [workload.command, "--config", str(config), "--out", str(out_dir),
            "--seed", str(cli_seed)]
    skipped.count = 0
    buf = io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = call(cli.main, argv) if call else cli.main(argv)
    return rc, time.perf_counter() - t0, time.process_time() - c0, buf.getvalue()


def gate(workload, rc, out_dir):
    """Check one command's output against what the mathematics fixes.

    Returns (problems, bytes of the report, summary of the result)."""
    name = "report.json" if workload.is_census else "volume.json"
    try:
        raw = (out_dir / name).read_bytes()
        doc = json.loads(raw)
    except (OSError, ValueError) as exc:
        return [f"exit code {rc}", f"no readable {name}: {exc}"], None, {}
    if not workload.is_census:
        return gate_volume(workload, rc, doc), raw, {
            k: doc[k] for k in ("closed_form", "quadrature", "std_error", "samples",
                                "verdict_3sigma")}
    problems = [] if rc == 0 else [f"exit code {rc}"]
    verdicts = [doc[k] for k in ("verdict_reduced", "verdict_two_sided", "verdict_full")]
    if verdicts != ["PASS"] * 3:
        problems.append(f"verdicts {verdicts}")
    ref = zoll_magnetic_length(workload.kappa, workload.strength)
    tol = workload.tol_orbit
    if workload.census_kind == "zoll":
        if doc["zoll_flag"] is not True:
            problems.append("zoll_flag is not true")
        off = [x for x in doc["magnetic_lengths"] if abs(x - ref) > tol]
        if off:
            problems.append(f"magnetic lengths {off} differ from pi a^2(1) = {ref} "
                            f"by more than {tol}")
    else:
        if not doc["l_min"] < ref < doc["l_max"]:
            problems.append(f"l_min < pi a^2(1) < l_max fails: {doc['l_min']}, "
                            f"{ref}, {doc['l_max']}")
        for key, recorded in workload.recorded.items():
            if abs(doc[key] - recorded) > tol:
                problems.append(f"{key} = {doc[key]} is not within {tol} of the "
                                f"recorded {recorded}")
    return problems, raw, {k: doc[k] for k in ("seeds_attempted", "orbit_count",
                                               "l_min", "l_max")}


def gate_volume(workload, rc, doc):
    """The oracle is an unbiased Monte Carlo estimate of the closed form.

    ``verdict_3sigma`` is a 3-sigma test, so a correct oracle reports FAIL
    (and exits with 2) on 0.27% of seeds; the gate takes the verdict and exit
    code as outputs to check against the reported numbers, and requires
    agreement within AGREE_SIGMAS standard errors."""
    problems = []
    closed, quad, se = doc["closed_form"], doc["quadrature"], doc["std_error"]
    if abs(closed - workload.recorded["closed_form"]) > workload.tol_orbit:
        problems.append(f"closed_form = {closed} is not within {workload.tol_orbit} "
                        f"of the recorded {workload.recorded['closed_form']}")
    if doc["samples"] != workload.recorded["samples"] or not se > 0.0:
        problems.append(f"samples {doc['samples']}, std_error {se}")
        return problems
    z = abs(quad - closed) / se
    verdict = "PASS" if z <= 3.0 else "FAIL"
    # report.json rounds to 12 digits: no verdict is checked right at 3 sigma
    if doc["verdict_3sigma"] != verdict and abs(z - 3.0) > 1e-6:
        problems.append(f"verdict_3sigma {doc['verdict_3sigma']} at {z:.3f} sigma")
    if rc != (0 if doc["verdict_3sigma"] == "PASS" else 2):
        problems.append(f"exit code {rc} with verdict_3sigma {doc['verdict_3sigma']}")
    if z > AGREE_SIGMAS:
        problems.append(f"quadrature {quad} is {z:.2f} standard errors from the "
                        f"closed form {closed}")
    return problems


def probe_setup(src, config):
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(src), str(config)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_restored():
    """After a traced run no binding may still point at a wrapper."""
    for module, attr, *_ in TARGETS + RHS_TARGETS:
        value = getattr(sys.modules[f"magsys_lab.{module}"], attr)
        if hasattr(value, "__wrapped__"):
            raise TraceError(f"magsys_lab.{module}.{attr} was not restored")


class Run:
    """One benchmark run: repeats of one workload's command at one seed."""

    def __init__(self, cli, workload, seed, trace, src):
        self.cli, self.workload, self.seed, self.trace, self.src = cli, workload, seed, trace, src
        self.cli_seed = seed & 0xFFFFFFFF            # numpy seeds are non-negative
        self.tag = f"{workload.name}-seed{seed}-trace{trace}"
        self.dir = OUT / "runs" / self.tag
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "run.cfg"
        self.config.write_text(workload.config, encoding="utf-8")
        self.skipped = SkippedSeeds()
        orbit_log = logging.getLogger("magsys_lab.orbits")
        orbit_log.setLevel(logging.INFO)
        orbit_log.addHandler(self.skipped)
        self.attempted = self.failed = 0
        self.reps = []
        self.first_report = None
        self.record = {}

    def repeat(self, tracer=None):
        """Run the command once, gate it, and record the repeat."""
        k = len(self.reps)
        out_dir = self.dir / f"rep{k}"
        self.attempted += 1
        rec = {"rep": k, "traced": tracer is not None}
        try:
            rc, wall, cpu, stdout = run_command(
                self.cli, self.workload, self.config, out_dir, self.cli_seed,
                self.skipped, call=tracer.root if tracer else None)
        except TraceError:
            raise
        except Exception:
            rec.update(wall_s=None, problems=[traceback.format_exc()])
            print(rec["problems"][0], file=sys.stderr)
            self.failed += 1
            self.reps.append(rec)
            return rec
        problems, raw, summary = gate(self.workload, rc, out_dir)
        if raw is not None:
            if self.first_report is None:
                self.first_report = raw
            elif raw != self.first_report:
                problems.append("report differs from the first repeat's")
        rec.update(wall_s=wall, cpu_s=cpu, exit_code=rc, stdout=stdout, problems=problems,
                   seeds_skipped=self.skipped.count, summary=summary,
                   report_sha256=hashlib.sha256(raw).hexdigest() if raw else None)
        if problems:
            self.failed += 1
            print(f"{self.tag} rep{k}: " + "; ".join(problems), file=sys.stderr)
        if k > 0:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.reps.append(rec)
        return rec

    def seed_converge_frac(self):
        """Converged Newton seeds / seeds attempted (1 where none are run)."""
        done = [r for r in self.reps if r.get("summary")]
        if not self.workload.is_census or not done:
            return 1.0
        attempted = done[0]["summary"]["seeds_attempted"]
        if len({r["seeds_skipped"] for r in done}) != 1:
            self.failed += 1
            print(f"{self.tag}: skipped seeds differ between repeats", file=sys.stderr)
        return (attempted - done[0]["seeds_skipped"]) / attempted

    def end_to_end(self, seconds):
        reference = Reference()
        ref_before = reference.seconds()
        iterations, ratios = [], []
        start = time.perf_counter()
        while len(self.reps) < MIN_REPEATS or time_left(start, seconds, iterations, self.reps):
            t0 = time.perf_counter()
            rec = self.repeat()
            ref_after = reference.seconds()
            iterations.append(time.perf_counter() - t0)
            rec["ref_s"] = (ref_before, ref_after)
            if rec["wall_s"] is not None and not rec["problems"]:
                ratios.append(rec["wall_s"] / (0.5 * (ref_before + ref_after)))
            ref_before = ref_after
        probes = []
        for _ in range(SETUP_PROBES):
            self.attempted += 1
            try:
                probes.append(probe_setup(self.src, self.config))
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                self.failed += 1
                print(f"{self.tag}: {exc}", file=sys.stderr)
        self.record["setup_probes"] = probes
        return {
            "wall_ref": median_or_none(ratios),
            "setup_s": median_or_none([p["setup_s"] for p in probes]),
            "seed_converge_frac": self.seed_converge_frac(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self, seconds):
        untraced, traced, pairs, layer_metrics, oracle_values = [], [], [], [], set()
        start = time.perf_counter()
        while not traced or time_left(start, seconds, pairs, self.reps):
            rec = self.repeat()
            if rec["wall_s"] is None:
                break
            untraced.append(rec["wall_s"])
            tracer = Tracer()
            with tracer:
                rec = self.repeat(tracer)
            check_restored()
            if rec["wall_s"] is None:
                break
            traced.append(rec["wall_s"])
            pairs.append(untraced[-1] + traced[-1])
            tracer.check(rec["summary"].get("seeds_attempted", 0),
                         census=self.workload.is_census)
            m = tracer.metrics()
            if m["orbits.seeds_failed"] != rec["seeds_skipped"]:
                raise TraceError(f"{m['orbits.seeds_failed']} seeds raised but "
                                 f"{rec['seeds_skipped']} were logged as skipped")
            oracle_values.update(tracer.oracle_results)
            layer_metrics.append(m)
            (self.dir / f"spans-rep{rec['rep']}.json").write_text(
                json.dumps(tracer.dump()), encoding="utf-8")
        if len(oracle_values) > 1:
            self.failed += 1
            print(f"{self.tag}: the oracle returned {sorted(oracle_values)} at one seed",
                  file=sys.stderr)
        if not layer_metrics:
            return {}
        metrics = {}
        for key, first in layer_metrics[0].items():
            values = [m[key] for m in layer_metrics]
            if isinstance(first, int):
                # work counts are deterministic: every traced repeat must agree
                if len(set(values)) != 1:
                    raise TraceError(f"{key} differs between traced repeats: {values}")
                metrics[key] = first
            else:
                metrics[key] = statistics.median(values)
        metrics["trace.untraced_wall_s"] = statistics.median(untraced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        return metrics

    def finish(self, metrics, units):
        self.record.update(workload=self.workload.name, seed=self.seed,
                           cli_seed=self.cli_seed, trace=self.trace,
                           attempted=self.attempted, failed=self.failed,
                           repeats=self.reps, metrics=metrics)
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        (OUT / "results" / f"{self.tag}.json").write_text(
            json.dumps(self.record, indent=1), encoding="utf-8")
        return {"correct": self.failed == 0 and bool(metrics),
                "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": metrics.get(k), "unit": u}
                            for k, u in units.items()}}


def time_left(start, seconds, durations, reps):
    """Whether one more repeat is expected to end within the run's seconds."""
    return (bool(durations) and len(reps) < MAX_REPEATS
            and time.perf_counter() - start + statistics.median(durations) <= seconds)


def median_or_none(values):
    return statistics.median(values) if values else None


def metric_units(kind):
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    cli = load_cli(src)
    run = Run(cli, WORKLOADS[args.workload], args.seed, args.trace, src)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics = run.per_layer(args.seconds) if args.trace else run.end_to_end(args.seconds)
    missing = set(units) - set(metrics)
    if metrics and missing:
        raise TraceError(f"metrics not measured: {sorted(missing)}")
    print(json.dumps(run.finish(metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
