#!/usr/bin/env python3
"""Benchmark of the cdde-bound command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-sample --seed 1 --seconds 35 --trace 0

Workloads: verify-sample, certify-scaling, simulate-wide (README.md next
to this file says why each was chosen).  Every operation is one in-process
call of ``cdde_bound.cli.main`` on a generated problem file, one client
in a closed loop.  The timed phase repeats rounds (one call per generated
input) until the next round would end after ``--seconds``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` rounds alternate between the
unmodified code and the outside tracer, and the last line carries the
per-layer metrics.  Inputs, outputs, spans and a full result record are
written to perfbench/.work/<workload>-seed<n>-trace<0|1>/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("verify-sample", "certify-scaling", "simulate-wide")
SETUP_REPS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = ("setup_s", "round_s", "call_s", "peak_rss_mb")
# Thread CPU seconds of one Calibration() run on the 2-vCPU host the bounds
# were set on (its median; that host swung between 0.021 and 0.044 s);
# timings are reported at this reference speed.
CAL_REF_S = 0.035


def cpu_seconds() -> float:
    """CPU time of this process (all threads) and of its waited-for children.

    Timings use CPU time rather than elapsed time: for this single-threaded
    program they are equal on an idle machine, but CPU time leaves out the
    time a shared host takes the virtual CPU away (steal), which moves
    elapsed times by 10 to 20 % from one minute to the next.  Threads and
    child processes the program might add are counted, not hidden.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Calibration:
    """A fixed kernel like the program's own work (small LU factorizations
    and matrix-vector updates in a Python loop), timed before every call.

    The host's speed drifts by up to 2x between minutes, and the drift moves
    this kernel and the program alike, so every timing is reported scaled
    by CAL_REF_S / (median kernel time of the run): seconds at the reference
    speed.  The kernel is timed with the thread's own CPU clock, so work
    the program leaves running in other threads cannot slow it.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.mats = [rng.uniform(0.0, 1.0, (8, 8)) + 8.0 * np.eye(8) for _ in range(4)]
        self.x0, self.outer = np.ones(8), np.outer
        self.samples: list[float] = []

    def __call__(self) -> None:
        t0 = time.thread_time()
        x, outer = self.x0, self.outer
        for a in self.mats * 40:
            lu = a.copy()
            for k in range(8):
                lu[k + 1:, k] /= lu[k, k]
                lu[k + 1:, k + 1:] -= outer(lu[k + 1:, k], lu[k, k + 1:])
            for _ in range(20):
                k1 = a @ x
                x = x + 1e-3 * (k1 + a @ (x + 0.05 * k1))
        self.samples.append(time.thread_time() - t0)

    def scale(self) -> float:
        return CAL_REF_S / statistics.median(self.samples)


def pin_environment() -> None:
    """One process and one BLAS/OpenMP thread.  CDDE_BOUND_THREADS is unset,
    so ``verify`` runs its scenarios one after another in this thread."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("CDDE_BOUND_THREADS", None)


def import_program():
    """Import the package from this checkout's src/."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from cdde_bound import cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import cdde_bound from {src}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: cdde_bound imported from {cli.__file__}, not {src}")
    return cli


def import_seconds() -> float:
    """CPU time to import the package in a fresh interpreter (a child
    process, waited for), as a user of the command line pays it on every
    call."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.process_time(); "
             "import cdde_bound.cli; print(time.process_time() - t0)")
    out = subprocess.run([sys.executable, "-c", probe, str(ROOT / "src")], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit_id(), "platform": platform.platform(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "CDDE_BOUND_THREADS": os.environ.get("CDDE_BOUND_THREADS", "unset")}


class Input:
    def __init__(self, name, path, doc, meta):
        self.name, self.path, self.doc, self.meta = name, path, doc, meta
        self.n = meta["n"]


def setup(run_dir, workload, seed, tiny, cli, gen, calibration):
    """Import the package, then generate, write and parse the inputs, in
    each of SETUP_REPS repetitions; same inputs every time.  Returns the
    inputs and the time of each repetition."""
    import numpy as np
    indir = run_dir / "inputs"
    indir.mkdir(parents=True, exist_ok=True)
    times = []
    for _ in range(SETUP_REPS):
        calibration()
        imported = import_seconds()
        t0 = time.process_time()
        inputs = []
        for name, doc, meta in gen.GENERATORS[workload](np.random.default_rng(seed), tiny):
            path = indir / f"{name}.json"
            path.write_text(json.dumps(doc))
            cli.load_problem(path)
            inputs.append(Input(name, path, doc, meta))
        times.append(imported + time.process_time() - t0)
    return inputs, times


def command(kind, inp):
    """argv for one operation of workload ``kind`` on ``inp`` and the files
    it writes, next to the run's inputs."""
    out = inp.path.parent.parent / "out" / inp.name
    if kind == "verify-sample":
        return ["verify", str(inp.path)], []
    if kind == "certify-scaling":
        return ["bound", str(inp.path), "--out", str(out)], [out / "certificate.json",
                                                            out / "staircase.csv"]
    out.parent.mkdir(parents=True, exist_ok=True)
    return ["simulate", str(inp.path), "--out", str(out) + ".csv"], [Path(str(out) + ".csv")]


def call(cli, argv):
    """One operation: cli.main with captured output.  Returns (CPU seconds,
    elapsed seconds, exit code or None, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            rc, error = cli.main(argv), ""
        except Exception as exc:  # a crashing operation counts as failed
            rc, error = None, f"{type(exc).__name__}: {exc}"
        cpu, elapsed = cpu_seconds() - c0, time.perf_counter() - t0
    return cpu, elapsed, rc, out.getvalue(), error or err.getvalue().strip()


class Checker:
    """Checks every operation's output.

    During the timed phase each output must be byte-identical to the first
    one on its input (compared by a streamed digest, which also compares
    traced with untraced rounds).  The full independent checks run after
    the phase, on the files the last call left, so that their memory does
    not count in the program's peak RSS.
    """

    def __init__(self, workload, checks):
        self.workload, self.checks = workload, checks
        self.digests: dict[str, str] = {}
        self.stdout: dict[str, str] = {}

    def __call__(self, inp, rc, stdout, error, files) -> list[str]:
        if rc != 0:
            return [f"{inp.name}: exit code {rc}: {error}"]
        # outputs name their paths; digest them relative to the run directory
        h = hashlib.sha256(stdout.replace(str(inp.path.parent.parent), "").encode())
        for f in files:
            with open(f, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 16), b""):
                    h.update(chunk)
        digest = h.hexdigest()
        if self.digests.setdefault(inp.name, digest) != digest:
            return [f"{inp.name}: output differs from the first call on this input"]
        self.stdout.setdefault(inp.name, stdout)
        return []

    def full_check(self, cli, inputs) -> tuple[dict[str, list[str]], list[str]]:
        """Findings per input with findings, and self-test problems.  The
        self-test runs on the first output checked."""
        c = self.checks
        found, problems, tested = {}, [], False
        for inp in inputs:
            if inp.name not in self.stdout:
                continue        # every call on it failed already
            _, files = command(self.workload, inp)
            if self.workload == "verify-sample":
                # verify prints no certificate: check the one an untimed bound
                # computes for the same file, against the pinned paper values
                argv, files = command("certify-scaling", inp)
                _, _, rc, _, error = call(cli, argv)
                if rc != 0:
                    found[inp.name] = [f"bound: exit code {rc}: {error}"]
                    continue
            if self.workload == "simulate-wide":
                data = c.parse_csv(files[0].read_text())
                found[inp.name] = c.check_trajectory(data, inp.doc)
                if not tested:
                    problems, tested = c.self_test_trajectory(data, inp.doc), True
                continue
            cert = json.loads(files[0].read_text())
            grid = inp.meta["alpha_grid_points"]
            found[inp.name] = c.check_certificate(inp.doc, cert, grid)
            if self.workload == "verify-sample":
                found[inp.name] += c.check_pinned(inp.doc, cert)
                found[inp.name] += c.check_verify_stdout(self.stdout[inp.name])
            else:
                found[inp.name] += c.check_staircase_csv(files[1].read_text(), inp.doc, cert)
            if not tested:
                problems, tested = c.self_test_certificate(inp.doc, cert, grid), True
        return {k: v for k, v in found.items() if v}, problems


def timed_phase(cli, workload, inputs, seconds, tracer, checker, calibration):
    """Rounds until the next one would end after ``seconds``; with a tracer,
    odd rounds are traced.  Returns per-round records and the failures."""
    rounds, failures, op_id = [], [], 0
    start = time.perf_counter()
    longest = 0.0
    min_rounds = 2 if tracer is not None else 1
    while len(rounds) < min_rounds or time.perf_counter() - start + longest <= seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        r0 = time.perf_counter()
        calls = []
        for inp in inputs:
            argv, files = command(workload, inp)
            calibration()
            if traced:
                tracer.op = op_id
            cpu, elapsed, rc, stdout, error = call(cli, argv)
            found = checker(inp, rc, stdout, error, files)
            failures += found
            calls.append({"input": inp.name, "n": inp.n, "s": cpu, "wall": elapsed,
                          "ok": not found,
                          "op": op_id, "steps": inp.meta.get("steps", 0)})
            op_id += 1
        if traced:
            tracer.remove()
        wall = time.perf_counter() - r0
        longest = max(longest, wall)
        rounds.append({"traced": traced, "calls": calls, "s": sum(c["s"] for c in calls)})
    return rounds, failures


def end_to_end(workload, inputs, rounds, setup_s, peak_rss_mb, attempted, failed,
               scale) -> dict:
    """The benchmark's end-to-end metrics (measured on untraced rounds)
    plus the workload-specific ones; value and unit each.

    Times are CPU seconds (see cpu_seconds) multiplied by ``scale`` (see
    Calibration); ``wall_s`` and ``offcpu_frac`` give the unscaled elapsed
    view.  A round's time is the sum over inputs of the median call time on
    each input, which uses every call rather than a few round totals.
    """
    plain = [r for r in rounds if not r["traced"]]
    calls = [dict(c, s=c["s"] * scale) for r in plain for c in r["calls"]]
    op_s = sum(c["s"] for c in calls)

    def per_input(field):
        return [statistics.median(c[field] for c in calls if c["input"] == inp.name)
                for inp in inputs]

    cpu = per_input("s")
    m = {
        "setup_s": (setup_s * scale, "s"),
        "round_s": (sum(cpu), "s"),
        "call_s": (math.exp(statistics.fmean(math.log(v) for v in cpu)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops": (len(calls), "count"),
        "failed_frac": (failed / attempted, "1"),
        "wall_s": (sum(per_input("wall")), "s"),
        "offcpu_frac": (1.0 - op_s / scale / sum(c["wall"] for c in calls), "1"),
        "cal_scale": (scale, "1"),
    }
    if workload == "verify-sample":
        m["verify_s"] = (statistics.median(c["s"] for c in calls), "s")
    elif workload == "certify-scaling":
        for n in sorted({inp.n for inp in inputs}):
            m[f"cert_s.n{n}"] = (statistics.median(c["s"] for c in calls if c["n"] == n), "s")
        m["certs_per_s"] = (len(calls) / op_s, "1/s")
    else:
        m["simulate_s"] = (statistics.median(c["s"] for c in calls), "s")
    if workload != "certify-scaling":
        m["steps_per_s"] = (sum(c["steps"] for c in calls) / op_s, "1/s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def per_layer(tracer, rounds) -> dict:
    """Per-layer metrics, per traced round; names whose target the package
    no longer has read 0 and are listed in ``tracer.absent``."""
    from tracer import CSV_WRITERS, LAYERS
    traced = [r for r in rounds if r["traced"]]
    k = len(traced)
    summ = tracer.summary()
    overhead = (statistics.median(r["s"] for r in traced)
                - statistics.median(r["s"] for r in rounds if not r["traced"]))

    def get(name, field):
        return summ.get(name, {}).get(field, 0) / k

    def calls(name):
        return get(name, "calls")

    def secs(*names):
        return sum(get(n, "s") for n in names)

    certs = calls("certificate.compute_certificate")
    steps = tracer.values["steps"] / k
    csv_s, csv_bytes = secs(*CSV_WRITERS), tracer.values["csv_bytes"] / k
    table = [
        ("linalg.inverse.calls", "count", ["linalg.inverse"], calls("linalg.inverse")),
        ("linalg.lu_factor.calls", "count", ["linalg.lu_factor"], calls("linalg.lu_factor")),
        ("linalg.lu_solve.calls", "count", ["linalg.lu_solve"], calls("linalg.lu_solve")),
        ("linalg.solve.calls", "count", ["linalg.solve"], calls("linalg.solve")),
        ("linalg.inverse.s", "s", ["linalg.inverse"], secs("linalg.inverse")),
        ("linalg.lu_solve.s", "s", ["linalg.lu_solve"], secs("linalg.lu_solve")),
        ("stability.alpha_max.s", "s", ["stability.alpha_max"], secs("stability.alpha_max")),
        ("stability.hurwitz_tests", "count", ["stability.is_metzler_hurwitz"],
         calls("stability.is_metzler_hurwitz")),
        ("stability.check_joint_condition.s", "s", ["stability.check_joint_condition"],
         secs("stability.check_joint_condition")),
        ("envelope.finite_time.s", "s", ["envelope.finite_time"], secs("envelope.finite_time")),
        ("envelope.alpha_grid_points", "count", ["stability.alpha_max"],
         tracer.values["alpha_grid_points"] / k),
        ("certificate.compute_certificate.s", "s", ["certificate.compute_certificate"],
         secs("certificate.compute_certificate")),
        ("certificate.ultimate_bound.s", "s", ["certificate.ultimate_bound"],
         secs("certificate.ultimate_bound")),
        ("certificate.comparison_vectors.s", "s", ["certificate.comparison_vectors"],
         secs("certificate.comparison_vectors")),
        ("certificate.contraction_factor.s", "s", ["certificate.contraction_factor"],
         secs("certificate.contraction_factor")),
        ("certificate.factorizations", "count",
         ["linalg.lu_factor", "certificate.compute_certificate"],
         tracer.count_under("linalg.lu_factor", "certificate.compute_certificate")
         / (certs * k) if certs else 0.0),
        ("simulator.simulate.s", "s", ["simulator.simulate"], secs("simulator.simulate")),
        ("simulator.steps", "count", ["simulator.simulate"], steps),
        ("simulator.us_per_step", "us", ["simulator.simulate"],
         1e6 * secs("simulator.simulate") / steps if steps else 0.0),
        ("simulator.scalar_signal_evals", "count", ["simulator.SignalSpec.__call__"],
         tracer.counts["simulator.SignalSpec.__call__"] / k),
        ("simulator.verify_domination.s", "s", ["simulator.verify_domination"],
         secs("simulator.verify_domination")),
        ("cli.load_problem.s", "s", ["cli.load_problem"], secs("cli.load_problem")),
        ("model.SystemSpec.s", "s", ["model.SystemSpec"], secs("model.SystemSpec")),
        ("model.validate_structure.s", "s", ["model.validate_structure"],
         secs("model.validate_structure")),
        ("cli.write_csv.s", "s", list(CSV_WRITERS), csv_s),
        ("cli.write_csv.bytes", "bytes", list(CSV_WRITERS), csv_bytes),
        ("cli.write_csv.MBps", "MB/s", list(CSV_WRITERS), csv_bytes / 1e6 / csv_s if csv_s else 0.0),
        ("trace.overhead_s", "s", [], overhead),
        ("trace.spans", "count", [], len(tracer.spans) / k),
    ]
    for layer in LAYERS:
        own = [n for n in summ if n.startswith(layer + ".")]
        table.append((f"{layer}.self_s", "s", [], sum(get(n, "self_s") for n in own)))
    for name, _, sources, _ in table:
        if sources and not any(s in tracer.installed for s in sources):
            tracer.absent.append(name)
    return {name: {"value": value, "unit": unit} for name, unit, _, value in table}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the smoke test only")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    cli = import_program()
    # the benchmark's own modules import numpy, so they load only after the
    # environment is pinned
    sys.path.insert(0, str(HERE))
    import checks
    import gen
    from tracer import Tracer

    # one directory per run, so that runs in one checkout never share files
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    calibration = Calibration()
    inputs, setup_times = setup(run_dir, args.workload, args.seed, args.tiny, cli, gen,
                                calibration)
    setup_s = statistics.median(setup_times)
    tracer = Tracer() if args.trace else None
    checker = Checker(args.workload, checks)
    rounds, failures = timed_phase(cli, args.workload, inputs, args.seconds, tracer, checker,
                                   calibration)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    found, self_test = checker.full_check(cli, inputs)
    for r in rounds:
        for c in r["calls"]:
            c["ok"] = c["ok"] and c["input"] not in found
    failures += [f"{name}: {p}" for name, ps in found.items() for p in ps]
    attempted = sum(len(r["calls"]) for r in rounds)
    failed = sum(not c["ok"] for r in rounds for c in r["calls"])

    problems = failures + self_test
    e2e = end_to_end(args.workload, inputs, rounds, setup_s, peak_rss_mb, attempted, failed,
                     calibration.scale())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "environment": environment(),
              "setup_reps_s": setup_times, "calibration_s": calibration.samples,
              "inputs": {inp.name: inp.meta for inp in inputs},
              "digests": checker.digests, "rounds": rounds, "problems": problems,
              "end_to_end": e2e}
    if tracer is not None:
        record["per_layer"] = per_layer(tracer, rounds)
        record["absent"] = tracer.absent
        with open(run_dir / "spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    with open(run_dir / "result.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for p in problems:
        print(f"FAIL {p}")
    for name, v in e2e.items():
        print(f"{name} = {v['value']:.6g} {v['unit']}")
    if tracer is not None:
        for name, v in record["per_layer"].items():
            print(f"{name} = {v['value']:.6g} {v['unit']}")
        if tracer.absent:
            print("absent: " + ", ".join(tracer.absent))
    metrics = record["per_layer"] if tracer is not None else {k: e2e[k] for k in END_TO_END}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
