"""Command-line front end.

``cdde-bound check|bound|simulate|verify PROBLEM.json [flags]``

The problem file is JSON with a ``system`` section (matrices as arrays of
row arrays, vectors as arrays), an optional ``scenario`` section using the
signal presets, and an optional ``options`` section (alpha_step, step,
t_end, xi).  Every command checks the file's scenario against the
system's envelopes when it loads the file.  Exit codes: 0 all checks pass, 1
hypothesis or verification failure, 2 unreadable or malformed input (a
scenario outside its envelopes among them) or an unwritable output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .certificate import (BoundCertificate, CertificateError, compute_certificate,
                          staircase_runs)
from .csvio import write_csv
from .model import SystemSpec, validate_structure
from .simulator import (DominationReport, InvalidScenario, SignalSpec,
                        SimulationScenario, Trajectory, UnstableStep, simulate,
                        simulate_corners, verify_domination, write_trajectory_csv)
from .stability import check_joint_condition

# alpha_step, simulation step and t_end; each must be finite and positive
DEFAULTS = {"alpha_step": 1e-3, "step": 1e-3, "t_end": 40.0}
# the most time steps t_end / step, or history steps h_max / step, may count:
# past 2**53, k * step no longer tells neighbouring steps apart in float64
_STEPS_MAX = 2**53
VERIFY_GRID = [(0.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.5, 1.0), (1.0, 0.0), (1.0, 1.0)]


class ProblemFormatError(ValueError):
    pass


def _signal_from_config(cfg, dim: int, name: str) -> SignalSpec:
    if not isinstance(cfg, (list, tuple, dict)):
        raise ProblemFormatError(f"scenario.{name} must be a signal object or an array")
    try:
        if isinstance(cfg, dict):
            sig = SignalSpec(kind=cfg["kind"], amplitude=tuple(cfg["amplitude"]),
                             frequency=tuple(cfg.get("frequency", ())),
                             offset=float(cfg.get("offset", 0.0)))
        else:
            sig = SignalSpec.constant(cfg)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFormatError(f"scenario.{name}: {exc}") from exc
    if sig.dim != dim:
        raise ProblemFormatError(f"scenario.{name} must have dimension {dim}, got {sig.dim}")
    return sig


def _parse_int(text: str):
    """A JSON integer as an int, or as +-inf past float range, as a float
    literal such as 1e400 reads, so each field's finiteness check names it."""
    value = float(text)
    return int(text) if math.isfinite(value) else value


def load_problem(path, args=None) -> tuple[SystemSpec, dict | None, dict]:
    """Parse a problem file into (system, raw scenario config, options).  The
    file's scenario is checked on the grid the command runs: the flags of
    ``args``, else the file's options, else the defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=_parse_int)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    # bytes that are not UTF-8, and arrays nested past the recursion limit,
    # are malformed input too, not a failed hypothesis
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ProblemFormatError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict) or "system" not in doc:
        raise ProblemFormatError("problem file must be an object with a 'system' section")
    for section in ("system", "scenario", "options"):
        if isinstance(doc.get(section), dict):
            _numbers_only(doc[section], section)
    sysd = doc["system"]
    try:
        spec = SystemSpec(A=sysd["A"], B=sysd["B"], C=sysd["C"], D=sysd["D"],
                          h_max=float(sysd["h_max"]),
                          omega_bar=sysd["omega_bar"], d_bar=sysd["d_bar"],
                          psi_bar=sysd["psi_bar"], phi_bar=sysd["phi_bar"])
    except KeyError as exc:
        raise ProblemFormatError(f"system section missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"system section: {exc}") from exc
    scenario_cfg = doc.get("scenario")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ProblemFormatError("options must be an object")
    options = {key: _positive(f"options.{key}", value) if key in DEFAULTS else value
               for key, value in options.items()}
    if options.get("xi") is not None:
        options["xi"] = _weights("options.xi", options["xi"], spec)
    # the file's own scenario, on the command's grid, whatever the command;
    # the default one sits at the bars, which the system's own checks cover
    if scenario_cfg is not None:
        _scenario(spec, scenario_cfg, a=1.0, b=1.0, t_end=_option(args, options, "t_end"),
                  step=_option(args, options, "step"))
    return spec, scenario_cfg, options


def _numbers_only(value, name: str) -> None:
    """Refuse a boolean or a string where the file holds a number, which
    ``float`` would read (true as 1.0, "0.3" as 0.3); a signal's kind is
    the one string.  A list of numbers costs one set test."""
    if isinstance(value, (bool, str)):
        raise ProblemFormatError(f"{name} must be a number, got {json.dumps(value)}")
    if isinstance(value, dict):
        for key, v in value.items():
            if key != "kind":
                _numbers_only(v, f"{name}.{key}")
    elif isinstance(value, list) and not {float, int}.issuperset(map(type, value)):
        for i, v in enumerate(value):
            _numbers_only(v, f"{name}[{i}]")


def _positive(name: str, value) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{name}: {exc}") from exc
    if not (np.isfinite(v) and v > 0.0):
        raise ProblemFormatError(f"{name} must be finite and positive, got {value!r}")
    return v


def _weights(name: str, values, spec: SystemSpec) -> list[float]:
    if not isinstance(values, (list, tuple)):
        raise ProblemFormatError(f"{name} must be an array")
    if len(values) != spec.n + spec.m:
        raise ProblemFormatError(f"{name} must have {spec.n + spec.m} entries, got {len(values)}")
    return [_positive(name, v) for v in values]


def build_scenario(spec: SystemSpec, scenario_cfg, *, a: float, b: float,
                   t_end: float, step: float) -> SimulationScenario:
    """Scenario from the file section, or else the default preset (constant
    disturbances at the envelopes), with omega scaled by a and d by b."""
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ProblemFormatError(f"--a and --b must be finite, got {a!r} and {b!r}")
    if not spec.h_max / step <= _STEPS_MAX:
        raise ProblemFormatError(f"h_max / step must be at most 2**53, got {spec.h_max!r} / {step!r}")
    return _scenario(spec, scenario_cfg, a=a, b=b, t_end=t_end, step=step)


def _scenario(spec: SystemSpec, scenario_cfg, *, a: float, b: float,
              t_end: float, step: float) -> SimulationScenario:
    """``build_scenario`` without the checks of the scales and the history
    grid: the scenario, checked against its envelopes as it is built."""
    if scenario_cfg is None:
        scenario_cfg = {"omega": spec.omega_bar.tolist(), "d": spec.d_bar.tolist()}
    if not isinstance(scenario_cfg, dict):
        raise ProblemFormatError("scenario must be an object")
    omega = _signal_from_config(scenario_cfg.get("omega", [0.0] * spec.n), spec.n, "omega")
    d_sig = _signal_from_config(scenario_cfg.get("d", [0.0] * spec.m), spec.m, "d")
    h1 = _signal_from_config(scenario_cfg.get("h1", [spec.h_max]), 1, "h1")
    h2 = _signal_from_config(scenario_cfg.get("h2", [spec.h_max]), 1, "h2")
    psi = scenario_cfg.get("psi", spec.psi_bar.tolist())
    phi = _signal_from_config(scenario_cfg.get("phi", spec.phi_bar.tolist()), spec.m, "phi")
    try:
        return SimulationScenario(spec=spec, omega=omega.scaled(a), d=d_sig.scaled(b),
                                  h1=h1, h2=h2, psi=np.asarray(psi, dtype=float),
                                  phi=phi, t_end=t_end, step=step)
    except InvalidScenario as exc:
        raise ProblemFormatError(str(exc)) from None
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"scenario: {exc}") from exc


@contextlib.contextmanager
def _writing(path):
    """An output that cannot be written is an input error (exit code 2)."""
    try:
        yield
    except OSError as exc:
        raise ProblemFormatError(f"cannot write {exc.filename or path}: "
                                 f"{exc.strerror or exc}") from exc


@contextlib.contextmanager
def _allocating(t_end: float, step: float):
    """A time grid too large to allocate is an input error (exit code 2)."""
    try:
        yield
    except MemoryError:
        raise ProblemFormatError(f"not enough memory for {round(t_end / step)} time steps, "
                                 f"t_end / step = {t_end!r} / {step!r}") from None


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_staircase_csv(path, cert: BoundCertificate, t_end: float, step: float) -> None:
    times = np.arange(int(round(t_end / step)) + 1) * step
    starts, xb, yb = staircase_runs(cert, times)
    write_csv(path, times, {"xb": xb, "yb": yb}, starts)


def _fmt_vec(v: np.ndarray) -> str:
    return "[" + ", ".join(f"{x:.6g}" for x in v) + "]"


def cmd_check(args) -> int:
    spec, _, options = load_problem(args.problem, args)
    findings = validate_structure(spec)
    for f in findings:
        print(f"FAIL structure: {f}")
    report = check_joint_condition(spec, _xi(args, spec, options))
    checks = [
        ("A is Metzler", report.a_is_metzler),
        ("B, C, D nonnegative", report.bcd_nonnegative),
        ("D is Schur", report.d_is_schur),
        ("joint stability condition", report.joint_condition_holds),
    ]
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    if report.joint_condition_holds:
        print(f"witness p = {_fmt_vec(report.witness_p)}")
        print(f"witness q = {_fmt_vec(report.witness_q)}")
    elif report.diagnostic:
        print(f"diagnostic: {report.diagnostic}")
    return 0 if not findings and all(ok for _, ok in checks) else 1


def _xi(args, spec: SystemSpec, options: dict):
    """Witness weights: a flag overrides the file, the file the default (ones)."""
    return options.get("xi") if args.xi is None else _weights("--xi", args.xi.split(","), spec)


def _option(args, options: dict, key: str) -> float:
    """A flag overrides the file, the file the default."""
    flag = getattr(args, key, None)
    if flag is None:
        return options.get(key, DEFAULTS[key])
    return _positive("--" + key.replace("_", "-"), flag)


def _options(args, options: dict):
    """(alpha_step, step, t_end), by ``_option``."""
    alpha_step, step, t_end = (_option(args, options, key) for key in DEFAULTS)
    # the number of time steps; NaN and inf fail the test too
    if not t_end / step <= _STEPS_MAX:
        raise ProblemFormatError(f"t_end / step must be at most 2**53, got {t_end!r} / {step!r}")
    return alpha_step, step, t_end


def _certificate_summary(cert: BoundCertificate) -> str:
    lines = [
        f"eta      = {_fmt_vec(cert.eta)}",
        f"varsigma = {_fmt_vec(cert.varsigma)}",
        f"p        = {_fmt_vec(cert.p)}",
        f"q        = {_fmt_vec(cert.q)}",
        f"mu       = {cert.mu:.6g} (decay factor {1 - cert.mu:.6g} per dwell)",
        f"T        = {cert.convergence.T:.6g}",
        f"T_star   = {cert.T_star:.6g}",
        f"constant_bound = {cert.constant_bound}",
    ]
    return "\n".join(lines)


def cmd_bound(args) -> int:
    spec, _, options = load_problem(args.problem, args)
    alpha_step, step, t_end = _options(args, options)
    cert = compute_certificate(spec, alpha_step=alpha_step, xi=_xi(args, spec, options))
    outdir = Path(args.out)
    with _writing(outdir), _allocating(t_end, step):
        outdir.mkdir(parents=True, exist_ok=True)
        # the certificate last, so a failed write leaves none behind
        _write_staircase_csv(outdir / "staircase.csv", cert, t_end, step)
        _write_json(outdir / "certificate.json", cert.to_dict())
    print(_certificate_summary(cert))
    print(f"wrote {outdir / 'certificate.json'} and {outdir / 'staircase.csv'}")
    return 0


def cmd_simulate(args) -> int:
    spec, scenario_cfg, options = load_problem(args.problem, args)
    _, step, t_end = _options(args, options)
    scenario = build_scenario(spec, scenario_cfg, a=args.a, b=args.b,
                              t_end=t_end, step=step)
    with _allocating(t_end, step):
        traj = simulate(scenario)
        with _writing(args.out):
            write_trajectory_csv(traj, args.out)
    print(f"wrote {args.out} ({traj.times.shape[0]} rows)")
    return 0


def grid_reports(spec: SystemSpec, scenario_cfg, cert: BoundCertificate, *,
                 t_end: float, step: float) -> list[DominationReport]:
    """Reports for VERIFY_GRID from one batched run of the scenario's corners
    F = (0, 0), W = (1, 0) and Delta = (0, 1) (``simulate_corners``).  For
    fixed delays the system is linear in (psi, phi, w, d), so scenario (a, b)
    is ``F + a (W - F) + b (Delta - F)``; the differences and the
    staircase's runs are formed once, and each point is composed and
    checked in turn."""
    free, omega, dist = simulate_corners(
        build_scenario(spec, scenario_cfg, a=1.0, b=1.0, t_end=t_end, step=step))
    runs = staircase_runs(cert, free.times)
    # each trajectory is a view that steps over the batch's rows; every
    # composition reads F again, so one contiguous copy of F pays (it halved
    # the time of the six compositions at 6 001 rows)
    parts = {}
    for name in ("x_samples", "y_samples"):
        base = np.ascontiguousarray(getattr(free, name))
        parts[name] = base, getattr(omega, name) - base, getattr(dist, name) - base

    def compose(name: str, a: float, b: float) -> np.ndarray:
        base, d_omega, d_dist = parts[name]
        # the same sum as base + a * d_omega + b * d_dist with one large
        # temporary fewer, which measured four times faster at 6 000 rows
        out = base + a * d_omega
        out += b * d_dist
        return out

    return [verify_domination(Trajectory(free.times, compose("x_samples", a, b),
                                         compose("y_samples", a, b)), cert, runs=runs)
            for a, b in VERIFY_GRID]


def cmd_verify(args) -> int:
    spec, scenario_cfg, options = load_problem(args.problem, args)
    alpha_step, step, t_end = _options(args, options)
    cert = compute_certificate(spec, alpha_step=alpha_step, xi=_xi(args, spec, options))
    with _allocating(t_end, step):
        if args.a is not None or args.b is not None:
            a = 1.0 if args.a is None else args.a
            b = 1.0 if args.b is None else args.b
            combos = [(a, b)]
            scenario = build_scenario(spec, scenario_cfg, a=a, b=b, t_end=t_end, step=step)
            reports = [verify_domination(simulate(scenario), cert)]
        else:
            combos = VERIFY_GRID
            reports = grid_reports(spec, scenario_cfg, cert, t_end=t_end, step=step)

    ok = True
    for (a, b), rep in zip(combos, reports):
        status = "OK" if rep.ok else f"VIOLATION at t={rep.first_violation_time:g}"
        print(f"a={a:g} b={b:g}: x margins {_fmt_vec(rep.x_margin)} "
              f"y margins {_fmt_vec(rep.y_margin)} -> {status}")
        ok = ok and rep.ok
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` leaves
    it unchanged, so every call of ``main`` shares it."""
    parser = argparse.ArgumentParser(
        prog="cdde-bound",
        description="Componentwise state bounds for positive coupled "
                    "differential-difference systems, with a validating simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate structure and stability hypotheses")
    p_check.add_argument("problem")
    p_check.set_defaults(func=cmd_check)

    p_bound = sub.add_parser("bound", help="compute the bound certificate")
    p_bound.add_argument("problem")
    p_bound.add_argument("--out", default=".", help="output directory")
    p_bound.set_defaults(func=cmd_bound)

    p_sim = sub.add_parser("simulate", help="simulate a disturbance scenario")
    p_sim.add_argument("problem")
    p_sim.add_argument("--a", type=float, default=1.0, help="scale on the omega signal")
    p_sim.add_argument("--b", type=float, default=1.0, help="scale on the d signal")
    p_sim.add_argument("--out", default="trajectory.csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="simulate and check domination by the bound")
    p_ver.add_argument("problem")
    p_ver.add_argument("--a", type=float, default=None,
                       help="single omega scale (default: preset grid)")
    p_ver.add_argument("--b", type=float, default=None,
                       help="single d scale (default: preset grid)")
    p_ver.set_defaults(func=cmd_verify)
    for p in (p_bound, p_sim, p_ver):
        p.add_argument("--step", type=float, help="time grid step (staircase samples for bound)")
        p.add_argument("--t-end", dest="t_end", type=float)
    for p in (p_bound, p_ver):
        p.add_argument("--alpha-step", dest="alpha_step", type=float)
    for p in (p_check, p_bound, p_ver):
        p.add_argument("--xi", help="comma-separated positive weights for the witness solve")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProblemFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    except (InvalidScenario, UnstableStep) as exc:
        print(f"FAIL scenario: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
