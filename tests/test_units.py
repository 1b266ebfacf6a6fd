"""The sample problem in other units of time and state.

``rescaled`` rewrites a problem file with time in units c times shorter,
or with states s times larger, and the package must follow: the ``check``
verdict unchanged, the ultimate bound and ``simulate``'s trajectories
equivariant to rounding.  Each case that fails today is a strict xfail
naming the ROADMAP item that owns it."""

import copy
import json

import numpy as np
import pytest

from cdde_bound.certificate import compute_certificate, ultimate_bound
from cdde_bound.cli import build_scenario, load_problem, main
from cdde_bound.simulator import simulate

from conftest import SAMPLE_PROBLEM

EPS = np.finfo(float).eps
TIME_SCALES = [1e-6, 1e-3, 1e3, 1e6]
STATE_SCALES = [1e-12, 1e-6, 1e6, 1e200]
# jumps of y below JUMP_TOL = 1e-13 are not tracked: at s = 1e-13 the
# later generations of the sample's jump chain go untracked, and y is off
# by 0.050, 3.6e-3 of its largest value
JUMP_TOL_CASE = pytest.param(1e-13, marks=pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 13: JUMP_TOL is absolute"))


def _signal(cfg, value: float, freq: float):
    """A signal of the problem file with its values times ``value`` and its
    frequencies times ``freq``."""
    if isinstance(cfg, list):
        return [value * v for v in cfg]
    out = dict(cfg, amplitude=[value * v for v in cfg["amplitude"]])
    if "frequency" in cfg:
        out["frequency"] = [freq * f for f in cfg["frequency"]]
    if "offset" in cfg:
        out["offset"] = value * cfg["offset"]
    return out


def rescaled(doc: dict, c: float = 1.0, s: float = 1.0) -> dict:
    """The problem with time in units c times shorter and states s times
    larger: ``A``, ``B``, ``omega_bar``, omega and ``alpha_step`` times c;
    ``h_max``, the delays, ``step`` and ``t_end`` divided by c; every
    frequency times c; every state, output and disturbance value and bar
    times s.  Its solution at ``t / c`` is s times the original's at t."""
    doc = copy.deepcopy(doc)
    system, scenario, options = doc["system"], doc["scenario"], doc["options"]
    for name in ("A", "B"):
        system[name] = [[c * v for v in row] for row in system[name]]
    system["h_max"] /= c
    for name, factor in (("omega_bar", c * s), ("d_bar", s), ("psi_bar", s), ("phi_bar", s)):
        system[name] = [factor * v for v in system[name]]
    for name, factor in (("omega", c * s), ("d", s), ("phi", s), ("h1", 1.0 / c),
                         ("h2", 1.0 / c)):
        scenario[name] = _signal(scenario[name], factor, c)
    scenario["psi"] = [s * v for v in scenario["psi"]]
    options.update(step=options["step"] / c, t_end=options["t_end"] / c,
                   alpha_step=options["alpha_step"] * c)
    return doc


def sample_doc() -> dict:
    """The sample problem on a horizon of 12."""
    doc = json.loads(SAMPLE_PROBLEM.read_text())
    doc["options"]["t_end"] = 12.0
    return doc


def run(tmp_path, doc: dict):
    """The problem's system, options and simulated file scenario, loaded
    from a file as the command line loads it."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    spec, cfg, options = load_problem(path)
    scenario = build_scenario(spec, cfg, a=1.0, b=1.0, t_end=options["t_end"],
                              step=options["step"])
    return spec, options, simulate(scenario)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    return run(tmp_path_factory.mktemp("reference"), sample_doc())


def check_lines(tmp_path, capsys, doc: dict) -> tuple[int, list[str]]:
    """``check``'s exit code and verdict lines, without the witness."""
    path = tmp_path / "check.json"
    path.write_text(json.dumps(doc))
    code = main(["check", str(path)])
    out = capsys.readouterr().out.splitlines()
    return code, [line for line in out if line.startswith(("PASS", "FAIL"))]


def assert_equivariant(got, want, s: float, rtol: float) -> None:
    for name in ("x_samples", "y_samples"):
        ref = s * getattr(want, name)
        assert np.abs(getattr(got, name) - ref).max() <= rtol * np.abs(ref).max()


@pytest.mark.parametrize("c", TIME_SCALES)
def test_simulate_follows_time_units(tmp_path, reference, c):
    # measured on the sample: at most 6.9e-16 relative
    _, _, want = reference
    _, _, got = run(tmp_path, rescaled(sample_doc(), c=c))
    assert got.times.shape == want.times.shape
    assert np.abs(c * got.times - want.times).max() <= 4 * EPS * want.times[-1]
    assert_equivariant(got, want, 1.0, 7e-16)


@pytest.mark.parametrize("s", [JUMP_TOL_CASE] + STATE_SCALES)
def test_simulate_follows_state_units(tmp_path, reference, s):
    # measured on the sample: at most 1.0e-15 relative
    _, _, want = reference
    _, _, got = run(tmp_path, rescaled(sample_doc(), s=s))
    assert_equivariant(got, want, s, 1.1e-15)


@pytest.mark.parametrize("c, s", [(c, 1.0) for c in TIME_SCALES]
                         + [(1.0, s) for s in STATE_SCALES])
def test_check_verdict_and_ultimate_bound_follow_units(tmp_path, capsys, reference, c, s):
    spec, _, _ = reference
    assert check_lines(tmp_path, capsys, rescaled(sample_doc(), c=c, s=s)) == \
        check_lines(tmp_path, capsys, sample_doc())
    got_spec, _, _ = run(tmp_path, rescaled(sample_doc(), c=c, s=s))
    # the equilibrium of the coupling matrix, whose rows scale by c: a
    # solve's rounding, measured at most 4.8e-15 relative
    for got, want in zip(ultimate_bound(got_spec), ultimate_bound(spec)):
        assert np.abs(got - s * want).max() <= 64 * EPS * s * np.abs(want).max()


# (quantity, its value per certificate in the sample's time unit, the
# ROADMAP item that owns its dependence on the time unit)
CERTIFICATE_TIMES = {
    # mu is a fraction per dwell, with no unit: 0.0706 at c = 1, 1.81e-7
    # at c = 1e6
    "mu": (lambda cert, c: cert.mu, "ROADMAP item 2: mu depends on the time unit"),
    # T * c reads 0.869 at c = 1e-6 and 1e-3, and 4.23 at c = 1e3 and
    # 1e6, against 1.205
    "T": (lambda cert, c: c * cert.convergence.T,
          "ROADMAP item 6: T depends on the time unit"),
}


@pytest.mark.parametrize("quantity", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason))
    for name, (_, reason) in CERTIFICATE_TIMES.items()])
@pytest.mark.parametrize("c", TIME_SCALES)
def test_certificate_follows_time_units(tmp_path, reference, c, quantity):
    value = CERTIFICATE_TIMES[quantity][0]
    spec, options, _ = reference
    got_spec, got_options, _ = run(tmp_path, rescaled(sample_doc(), c=c))
    want = value(compute_certificate(spec, alpha_step=options["alpha_step"]), 1.0)
    got = value(compute_certificate(got_spec, alpha_step=got_options["alpha_step"]), c)
    assert abs(got - want) <= 64 * EPS * want
