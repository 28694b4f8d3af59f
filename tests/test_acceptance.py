"""Numbered acceptance checks, one test per criterion.

Each check runs the one pinned protocol of nextjump.validation, the same one
``nextjump validate`` runs, and prints its one-line PASS/FAIL summary so the
full record appears in the test log.
"""

import math

import numpy as np
import pytest
from scipy.special import kolmogorov

from nextjump import validation

_IDS = [f"{i:02d}-{validation.CRITERION_TITLES[i]}"
        for i in sorted(validation.CRITERION_TITLES)]


@pytest.mark.parametrize("index", sorted(validation.CRITERION_TITLES),
                         ids=_IDS)
def test_criterion(index, capsys):
    result = validation.run_criterion(index)
    line = validation.format_line(result)
    with capsys.disabled():
        print(line, flush=True)
    assert result.passed, line


def _missed(result) -> list:
    return [g["name"] for g in result.gates if not g["passed"]]


def test_every_criterion_has_a_budget():
    assert sorted(validation._CRITERIA) == list(range(1, 16))
    for title, _, budget in validation._CRITERIA.values():
        assert math.isfinite(budget) and budget > 0.0, title


def test_criterion_12_fails_on_a_shifted_beta(monkeypatch):
    """A coherent kernel whose beta row is off by 1e-6 i leaves the norm
    ratio and the ray fidelity alone (a global phase), so only the gated
    decomposition beta_drift = beta_plain + scalar can catch it."""
    from nextjump import heterodyne
    kernel = heterodyne._coherent_kernel

    def shifted(*args, **kwargs):
        out = kernel(*args, **kwargs)
        out[1] += 1e-6j
        return out

    monkeypatch.setattr(heterodyne, "_coherent_kernel", shifted)
    result = validation.run_criterion(12)
    assert not result.passed
    assert _missed(result) == ["decomposition_dev"]
    assert abs(result.measured["decomposition_dev"] - 1e-6) < 1e-9
    assert abs(result.measured["norm_ratio_minus_1"]) < 1e-8


def test_criterion_11_fails_on_a_tilted_alpha(monkeypatch):
    """Criterion 11 runs the coherent kernel on its locked record, so an
    amplitude law off by a factor 1 + 1e-3 i no longer matches the no-click
    flow."""
    from nextjump import heterodyne
    terms = heterodyne._coherent_terms

    def tilted(*args, **kwargs):
        alpha, ehat, gain, drift = terms(*args, **kwargs)
        return alpha * (1 + 1e-3j), ehat, gain, drift

    monkeypatch.setattr(heterodyne, "_coherent_terms", tilted)
    result = validation.run_criterion(11)
    assert not result.passed
    assert "max_amplitude_dev" in _missed(result)
    assert result.measured["max_amplitude_dev"] > 1e-8


def test_criterion_8_fails_on_a_kernel_off_by_two_percent(monkeypatch):
    """A memory kernel 2% too large still fits the perturbative rate within
    its 5% gate, but no longer follows the two-level Fock evolution."""
    from nextjump import transmon
    kernel_log = transmon.bright_kernel_log
    monkeypatch.setattr(transmon, "bright_kernel_log",
                        lambda p, s: kernel_log(p, s) + math.log(1.02))
    result = validation.run_criterion(8)
    assert not result.passed
    assert _missed(result) == ["fock_curve_dev"]
    assert result.measured["rel_dev"] < 0.05
    assert result.measured["fock_curve_dev"] > 1e-6


def test_criterion_10_fails_on_a_tilted_alpha(monkeypatch):
    """An amplitude law off by a factor 1 + 1e-3 i leaves the current peak
    within its gate, but the kernel's alpha then misses the Fock SSE
    oracle's <c>."""
    from nextjump import heterodyne
    terms = heterodyne._coherent_terms

    def tilted(*args, **kwargs):
        alpha, ehat, gain, drift = terms(*args, **kwargs)
        return alpha * (1 + 1e-3j), ehat, gain, drift

    monkeypatch.setattr(heterodyne, "_coherent_terms", tilted)
    result = validation.run_criterion(10)
    assert not result.passed
    assert _missed(result) == ["alpha_oracle_dev"]
    assert result.measured["rel_dev"] < 0.03
    assert result.measured["alpha_oracle_dev"] > 5e-4


def test_criterion_4_fails_on_a_short_censoring_horizon(monkeypatch):
    """telegraph_run's gaps censored at 30 / beta_fast in place of 900 cut
    every dark period short, so p_dark falls far below 1/3; the dark-tail
    sample, drawn by validation's own sample_gaps, stays as it was."""
    from nextjump import trajectories
    sample = trajectories.sample_gaps

    def short(survival, n, rng, t_hi):
        return sample(survival, n, rng, t_hi / 30.0)

    monkeypatch.setattr(trajectories, "sample_gaps", short)
    result = validation.run_criterion(4)
    assert not result.passed
    assert _missed(result) == ["z"]
    assert result.measured["z"] < -3.0
    assert result.measured["tail_rel_dev"] < 0.10


def test_a_raising_runner_fails_and_names_the_exception(monkeypatch):
    title, _, budget = validation._CRITERIA[5]

    def boom():
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(validation._CRITERIA, 5, (title, boom, budget))
    result = validation.run_criterion(5)
    assert not result.passed
    assert result.measured == {"error": "ZeroDivisionError('boom')"}
    assert "error=ZeroDivisionError('boom')" in validation.format_line(result)
    assert [g["name"] for g in result.gates] == ["elapsed"]


def test_a_budget_overrun_fails_on_the_elapsed_gate(monkeypatch):
    title, runner, _ = validation._CRITERIA[5]
    monkeypatch.setitem(validation._CRITERIA, 5, (title, runner, 0.0))
    result = validation.run_criterion(5)
    assert not result.passed
    assert _missed(result) == ["elapsed"]
    assert result.measured == {"log_W": -5e8}
    line = validation.format_line(result)
    assert line.startswith("criterion 05 FAIL ")
    assert " | missed elapsed=" in line and line.endswith(" not <= 0")


def test_gates_keep_each_relation_and_margin():
    """Each relation's test and margin on both sides of its bound, and a
    FAIL line that names only the gates that missed."""
    cases = [("<", 1.0, 2.0, True, 1.0), ("<", 2.0, 2.0, False, 0.0),
             ("<=", 2.0, 2.0, True, 0.0), (">", 1.0, 2.0, False, -1.0),
             ("==", True, True, True, 0.0), ("==", 0.25, 0.5, False, -0.25),
             ("abs<", -1.0, 3.0, True, 2.0), ("abs<", -4.0, 3.0, False, -1.0),
             ("near", 0.3, [0.5, 0.25], True, 0.05),
             ("near", 0.75, [0.5, 0.25], False, 0.0)]
    for relation, value, bound, passed, margin in cases:
        g = validation._gate("x", value, relation, bound)
        assert g["passed"] is passed, (relation, value, bound)
        assert abs(g["margin"] - margin) < 1e-15, (relation, value, bound)
    result = validation.CriterionResult(
        1, "t", False, {"a": 1.0, "b": 2.0},
        [validation._gate("a", 1.0, "<", 2.0),
         validation._gate("b", 2.0, "near", [1.0, 0.5])], 0.5)
    assert validation.format_line(result) == (
        "criterion 01 FAIL t | a=1 b=2 | 0.50s | missed b=2 not near [1.0, 0.5]")


def test_kolmogorov_series_matches_scipy():
    """Criterion 3's p-value series against scipy.special.kolmogorov, on
    both sides of the switch at x = 1 and into both tails."""
    xs = np.concatenate([np.linspace(0.05, 3.0, 591),
                         [0.2, 0.999999, 1.0, 1.000001, 5.0]])
    for x in xs:
        want = kolmogorov(x)
        assert abs(validation._kolmogorov_q(float(x)) - want) <= 2e-14 * want
    assert validation._kolmogorov_q(0.0) == 1.0
    assert validation._kolmogorov_q(0.01) == 1.0
