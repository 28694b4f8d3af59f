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
    with capsys.disabled():
        print(validation.format_line(result), flush=True)
    assert result.passed, result.detail


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
    assert result.measured["rel_dev"] < 0.03
    assert result.measured["alpha_oracle_dev"] > 5e-4


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
