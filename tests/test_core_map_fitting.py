"""Tests for MAP(2) fitting from (mean, index of dispersion, 95th percentile)."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.map_fitting import (
    FittedServiceProcess,
    _closed_form_dispersion,
    candidate_grid,
    fit_map2_from_measurements,
)
from repro.maps import map2_from_moments_and_decay


class TestFitQuality:
    @pytest.mark.parametrize("target_i", [5.0, 40.0, 150.0, 400.0])
    def test_dispersion_within_tolerance(self, target_i):
        fit = fit_map2_from_measurements(mean=0.01, index_of_dispersion=target_i)
        assert fit.dispersion_error <= 0.20 + 1e-9

    @pytest.mark.parametrize("mean", [0.001, 0.05, 2.0])
    def test_mean_matched_exactly(self, mean):
        fit = fit_map2_from_measurements(mean=mean, index_of_dispersion=50.0)
        assert fit.map.mean() == pytest.approx(mean, rel=1e-6)

    def test_p95_improves_selection(self):
        """Providing the true p95 of a known process should select a candidate
        whose p95 is closer than the worst feasible candidate."""
        true = map2_from_moments_and_decay(1.0, 3.0, 0.99)
        target_i = true.index_of_dispersion()
        target_p95 = true.interarrival_percentile(0.95)
        fit = fit_map2_from_measurements(1.0, target_i, p95=target_p95)
        assert fit.achieved_p95 == pytest.approx(target_p95, rel=0.35)

    def test_recovers_known_process_descriptors(self):
        true = map2_from_moments_and_decay(0.02, 5.0, 0.995)
        fit = fit_map2_from_measurements(
            0.02, true.index_of_dispersion(), true.interarrival_percentile(0.95)
        )
        assert fit.map.index_of_dispersion() == pytest.approx(
            true.index_of_dispersion(), rel=0.25
        )
        assert fit.map.mean() == pytest.approx(0.02, rel=1e-6)

    def test_exponential_shortcut_for_low_dispersion(self):
        fit = fit_map2_from_measurements(mean=0.5, index_of_dispersion=0.8)
        assert fit.achieved_dispersion == pytest.approx(1.0)
        assert fit.map.order == 1
        assert fit.scv == pytest.approx(1.0)

    def test_without_p95_selects_minimal_dispersion_error(self):
        fit = fit_map2_from_measurements(mean=0.1, index_of_dispersion=80.0, p95=None)
        assert fit.dispersion_error <= 0.20 + 1e-9

    def test_result_dataclass_fields(self):
        fit = fit_map2_from_measurements(mean=1.0, index_of_dispersion=30.0, p95=4.0)
        assert isinstance(fit, FittedServiceProcess)
        assert fit.candidates_feasible >= 1
        assert fit.candidates_considered >= fit.candidates_feasible
        summary = fit.summary()
        assert summary["target_I"] == pytest.approx(30.0)

    def test_p95_error_property(self):
        fit = fit_map2_from_measurements(mean=1.0, index_of_dispersion=30.0, p95=4.0)
        assert fit.p95_error is not None and fit.p95_error >= 0.0
        fit_no_p95 = fit_map2_from_measurements(mean=1.0, index_of_dispersion=30.0)
        assert fit_no_p95.p95_error is None

    def test_fallback_when_tolerance_tiny(self):
        fit = fit_map2_from_measurements(
            mean=1.0, index_of_dispersion=37.7, dispersion_tolerance=1e-6
        )
        # The fallback still returns a usable process with the exact mean.
        assert fit.map.mean() == pytest.approx(1.0, rel=1e-6)

    def test_ulp_close_p95s_do_not_override_the_autocorrelation_tie_break(self):
        # A window of a seed-1 service trace: decays 0.7 and 0.8 of the
        # (SCV 12, p1 0.975) marginal are both feasible and share one p95, so
        # the larger lag-1 autocorrelation (decay 0.8) must win.
        fit = fit_map2_from_measurements(0.01898465657370518, 47.066675579240055, 1 / 24)
        assert (fit.scv, fit.branch_probability, fit.decay) == (12.0, 0.975, 0.8)
        assert fit.candidates_feasible == 66

    @pytest.mark.parametrize("target_i", [50.95, 51.05])
    def test_equal_closed_form_dispersions_tie_to_the_larger_autocorrelation(self, target_i):
        # (1.5, 0.99), (1.05, 0.999), (16, 0.7) and (6, 0.9) all have closed-form
        # I = 51 up to a few ulps, so from either side they tie: the largest
        # lag-1 autocorrelation wins, then the balanced-means p1 (grid order).
        fit = fit_map2_from_measurements(1.0, target_i)
        assert (fit.scv, fit.decay, fit.branch_probability) == (6.0, 0.9, None)


class TestCandidateGrid:
    def test_grid_not_empty(self):
        assert len(candidate_grid(50.0)) > 50

    def test_grid_scvs_bounded_by_target(self):
        grid = candidate_grid(10.0)
        assert max(scv for scv, _, _ in grid) <= 1.2 * 10.0 + 1e-9

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            candidate_grid(0.0)


class TestValidation:
    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            fit_map2_from_measurements(0.0, 10.0)

    def test_rejects_nonpositive_dispersion(self):
        with pytest.raises(ValueError):
            fit_map2_from_measurements(1.0, 0.0)


class TestMapFitError:
    def _error(self):
        from repro.core.map_fitting import MapFitError

        return MapFitError(
            "fit diverged",
            target_mean=1.0,
            target_dispersion=5000.0,
            target_p95=2.0,
            candidates_considered=7,
        )

    def test_raised_instead_of_bare_runtime_error(self):
        assert isinstance(self._error(), RuntimeError)  # backward compatible

    def test_carries_targets_and_diagnostics(self):
        error = self._error()
        assert error.target_mean == 1.0
        assert error.target_dispersion == 5000.0
        assert error.target_p95 == 2.0
        assert error.candidates_considered == 7

    def test_message_names_the_targets(self):
        message = str(self._error())
        assert "I=5000" in message
        assert "p95=2" in message
        assert "7 candidate(s) considered" in message

    def test_exported_from_core(self):
        from repro.core import MapFitError as exported
        from repro.core.map_fitting import MapFitError

        assert exported is MapFitError


class TestClosedFormDispersion:
    @pytest.mark.parametrize("target_i", [1.5, 3.0, 40.0, 150.0, 400.0, 1000.0])
    def test_matches_matrix_index_of_dispersion(self, target_i):
        # The grid filter drops candidates on the closed form with a 1e-9
        # margin, so it must agree with the matrix value far inside that.
        checked = 0
        for scv, decay, p1 in candidate_grid(target_i):
            try:
                candidate = map2_from_moments_and_decay(1.0, scv, decay, p1)
            except ValueError:
                continue
            closed_form = _closed_form_dispersion(scv, decay)
            assert closed_form == pytest.approx(candidate.index_of_dispersion(), rel=1e-10)
            checked += 1
        assert checked > 0


class TestPinnedFits:
    @pytest.mark.parametrize(
        "mean, target_i, p95, tolerance, expected",
        [
            (0.01, 40.0, None, 0.2, "0ba2f2f7b606fe87d90d49133aaa2ca90adaaa1ed64cdd3a41dded461b31ffac"),
            (1.0, 30.0, 4.0, 0.2, "81302f87cc576a7b80f9a36dfe8dc2fd2595bf93f9e9225d1e4a3cb8f8c40015"),
            (0.05, 3.0, 0.2, 0.2, "7f0247e3dfe90a224c0e30dab1a0efc7b24221841865d3db84d15c4d8e16c4f4"),
            (2.0, 150.0, 10.0, 0.2, "4e32bc6db119f27834fd587c0f8e218d466bb914b27e262cb2702b046ec56ca7"),
            (1e-4, 400.0, None, 0.2, "584a6e101e4342a25148c088a50d22604ada9eb642e5ab7414731122e885b517"),
            (0.02, 1.000001, None, 0.2, "bcad80703d789066446ee8b3a28e58119417ae229a0617a25550ab31c8ba9641"),
            (0.003, 1000.0, 0.05, 0.2, "88d1483c78d4895ec98578fbf8b722c19803822a7d82157847cd481103766f7a"),
            (5.0, 75.0, 20.0, 0.2, "a29153a769e977da52b6c6753b918fe531bfa8367c01aa347a1481ba51248ac3"),
            (1.0, 37.7, None, 1e-6, "4fe72c96ef4e195b3a80588e387aba666eeb0cb1ac47ea36388adc75de82f5d6"),
            (0.5, 13.3, 1.5, 1e-6, "5edc95b589518eaa01efa67bb531b09e94966e26164c94bc98de341a6f3d0ad8"),
        ],
    )
    def test_fit_is_pinned_bit_for_bit(self, mean, target_i, p95, tolerance, expected):
        # SHA-256 of every field's repr plus the D0/D1 bytes: the fit must
        # reproduce each recorded choice bit for bit.
        fit = fit_map2_from_measurements(mean, target_i, p95, dispersion_tolerance=tolerance)
        digest = hashlib.sha256()
        for field in dataclasses.fields(FittedServiceProcess):
            if field.name != "map":
                digest.update(repr(getattr(fit, field.name)).encode())
        digest.update(np.ascontiguousarray(fit.map.D0, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(fit.map.D1, dtype="<f8").tobytes())
        assert digest.hexdigest() == expected
