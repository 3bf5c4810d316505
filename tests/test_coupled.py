"""Tests for leakage-coupled solves and measurement translation."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.experiments.common import celsius
from repro.floorplan import ev6_floorplan, uniform_grid_floorplan
from repro.package import air_sink_package, oil_silicon_package
from repro.rcmodel import ThermalBlockModel, ThermalGridModel
from repro.solver import (
    steady_state,
    steady_state_with_leakage,
    transient_with_leakage,
)
from repro.analysis import translate_measurement, translation_error


def exp_leakage(floorplan, base_density=1e4, beta=0.015, t_ref=318.15):
    """HotSpot-style exponential leakage law.

    Defaults are chosen inside the stable region for the models under
    test (loop gain ``R * beta * L`` below 1); the runaway test
    overrides them to force divergence.
    """
    areas = floorplan.areas()

    def leakage(block_temps):
        return base_density * areas * np.exp(
            beta * (np.asarray(block_temps) - t_ref)
        )

    return leakage


@pytest.fixture(scope="module")
def oil_model():
    plan = uniform_grid_floorplan(16e-3, 16e-3, nx=2, ny=2, prefix="q")
    config = oil_silicon_package(
        16e-3, 16e-3, uniform_h=True, include_secondary=False,
        ambient=celsius(45.0),
    )
    return ThermalGridModel(plan, config, nx=12, ny=12)


class TestCoupledSteady:
    def test_converges_and_exceeds_uncoupled(self, oil_model):
        plan = oil_model.floorplan
        leakage = exp_leakage(plan)
        dynamic = np.full(4, 5.0)
        result = steady_state_with_leakage(oil_model, dynamic, leakage)
        assert result.converged
        assert result.iterations >= 2
        # coupled solution is hotter than dynamic-only (leakage adds W)
        uncoupled = steady_state(
            oil_model.network, oil_model.node_power(dynamic)
        )
        assert result.block_temps.mean() > (
            oil_model.block_rise(uncoupled) + oil_model.config.ambient
        ).mean()
        # leakage at converged temps exceeds leakage at ambient
        ambient_leak = leakage(
            np.full(4, oil_model.config.ambient)
        ).sum()
        assert result.total_leakage > ambient_leak

    def test_zero_beta_converges_immediately_to_linear(self, oil_model):
        plan = oil_model.floorplan
        areas = plan.areas()

        def flat_leakage(_temps):
            return 2e4 * areas

        dynamic = np.full(4, 3.0)
        result = steady_state_with_leakage(oil_model, dynamic, flat_leakage)
        direct = steady_state(
            oil_model.network,
            oil_model.node_power(dynamic + 2e4 * areas),
        )
        np.testing.assert_allclose(
            result.block_temps,
            oil_model.block_rise(direct) + oil_model.config.ambient,
            rtol=1e-6,
        )

    def test_thermal_runaway_detected(self, oil_model):
        plan = oil_model.floorplan
        # absurdly strong feedback: guaranteed runaway
        leakage = exp_leakage(plan, base_density=3e5, beta=0.2)
        with pytest.raises(SolverError):
            steady_state_with_leakage(
                oil_model, np.full(4, 20.0), leakage,
                runaway_temperature=450.0,
            )

    def test_accepts_dict_power_and_block_model(self):
        plan = ev6_floorplan()
        config = oil_silicon_package(
            plan.die_width, plan.die_height, uniform_h=True,
            include_secondary=False, ambient=celsius(45.0),
        )
        model = ThermalBlockModel(plan, config)
        result = steady_state_with_leakage(
            model, {"Dcache": 8.0}, exp_leakage(plan)
        )
        assert result.converged
        assert result.block_temps.shape == (len(plan),)

    def test_invalid_leakage_rejected(self, oil_model):
        with pytest.raises(SolverError):
            steady_state_with_leakage(
                oil_model, np.full(4, 1.0), lambda t: np.full(4, -1.0)
            )


class TestCoupledTransient:
    def test_tracks_leakage_growth(self, oil_model):
        plan = oil_model.floorplan
        leakage = exp_leakage(plan)
        dynamic = np.full(4, 5.0)
        result = transient_with_leakage(
            oil_model, lambda _t: dynamic, leakage, t_end=2.0, dt=0.02
        )
        # temperatures rise monotonically toward the coupled steady state
        assert np.all(np.diff(result.states.mean(axis=1)) >= -1e-9)
        steady = steady_state_with_leakage(oil_model, dynamic, leakage)
        np.testing.assert_allclose(
            result.final(), steady.block_temps, rtol=0.02
        )

    def test_horizon_is_not_rounded(self, oil_model):
        leakage = exp_leakage(oil_model.floorplan)
        dynamic = np.full(4, 5.0)
        # dt does not divide t_end: one exact partial step lands on it
        result = transient_with_leakage(
            oil_model, lambda _t: dynamic, leakage, t_end=0.0105, dt=0.002
        )
        assert result.times[-1] == 0.0105  # repro-ok: float-equality; exact horizon
        np.testing.assert_allclose(
            result.times, [0.0, 0.002, 0.004, 0.006, 0.008, 0.01, 0.0105]
        )
        longer = transient_with_leakage(
            oil_model, lambda _t: dynamic, leakage, t_end=0.01, dt=0.002
        )
        assert np.all(result.final() > longer.final())  # still heating
        # a horizon shorter than one step is an error, not a t=0 record
        with pytest.raises(SolverError, match="shorter than one step"):
            transient_with_leakage(
                oil_model, lambda _t: dynamic, leakage, t_end=0.0009,
                dt=0.002,
            )


class TestTranslation:
    @pytest.fixture(scope="class")
    def models(self):
        plan = ev6_floorplan()
        oil = ThermalBlockModel(
            plan,
            oil_silicon_package(
                plan.die_width, plan.die_height, uniform_h=True,
                include_secondary=False, ambient=celsius(45.0),
            ),
        )
        air = ThermalBlockModel(
            plan,
            air_sink_package(
                plan.die_width, plan.die_height, convection_resistance=1.0,
                ambient=celsius(45.0),
            ),
        )
        return plan, oil, air

    def test_exact_round_trip_without_leakage(self, models):
        plan, oil, air = models
        true_power = plan.power_vector({"IntReg": 3.0, "Dcache": 8.0})
        measured = oil.block_rise(
            steady_state(oil.network, oil.node_power(true_power))
        ) + oil.config.ambient
        result = translate_measurement(measured, oil, air)
        np.testing.assert_allclose(
            result.inferred_total_power, true_power, atol=1e-6
        )
        truth = air.block_rise(
            steady_state(air.network, air.node_power(true_power))
        ) + air.config.ambient
        assert translation_error(result.naive_temps, truth) < 0.01

    def test_leakage_aware_beats_naive(self, models):
        plan, oil, air = models
        leakage = exp_leakage(plan, beta=0.02)
        dynamic = plan.power_vector({"IntReg": 3.0, "Dcache": 8.0,
                                     "IntExec": 2.0})
        # ground truth in both packages, with the leakage loop closed
        oil_truth = steady_state_with_leakage(oil, dynamic, leakage)
        air_truth = steady_state_with_leakage(air, dynamic, leakage)
        result = translate_measurement(
            oil_truth.block_temps, oil, air, leakage=leakage
        )
        err_naive = translation_error(
            result.naive_temps, air_truth.block_temps
        )
        err_corrected = translation_error(
            result.corrected_temps, air_truth.block_temps
        )
        assert err_corrected < err_naive
        assert err_corrected < 1.0  # sub-Kelvin after the correction
        assert result.correction_magnitude > 0

    def test_mismatched_floorplans_rejected(self, models):
        plan, oil, _air = models
        other_plan = uniform_grid_floorplan(16e-3, 16e-3, nx=2, ny=2)
        other = ThermalBlockModel(
            other_plan,
            oil_silicon_package(16e-3, 16e-3, include_secondary=False),
        )
        with pytest.raises(SolverError):
            translate_measurement(
                np.full(len(plan), 330.0), oil, other
            )
