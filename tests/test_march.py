"""The output cadence that both solvers share (``kinetic.march``)."""

from dataclasses import dataclass

import numpy as np
import pytest

from kinreduce import (
    CollisionModel,
    ConservativeMoment,
    DistributionField,
    HermitePerturbation,
    MomentState,
    ParameterError,
    SpatialMesh,
    maxwellian,
)
from kinreduce.kinetic import march
from kinreduce.reduced_solver import run_reduced
from kinreduce.reference_solver import run_reference


@dataclass
class Clock:
    time: float


def recorded_times(final_time, output_interval, max_dt):
    """Output times of ``march`` on a clock that advances by at most
    ``max_dt`` per call."""
    times = []
    march(
        Clock(0.0), final_time, output_interval,
        lambda st, target: Clock(min(st.time + max_dt, target)),
        lambda st: times.append(st.time),
    )
    return times


def sine_field(grid, cells=8):
    mesh = SpatialMesh(cells=cells, length=1.0)
    rho = 1.0 + 0.1 * np.sin(2 * np.pi * mesh.centers())
    vals = rho[:, None] * maxwellian(MomentState(1.0, 0.0, 1.0), grid)[None, :]
    return DistributionField(vals, grid, mesh)


SOLVERS = {
    "cm2": lambda model, f, T, h: run_reduced(ConservativeMoment(2), model, f, T,
                                              output_interval=h),
    "hermite3": lambda model, f, T, h: run_reduced(HermitePerturbation(3), model, f, T,
                                                   output_interval=h),
    "reference": lambda model, f, T, h: run_reference(model, f, T, output_interval=h),
}


class TestMarch:
    def test_records_start_multiples_and_final_time(self):
        times = recorded_times(0.05, 0.015, 0.004)
        assert times == pytest.approx([0.0, 0.015, 0.03, 0.045, 0.05], abs=1e-15)

    def test_default_interval_is_the_final_time(self):
        assert recorded_times(0.3, None, 0.1) == pytest.approx([0.0, 0.3], abs=1e-15)

    def test_zero_final_time_records_once(self):
        assert recorded_times(0.0, None, 0.1) == [0.0]

    def test_output_time_within_tolerance_is_landed_on(self):
        # an advance that stops 1e-13 short of each target still records
        # there instead of taking a sliver of a step
        times = []
        march(
            Clock(0.0), 0.2, 0.1,
            lambda st, target: Clock(target - 1e-13),
            lambda st: times.append(st.time),
        )
        assert len(times) == 3

    @pytest.mark.parametrize("interval", [0.0, -0.05, float("nan")])
    def test_nonpositive_interval_raises_before_recording(self, interval):
        times = []
        with pytest.raises(ParameterError, match="output interval"):
            march(Clock(0.0), 1.0, interval, None, lambda st: times.append(st.time))
        assert times == []


class TestSolverCadence:
    @pytest.mark.parametrize("solver", list(SOLVERS))
    @pytest.mark.parametrize("interval", [0.0, -0.05, float("nan")])
    def test_nonpositive_interval_raises(self, grid, bgk, solver, interval):
        with pytest.raises(ParameterError, match="output interval"):
            SOLVERS[solver](bgk, sine_field(grid, cells=4), 0.05, interval)

    def test_solvers_share_output_times(self, grid):
        # 0.05 is not a multiple of 0.015: the last interval is short
        field = sine_field(grid)
        model = CollisionModel(kind="bgk", tau=0.5)
        want = [0.0, 0.015, 0.03, 0.045, 0.05]
        for name, solve in SOLVERS.items():
            times = solve(model, field, 0.05, 0.015).times
            np.testing.assert_allclose(times, want, rtol=0.0, atol=1e-12, err_msg=name)
