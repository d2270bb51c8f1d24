"""Shared fixtures. The expensive converged runs are session-scoped."""

import math

import numpy as np
import pytest

from stirapgates import (
    LAMBDA_LABELS,
    LambdaSystem,
    PhaseRamp,
    TimeGrid,
    basis_state,
    build_schedule,
    converge_many,
    sequence_fields,
)

STRONG_DRIVE = 200.0 * math.pi


@pytest.fixture(scope="session")
def transport_run():
    """Strong-drive reference transport with a unit-slope stokes ramp.

    tau = pulse_delay = 1, sequence_delay = 5, both peaks at 200 pi, and
    the stokes phase ramping as phi(t) = t. Converged to 1e-6. Reused by
    the tests that only need one good trajectory.
    """
    schedule = build_schedule(1.0, 1.0, 5.0)
    ramp = PhaseRamp(kind="linear", offset=0.0, slope=1.0)
    pump, stokes = sequence_fields(
        schedule,
        peak_pump=STRONG_DRIVE,
        peak_stokes=STRONG_DRIVE,
        pump_level="q",
        stokes_level="s",
        stokes_phase=ramp,
    )
    system = LambdaSystem(pump=pump, stokes=stokes)
    grid = TimeGrid(
        t_start=schedule.t_start,
        t_end=schedule.support_end,
        base_step=schedule.tau / 200.0,
        sample_stride=4,
    )
    start = basis_state(LAMBDA_LABELS, "q")
    model = system.model()
    (traj,), report = converge_many(model, [start], grid, tolerance=1e-6)
    return {
        "schedule": schedule,
        "ramp": ramp,
        "peak": STRONG_DRIVE,
        "model": model,
        "trajectory": traj,
        "report": report,
    }


@pytest.fixture()
def rng():
    return np.random.default_rng(714)
