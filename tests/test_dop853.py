"""The stacked DOP853 integrator on its own, on a toy ODE with a known
blow-up: each row of y' = y^2 from y0 > 0 is y0 / (1 - y0 t), which blows up
at t = 1/y0, and a row from y0 < 0 decays for all t."""
import numpy as np
import pytest

from solvflow.dop853 import RowwiseDOP853, solve_ivp


def square(live):
    """y' = y^2 on the rows that ``live`` marks (width 1), 0 on the others."""
    return lambda t, y: np.where(live, y * y, 0.0)


def solve(y0, t_end, **kwargs):
    counts = {}
    live = np.ones(len(y0), dtype=bool)
    sol = solve_ivp(square(live), (0.0, t_end), np.asarray(y0, dtype=float),
                    method=RowwiseDOP853, rows=len(y0), counts=counts, live_rhs=square,
                    rtol=1e-10, atol=1e-12, **kwargs)
    return sol, counts


def test_each_row_leaves_at_its_own_blow_up():
    # three rows blow up before t = 3, at 0.5, 2 and 1; two survive
    y0 = np.array([2.0, 0.5, 1.0, -1.0, 0.25])
    times = np.linspace(0.0, 3.0, 31)
    sol, counts = solve(y0, 3.0, t_eval=times)
    assert sol.status == 0 and np.array_equal(sol.t, times)
    for k in range(3):
        assert counts["failed_at"][k] == pytest.approx(1.0 / y0[k], rel=1e-9, abs=0.0)
    assert counts["failed_at"][3:] == [None, None]
    # each failed row left after the accepted steps that took it to its
    # blow-up, in the order of the blow-ups; the survivors stayed to the end
    retired = counts["retired_at_step"]
    assert retired[0] < retired[2] < retired[1] < counts["steps"]
    assert retired[3:] == [None, None]
    for k in (3, 4):
        exact = y0[k] / (1.0 - y0[k] * times)
        assert np.max(np.abs(sol.y[k] / exact - 1.0)) <= 1e-8
    # a failed row stays where it left, with a finite value
    assert np.all(np.isfinite(sol.y[:3, -1])) and np.all(sol.y[:3, -1] > 1e10)


def test_the_step_fails_when_no_row_is_left():
    sol, counts = solve([1.0, 2.0], 3.0)
    assert sol.status == -1 and sol.message == RowwiseDOP853.TOO_SMALL_STEP
    assert counts["failed_at"][1] < counts["failed_at"][0] == sol.t[-1]
    assert counts["failed_at"] == pytest.approx([1.0, 0.5], rel=1e-9, abs=0.0)
    assert counts["retired_at_step"][1] < counts["retired_at_step"][0] == counts["steps"]



def test_the_solve_ends_with_its_last_live_row():
    # the row to 3 blows up at 1; the row to 2, from 0.25, would blow up at
    # 4, past its own end, and the solve ends with it at t = 2
    counts = {}
    live = np.ones(2, dtype=bool)
    sol = solve_ivp(square(live), (0.0, 3.0), np.array([1.0, 0.25]), method=RowwiseDOP853,
                    rows=2, counts=counts, row_ends=[3.0, 2.0], live_rhs=square,
                    rtol=1e-10, atol=1e-12)
    assert sol.status == 0 and sol.t[-1] == 2.0
    assert counts["failed_at"][0] == pytest.approx(1.0, rel=1e-9, abs=0.0)
    assert counts["failed_at"][1] is None and counts["retired_at_step"][1] is None
    assert sol.y[1, -1] == pytest.approx(0.25 / (1.0 - 0.25 * 2.0), rel=1e-8)
