"""The stacked DOP853 integrator on its own, on a toy ODE with a known
blow-up: each row of y' = y^2 from y0 > 0 is y0 / (1 - y0 t), which blows up
at t = 1/y0, and a row from y0 < 0 decays for all t.  It is autonomous, so
its time factor g is 1."""
import numpy as np
import pytest
from scipy.integrate import DOP853

from solvflow import dop853
from solvflow.dop853 import RowwiseDOP853, solve_ivp


def square(live):
    """f(y) = y^2 on the rows that ``live`` marks (width 1), 0 on the others,
    written into ``out``; y and ``out`` may have leading axes."""
    def f(y, out):
        np.multiply(y, y, out=out)
        out[..., ~live, :] = 0.0
    return f


def solve(y0, t_end, **kwargs):
    counts = {}
    live = np.ones(len(y0), dtype=bool)
    sol = solve_ivp(square(live), (0.0, t_end), np.asarray(y0, dtype=float),
                    method=RowwiseDOP853, rows=len(y0), counts=counts, g=np.ones_like,
                    live_fun=square, rtol=1e-10, atol=1e-12, **kwargs)
    return sol, counts


def test_each_row_leaves_at_its_own_blow_up():
    # three rows blow up before t = 3, at 0.5, 2 and 1; two survive
    y0 = np.array([2.0, 0.5, 1.0, -1.0, 0.25])
    times = np.linspace(0.0, 3.0, 31)
    sol, counts = solve(y0, 3.0, samples=times)
    assert sol.status == 0 and len(counts["samples"]) == len(times)
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
        assert np.max(np.abs(counts["samples"][:, k] / exact - 1.0)) <= 1e-8
    # a failed row stays where it left, with a finite value
    last = counts["samples"][-1, :3]
    assert np.all(np.isfinite(last)) and np.all(last > 1e10)


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
                    rows=2, counts=counts, row_ends=[3.0, 2.0], g=np.ones_like,
                    live_fun=square, rtol=1e-10, atol=1e-12)
    assert sol.status == 0 and sol.t[-1] == 2.0
    assert counts["failed_at"][0] == pytest.approx(1.0, rel=1e-9, abs=0.0)
    assert counts["failed_at"][1] is None and counts["retired_at_step"][1] is None
    assert sol.y[1, -1] == pytest.approx(0.25 / (1.0 - 0.25 * 2.0), rel=1e-8)


@pytest.mark.parametrize("rows", [1, 3])
def test_separable_step_is_scipys_step_on_the_product(rows):
    # y' = e^t y^2, a row of width 3: 1/y = 1/y0 - (e^t - 1), finite to t = 1
    # from these y0.  Stacked identical rows each have the row's own norm, so
    # the step is scipy's DOP853 on one row of the product form e^t y^2
    y0 = np.array([0.4, -0.5, 0.2])
    times = np.linspace(0.0, 1.0, 11)
    scipy_sol = solve_ivp(lambda t, y: np.exp(t) * y * y, (0.0, 1.0), y0, method=DOP853,
                          t_eval=times, rtol=1e-10, atol=1e-12)
    counts = {}
    sol = solve_ivp(lambda y, out: np.multiply(y, y, out=out), (0.0, 1.0), np.tile(y0, rows),
                    method=RowwiseDOP853, samples=times, rows=rows, counts=counts, g=np.exp,
                    rtol=1e-10, atol=1e-12)
    scipy_steps = len(solve_ivp(lambda t, y: np.exp(t) * y * y, (0.0, 1.0), y0,
                                method=DOP853, rtol=1e-10, atol=1e-12).t) - 1
    assert sol.status == scipy_sol.status == 0
    assert (sol.nfev, counts["steps"]) == (scipy_sol.nfev, scipy_steps)
    samples = counts["samples"].T
    assert np.max(np.abs(samples.reshape(rows, 3, -1) / scipy_sol.y - 1.0)) <= 1e-12
    exact = 1.0 / (1.0 / y0[:, None] - np.expm1(times))
    assert np.max(np.abs(scipy_sol.y / exact - 1.0)) <= 1e-8


def test_a_retired_row_stays_put_bitwise():
    # the row to 0.5 leaves at the first step that starts past it and from
    # there keeps its y to the last bit, in each step's y and in every dense
    # sample, while the other rows go on to 2
    def run(samples):
        counts = {}
        sol = solve_ivp(square(np.ones(3, dtype=bool)), (0.0, 2.0), np.array([0.9, 0.3, -1.0]),
                        method=RowwiseDOP853, samples=samples, rows=3, counts=counts,
                        row_ends=[0.5, 2.0, 2.0], g=np.ones_like, live_fun=square,
                        rtol=1e-10, atol=1e-12)
        assert sol.status == 0 and counts["retired_at_step"][1:] == [None, None]
        return sol, counts["retired_at_step"][0], counts["samples"].T

    steps, exit, _ = run(())  # y after each accepted step
    t_exit = steps.t[exit]
    assert t_exit >= 0.5 > steps.t[exit - 1]
    times = np.linspace(0.0, 2.0, 41)
    _, _, dense = run(times)
    for t, y in ((steps.t, steps.y), (times, dense)):
        left = y[0, t >= t_exit]
        assert left.size > 5 and np.all(left == steps.y[0, exit])
    assert np.all(np.diff(steps.y[1, exit:]) > 0.0)


def test_samples_do_not_depend_on_the_flush_size(monkeypatch):
    # the whole record at once, and a flush after every step: the rows
    # leave at 0.5 (by their end), at 1 and 2 (where they blow up), and
    # each flush before a row leaves interpolates with the rows then live
    y0 = np.array([2.0, 0.5, 1.0, -1.0, 0.25, 0.9])
    times = np.linspace(0.0, 3.0, 301)

    def run():
        counts = {}
        live = np.ones(len(y0), dtype=bool)
        sol = solve_ivp(square(live), (0.0, 3.0), y0, method=RowwiseDOP853, rows=len(y0),
                        counts=counts, row_ends=[3.0] * 5 + [0.5], g=np.ones_like,
                        live_fun=square, samples=times, rtol=1e-10, atol=1e-12)
        return sol, counts["samples"]

    whole_sol, whole = run()
    monkeypatch.setattr(dop853, "_RECORD_FLOATS", 1)
    each_sol, each = run()
    assert whole_sol.nfev == each_sol.nfev and np.array_equal(whole_sol.t, each_sol.t)
    assert whole.shape == each.shape == (len(times), len(y0))
    assert np.all(np.abs(whole - each) <= np.spacing(np.abs(whole)))


def test_t_eval_and_dense_output_are_refused():
    # the samples come from the record; scipy's dense output would read
    # stages this step does not keep
    for kwargs in ({"t_eval": [0.0, 0.5]}, {"dense_output": True}):
        with pytest.raises(NotImplementedError, match="samples="):
            solve([0.5], 1.0, **kwargs)
