"""DOP853 for stacked rows, each held to its own tolerance and each leaving
the solve at its own end or at its own failure.

The integrator is DOP853, an 8(5,3) embedded pair with PI step control
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.10).  scipy's ``solve_ivp``
drives it and scipy's ``DOP853`` gives the tableau, the tolerance checks
and the first step; the step itself, the dense output, and the exit of
each row, at its own end or where its step fails, are this module's
(``RowwiseDOP853``).  Nothing here knows the Ricci flow: the right-hand
side is any function of (t, y) over ``rows`` stacked rows of equal width.

This module imports ``scipy.integrate`` at its top.  That, with the
``scipy.linalg`` it pulls in, takes about 0.6 s on 2 cores, where ``import
solvflow`` without it takes about 0.22 s; so :mod:`solvflow.flow` imports
this module at its first solve, not on import, and the commands and callers
that never integrate skip that cost.
"""
import math

import numpy as np
from scipy.integrate import DOP853, DenseOutput, solve_ivp
from scipy.integrate._ivp.common import select_initial_step

__all__ = ["Dop853Interpolant", "RowwiseDOP853", "solve_ivp"]

# DOP853's step-size control, as in scipy: the safety factor, and the
# smallest and largest factor by which one step may change the next
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_TINY = math.ulp(0.0)


class Dop853Interpolant(DenseOutput):
    """DOP853's 7th-order interpolant on one step [t_old, t] of length h:
    y_old + F^T b(x), x = (t - t_old)/h, where b holds the running products
    of x, 1 - x, x, 1 - x, ...  This is scipy's nested form expanded, one
    ``cumprod`` and one product for any number of times."""

    def __init__(self, t_old, t, y_old, F):
        super().__init__(t_old, t)
        self.h = t - t_old
        self.y_old = y_old
        self.F = F

    def _call_impl(self, t):
        x = (t - self.t_old) / self.h
        factors = np.empty((len(self.F), *x.shape))
        factors[0::2] = x
        factors[1::2] = 1.0 - x
        # (time, coordinate), or (coordinate,) for a scalar t
        y = factors.cumprod(axis=0).T @ self.F + self.y_old
        return y.T


class RowwiseDOP853(DOP853):
    """scipy's DOP853 pair, first step and tolerance checks, with our own
    step and dense output, for ``rows`` stacked rows of equal width, each
    held to its own tolerance: the error norm is the largest of the rows'
    own DOP853 norms.

    The step calls the right-hand side ``fun`` as given, uncounted, and adds
    to ``nfev`` itself: 12 evaluations per attempted step and 3 per dense
    output.  A step is accepted exactly when the norm is below 1, so the
    norm also records, in the dict ``counts``, the accepted steps
    (``steps``), the rejected ones (``rejected_steps``), the smallest
    accepted step (``min_step``) and, in ``steps_set``, for each row the
    accepted steps at which its norm was the largest and not 0.

    A row leaves the solve at the first step that starts at or past its end
    (``row_ends``, in the solver's time; by default ``t_bound``, which no
    step starts at).  A row also leaves where its step fails: when an
    attempted step falls below the spacing of the numbers near t, the row
    whose norm was the largest in the last attempt ends at t, its t goes to
    ``counts["failed_at"]`` (None for the other rows), and the other rows
    go on from the first step that the solve would take from there with
    them alone, at the cost of one evaluation (beside a collapsing su(2) +
    R^2 row, a D3 and a D11 row to t = 1e4 take 6,528 evaluations in all,
    and took 6,683 going on from the smallest step).  Either way its
    derivative is zeroed, so its y stays put and its norm is 0, and from
    then on the steps call ``live_rhs(live)``, the right-hand side of the
    rows that the boolean ``live`` marks, with 0 for the others; any solve
    in which a row can leave while others go on needs ``live_rhs``.
    ``counts["retired_at_step"]`` gives for each row the accepted steps made
    before it left, or None.  After a row fails, the solve ends at the last
    end of the rows still live (``t_bound`` shrinks to it), so no step runs
    once every row has left.  The step fails only when no row is left.  In
    ``solvflow check``'s solve, whose rows end at t = 10, 1e3, 1e4 and 1e6,
    retirement takes 1,271 evaluations and 87 steps, where carrying every
    row to 1e6 took 1,421 and 97."""

    # the interpolant's coefficients F = [1, -1, 2, 0, ...] dy + h Q K,
    # dy = y - y_old, from the 16 stages that the dense output completes
    # (K[0] is the step's first derivative and K[12] its last)
    Q = np.zeros((7, DOP853.D.shape[1]))
    Q[1, 0] = 1.0
    Q[2, [0, DOP853.n_stages]] = -1.0
    Q[3:] = DOP853.D
    DY = np.array([1.0, -1.0, 2.0, 0.0, 0.0, 0.0, 0.0])[:, None]

    def __init__(self, fun, t0, y0, t_bound, *, rows, counts, row_ends=None,
                 live_rhs=None, **options):
        self.rows = rows
        self.counts = counts
        counts.update(steps=0, rejected_steps=0, min_step=math.inf, steps_set=[0] * rows,
                      retired_at_step=[None] * rows, failed_at=[None] * rows)
        super().__init__(fun, t0, y0, t_bound, **options)
        self.rhs = fun
        self.width = self.n // rows
        self.ends = np.full(rows, t_bound) if row_ends is None else np.array(row_ends, float)
        self.next_end = float(self.ends.min())
        self.live = np.ones(rows, dtype=bool)
        self.live_rhs = live_rhs
        self.E53 = np.vstack([self.E5, self.E3])
        # the weights of all 16 stages by row: A for stages 1-11, B in row 12
        # and the dense output's stages 13-15.  Each attempt stores h times
        # them in hW, which the dense output of an accepted step reuses
        K, n = self.K_extended, self.n_stages
        self.W = np.zeros((len(K), len(K)))
        self.W[:n, :n], self.W[n, :n], self.W[n + 1:] = self.A, self.B, self.A_EXTRA
        self.hW = np.empty_like(self.W)
        self.hB = self.hW[n, :n]
        # each stage s as (h times its weights, the stages they combine, its
        # node, where it goes)
        nodes = np.concatenate([self.C, [1.0], self.C_EXTRA]).tolist()
        self.stages = [(self.hW[s, :s], K[:s], nodes[s], K[s]) for s in range(1, n)]
        self.extra_stages = [(self.hW[s, :s], K[:s], nodes[s], K[s])
                             for s in range(n + 1, len(K))]

    def _estimate_error_norm(self, K, h, scale):
        # both embedded estimates from one product, squared and summed by row
        err = (self.E53 @ K) / scale
        err5_2, err3_2 = np.square(err, out=err).reshape(2, self.rows, -1).sum(axis=2)
        # a row without error has numerator and denominator 0, and the
        # smallest positive float in place of that 0 gives it norm 0; a NaN
        # estimate stays NaN, which rejects the step, as in scipy's norm, and
        # makes its row the largest
        denom = np.maximum(err5_2 + 0.01 * err3_2, _TINY) * self.width
        row_norms = err5_2 / np.sqrt(denom)
        self.largest = largest = int(row_norms.argmax())
        norm = abs(h) * float(row_norms[largest])
        if norm < 1.0:
            self.counts["steps"] += 1
            self.counts["min_step"] = min(self.counts["min_step"], abs(float(h)))
            if norm > 0.0:
                self.counts["steps_set"][largest] += 1
        else:
            self.counts["rejected_steps"] += 1
        return norm

    def _retire(self, t):
        live = self.ends > t
        for k in np.flatnonzero(self.live & ~live).tolist():
            self.counts["retired_at_step"][k] = self.counts["steps"]
        self.live = live
        if live.any():
            self.f = np.where(np.repeat(live, self.width), self.f, 0.0)
            self.rhs = self.live_rhs(live)
            self.next_end = float(self.ends[live].min())

    def _first_step(self, t):
        """The first step of the solve, scipy's (Hairer, Norsett & Wanner,
        *Solving ODEs I*, II.4), from t for the live rows alone: the rows
        that go on after one fails restart from it.  It takes one more
        evaluation."""
        live = np.repeat(self.live, self.width)
        y = self.y.copy()

        def fun(t, y_live):
            y[live] = y_live
            return self.rhs(t, y)[live]

        self.nfev += 1
        rtol, atol = (np.broadcast_to(tol, y.shape)[live] for tol in (self.rtol, self.atol))
        return select_initial_step(fun, t, y[live], self.t_bound, self.max_step,
                                   self.f[live], self.direction,
                                   self.error_estimator_order, rtol, atol)

    def _step_impl(self):
        t = self.t
        if t >= self.next_end:
            self._retire(t)
        y, f, K, rhs = self.y, self.f, self.K, self.rhs
        min_step = 10 * abs(math.nextafter(t, self.direction * math.inf) - t)
        h_abs = min(max(float(self.h_abs), min_step), self.max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                # the row that set the last attempt's norm ends here
                self.counts["failed_at"][self.largest] = self.ends[self.largest] = t
                self._retire(t)
                if not self.live.any():
                    return False, self.TOO_SMALL_STEP
                # the solve ends with the last live row, which may end
                # before the row that left
                self.t_bound = min(self.t_bound, float(self.ends[self.live].max()))
                f, rhs, rejected = self.f, self.rhs, False
                h_abs = max(self._first_step(t), min_step)
            t_new = t + h_abs * self.direction
            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            np.multiply(self.W, h, out=self.hW)
            for a, done, c, stage in self.stages:
                stage[:] = rhs(t + c * h, y + a @ done)
            y_new = y + self.hB @ K[:-1]
            f_new = rhs(t_new, y_new)
            K[-1] = f_new
            self.nfev += 12
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = self._estimate_error_norm(K, h, scale)
            if error_norm < 1.0:
                factor = (_MAX_FACTOR if error_norm == 0.0 else
                          min(_MAX_FACTOR, _SAFETY * error_norm ** self.error_exponent))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** self.error_exponent)
            rejected = True
        self.h_previous = h
        self.y_old, self.t, self.y = y, t_new, y_new
        self.h_abs = h_abs
        self.f = f_new
        return True, None

    def _dense_output_impl(self):
        K, h, t_old, y_old = self.K_extended, self.h_previous, self.t_old, self.y_old
        for a, done, c, stage in self.extra_stages:
            stage[:] = self.rhs(t_old + c * h, y_old + a @ done)
        self.nfev += 3
        F = self.DY * (self.y - y_old) + h * (self.Q @ K)
        return Dop853Interpolant(t_old, self.t, y_old, F)
