"""DOP853 for stacked rows, each held to its own tolerance and each leaving
the solve at its own end or at its own failure.

The integrator is DOP853, an 8(5,3) embedded pair with PI step control
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.10).  scipy still provides
four things: the driver loop of ``solve_ivp``, with its status and message;
the first step (``select_initial_step``); the tolerance checks; and the
tableau, through ``DOP853``.  The step itself, the dense output, the samples
and the exit of each row, at its own end or where its step fails, are this
module's (``RowwiseDOP853``).  Nothing here knows the Ricci flow: the
right-hand side is any separable g(t) f(y) over ``rows`` stacked rows of
equal width, with g a scalar time factor and f written in place.  For the
flow in tau = log(1 + t), g = exp and f is the derivative in t; the step
takes g at all its nodes in one call and folds it into the weights, so that
each stage costs one product, one sum and one call of f, and makes no new
array but the new y.

The solver takes the sample times itself.  A step's dense output needs only
data the step already holds (*Solving ODEs I*, II.6), so the accepted steps
that hold samples are recorded and interpolated later, many at once: per
flush, one call of f for each of the three extra stages of every recorded
step, one product for their interpolants' coefficients and one for every
sample.

This module imports ``scipy.integrate`` at its top.  ``import solvflow,
scipy.integrate`` takes 0.50 s on 2 cores, where ``import solvflow``
without it takes 0.14 s (medians); so :mod:`solvflow.flow` imports this
module at its first solve, not on import, and the commands and callers that
never integrate skip that cost.
"""
import math
from bisect import bisect_right

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp.common import select_initial_step

__all__ = ["RowwiseDOP853", "solve_ivp"]

# DOP853's step-size control, as in scipy: the safety factor, and the
# smallest and largest factor by which one step may change the next
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_TINY = math.ulp(0.0)

# The record of sampled steps is flushed once its stages hold this many
# floats (13 stages of the stacked width per step): a single run to t = 1e6
# records its whole solve at once, and a check-sized solve (560 wide)
# flushes after every step
_RECORD_FLOATS = 8192


class RowwiseDOP853(DOP853):
    """scipy's DOP853 pair, first step and tolerance checks, with our own
    step and dense output, for ``rows`` stacked rows of equal width, each
    held to its own tolerance: the error norm is the largest of the rows'
    own DOP853 norms.

    The right-hand side is separable, g(t) f(y): ``fun(y, out)`` writes f(y)
    into ``out``, both of shape (..., rows, width), and ``g`` is a scalar
    time factor that takes an array of times (``np.exp`` for the flow in
    tau, ``np.ones_like`` for an autonomous problem).  scipy's base class
    gets g(t) f(y) as its ``fun``, for the first derivative and the first
    step; ``g`` must not vanish at ``t0``, where the first f(y) is taken
    from it.  Per attempted step, the step takes g at the 16 nodes of the
    stages and the dense output in one call and folds it into every weight
    that applies to a stage: since each is linear in K_j = g_j D_j, with
    D_j = f(y_j) the stage's derivative, the stage arguments are
    y + (h a∘g) D, the new y, the two error estimates and the interpolant's
    coefficients likewise.  Per stage the step then makes one product and
    one sum into one buffer, y_j, and one call ``fun(y_j, D[j])``, which
    writes D_j in place into its row of the stage array; the new y, which
    the step keeps, is the only new array.  First-same-as-last keeps the
    last stage's D.

    The solver samples y at the increasing times ``samples`` (in the
    solver's time), those in [t_old, t] of each accepted step as scipy's
    ``t_eval`` would: ``counts["samples"]`` holds y at the ones reached so
    far, one row per time.  ``t_eval`` and ``dense_output`` are refused.
    An accepted step that holds samples writes its t, h, y, new y, h g at
    the 16 nodes, the weights of the 3 extra stages and its 13 stages' D
    into a preallocated record.  The record is flushed before a row leaves,
    so that every step of a flush has the same live rows, at the last step,
    and once it holds ``_RECORD_FLOATS`` floats of stages.  A flush takes
    the three extra stages of every recorded step with one call of ``fun``
    each, on y_j of shape (steps, rows, width), the interpolants'
    coefficients with one stacked product, and every sample with one
    stacked product, padded unless every step holds as many samples:
    DOP853's 7th-order interpolant y_old + F^T b(x), x = (t - t_old)/h,
    where b holds the running products of x, 1 - x, x, 1 - x, ...  Each
    stacked product makes, step by step, the BLAS calls of one step alone,
    so a sample does not depend on how many steps a flush holds.

    The step calls ``fun`` uncounted, and adds to ``nfev`` itself: 12
    evaluations per attempted step and 3 per step that holds samples.  A
    step is accepted exactly when the norm is below 1, so the norm also
    records, in the dict ``counts``, the accepted steps (``steps``), the
    rejected ones (``rejected_steps``), the smallest accepted step
    (``min_step``) and, in ``steps_set``, for each row the accepted steps at
    which its norm was the largest and not 0.

    A row leaves the solve at the first step that starts at or past its end
    (``row_ends``, in the solver's time; by default ``t_bound``, which no
    step starts at).  A row also leaves where its step fails: when an
    attempted step falls below the spacing of the numbers near t, the row
    whose norm was the largest in the last attempt ends at t, its t goes to
    ``counts["failed_at"]`` (None for the other rows), and the other rows
    go on from the first step that the solve would take from there with
    them alone, at the cost of one evaluation (beside a collapsing su(2) +
    R^2 row, a D3 and a D11 row to t = 1e4 take 6,528 evaluations in all,
    and took 6,683 going on from the smallest step).  Either way its rows
    of the stage array are zeroed, the one that first-same-as-last keeps
    among them, so its y stays put bitwise and its norm is 0, and from then
    on the steps call ``live_fun(live)``, the f of the rows that the boolean
    ``live`` marks, with 0 for the others; any solve in which a row can
    leave while others go on needs ``live_fun``.
    ``counts["retired_at_step"]`` gives for each row the accepted steps made
    before it left, or None.  After a row fails, the solve ends at the last
    end of the rows still live (``t_bound`` shrinks to it), so no step runs
    once every row has left.  The step fails only when no row is left.  In
    ``solvflow check``'s solve, whose rows end at t = 10, 1e3, 1e4 and 1e6,
    retirement takes 1,271 evaluations and 87 steps, where carrying every
    row to 1e6 took 1,421 and 97."""

    # the interpolant's coefficients F = [1, -1, 2, 0, ...] dy + h Q K,
    # dy = y - y_old, from the 16 stages that the dense output completes
    # (K[0] is the step's first derivative and K[12] its last); h Q K is
    # (Q h g) D, Q's columns times h g_j
    Q = np.zeros((7, DOP853.D.shape[1]))
    Q[1, 0] = 1.0
    Q[2, [0, DOP853.n_stages]] = -1.0
    Q[3:] = DOP853.D
    DY = np.array([1.0, -1.0, 2.0, 0.0, 0.0, 0.0, 0.0])[:, None]

    def __init__(self, fun, t0, y0, t_bound, *, rows, counts, g, samples=(), row_ends=None,
                 live_fun=None, **options):
        self.rows = rows
        self.counts = counts
        counts.update(steps=0, rejected_steps=0, min_step=math.inf, steps_set=[0] * rows,
                      retired_at_step=[None] * rows, failed_at=[None] * rows)
        self.f_of_y, self.g = fun, g
        super().__init__(self._product, t0, y0, t_bound, **options)
        self.width = self.n // rows
        self.ends = np.full(rows, t_bound) if row_ends is None else np.array(row_ends, float)
        self.next_end = float(self.ends.min())
        self.live = np.ones(rows, dtype=bool)
        self.live_fun = live_fun
        n = self.n_stages
        self.nodes = np.concatenate([self.C, [1.0], self.C_EXTRA])
        # the record: of each step, t, h, y, the new y, h g at the 16 nodes,
        # the weights of the 3 extra stages, D of its 13 stages and the 3
        # extra ones, and in ``spans`` the first and last of its samples
        size = max(1, _RECORD_FLOATS // ((n + 1) * self.n))
        self.rec_t, self.rec_h = np.empty(size), np.empty(size)
        self.rec_y, self.rec_y_new = np.empty((size, self.n)), np.empty((size, self.n))
        self.rec_hg = np.empty((size, len(self.nodes)))
        self.rec_hW = np.empty((size, len(self.nodes) - n - 1, len(self.nodes)))
        self.rec_D = np.empty((size, len(self.nodes), self.n))
        self.spans = []
        # the extra stages of the record's steps, each as (its weights, the
        # stages they combine, its y_j, where its D goes), by step; with one
        # step f takes its matrices without the leading axis, as the step
        # itself passes them
        shape = (size, rows, self.width)[size == 1:]
        y_j = np.empty((size, 1, self.n))
        self.rec_stages = [(self.rec_hW[:, k, None, :s], self.rec_D[:, :s], y_j,
                            self.rec_D[:, s].reshape(shape))
                           for k, s in enumerate(range(n + 1, len(self.nodes)))]
        # D_j by row; between steps row n keeps the last, f at (t, y)
        self.Ds = np.empty((n + 1, self.n))
        self.Ds[n] = self.f / g(t0)
        # the weights of all 16 stages by row: A for stages 1-11, B in row 12
        # and the dense output's stages 13-15.  Each attempt stores them
        # times h, then g_j in column j, in hW, whose last three rows a
        # recorded step keeps
        self.W = np.zeros((len(self.nodes), len(self.nodes)))
        self.W[:n, :n], self.W[n, :n], self.W[n + 1:] = self.A, self.B, self.A_EXTRA
        self.E53 = np.vstack([self.E5, self.E3])
        self.hW = np.empty_like(self.W)
        self.hB = self.hW[n, :n]
        # each stage's y_j, flat for its sum and by row for f
        self.y_j = np.empty(self.n)
        self.y_j_by_row = self.y_j.reshape(rows, -1)
        # each stage s as (its weights times h g, the stages they combine,
        # where its D goes, by row)
        D, self.Ds_by_row = self.Ds, self.Ds.reshape(n + 1, rows, -1)
        self.stages = [(self.hW[s, :s], D[:s], self.Ds_by_row[s]) for s in range(1, n)]
        # the samples, y at each time of ``samples`` filled by the flushes;
        # the steps recorded so far reach ``reached`` of them, and the next
        # one is at ``next_sample``
        self.samples = np.asarray(samples, dtype=float)
        self.sample_list = self.samples.tolist()
        self.ys = np.empty((len(self.samples), self.n))
        self.reached = 0
        self.next_sample = self.sample_list[0] if self.sample_list else math.inf
        counts["samples"] = self.ys[:0]

    def _product(self, t, y):
        """g(t) f(y), the right-hand side as scipy's base class calls it."""
        out = np.empty((self.rows, len(y) // self.rows))
        self.f_of_y(y.reshape(out.shape), out)
        return self.g(t) * out.ravel()

    def _estimate_error_norm(self, E53, D, h, scale):
        # both embedded estimates from one product of their weights (each
        # stage's folded with its g) with the stages' D, squared and summed
        # by row
        err = (E53 @ D) / scale
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
        # the recorded steps are interpolated with the rows they were taken with
        self._flush()
        live = self.ends > t
        for k in np.flatnonzero(self.live & ~live).tolist():
            self.counts["retired_at_step"][k] = self.counts["steps"]
        self.live = live
        # every stage of a row that left is 0, the kept last one included
        self.Ds_by_row[:, ~live] = 0.0
        if live.any():
            self.f_of_y = self.live_fun(live)
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
            return self._product(t, y)[live]

        self.nfev += 1
        rtol, atol = (np.broadcast_to(tol, y.shape)[live] for tol in (self.rtol, self.atol))
        return select_initial_step(fun, t, y[live], self.t_bound, self.max_step,
                                   self.g(t) * self.Ds[0, live], self.direction,
                                   self.error_estimator_order, rtol, atol)

    def _step_impl(self):
        t = self.t
        if t >= self.next_end:
            self._retire(t)
        y, D, n = self.y, self.Ds, self.n_stages
        D[0] = D[n]
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
                rejected = False
                h_abs = max(self._first_step(t), min_step)
            t_new = t + h_abs * self.direction
            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            # g at the 16 nodes, the last stage's at t_new itself, folded
            # into the weights of each D_j
            at = t + self.nodes * h
            at[n] = t_new
            g = self.g(at)
            np.multiply(self.W, h, out=self.hW)
            self.hW *= g
            f, y_j, y_j_by_row = self.f_of_y, self.y_j, self.y_j_by_row
            # np.dot makes matmul's gemv call, bitwise, without its dispatch
            for a, done, stage in self.stages:
                np.add(np.dot(a, done, out=y_j), y, out=y_j)
                f(y_j_by_row, stage)
            y_new = np.dot(self.hB, D[:n])
            y_new += y
            f(y_new.reshape(self.rows, -1), self.Ds_by_row[n])
            self.nfev += 12
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = self._estimate_error_norm(self.E53 * g[:n + 1], D, h, scale)
            if error_norm < 1.0:
                factor = (_MAX_FACTOR if error_norm == 0.0 else
                          min(_MAX_FACTOR, _SAFETY * error_norm ** self.error_exponent))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** self.error_exponent)
            rejected = True
        if t_new >= self.next_sample:
            self._record(t, t_new, h, y, y_new, g)
        if t_new == self.t_bound:
            self._flush()
        self.h_previous = h
        self.y_old, self.t, self.y = y, t_new, y_new
        self.h_abs = h_abs
        return True, None

    def _record(self, t, t_new, h, y, y_new, g):
        """Record the accepted step from (t, y) to (t_new, y_new), which
        holds samples, and flush the record once it is full."""
        k, start = len(self.spans), self.reached
        self.reached = bisect_right(self.sample_list, t_new)
        self.next_sample = (self.sample_list[self.reached] if self.reached < len(self.sample_list)
                            else math.inf)
        self.spans.append((start, self.reached))
        self.rec_t[k], self.rec_h[k] = t, h
        self.rec_y[k], self.rec_y_new[k] = y, y_new
        np.multiply(h, g, out=self.rec_hg[k])
        self.rec_hW[k] = self.hW[len(self.Ds):]
        self.rec_D[k, :len(self.Ds)] = self.Ds
        if k + 1 == len(self.rec_t):
            self._flush()

    def _flush(self):
        """y at the samples of the recorded steps, written into ``ys``."""
        steps = len(self.spans)
        if not steps:
            return
        F = self._coefficients(steps)
        t, h, y = self.rec_t[:steps, None], self.rec_h[:steps, None], self.rec_y[:steps, None]
        (first, _), (_, last) = self.spans[0], self.spans[-1]
        held = [end - start for start, end in self.spans]
        if min(held) == max(held) > 1:
            # each step's samples are a row of the flush's
            x = self.samples[first:last].reshape(steps, -1) - t
            held = None
        else:
            # each step's samples, padded by repeating its last one to the
            # most that any step holds, and to at least two: the product of
            # one time would take another BLAS call, which sums in another
            # order
            start, end = np.array(self.spans).T[:, :, None]
            at = start + np.arange(max(2, *held))
            held = at < end
            x = self.samples[np.minimum(at, end - 1, out=at)]
            x -= t
        self.spans = []
        x /= h
        factors = np.empty((steps, len(self.Q), x.shape[1]))
        factors[:, 0::2] = x[:, None]
        np.subtract(1.0, x[:, None], out=factors[:, 1::2])
        # (step, time, coordinate); without padding, straight into the
        # samples
        out = self.ys[first:last]
        ys = None if held is not None else out.reshape(x.shape + (self.n,))
        ys = np.matmul(np.cumprod(factors, axis=1, out=factors).transpose(0, 2, 1), F, out=ys)
        ys += y
        if held is not None:
            out[:] = ys[held]
        self.counts["samples"] = self.ys[:last]

    def _coefficients(self, steps):
        """The interpolants' coefficients F of the first ``steps`` recorded
        steps, by step; their three extra stages go into the record first,
        with one call of f each."""
        y = self.rec_y[:steps, None]
        for a, done, y_j, out in self.rec_stages:
            if steps < len(self.rec_t):
                a, done, y_j, out = a[:steps], done[:steps], y_j[:steps], out[:steps]
            np.add(np.matmul(a, done, out=y_j), y, out=y_j)
            self.f_of_y(y_j.reshape(out.shape), out)
        self.nfev += 3 * steps
        return (self.DY * (self.rec_y_new[:steps, None] - y)
                + (self.Q * self.rec_hg[:steps, None]) @ self.rec_D[:steps])

    def _dense_output_impl(self):
        raise NotImplementedError("RowwiseDOP853 samples the times it is given as samples=; "
                                  "it has no t_eval or dense_output")
