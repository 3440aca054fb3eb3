"""Damped least-squares fitting engine and the line-shape / decay models.

The engine is a Levenberg-Marquardt iteration with multiplicative damping of
the scaled normal equations (trust-region style step control): a step is
accepted only if it lowers the weighted residual, otherwise the damping is
increased and the step retried.  Models may declare a smooth invertible
reparameterisation (e.g. log-lifetimes with an ordering transform) used
internally during fitting; results and uncertainties are reported in the
natural external parameters.

On a large-residual fit (a line shape that cannot match the data, such as a
Lorentzian on a non-Lorentzian hole) the Gauss-Newton matrix J^T J leaves out
the residual curvature sum_i r_i Hess(r_i), mispredicts every step, and
converges slowly.  Once an accepted step shows that (see :func:`fit_curve`),
the step and its predicted gain also use that term, computed exactly at each
accepted point: the Gauss-Newton step becomes a damped Newton step (Nocedal &
Wright, *Numerical Optimization*, 2nd ed., section 10.3).  Each model supplies
its curve's second derivatives (:attr:`ParametricModel.curvature`) and each
transform carries them into its internal coordinates
(:meth:`ParamTransform.curvature_internal`).

A fit stops once it is at its optimum to the precision of its data: when the
chi^2 that the undamped Gauss-Newton step from the current point would
remove is at most ``1e-10 * min(chi^2, 1)`` (MINPACK's predicted-reduction
test; More, *The Levenberg-Marquardt algorithm: implementation and theory*,
1978).  That predicted reduction is the Gauss-Newton decrement
``g^T (J^T J)^-1 g``, ``g = J^T r`` (Boyd & Vandenberghe, *Convex
Optimization*, section 9.5.1).  With the reported covariance ``(J^T J)^-1``
it is the squared length of the step in standard errors, so for chi^2 >= 1
the step moves no parameter by more than 1e-5 of its error.

The iteration runs on a batch: :func:`fit_curves` fits the rows of a
``(n_curves, n_points)`` array together, and :func:`fit_curve` is the same
loop with no batch axis.  Each row keeps its own damping, curvature switch,
stop rule and covariance, so a row's result is exactly the one
:func:`fit_curve` gives on that row alone, bit for bit; a row that ends in
:class:`MaxIterations` or :class:`SingularJacobian` holds that error and the
others go on.  Rows leave the batch only when they finish.  The damped
step, the Gauss-Newton decrement and the covariance each take one
:func:`_solve` of all rows, the same LAPACK gesv per row as for one curve.
A batched model and transform take parameters of shape ``(n_curves,
n_params)`` and abscissae of shape ``(n_curves, n_points)`` and must compute
each row exactly as the one-curve call on it: elementwise arithmetic per row,
sums along the last axis with the same reduction as one curve
(``np.vecdot``), and no scalar ``pow`` where the batch squares an array
(``x * x``, not ``x ** 2``).  The Lorentzian dip and :class:`LogTransform`
follow that rule; the other models and transforms, and models without
analytic derivatives, serve single curves.

A Jacobian has the shape ``(..., n_points, n_params)`` and is laid out as
contiguous parameter rows: it is a view of an ``(n_params, ..., n_points)``
array, which the shipped models fill one parameter at a time.  A batch's
rows of one parameter thus form one contiguous block, so each operation of
a model on them runs over one array.  The engine reads the Jacobian through
the ``(..., n_points, n_params)`` view.  It writes the residual's Jacobian
into parameter rows of its own, reused at every accepted point.  Its
products (``J^T J``, ``J^T r``) then run along contiguous rows.  The layout
sets how BLAS rounds ``J^T J`` (rows contiguous along the points round one
way, columns another), so a transform's chain rule hands back rows
contiguous along the points: the generic matrix product of
:meth:`ParamTransform.jac_internal` as well as :class:`LogTransform`'s
scaling in place.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dgesv

from .core import K_B, MU_B
from .errors import (
    AfcSimError,
    InvalidBounds,
    MaxIterations,
    NonPositiveInput,
    NonPositiveTemperature,
    SingularJacobian,
)


# ---------------------------------------------------------------------------
# Parameter transforms
# ---------------------------------------------------------------------------

class ParamTransform:
    """Identity transform; base class for internal reparameterisations."""

    def to_internal(self, external: np.ndarray) -> np.ndarray:
        return np.asarray(external, dtype=float).copy()

    def to_external(self, internal: np.ndarray) -> np.ndarray:
        return np.asarray(internal, dtype=float).copy()

    def jac_external(self, internal: np.ndarray) -> np.ndarray:
        """Matrix d(external_j)/d(internal_i), shape (n_ext, n_int); a batched
        transform's is one such matrix per row (see the module docstring)."""
        return np.eye(np.shape(internal)[-1])

    def jac_internal(self, jac, internal, external):
        """Chain rule for the model Jacobian ``jac`` (shape ``(..., n_points,
        n_ext)``); ``external = to_external(internal)``.  Never writes into
        ``jac``: the identity returns it, any other transform a new array
        whose parameter rows are contiguous along the points (see the
        module docstring)."""
        if type(self) is ParamTransform:
            return jac
        return (self.jac_external(internal).swapaxes(-1, -2)
                @ jac.swapaxes(-1, -2)).swapaxes(-1, -2)

    def _jac_internal_in_place(self, jac, internal, external):
        """:meth:`jac_internal` of ``jac``, an array that the caller gives
        up.  A transform that can write the chain rule into it does so and
        returns it; the others return a new array."""
        return self.jac_internal(jac, internal, external)

    def hess_external(self, weights, internal):
        """``sum_k weights_k Hess(external_k)`` over the internal parameters,
        shape (n_int, n_int).  Zero for the identity.  A subclass that fits a
        model with ``curvature`` must supply it; with a model whose
        ``curvature`` is unset, ``fit_curve`` never calls it."""
        if type(self) is not ParamTransform:
            raise NotImplementedError(f"{type(self).__name__} has no hess_external")
        return np.zeros((len(internal), len(internal)))

    def curvature_internal(self, curv, grad, internal, external):
        """Chain rule for the curvature ``curv = sum_i w_i Hess(y_i)`` over the
        external parameters: over the internal ones it is ``Jt^T curv Jt +
        hess_external(grad)``, with ``Jt = jac_external(internal)`` and
        ``grad = J_ext^T w`` (``J_ext`` the model's Jacobian).  ``Jt^T curv
        Jt`` is taken as ``jac_internal`` twice, ``curv`` being symmetric, so
        a transform's own first-order chain rule serves both orders."""
        if type(self) is ParamTransform:
            return curv
        half = self.jac_internal(curv, internal, external)
        return (self.jac_internal(half.swapaxes(-1, -2), internal, external)
                + self.hess_external(grad, internal))


class LogTransform(ParamTransform):
    """Fit selected strictly-positive parameters in log space.  Every method
    broadcasts over leading (batch) axes."""

    def __init__(self, log_mask: Sequence[bool]):
        self.log_mask = np.asarray(log_mask, dtype=bool)
        self._log = np.flatnonzero(self.log_mask)
        log = self._log
        # the logged columns: a slice when they are one run, as in every
        # shipped model
        contiguous = log.size and np.array_equal(log, np.arange(log[0], log[-1] + 1))
        self._cols = slice(log[0], log[-1] + 1) if contiguous else log

    def to_internal(self, external):
        ext = np.asarray(external, dtype=float)
        logged = ext[..., self._cols]
        if (logged <= 0).any():
            raise InvalidBounds("log-fitted parameters must be > 0")
        out = ext.copy()
        out[..., self._cols] = np.log(logged)
        return out

    def to_external(self, internal):
        out = np.array(internal, dtype=float)
        # clipped so damped trial steps far uphill stay finite
        out[..., self._cols] = np.exp(np.minimum(np.maximum(out[..., self._cols], -300.0), 300.0))
        return out

    def jac_external(self, internal):
        scale = np.where(self.log_mask, self.to_external(internal), 1.0)
        out = np.zeros(scale.shape + (self.log_mask.size,))
        diag = np.arange(self.log_mask.size)
        out[..., diag, diag] = scale
        return out

    def jac_internal(self, jac, internal, external):
        return self._jac_internal_in_place(np.array(jac, dtype=float), internal, external)

    def _jac_internal_in_place(self, jac, internal, external):
        jac[..., self._cols] *= external[..., None, self._cols]
        return jac

    def hess_external(self, weights, internal):
        # weights * external on the logged diagonal entries, 0 elsewhere
        external = self.to_external(internal)
        out = np.zeros(np.shape(weights) + (self.log_mask.size,))
        for k in self._log:
            out[..., k, k] = weights[..., k] * external[..., k]
        return out


class OrderedLifetimesTransform(ParamTransform):
    """Transform for (a_short, t_short, a_long, t_long).

    Lifetimes are fitted as ``u = ln(t_short)`` and ``w = ln(t_long -
    t_short)`` so that ``t_short < t_long`` holds for every internal point,
    removing the label-switching degeneracy of a two-exponential model.
    """

    def to_internal(self, external):
        a_s, t_s, a_l, t_l = np.asarray(external, dtype=float)
        if t_s <= 0 or t_l <= t_s:
            raise InvalidBounds("lifetimes must satisfy 0 < t_short < t_long")
        return np.array([a_s, np.log(t_s), a_l, np.log(t_l - t_s)])

    def to_external(self, internal):
        a_s, u, a_l, w = np.asarray(internal, dtype=float)
        t_s = np.exp(min(max(u, -300.0), 300.0))
        return np.array([a_s, t_s, a_l, t_s + np.exp(min(max(w, -300.0), 300.0))])

    def jac_external(self, internal):
        _, u, _, w = np.asarray(internal, dtype=float)
        t_s = np.exp(min(max(u, -300.0), 300.0))
        jac = np.zeros((4, 4))
        jac[0, 0] = 1.0
        jac[2, 2] = 1.0
        jac[1, 1] = t_s
        jac[3, 1] = t_s
        jac[3, 3] = np.exp(min(max(w, -300.0), 300.0))
        return jac

    def hess_external(self, weights, internal):
        # t_short = e^u and t_long = e^u + e^w
        _, u, _, w = np.asarray(internal, dtype=float)
        hess = np.zeros((4, 4))
        hess[1, 1] = np.exp(min(max(u, -300.0), 300.0)) * (weights[1] + weights[3])
        hess[3, 3] = np.exp(min(max(w, -300.0), 300.0)) * weights[3]
        return hess


# ---------------------------------------------------------------------------
# Model and result containers
# ---------------------------------------------------------------------------

@dataclass
class ParametricModel:
    """A parametric curve y(params, x) with optional analytic derivatives.

    ``jacobian(params, x)`` returns a new array of the partial derivatives
    in the external parameters, shape ``(..., n_points, n_params)`` (``x``'s
    shape plus the parameter axis), best as the view of contiguous parameter
    rows that :func:`_columns` builds (see the module docstring).
    ``curvature(params, x, w)`` returns ``sum_i w_i Hess(y_i)``, the
    ``(n_params, n_params)`` second derivatives of the curve weighted by
    ``w`` (``fit_curve`` passes ``w = r / sigma``), also in the external
    parameters; its transform must then supply ``hess_external``.  Without
    them, ``fit_curve`` takes differences.
    ``guess`` maps data to a starting point; ``bounds`` are external box
    constraints.
    """

    param_names: tuple
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    guess: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    bounds: Optional[tuple] = None
    transform: ParamTransform = field(default_factory=ParamTransform)
    curvature: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None

    @property
    def n_params(self) -> int:
        return len(self.param_names)


@dataclass(frozen=True)
class FitResult:
    """Estimates, local-quadratic uncertainties and convergence diagnostics.

    ``stop_reason`` names the rule that ended the iteration (see
    :func:`fit_curve`); ``converged`` says whether the end point is an
    optimum with every parameter determined by the data.  An ``"exact"`` or
    ``"gtol"`` stop is always converged: the point is an exact fit, or no
    undamped Gauss-Newton step from it moves a parameter by more than 1e-5
    of its standard error.  The other rules are converged if the gradient
    cosine is below 3e-3, which a point short of the optimum can also meet.
    """

    param_names: tuple
    params: np.ndarray
    std_errors: np.ndarray
    covariance: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    residual_trace: tuple = ()
    stop_reason: str = ""

    def __getitem__(self, name: str) -> float:
        return float(self.params[self.param_names.index(name)])

    def error_of(self, name: str) -> float:
        return float(self.std_errors[self.param_names.index(name)])

    def as_dict(self) -> dict:
        return {
            "params": {n: float(v) for n, v in zip(self.param_names, self.params)},
            "std_errors": {n: float(v) for n, v in zip(self.param_names, self.std_errors)},
            "residual_norm": float(self.residual_norm),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "stop_reason": self.stop_reason,
        }


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

def _numeric_jacobian(fun, params, x, floor, rel_step=1e-6):
    """Central differences of the vector ``fun(params, x)``, one parameter
    row each (see :func:`_param_rows`), with steps ``rel_step *
    max(|params_i|, floor_i)``.  The fit passes each parameter's size at its
    start (at least 1e-8) as ``floor``: a parameter that ends near zero (a
    line's centre, say) keeps a step on the scale it started at, where one
    relative to its own size would leave differences of rounding."""
    p = np.asarray(params, dtype=float)
    rows = _param_rows(np.shape(x), p.size)
    for i in range(p.size):
        h = rel_step * max(abs(p[i]), floor[i])
        up, dn = p.copy(), p.copy()
        up[i] += h
        dn[i] -= h
        rows[i] = (fun(up, x) - fun(dn, x)) / (2.0 * h)
    return _jacobian_view(rows)


def _filled(value, shape, error, message):
    """A new float array of ``shape`` holding ``value`` broadcast to it;
    ``error(message)`` if ``value`` does not broadcast to ``shape``."""
    out = np.empty(shape)
    try:
        out[...] = value
    except ValueError:
        raise error(message) from None
    return out


def _param_rows(shape, n_params):
    """An empty Jacobian against samples of ``shape`` as ``n_params``
    contiguous parameter rows: the ``(n_params,) + shape`` array that a
    model fills one parameter at a time (``rows[i]``) and returns through
    :func:`_jacobian_view`.  For a batch, parameter ``i``'s rows of every
    curve form the one contiguous block ``rows[i]``."""
    return np.empty((n_params,) + shape)


def _jacobian_view(rows):
    """The ``(..., n_points, n_params)`` Jacobian view of the parameter rows
    ``rows`` (see :func:`_param_rows`)."""
    return rows.transpose(tuple(range(1, rows.ndim)) + (0,))


def _columns(shape, *cols):
    """The ``shape + (len(cols),)`` Jacobian of these columns, each written
    into its own parameter row (see :func:`_param_rows`)."""
    rows = _param_rows(shape, len(cols))
    for i, col in enumerate(cols):
        rows[i] = col
    return _jacobian_view(rows)


def _drop_rows(jac, keep):
    """The rows ``keep`` of a batch's Jacobian ``jac`` as parameter rows of
    their own (see :func:`_param_rows`).  An index copy of the
    ``(..., n_points, n_params)`` view would take whatever layout numpy
    picks, and the layout sets how ``J^T J`` rounds."""
    return _jacobian_view(np.ascontiguousarray(np.moveaxis(jac, -1, 0)[:, keep]))


def _split(params):
    """The parameters one by one, shaped to broadcast against the sample
    axis: scalars for one curve, ``(n_curves, 1)`` columns for a batch."""
    if params.ndim == 1:
        return tuple(params)
    return tuple(params.T[:, :, None])


def _gram(jac):
    """``J^T J``, the column norms of ``J`` and the damping scale, all from
    the Gram matrix's diagonal.  The product of one buffer with itself goes
    to BLAS syrk, one matrix at a time, so a row of a batch gets the sums of
    a single curve."""
    a_mat = jac.swapaxes(-1, -2) @ jac
    sq_norms = a_mat.diagonal(0, -2, -1)
    return a_mat, np.sqrt(sq_norms), np.maximum(sq_norms, 1e-300)


def _solve(a, rhs):
    """The solution of ``a x = rhs``, and which systems are singular.

    ``a`` is one ``(n, n)`` system or a stack of them; ``rhs`` holds one
    right-hand side per system (shape ``a.shape[:-1]``) or ``n`` of them
    (shape ``a.shape``).  The singular systems come back as a mask over the
    stack (``np.True_`` for one system), or ``None`` if none is; their
    solution is zero.  One system goes to LAPACK gesv on a Fortran copy, a
    stack to one ``np.linalg.solve``, the same gesv on each system, so a
    system's solution does not depend on its stack; the systems are solved
    one at a time only to find a stack's singular ones.  A 0 x 0 system has
    an empty solution, as ``np.linalg.inv`` gives."""
    if not a.shape[-1]:
        return np.zeros(rhs.shape), None
    if a.ndim == 2:
        x, info = dgesv(a, rhs)[2:]
        return (np.zeros(rhs.shape), np.True_) if info > 0 else (x, None)
    vector = rhs.ndim < a.ndim
    try:
        x = np.linalg.solve(a, rhs[..., None] if vector else rhs)
        return (x[..., 0] if vector else x), None
    except np.linalg.LinAlgError:
        pass
    x = np.zeros(rhs.shape)
    singular = np.zeros(a.shape[:-2], dtype=bool)
    for i in np.ndindex(singular.shape):
        x[i], lost = _solve(a[i], rhs[i])
        singular[i] = lost is not None
    return x, (singular if singular.any() else None)


def _residual(model, theta, x, y, sigma):
    ext = model.transform.to_external(theta)
    r = np.subtract(model.evaluate(ext, x), y)
    r /= sigma
    return r, ext


def _jacobians(model, s, theta, ext, out):
    """The model's Jacobian over the external parameters at ``ext``, and the
    residual's over the internal ones at ``theta``, for the rows of ``s``.
    The second is written into ``out``, the Jacobian view of parameter rows
    of the batch's shape (see :func:`_param_rows`): the first divided by
    sigma, then taken into the internal parameters in place."""
    if model.jacobian is not None:
        j_ext = np.asarray(model.jacobian(ext, s.x), dtype=float)
    else:
        j_ext = _numeric_jacobian(model.evaluate, ext, s.x, s.h_floor)
    jac = np.divide(j_ext, s.sigma[..., None], out=out)
    return j_ext, model.transform._jac_internal_in_place(jac, theta, ext)


def _curvature(model, s):
    """The residual curvature ``sum_i r_i Hess(r_i)`` over the internal
    parameters, at the current point of every row of ``s``; a model's
    ``curvature`` takes the weights ``s.w = r / sigma`` and the gradient
    ``s.g_ext = J_ext^T w`` that the loop keeps from that point."""
    if model.curvature is not None:
        return model.transform.curvature_internal(
            np.asarray(model.curvature(s.ext, s.x, s.w), dtype=float), s.g_ext, s.theta, s.ext)
    # a single curve's model without curvature: differences of J^T r at
    # fixed r, as for a model without a Jacobian.  Each step is 1e-4 of the
    # parameter's scale: its size, or the move that shifts the curve by the
    # residual's norm if that is larger, which stays clear of the rounding in
    # a Jacobian that is itself differenced.  A side whose trial point leaves
    # the bounds is replaced by the current point.
    cols = []
    for i, h in enumerate(1e-4 * np.maximum(np.abs(s.theta), math.sqrt(s.cost) / s.col_norms)):
        ends = []
        for step in (h, -h):
            t = s.theta.copy()
            t[i] += step
            e = model.transform.to_external(t)
            inside = bool(((e >= s.lo) & (e <= s.hi)).all())
            if inside:
                jac = _jacobians(model, s, t, e, _jacobian_view(_param_rows(s.x.shape, t.size)))[1]
                ends.append((jac.T @ s.r, step))
            else:
                ends.append((s.grad, 0.0))
        (g_up, s_up), (g_dn, s_dn) = ends
        cols.append((g_up - g_dn) / (s_up - s_dn))
    curv = np.stack(cols, axis=1)
    return 0.5 * (curv + curv.T)


def _cosines(grad, col_norms, root):
    """Largest cosine between a Jacobian column and the residual, of every
    row, from the residual norms ``root`` (all > 0) shaped against ``grad``
    (zero at an exact least-squares minimum)."""
    return (np.abs(grad) / (np.maximum(col_norms, 1e-300) * root)).max(-1)


# Reductions over the rows of a batch and functions of each row's scalars,
# and their cheaper Python forms for a single curve, which give the same value
# for every number that is not NaN; the last makes a row's scalar (a cost, a
# predicted gain) a Python float for a single curve
_BATCH_OPS = (np.ndarray.any, np.ndarray.all, np.sqrt, np.isfinite, np.maximum, np.minimum,
              np.asarray)
_SINGLE_OPS = (bool, bool, math.sqrt, math.isfinite, max, min, float)


# A parameter whose Jacobian column has shrunk below this fraction of the
# largest norm it had along the path no longer moves the model: it is running
# off to the edge of its range (a lifetime to infinity, say), where the data
# cannot pin it.
_LOST_INFLUENCE = 1e-6

# the limits of the stop rules that fit_curve documents
_MAX_ITER = 200
_GTOL = 1e-10
# the Gauss-Newton decrement g^T (J^T J)^-1 g at which gtol also fires: for
# chi^2 >= 1 the undamped step then moves the parameters by at most 1e-5 of
# their standard errors, whose covariance is (J^T J)^-1
_NEWTON_TOL = 1e-10
_GTOL_LOOSE = 3e-3
_XTOL = 1e-12


class _Rows:
    """The state of the fits still running.  Every attribute holds one entry
    per fit along its leading axes (none for a single curve); row ``j`` of a
    batch belongs to fit ``ids[j]``."""

    def keep(self, mask):
        for name, value in list(vars(self).items()):
            setattr(self, name, value[mask])


def _damping_after(lam, rho, maximum):
    """The damping after a step accepted with gain ratio ``rho``.  The cube
    is taken by products, as pow may round differently on scalars and on
    arrays."""
    d = 2.0 * rho - 1.0
    return maximum(lam * maximum(1.0 / 3.0, 1.0 - d * d * d), 1e-14)


def _try_steps(model, s, h_mat, ops):
    """One accepted step per row of ``s``, as far as one exists.

    The rows' damped systems take one :func:`_solve`.  While a row's step
    goes uphill or leaves the transform's domain, it retries with stronger
    damping; ``s.lam`` and ``s.nu`` follow each row's own trials.  Rows that
    disagree are retried alone.  Sets the trial point ``s.theta_c, s.r_c,
    s.cost_c, s.ext_c``, the step ``s.step_vec`` and its gain ratio
    ``s.rho``.  Returns ``None`` if every row took a step, else each row's
    outcome: 0 accepted, 1 damping exhausted, 2 singular damped matrix."""
    tr = model.transform
    batched = ops is _BATCH_OPS
    any_, all_, _, isfinite, maximum, minimum, scalar = ops
    sel = None          # the rows still trying: None for every row
    outcome = None
    for _ in range(60):
        if sel is None:
            theta, grad, cost, lam, nu = s.theta, s.grad, s.cost, s.lam, s.nu
            scale, lo, hi, h = s.scale, s.lo, s.hi, h_mat
            x, y, sigma = s.x, s.y, s.sigma
        else:
            theta, grad, cost, lam, nu = s.theta[sel], s.grad[sel], s.cost[sel], \
                s.lam[sel], s.nu[sel]
            scale, lo, hi, h = s.scale[sel], s.lo[sel], s.hi[sel], h_mat[sel]
            x, y, sigma = s.x[sel], s.y[sel], s.sigma[sel]
        # the damped system (h + lam diag(scale)) delta = -grad
        damped = h.copy()
        diag = damped.reshape(h.shape[:-2] + (-1,))[..., ::h.shape[-1] + 1]
        diag += (lam * scale.T).T
        delta, singular = _solve(damped, -grad)
        ext_c = np.minimum(np.maximum(tr.to_external(theta + delta), lo), hi)
        try:
            theta_c = tr.to_internal(ext_c)
        except InvalidBounds:
            # the trial point left the transform's domain (for ordered
            # lifetimes: t_short + exp(w) rounded to t_short); reject it like
            # any other uphill step.  A batched transform's domain holds every
            # point inside the bounds, so only a single curve gets here
            if batched:
                raise
            theta_c = None
        if theta_c is None:
            ok = np.False_
        else:
            r_c, ext_c = _residual(model, theta_c, x, y, sigma)
            cost_c = scalar(np.vecdot(r_c, r_c))
            step_vec = theta_c - theta
            # gain ratio against the local quadratic model of the actual step
            predicted = scalar(-(2.0 * np.vecdot(grad, step_vec)
                                 + np.vecdot(step_vec, np.matvec(h, step_vec))))
            ok = isfinite(cost_c) & (cost_c < cost) & (predicted > 0)
        if singular is not None:
            ok &= ~singular
        if outcome is None:
            # every row agrees so far: all step downhill, or all retry
            if all_(ok):
                rho = (cost - cost_c) / predicted
                s.lam = _damping_after(lam, rho, maximum)
                s.nu = np.full_like(nu, 2.0) if batched else 2.0
                s.theta_c, s.r_c, s.cost_c, s.ext_c = theta_c, r_c, cost_c, ext_c
                s.step_vec, s.rho = step_vec, rho
                return None
            lam_up = minimum(lam * nu, 1e15)
            if singular is None and not (any_(ok) or any_(lam_up >= 1e15)):
                s.lam, s.nu = lam_up, minimum(nu * 2.0, 64.0)
                continue
        lam_up = np.minimum(lam * nu, 1e15)
        if any_(ok):
            rho = np.where(ok, (cost - cost_c) / np.where(ok, predicted, 1.0), 1.0)
        else:
            rho = np.ones_like(lam)
        lam = np.where(ok, _damping_after(lam, rho, np.maximum), lam_up)
        nu = np.where(ok, 2.0, np.minimum(nu * 2.0, 64.0))
        code = np.where(ok, 0, np.where(lam_up >= 1e15, 1, -1))
        if singular is not None:
            code = np.where(singular, 2, code)
        if sel is None:
            s.lam, s.nu, outcome = lam, nu, code
            if theta_c is not None:
                s.theta_c, s.r_c, s.cost_c, s.ext_c = theta_c, r_c, cost_c, ext_c
                s.step_vec, s.rho = step_vec, rho
        else:
            s.lam[sel], s.nu[sel], outcome[sel] = lam, nu, code
            took = sel[ok]
            s.theta_c[took], s.r_c[took], s.cost_c[took], s.ext_c[took] = \
                theta_c[ok], r_c[ok], cost_c[ok], ext_c[ok]
            s.step_vec[took], s.rho[took] = step_vec[ok], rho[ok]
        pending = outcome < 0
        if not pending.any():
            break
        sel = None if pending.all() else np.flatnonzero(pending)
    return np.where(outcome < 0, 1, outcome)


def _fit_results(model, theta, ext, a_mat, cost, grad, col_norms, lost, stop_reason,
                 iterations, traces):
    """The :class:`FitResult` of every fit of a stack that stopped together
    by ``stop_reason`` with the lost-column mask ``lost``; the covariances
    invert each fit's Gram matrix ``a_mat`` in one :func:`_solve`, with the
    pseudo-inverse where it is singular.  Everything per fit carries the
    stack's leading axis, or none for a single curve, which gets a list of
    one; ``traces`` holds each fit's residual norms."""
    n_par = model.n_params
    cost = np.asarray(cost)
    if stop_reason in ("exact", "gtol"):
        converged = np.ones(cost.shape, dtype=bool)
    elif lost.any():
        converged = np.zeros(cost.shape, dtype=bool)
    else:
        # an exact fit (cost 0) has no residual to take a cosine against
        exact = cost <= 0
        root = np.sqrt(np.where(exact, 1.0, cost))
        converged = exact | (_cosines(grad, col_norms, root[..., None]) <= _GTOL_LOOSE)

    # local quadratic uncertainties in external coordinates (no chi^2 rescale:
    # estimates are invariant under uniform sigma rescaling, errors scale with
    # it), from the Gram matrix of the columns that still influence the model
    live = np.flatnonzero(~lost)
    a_live = a_mat[..., live[:, None], live] if lost.any() else a_mat
    inv_live, singular = _solve(a_live, np.broadcast_to(np.eye(live.size), a_live.shape))
    if singular is not None:
        for i in map(tuple, np.argwhere(singular)):
            # a Gram matrix of subnormal entries overflows its pseudo-inverse
            with np.errstate(over="ignore", invalid="ignore"):
                inv_live[i] = np.linalg.pinv(a_live[i])
    if lost.any():
        cov_int = np.zeros(theta.shape + (n_par,))
        cov_int[..., live[:, None], live] = inv_live
    else:
        cov_int = inv_live
    # a lost coordinate is undetermined, and so is one whose row of the
    # inverse is not finite; its row and column are zeroed so that it
    # spreads no inf or NaN through the transform
    unknown = lost | ~np.isfinite(cov_int).all(-1)
    if unknown.any():
        cov_int[unknown[..., :, None] | unknown[..., None, :]] = 0.0
    tr = model.transform
    j_tr = tr.jac_external(theta)
    cov_ext = j_tr @ cov_int @ j_tr.swapaxes(-1, -2)
    if unknown.any():
        # external parameters that depend on an undetermined coordinate are undetermined
        undetermined = ((j_tr != 0.0) & unknown[..., None, :]).any(-1)
        cov_ext[undetermined[..., :, None] | undetermined[..., None, :]] = np.nan
        diag = np.arange(n_par)
        cov_ext[..., diag, diag] = np.where(undetermined, np.inf, cov_ext[..., diag, diag])
    std = np.sqrt(np.maximum(cov_ext.diagonal(0, -2, -1), 0.0))

    fits = zip(ext.reshape(-1, n_par), std.reshape(-1, n_par), cov_ext.reshape(-1, n_par, n_par),
               np.sqrt(cost).reshape(-1).tolist(), converged.reshape(-1).tolist(), traces)
    return [FitResult(
        param_names=model.param_names,
        params=params,
        std_errors=errors,
        covariance=cov,
        residual_norm=norm,
        iterations=iterations,
        converged=ok,
        residual_trace=tuple(trace),
        stop_reason=stop_reason,
    ) for params, errors, cov, norm, ok, trace in fits]


def _levenberg_marquardt(model, x, y, sigma, p_ext, lo, hi):
    """The damped iteration of :func:`fit_curve` on every row of a batch.

    ``y`` and everything else per fit carry the batch's leading axis, or none
    for a single curve.  Returns one :class:`FitResult`, or the
    :class:`SingularJacobian` or :class:`MaxIterations` that ends that fit,
    per row (one for a single curve).  Each row follows its own rules, so its
    outcome does not depend on the other rows: rows are only ever dropped from
    the batch, when they finish, and rows that disagree inside an iteration
    are updated by masks, which a single curve never needs."""
    tr = model.transform
    batched = y.ndim > 1
    n_rows = len(y) if batched else 1
    n_par = model.n_params
    out = [None] * n_rows
    traces = [[] for _ in range(n_rows)]
    no_loss = np.zeros(n_par, dtype=bool)
    ops = _BATCH_OPS if batched else _SINGLE_OPS
    any_, all_, sqrt, _, maximum, _, scalar = ops

    s = _Rows()
    if batched:
        s.ids = np.arange(n_rows)
    s.x, s.y, s.sigma, s.lo, s.hi = x, y, sigma, lo, hi
    s.theta = tr.to_internal(p_ext)
    s.r, s.ext = _residual(model, s.theta, x, y, sigma)
    s.cost = scalar(np.vecdot(s.r, s.r))
    # absolute floor below which the fit counts as an exact interpolation
    scaled = y / sigma
    floor = 4e-12 * maximum(1.0, np.abs(scaled, out=scaled).max(-1))
    s.floor = y.shape[-1] * (floor * floor)
    if model.jacobian is None:
        s.h_floor = np.maximum(np.abs(p_ext), 1e-8)
    # the weighted Jacobian of every accepted point is written here, the
    # rows still running first: fresh memory at each point costs more than
    # the arithmetic
    work = _jacobian_view(_param_rows(y.shape, n_par))
    jac = _jacobians(model, s, s.theta, s.ext, work)[1]

    def settle(mask, outcome):
        """Record ``outcome(js, ks)``, the outcomes of the rows ``js`` (fits
        ``ks``) where ``mask`` holds, and drop those rows; True once no row is
        left.  A single curve's ``js`` is None."""
        if not batched:
            out[0], = outcome(None, [0])
            return True
        js = np.flatnonzero(mask)
        ks = s.ids[js].tolist()
        for k, res in zip(ks, outcome(js, ks)):
            out[k] = res
        if mask.all():
            return True
        s.keep(~mask)
        return False

    def row(value, j):
        """Row ``j`` of ``value``; a single curve's (``j`` None) is itself."""
        return value if j is None else value[j]

    def each(error):
        """The outcome that ends every settled row ``j`` in ``error(j)``."""
        return lambda js, ks: [error(j) for j in ([None] if js is None else js)]

    def result(reason, iterations, lost=no_loss):
        """The outcome of rows that stop by ``reason`` after ``iterations``
        accepted steps with the lost-column mask ``lost``: one
        :class:`FitResult` per row, from one stacked :func:`_fit_results`."""
        return lambda js, ks: _fit_results(
            model, *(row(v, js) for v in (s.theta, s.ext, s.a_mat, s.cost, s.grad, s.col_norms)),
            lost, reason, iterations, [traces[k] for k in ks])

    def influence_lost(iterations, lost):
        """The outcome of rows whose Jacobian columns ``lost`` (one mask per
        row) lost their influence: one :func:`result` per distinct mask."""
        def outcome(js, ks):
            masks, group = np.unique(row(lost, js).reshape(len(ks), n_par), axis=0,
                                     return_inverse=True)
            res = [None] * len(ks)
            for g, mask in enumerate(masks):
                sel = np.flatnonzero(group.reshape(-1) == g)
                reason = "lost_influence:" + ",".join(model.param_names[i]
                                                      for i in np.flatnonzero(mask))
                fits = result(reason, iterations, mask)(
                    None if js is None else js[sel], [ks[i] for i in sel])
                for i, fit in zip(sel.tolist(), fits):
                    res[i] = fit
            return res
        return outcome

    def record():
        """Note each row's residual norm ``s.root`` in its trace."""
        s.root = sqrt(s.cost)
        if batched:
            for k, root in zip(s.ids.tolist(), s.root.tolist()):
                traces[k].append(root)
        else:
            traces[0].append(s.root)

    def nonfinite(jac):
        """Whether each row's Jacobian ``jac`` holds a non-finite entry."""
        return ~np.isfinite(jac).all((-2, -1))

    def newton_converged():
        """Whether each row's Gauss-Newton decrement ``g^T (J^T J)^-1 g``,
        ``g = J^T r``, is at most ``_NEWTON_TOL * min(chi^2, 1)``; False
        where ``J^T J`` is singular."""
        delta, singular = _solve(s.a_mat, -s.grad)
        ok = -np.vecdot(s.grad, delta) <= _NEWTON_TOL * np.minimum(s.cost, 1.0)
        return ok if singular is None else ok & ~singular

    def at_optimum(iterations):
        """Settle the rows whose point is an exact fit or meets ``gtol``,
        after ``iterations`` accepted steps; True once no row is left."""
        stop = s.cost <= s.floor
        if any_(stop) and settle(stop, result("exact", iterations)):
            return True
        stop = ((_cosines(s.grad, s.col_norms, s.root[:, None] if batched else s.root) <= _GTOL)
                | newton_converged())
        return any_(stop) and settle(stop, result("gtol", iterations))

    record()
    stop = nonfinite(jac)
    if any_(stop):
        if settle(stop, each(lambda j: SingularJacobian(
                "non-finite Jacobian at the starting point"))):
            return out
        jac = _drop_rows(jac, ~stop)
    s.a_mat, s.col_norms, s.scale = _gram(jac)
    s.grad = np.vecmat(s.r, jac)
    dead = s.col_norms == 0.0
    stop = dead.any(-1)
    if any_(stop) and settle(stop, each(lambda j: SingularJacobian(
            "parameters with no model influence: "
            f"{[model.param_names[i] for i in np.flatnonzero(row(dead, j))]}"))):
        return out

    def per_row(value):
        """``value`` for every row: an array for a batch, else itself."""
        return np.full(len(s.cost), value) if batched else value

    s.col_peak = s.col_norms
    s.lam, s.nu = per_row(1e-3), per_row(2.0)
    # whether each step adds the residual curvature that J^T J leaves out;
    # off until the Gauss-Newton model is seen to fail
    s.curved = per_row(False)
    s.stall = per_row(0)
    s.window = s.cost
    if at_optimum(0):
        return out
    for it in range(1, _MAX_ITER + 1):
        if it % 12 == 0:
            # no meaningful progress over a whole window of iterations
            stop = s.cost > (1.0 - 1e-6) * s.window
            if any_(stop) and settle(stop, result("no_progress", it)):
                break
            s.window = s.cost

        h_mat = s.a_mat
        if any_(s.curved):
            h_mat = s.a_mat + _curvature(model, s)
            if not all_(s.curved):
                h_mat = np.where(s.curved[..., None, None], h_mat, s.a_mat)
        outcome = _try_steps(model, s, h_mat, ops)
        if outcome is not None:
            stop = outcome == 2
            if any_(stop) and settle(stop, each(lambda j: SingularJacobian("Singular matrix"))):
                break
            # damping exhausted: no downhill step exists at this precision
            stop = outcome[~stop] == 1 if batched else outcome == 1
            if any_(stop) and settle(stop, result("max_damping", it)):
                break

        s.step = sqrt(np.vecdot(s.step_vec, s.step_vec))
        s.improvement = s.cost - s.cost_c
        s.theta, s.r, s.cost, s.ext = s.theta_c, s.r_c, s.cost_c, s.ext_c
        # the trial point is now the current one: no row copies it again
        del s.theta_c, s.r_c, s.cost_c, s.ext_c, s.step_vec
        record()
        j_ext, jac = _jacobians(model, s, s.theta, s.ext,
                                work[:len(s.cost)] if batched else work)
        # checked before any product: inf * 0 in J^T J would warn.  No step
        # from a non-finite Jacobian can be trusted: end here, as the next
        # iteration's damping would, with every parameter undetermined
        stop = nonfinite(jac)
        if any_(stop):
            if settle(stop, result("max_damping", it + 1, ~no_loss)):
                break
            j_ext, jac = _drop_rows(j_ext, ~stop), _drop_rows(jac, ~stop)
        s.a_mat, s.col_norms, s.scale = _gram(jac)
        s.grad = np.vecmat(s.r, jac)
        if it >= 3:
            # past the first steps' nonlinearity, a misprediction by over a
            # quarter means the residual curvature that J^T J leaves out matters
            s.curved = s.curved | (abs(s.rho - 1.0) > 0.25)
        if model.curvature is not None and any_(s.curved):
            # what the next step's residual curvature needs of this point:
            # the weights w = r / sigma and the model's gradient J_ext^T w
            s.w = s.r / s.sigma
            s.g_ext = np.vecmat(s.w, j_ext)
        s.col_peak = np.maximum(s.col_peak, s.col_norms)
        lost = s.col_norms < _LOST_INFLUENCE * s.col_peak
        stop = lost.any(-1)
        if any_(stop) and settle(stop, influence_lost(it, lost)):
            break
        if at_optimum(it):
            break
        stop = s.step <= _XTOL * (sqrt(np.vecdot(s.theta, s.theta)) + _XTOL)
        if any_(stop) and settle(stop, result("xtol", it)):
            break
        # successive negligible improvements: accept the point as the optimum
        s.stall = (s.stall + 1) * (s.improvement <= 1e-10 * maximum(s.cost, 1e-300))
        stop = s.stall >= 3
        if any_(stop) and settle(stop, result("stall", it)):
            break
    else:
        settle(np.ones(np.shape(s.cost), dtype=bool), each(lambda j: MaxIterations(
            f"no convergence after {_MAX_ITER} iterations "
            f"(residual norm {np.sqrt(row(s.cost, j)):.3e})")))
    return out


def _checked(model, x, y, sigma, init, bounds):
    """The sigmas, starting points and bounds of the fits of ``y``'s rows
    (of ``y`` for a single curve), checked.  Starting points and bounds are
    filled to one set of parameters per fit, sigma to one entry per fit
    (shape ``rows + (1,)``) unless it varies along the points."""
    rows = y.shape[:-1]
    sigma = np.asarray(1.0 if sigma is None else sigma, dtype=float)
    per_point = sigma.shape[-1:] not in ((), (1,))
    sigma = _filled(sigma, rows + (y.shape[-1] if per_point else 1,), NonPositiveInput,
                    "sigma must broadcast to the shape of y")
    for name, arr in (("x", x), ("y", y), ("sigma", sigma)):
        if not np.isfinite(arr).all():
            raise NonPositiveInput(f"{name} must be finite")
    if (sigma <= 0).any():
        raise NonPositiveInput("sigmas must be > 0")

    n_par = model.n_params
    if y.shape[-1] < n_par:
        raise NonPositiveInput(
            f"need at least {n_par} points for {n_par} parameters, got {y.shape[-1]}")

    if init is None:
        if model.guess is None:
            init = np.ones(n_par)
        elif rows:
            init = np.stack([model.guess(xr, yr) for xr, yr in zip(x, y)])
        else:
            init = model.guess(x, y)
    p_ext = np.asarray(init, dtype=float)
    if p_ext.shape[-1:] != (n_par,) or p_ext.shape[:-1] not in ((), rows):
        raise InvalidBounds(f"init must have {n_par} entries")
    p_ext = _filled(p_ext, rows + (n_par,), InvalidBounds, f"init must have {n_par} entries")
    if not np.isfinite(p_ext).all():
        raise InvalidBounds("init must be finite")

    if bounds is None:
        bounds = model.bounds
    lo, hi = (-np.inf, np.inf) if bounds is None else bounds
    lo, hi = (_filled(bound, rows + (n_par,), InvalidBounds,
                      "bounds must broadcast to one entry per parameter") for bound in (lo, hi))
    if not (lo < hi).all():
        raise InvalidBounds("bounds must not be NaN, and each lower bound must be "
                            "below its upper bound")
    if (p_ext < lo).any() or (p_ext > hi).any():
        raise InvalidBounds("initial guess lies outside the bounds")
    return sigma, p_ext, lo, hi


def fit_curve(model: ParametricModel, x, y, sigma=None, init=None, bounds=None) -> FitResult:
    """Weighted nonlinear least squares: minimise sum(((y_model - y)/sigma)^2).

    The Levenberg-Marquardt loop of :func:`fit_curves`, on one curve with no
    batch axis.  Deterministic for identical inputs.  Steps that do not
    reduce the weighted residual, or whose trial point lies outside the
    domain of the model's transform, are rejected and retried with stronger
    damping, so the residual of accepted iterations is non-increasing.

    Each step solves ``(J^T J + S + lam diag(J^T J)) delta = -J^T r``, and
    its gain ratio (actual over predicted decrease of the residual) is taken
    against the same matrix.  ``S`` is zero, and takes no arithmetic, until an
    accepted step from the third iteration on has a gain ratio outside
    [0.75, 1.25]: the Gauss-Newton model then mispredicts by more than a
    quarter, so the residual's own curvature matters.  From that step on,
    ``S`` is the exact residual curvature ``sum_i r_i Hess(r_i)`` at each
    accepted point: the model's ``curvature`` with ``w = r / sigma``, taken
    into internal coordinates by the transform's ``curvature_internal``, or,
    for a model without ``curvature``, differences of ``J`` with steps
    scaled to each parameter and kept inside the bounds.
    Small-residual fits never switch it on.  Uncertainties come from
    ``J^T J`` alone.

    The returned ``stop_reason`` names the rule that ended the iteration:

    ``"exact"``, ``"gtol"``
        the residual reached the floating-point floor; or the largest cosine
        between a Jacobian column and the residual fell below 1e-10, or the
        Gauss-Newton decrement ``g^T (J^T J)^-1 g`` (``g = J^T r``, the
        chi^2 that the undamped Gauss-Newton step would remove) fell to
        ``1e-10 * min(chi^2, 1)``.  With the covariance ``(J^T J)^-1`` the
        decrement is the step's squared length in standard errors, so for
        chi^2 >= 1 the step moves no parameter by more than 1e-5 of its
        error; for chi^2 < 1 it removes at most 1e-10 of chi^2, so exact data
        still ends by ``"exact"``.  A point where ``J^T J`` is singular skips
        the decrement test.  Always converged.  Both rules are tested at the
        start and at every accepted point, before ``"xtol"`` and
        ``"stall"``.
    ``"xtol"``, ``"stall"``, ``"no_progress"``, ``"max_damping"``
        the step fell below 1e-12 of the internal parameters' norm, three
        successive improvements were negligible, a 12-iteration window
        gained nothing, or no downhill step exists at maximum damping;
        converged if the gradient cosine is below 3e-3.  A Jacobian that
        turns non-finite at an accepted point also ends the fit there as
        ``"max_damping"``, not converged, with every error infinite.
    ``"lost_influence:<names>"``
        the Jacobian column of the named parameters shrank below 1e-6 of its
        largest norm along the path: the optimum lies at the edge of their
        range (e.g. ``t_long`` to infinity when the data window cannot pin
        it).  Never converged; every parameter that depends on a lost one
        has an infinite error.

    Raises
    ------
    SingularJacobian
        If a parameter has no influence on the model at the starting point.
    MaxIterations
        If 200 steps are accepted without any stop rule firing; a rule that
        fires on the last step still returns a result.
    InvalidBounds
        If the start is not finite, a bound is NaN, the start or a bound
        does not broadcast to one entry per parameter, or the bounds are
        inconsistent or exclude the start.
    NonPositiveInput
        If ``x``, ``y`` or ``sigma`` holds a non-finite value, a sigma is
        not positive, or ``sigma`` does not broadcast to the shape of ``y``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise NonPositiveInput("x and y must be 1-D arrays of equal length")
    sigma, p_ext, lo, hi = _checked(model, x, y, sigma, init, bounds)
    res, = _levenberg_marquardt(model, x, y, sigma, p_ext, lo, hi)
    if isinstance(res, AfcSimError):
        raise res
    return res


def fit_curves(model: ParametricModel, x, y, sigma=None, init=None, bounds=None) -> list:
    """:func:`fit_curve` on every row of a batch of curves, in one iteration.

    ``y`` holds one curve per row, shape ``(n_curves, n_points)``.  ``x`` and
    ``sigma`` broadcast to that shape, ``init`` and both ``bounds`` to
    ``(n_curves, n_params)``; without ``init`` each row starts from the
    model's ``guess``.  The model and its transform must broadcast over the
    leading axis (see the module docstring), else the ``ValueError`` or
    ``IndexError`` it raises becomes a :class:`NonPositiveInput`.

    Returns one entry per row: exactly the :class:`FitResult` that
    :func:`fit_curve` returns on that row alone, bit for bit, or the
    :class:`SingularJacobian` or :class:`MaxIterations` it would raise.  Such a
    row does not stop the others.  Inputs that :func:`fit_curve` rejects
    before iterating (:class:`NonPositiveInput`, :class:`InvalidBounds`) are
    raised for the whole batch, as is a ``y`` with no rows
    (:class:`NonPositiveInput`).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or not len(y):
        raise NonPositiveInput("y must be a 2-D array of at least one curve")
    try:
        # a view: the fit never writes into x
        x = np.broadcast_to(np.asarray(x, dtype=float), y.shape)
    except ValueError:
        raise NonPositiveInput("x must broadcast to the shape of y") from None
    sigma, p_ext, lo, hi = _checked(model, x, y, sigma, init, bounds)
    try:
        return _levenberg_marquardt(model, x, y, sigma, p_ext, lo, hi)
    except (ValueError, IndexError) as exc:
        raise NonPositiveInput(
            f"the model ({', '.join(model.param_names)}) or its transform does not "
            f"broadcast over a batch of curves: {exc}") from exc


# ---------------------------------------------------------------------------
# Model families
# ---------------------------------------------------------------------------

def _double_exp_eval(params, t):
    a_s, t_s, a_l, t_l = params
    return a_s * np.exp(-t / t_s) + a_l * np.exp(-t / t_l)


def _double_exp_jac(params, t):
    a_s, t_s, a_l, t_l = params
    e_s = np.exp(-t / t_s)
    e_l = np.exp(-t / t_l)
    return _columns(t.shape, e_s, a_s * t * e_s / t_s ** 2, e_l, a_l * t * e_l / t_l ** 2)


def _double_exp_curvature(params, t, w):
    # each term a exp(-t/tau) has d2/da dtau = t e / tau^2 and
    # d2/dtau2 = a t e (t - 2 tau) / tau^4; the two terms do not mix
    curv = np.zeros((4, 4))
    for k in (0, 2):
        amp, tau = params[k], params[k + 1]
        wte = w * t * np.exp(-t / tau)
        curv[k, k + 1] = curv[k + 1, k] = float(wte.sum()) / tau ** 2
        curv[k + 1, k + 1] = amp * float(wte @ (t - 2.0 * tau)) / tau ** 4
    return curv


def _double_exp_guess(t, y):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    order = np.argsort(t)
    t, y = t[order], y[order]
    # long lifetime from the log-slope of the tail
    tail = slice(max(y.size // 2, y.size - 12), None)
    yt = np.maximum(y[tail], 1e-12 * max(y.max(), 1e-12))
    slope = np.polyfit(t[tail], np.log(yt), 1)[0]
    t_l = -1.0 / slope if slope < -1e-12 else (t[-1] - t[0])
    t_l = float(np.clip(t_l, 1e-6, 100 * (t[-1] - t[0] + 1e-12)))
    t_s = t_l / 12.0
    # amplitudes are linear given the lifetimes
    basis = np.stack([np.exp(-t / t_s), np.exp(-t / t_l)], axis=1)
    amps, *_ = np.linalg.lstsq(basis, y, rcond=None)
    floor = 1e-3 * max(abs(y).max(), 1e-12)
    a_s, a_l = (max(float(a), floor) for a in amps)
    return np.array([a_s, t_s, a_l, t_l])


def model_double_exponential() -> ParametricModel:
    """Two-exponential decay a_s exp(-t/t_s) + a_l exp(-t/t_l).

    The ordering ``t_short < t_long`` is built into the fitting
    reparameterisation, so the labels cannot switch during a fit.
    """
    return ParametricModel(
        param_names=("a_short", "t_short", "a_long", "t_long"),
        evaluate=_double_exp_eval,
        jacobian=_double_exp_jac,
        curvature=_double_exp_curvature,
        guess=_double_exp_guess,
        bounds=(np.array([0.0, 1e-12, 0.0, 1e-12]),
                np.array([np.inf, np.inf, np.inf, np.inf])),
        transform=OrderedLifetimesTransform(),
    )


def model_flipflop_field(alpha: float = 1e9, g_factor: float = 15.13,
                         temperature: float = 0.7) -> ParametricModel:
    """Field dependence of the grating relaxation rate, 1/t_long versus B.

    rate(B) = alpha / (Gamma_s + gamma_s B) * sech^2(g mu_B B / (2 k_B T))
    with free parameters (Gamma_s, gamma_s); alpha, g and T are held fixed,
    since three or four field points cannot constrain them as well.
    """
    if temperature <= 0:
        raise NonPositiveTemperature(f"temperature={temperature}")

    def evaluate(params, b):
        gam_static, gam_slope = params
        xarg = g_factor * MU_B * np.asarray(b) / (2.0 * K_B * temperature)
        return alpha / (gam_static + gam_slope * np.asarray(b)) / np.cosh(xarg) ** 2

    def jacobian(params, b):
        gam_static, gam_slope = params
        b = np.asarray(b, dtype=float)
        xarg = g_factor * MU_B * b / (2.0 * K_B * temperature)
        sech2 = 1.0 / np.cosh(xarg) ** 2
        denom = (gam_static + gam_slope * b) ** 2
        return _columns(b.shape, -alpha * sech2 / denom, -alpha * b * sech2 / denom)

    def curvature(params, b, w):
        # rate = alpha sech^2 / d with d linear in both parameters, so
        # d2 rate / dp_i dp_j = 2 alpha sech^2 db_i db_j / d^3, db = (1, B)
        gam_static, gam_slope = params
        b = np.asarray(b, dtype=float)
        xarg = g_factor * MU_B * b / (2.0 * K_B * temperature)
        q = 2.0 * alpha * w / np.cosh(xarg) ** 2 / (gam_static + gam_slope * b) ** 3
        s_b = float(q @ b)
        return np.array([[float(q.sum()), s_b], [s_b, float(q @ (b * b))]])

    return ParametricModel(
        param_names=("gamma_spin_static", "gamma_spin_slope"),
        evaluate=evaluate,
        jacobian=jacobian,
        curvature=curvature,
        guess=lambda x, y: np.array([1e9, 1e10]),
        bounds=(np.array([1e3, 1e3]), np.array([1e15, 1e15])),
        transform=LogTransform([True, True]),
    )


def model_lorentzian_dip(baseline_terms: int = 1) -> ParametricModel:
    """Lorentzian absorption dip ``depth, center, fwhm`` (``fwhm`` fitted in
    log space) on a baseline of ``baseline_terms`` coefficients:

    * 1, ``baseline``: the constant-baseline dip that ``afcsim fit dip`` fits;
    * 2, ``baseline, slope`` (a line about x = 0): ``readout.measure_hole``.
    """
    if baseline_terms not in (1, 2):
        raise NonPositiveInput(f"baseline_terms must be 1 or 2, got {baseline_terms}")
    n_base = baseline_terms
    n_par = n_base + 3

    def evaluate(params, nu):
        terms = _split(params)
        depth, center, fwhm = terms[n_base:]
        half = fwhm / 2.0
        # half * half, not half ** 2: a scalar's pow may round differently
        # from an array's square, and a batch row must match a single curve
        h2 = half * half
        # -depth h2 / ((nu - center)^2 + h2), built in one buffer: an array
        # even for a scalar nu, which gets a scalar back (dip[()])
        dip = np.asarray(nu - center)
        dip *= dip
        dip += h2
        np.divide(-depth * h2, dip, out=dip)
        if n_base == 1:
            dip += terms[0]
            return dip[()]
        out = terms[1] * nu
        out += terms[0]
        out += dip
        return out

    def jacobian(params, nu):
        depth, center, fwhm = _split(params)[n_base:]
        half = fwhm / 2.0
        h2 = half * half
        # an array even for a scalar nu: it takes denom^2 below
        dx = np.asarray(nu - center)
        # each parameter's row written in place: the baseline's, then
        # -L = -h2 / denom, -depth L 2 dx / denom and -depth half dx^2 / denom^2,
        # with denom = dx^2 + h2
        rows = _param_rows(dx.shape, n_par)
        rows[0] = 1.0
        if n_base == 2:
            rows[1] = nu
        # views of the rows, 0-d ones for a scalar nu
        d_depth, d_center, d_fwhm = (rows[i, ...] for i in range(n_base, n_par))
        np.multiply(dx, dx, out=d_fwhm)
        denom = d_fwhm + h2
        np.divide(-h2, denom, out=d_depth)
        # (2 depth) L is 2 (depth L) exactly: doubling does not round
        np.multiply(2.0 * depth, d_depth, out=d_center)
        d_center *= dx
        d_center /= denom
        d_fwhm *= -depth * half
        d_fwhm /= np.multiply(denom, denom, out=dx)
        return _jacobian_view(rows)

    def curvature(params, nu, w):
        # second derivatives of -depth L, L = h^2 / D, h = fwhm / 2,
        # D = (nu - center)^2 + h^2; the baseline is linear.  The sums run
        # along the last axis, so a batch gets one matrix per row
        depth, center, fwhm = params.T[n_base:]
        half = fwhm / 2.0
        h2 = half * half
        # per-row factors as columns against the samples
        center_c, h2_c = center[..., None], h2[..., None]
        dx = nu - center_c
        dx2 = dx * dx
        denom = dx2 + h2_c
        # denom^3 by products, which cost a third of an array pow
        q = denom * denom
        q *= denom
        np.divide(w, q, out=q)
        qd = np.multiply(q, denom, out=denom)
        s_dc = -2.0 * h2 * np.vecdot(qd, dx)
        s_df = -half * np.vecdot(qd, dx2)
        # the three other weights in turn in one buffer
        tmp = 3.0 * dx2
        tmp -= h2_c
        s_cc = -2.0 * depth * h2 * np.vecdot(q, tmp)
        np.subtract(dx2, h2_c, out=tmp)
        tmp *= dx
        s_cf = -2.0 * depth * half * np.vecdot(q, tmp)
        np.subtract(dx2, 3.0 * h2_c, out=tmp)
        tmp *= dx2
        s_ff = -0.5 * depth * np.vecdot(q, tmp)
        curv = np.zeros(np.shape(depth) + (n_par, n_par))
        block = [[0.0, s_dc, s_df], [s_dc, s_cc, s_cf], [s_df, s_cf, s_ff]]
        for i, row in enumerate(block):
            for j, value in enumerate(row):
                curv[..., n_base + i, n_base + j] = value
        return curv

    def guess(nu, od):
        # a steep slope puts the lowest sample at an edge, so the two-term
        # dip is found on the curve less the line through its end samples
        slope = 0.0
        if n_base == 2:
            slope = float((od[-1] - od[0]) / (nu[-1] - nu[0]))
            od = od - slope * nu
        baseline = float(np.median(od))
        imin = int(np.argmin(od))
        depth = max(baseline - float(od[imin]), 1e-6)
        center = float(nu[imin])
        below = od < baseline - depth / 2.0
        if below.any():
            fwhm = max(float(nu[below].max() - nu[below].min()),
                       float(nu[1] - nu[0]))
        else:
            fwhm = (nu[-1] - nu[0]) / 10.0
        return np.array([baseline, slope][:n_base] + [depth, center, fwhm])

    return ParametricModel(
        param_names=("baseline", "slope")[:n_base] + ("depth", "center", "fwhm"),
        evaluate=evaluate,
        jacobian=jacobian,
        curvature=curvature,
        guess=guess,
        bounds=(np.array([-np.inf] * (n_par - 1) + [1e-12]), np.full(n_par, np.inf)),
        transform=LogTransform([False] * (n_par - 1) + [True]),
    )


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def load_curve_csv(path_or_text) -> tuple:
    """Read ``x,y[,sigma]`` data; a non-numeric first row is treated as header.

    Returns ``(x, y, sigma)`` with ``sigma=None`` when absent.  A data line
    with a non-numeric or non-finite cell, or with a different number of
    columns from the first data line, raises :class:`NonPositiveInput`
    naming that line.
    """
    if isinstance(path_or_text, str) and "\n" in path_or_text:
        fh = io.StringIO(path_or_text)
    else:
        fh = open(path_or_text, "r", newline="")
    try:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if any(c.strip() for c in row)]
    finally:
        fh.close()
    if not rows:
        raise NonPositiveInput("empty CSV input")
    try:
        [float(c) for c in rows[0][1][:2]]
    except ValueError:
        rows = rows[1:]
    if not rows:
        raise NonPositiveInput("CSV contains a header but no data")
    width = len(rows[0][1])
    if width < 2:
        raise NonPositiveInput("CSV needs at least two columns (x, y)")
    data = np.empty((len(rows), width))
    for i, (line, row) in enumerate(rows):
        if len(row) != width:
            raise NonPositiveInput(
                f"CSV line {line} has {len(row)} columns, expected {width}")
        try:
            data[i] = [float(c) for c in row]
        except ValueError:
            raise NonPositiveInput(
                f"CSV line {line} has a non-numeric value: {','.join(row)!r}") from None
        if not np.all(np.isfinite(data[i])):
            raise NonPositiveInput(
                f"CSV line {line} has a non-finite value: {','.join(row)!r}")
    sigma = data[:, 2] if width >= 3 else None
    return data[:, 0], data[:, 1], sigma
