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
        """Matrix d(external_j)/d(internal_i), shape (n_ext, n_int)."""
        return np.eye(len(internal))

    def jac_internal(self, jac, internal, external):
        """Chain rule for the model Jacobian; ``external = to_external(internal)``."""
        if type(self) is ParamTransform:
            return jac
        return jac @ self.jac_external(internal)

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
        return self.jac_internal(half.T, internal, external) + self.hess_external(grad, internal)


class LogTransform(ParamTransform):
    """Fit selected strictly-positive parameters in log space."""

    def __init__(self, log_mask: Sequence[bool]):
        self.log_mask = np.asarray(log_mask, dtype=bool)
        self._log = np.flatnonzero(self.log_mask)

    def to_internal(self, external):
        ext = np.asarray(external, dtype=float)
        if (ext[self._log] <= 0).any():
            raise InvalidBounds("log-fitted parameters must be > 0")
        out = ext.copy()
        out[self._log] = np.log(ext[self._log])
        return out

    def to_external(self, internal):
        out = np.asarray(internal, dtype=float).copy()
        # clipped so damped trial steps far uphill stay finite
        out[self._log] = np.exp(np.minimum(np.maximum(out[self._log], -300.0), 300.0))
        return out

    def jac_external(self, internal):
        return np.diag(np.where(self.log_mask, self.to_external(internal), 1.0))

    def jac_internal(self, jac, internal, external):
        out = np.array(jac, dtype=float)
        for k in self._log:
            out[:, k] *= external[k]
        return out

    def hess_external(self, weights, internal):
        external = self.to_external(internal)
        return np.diag(np.where(self.log_mask, weights * external, 0.0))


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
        t_s = np.exp(np.clip(u, -300.0, 300.0))
        return np.array([a_s, t_s, a_l, t_s + np.exp(np.clip(w, -300.0, 300.0))])

    def jac_external(self, internal):
        _, u, _, w = np.asarray(internal, dtype=float)
        t_s = np.exp(np.clip(u, -300.0, 300.0))
        jac = np.zeros((4, 4))
        jac[0, 0] = 1.0
        jac[2, 2] = 1.0
        jac[1, 1] = t_s
        jac[3, 1] = t_s
        jac[3, 3] = np.exp(np.clip(w, -300.0, 300.0))
        return jac

    def hess_external(self, weights, internal):
        # t_short = e^u and t_long = e^u + e^w
        _, u, _, w = np.asarray(internal, dtype=float)
        hess = np.zeros((4, 4))
        hess[1, 1] = np.exp(np.clip(u, -300.0, 300.0)) * (weights[1] + weights[3])
        hess[3, 3] = np.exp(np.clip(w, -300.0, 300.0)) * weights[3]
        return hess


# ---------------------------------------------------------------------------
# Model and result containers
# ---------------------------------------------------------------------------

@dataclass
class ParametricModel:
    """A parametric curve y(params, x) with optional analytic derivatives.

    ``jacobian(params, x)`` returns the matrix of partial derivatives with
    shape ``(len(x), n_params)`` in the external parameters.
    ``curvature(params, x, w)`` returns ``sum_i w_i Hess(y_i)``, the
    ``(n_params, n_params)`` second derivatives of the curve weighted by
    ``w`` (``fit_curve`` passes ``w = r / sigma``), also in the external
    parameters; its transform must then supply ``hess_external``.  Without
    them, ``fit_curve`` takes differences.
    ``guess`` maps data to a starting point; ``bounds`` are external box
    constraints.
    """

    name: str
    param_names: tuple
    units: tuple
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
    optimum with every parameter determined by the data.
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

def _numeric_jacobian(fun, params, x, rel_step=1e-6, floor=1e-8):
    """Central differences of the vector ``fun(params, x)``, one column per
    parameter, with steps ``rel_step * max(|params_i|, floor)``."""
    p = np.asarray(params, dtype=float)
    cols = []
    for i in range(p.size):
        h = rel_step * max(abs(p[i]), floor)
        up, dn = p.copy(), p.copy()
        up[i] += h
        dn[i] -= h
        cols.append((fun(up, x) - fun(dn, x)) / (2.0 * h))
    return np.stack(cols, axis=1)


def _filled(value, shape):
    """A new float array of ``shape`` holding ``value`` broadcast to it."""
    out = np.empty(shape)
    out[...] = value
    return out


def _columns(n, *cols):
    """The (n, len(cols)) matrix of these columns, filled in place."""
    out = np.empty((n, len(cols)))
    for i, col in enumerate(cols):
        out[:, i] = col
    return out


def _gram(jac):
    """``J^T J``, the column norms of ``J`` and the damping scale, all from
    the Gram matrix's diagonal."""
    a_mat = jac.T @ jac
    sq_norms = a_mat.diagonal()
    return a_mat, np.sqrt(sq_norms), np.maximum(sq_norms, 1e-300)


def _grad_cosine(grad, col_norms, cost):
    """Largest cosine between a Jacobian column and the residual (zero at an
    exact least-squares minimum)."""
    if cost <= 0:
        return 0.0
    return float((np.abs(grad) / (np.maximum(col_norms, 1e-300) * math.sqrt(cost))).max())


def _damped_step(a_mat, scale, lam, grad):
    """Solve ``(a_mat + lam diag(scale)) delta = -grad`` with LAPACK gesv."""
    damped = np.array(a_mat, order="F")
    damped.ravel(order="K")[::scale.size + 1] += lam * scale
    delta, info = dgesv(damped, -grad, overwrite_a=True, overwrite_b=True)[2:]
    if info > 0:
        raise SingularJacobian("Singular matrix")
    return delta


# A parameter whose Jacobian column has shrunk below this fraction of the
# largest norm it had along the path no longer moves the model: it is running
# off to the edge of its range (a lifetime to infinity, say), where the data
# cannot pin it.
_LOST_INFLUENCE = 1e-6


def fit_curve(model: ParametricModel, x, y, sigma=None, init=None, bounds=None,
              max_iter: int = 200, gtol: float = 1e-10, xtol: float = 1e-12) -> FitResult:
    """Weighted nonlinear least squares: minimise sum(((y_model - y)/sigma)^2).

    Deterministic for identical inputs.  Steps that do not reduce the
    weighted residual, or whose trial point lies outside the domain of the
    model's transform, are rejected and retried with stronger damping, so the
    residual of accepted iterations is non-increasing.

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
        the residual reached the floating-point floor, or the largest cosine
        between a Jacobian column and the residual fell below ``gtol``;
        always converged.
    ``"xtol"``, ``"stall"``, ``"no_progress"``, ``"max_damping"``
        the step fell below ``xtol``, three successive improvements were
        negligible, a 12-iteration window gained nothing, or no downhill
        step exists at maximum damping; converged if the gradient cosine is
        below ``max(sqrt(gtol), 3e-3)``.  A Jacobian that turns non-finite
        at an accepted point also ends the fit there as ``"max_damping"``,
        not converged, with every error infinite.
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
        If ``max_iter`` steps are accepted without any stop rule firing; a
        rule that fires on the last step still returns a result.
    InvalidBounds
        If bounds are inconsistent or exclude the initial guess.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise NonPositiveInput("x and y must be 1-D arrays of equal length")
    sigma = np.ones_like(y) if sigma is None else _filled(sigma, y.shape)
    if (sigma <= 0).any():
        raise NonPositiveInput("sigmas must be > 0")

    n_par = model.n_params
    if x.size < n_par:
        raise NonPositiveInput(
            f"need at least {n_par} points for {n_par} parameters, got {x.size}")

    if init is None:
        if model.guess is not None:
            init = model.guess(x, y)
        else:
            init = np.ones(n_par)
    p_ext = np.asarray(init, dtype=float).copy()
    if p_ext.size != n_par:
        raise InvalidBounds(f"init must have {n_par} entries")

    if bounds is None:
        bounds = model.bounds
    if bounds is None:
        lo = np.full(n_par, -np.inf)
        hi = np.full(n_par, np.inf)
    else:
        lo = _filled(bounds[0], (n_par,))
        hi = _filled(bounds[1], (n_par,))
    if (lo >= hi).any():
        raise InvalidBounds("lower bounds must be below upper bounds")
    if (p_ext < lo).any() or (p_ext > hi).any():
        raise InvalidBounds("initial guess lies outside the bounds")

    tr = model.transform
    theta = tr.to_internal(p_ext)

    def residual(th):
        ext = tr.to_external(th)
        return (model.evaluate(ext, x) - y) / sigma, ext

    def jacobians(th, ext):
        """The model's Jacobian over the external parameters, and the
        residual's over the internal ones."""
        if model.jacobian is not None:
            j_ext = np.asarray(model.jacobian(ext, x), dtype=float)
        else:
            j_ext = _numeric_jacobian(model.evaluate, ext, x)
        return j_ext, tr.jac_internal(j_ext, th, ext) / sigma[:, None]

    def curvature(th, ext, r, j_ext):
        """The residual curvature ``sum_i r_i Hess(r_i)`` over the internal
        parameters."""
        if model.curvature is None:
            # differences of J^T r at fixed r, as for a model without a
            # Jacobian.  Each step is 1e-4 of the parameter's scale: its size,
            # or the move that shifts the curve by the residual's norm if that
            # is larger, which stays clear of the rounding in a Jacobian that
            # is itself differenced.  A side whose trial point leaves the
            # bounds is replaced by the current point.
            cols = []
            for i, h in enumerate(1e-4 * np.maximum(np.abs(th), math.sqrt(cost) / col_norms)):
                ends = []
                for step in (h, -h):
                    t = th.copy()
                    t[i] += step
                    e = tr.to_external(t)
                    inside = bool(((e >= lo) & (e <= hi)).all())
                    ends.append((jacobians(t, e)[1].T @ r, step) if inside else (grad, 0.0))
                (g_up, s_up), (g_dn, s_dn) = ends
                cols.append((g_up - g_dn) / (s_up - s_dn))
            curv = np.stack(cols, axis=1)
            return 0.5 * (curv + curv.T)
        w = r / sigma
        return tr.curvature_internal(np.asarray(model.curvature(ext, x, w), dtype=float),
                                     j_ext.T @ w, th, ext)

    r, ext = residual(theta)
    cost = float(r @ r)
    # absolute floor below which the fit counts as an exact interpolation
    cost_floor = x.size * (4e-12 * max(1.0, float(np.abs(y / sigma).max()))) ** 2
    trace = [np.sqrt(cost)]
    lam = 1e-3
    iterations = 0

    j_ext, jac = jacobians(theta, ext)
    if not np.isfinite(jac).all():
        raise SingularJacobian("non-finite Jacobian at the starting point")
    a_mat, col_norms, scale = _gram(jac)
    grad = jac.T @ r
    if (col_norms == 0.0).any():
        dead = [model.param_names[i] for i in np.flatnonzero(col_norms == 0.0)]
        raise SingularJacobian(f"parameters with no model influence: {dead}")
    col_peak = col_norms
    lost = np.zeros(n_par, dtype=bool)

    gtol_loose = max(np.sqrt(gtol), 3e-3)
    # whether each step adds the residual curvature that J^T J leaves out;
    # off until the Gauss-Newton model is seen to fail
    curved = False
    nu = 2.0
    stall_count = 0
    window_cost = cost
    for iterations in range(1, max_iter + 1):
        if iterations % 12 == 0:
            # no meaningful progress over a whole window of iterations
            if cost > (1.0 - 1e-6) * window_cost:
                stop_reason = "no_progress"
                break
            window_cost = cost
        if cost <= cost_floor:
            stop_reason = "exact"
            iterations -= 1
            break
        if _grad_cosine(grad, col_norms, cost) <= gtol:
            stop_reason = "gtol"
            iterations -= 1
            break

        h_mat = a_mat + curvature(theta, ext, r, j_ext) if curved else a_mat
        accepted = False
        for _ in range(60):
            delta = _damped_step(h_mat, scale, lam, grad)
            ext_cand = np.minimum(np.maximum(tr.to_external(theta + delta), lo), hi)
            try:
                theta_cand = tr.to_internal(ext_cand)
            except InvalidBounds:
                # the trial point left the transform's domain (for ordered
                # lifetimes: t_short + exp(w) rounded to t_short); reject it
                # like any other uphill step
                theta_cand = None
            if theta_cand is not None:
                r_cand, ext_cand = residual(theta_cand)
                cost_cand = float(r_cand @ r_cand)
                step_vec = theta_cand - theta
                # gain ratio against the local quadratic model of the actual step
                predicted = -(2.0 * float(grad @ step_vec)
                              + float(step_vec @ (h_mat @ step_vec)))
                if math.isfinite(cost_cand) and cost_cand < cost and predicted > 0:
                    rho = (cost - cost_cand) / predicted
                    lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 1e-14)
                    nu = 2.0
                    accepted = True
                    break
            lam = min(lam * nu, 1e15)
            nu = min(nu * 2.0, 64.0)
            if lam >= 1e15:
                break
        if not accepted:
            # damping exhausted: no downhill step exists at this precision
            stop_reason = "max_damping"
            break

        step = math.sqrt(float(step_vec @ step_vec))
        improvement = cost - cost_cand
        theta, r, cost, ext = theta_cand, r_cand, cost_cand, ext_cand
        trace.append(np.sqrt(cost))
        j_ext, jac = jacobians(theta, ext)
        # checked before any product: inf * 0 in J^T J would warn
        if not np.isfinite(jac).all():
            # no step from a non-finite Jacobian can be trusted: end here, as
            # the next iteration's damping would, with every parameter
            # undetermined
            stop_reason = "max_damping"
            iterations += 1
            lost[:] = True
            break
        a_mat, col_norms, scale = _gram(jac)
        grad = jac.T @ r
        if iterations >= 3 and abs(rho - 1.0) > 0.25:
            # past the first steps' nonlinearity, a misprediction by over a
            # quarter means the residual curvature that J^T J leaves out matters
            curved = True
        col_peak = np.maximum(col_peak, col_norms)
        lost = col_norms < _LOST_INFLUENCE * col_peak
        if lost.any():
            names = [model.param_names[i] for i in np.flatnonzero(lost)]
            stop_reason = "lost_influence:" + ",".join(names)
            break
        if step <= xtol * (math.sqrt(theta @ theta) + xtol):
            stop_reason = "xtol"
            break
        # successive negligible improvements: accept the point as the optimum
        stall_count = stall_count + 1 if improvement <= 1e-10 * max(cost, 1e-300) else 0
        if stall_count >= 3:
            stop_reason = "stall"
            break
    else:
        raise MaxIterations(f"no convergence after {max_iter} iterations "
                            f"(residual norm {np.sqrt(cost):.3e})")

    if stop_reason in ("exact", "gtol"):
        converged = True
    elif lost.any():
        converged = False
    else:
        converged = _grad_cosine(grad, col_norms, cost) <= gtol_loose

    # local quadratic uncertainties in external coordinates (no chi^2 rescale:
    # estimates are invariant under uniform sigma rescaling, errors scale with
    # it), from the columns that still influence the model
    live = ~lost
    a_live = jac[:, live].T @ jac[:, live]
    try:
        inv_live = np.linalg.inv(a_live)
    except np.linalg.LinAlgError:
        inv_live = np.linalg.pinv(a_live)
    if lost.any():
        cov_int = np.zeros((n_par, n_par))
        cov_int[np.ix_(live, live)] = inv_live
    else:
        cov_int = inv_live
    j_tr = tr.jac_external(theta)
    cov_ext = j_tr @ cov_int @ j_tr.T
    if lost.any():
        # external parameters that depend on a lost coordinate are undetermined
        undetermined = np.flatnonzero((j_tr[:, lost] != 0.0).any(axis=1))
        cov_ext[undetermined, :] = np.nan
        cov_ext[:, undetermined] = np.nan
        cov_ext[undetermined, undetermined] = np.inf
    std = np.sqrt(np.maximum(cov_ext.diagonal(), 0.0))

    return FitResult(
        param_names=model.param_names,
        params=ext,
        std_errors=std,
        covariance=cov_ext,
        residual_norm=float(np.sqrt(cost)),
        iterations=iterations,
        converged=bool(converged),
        residual_trace=tuple(trace),
        stop_reason=stop_reason,
    )


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
    return _columns(t.size, e_s, a_s * t * e_s / t_s ** 2, e_l, a_l * t * e_l / t_l ** 2)


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
        name="double_exponential",
        param_names=("a_short", "t_short", "a_long", "t_long"),
        units=("", "s", "", "s"),
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
        return _columns(b.size, -alpha * sech2 / denom, -alpha * b * sech2 / denom)

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
        name="flipflop_field",
        param_names=("gamma_spin_static", "gamma_spin_slope"),
        units=("Hz", "Hz/T"),
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
    * 2, ``baseline, slope`` (a line about x = 0): ``readout.measure_hole``;
    * 0, a zero floor: ``readout.analyze_comb``, one fit per comb tooth in
      the negated spectrum.
    """
    if baseline_terms not in (0, 1, 2):
        raise NonPositiveInput(f"baseline_terms must be 0, 1 or 2, got {baseline_terms}")
    n_base = baseline_terms
    n_par = n_base + 3

    def evaluate(params, nu):
        depth, center, fwhm = params[n_base:]
        half = fwhm / 2.0
        dip = -depth * half ** 2 / ((nu - center) ** 2 + half ** 2)
        if n_base == 0:
            return dip
        if n_base == 1:
            return params[0] + dip
        return params[0] + params[1] * nu + dip

    def jacobian(params, nu):
        depth, center, fwhm = params[n_base:]
        half = fwhm / 2.0
        dx = nu - center
        denom = dx ** 2 + half ** 2
        lshape = half ** 2 / denom
        return _columns(nu.size, *(1.0, nu)[:n_base], -lshape,
                        -depth * lshape * 2.0 * dx / denom,
                        -depth * half * dx ** 2 / denom ** 2)

    def curvature(params, nu, w):
        # second derivatives of -depth L, L = h^2 / D, h = fwhm / 2,
        # D = (nu - center)^2 + h^2; the baseline is linear
        depth, center, fwhm = params[n_base:]
        half = fwhm / 2.0
        h2 = half * half
        dx = nu - center
        dx2 = dx * dx
        denom = dx2 + h2
        q = w / denom ** 3
        qd = q * denom
        s_dc = -2.0 * h2 * float(qd @ dx)
        s_df = -half * float(qd @ dx2)
        s_cc = -2.0 * depth * h2 * float(q @ (3.0 * dx2 - h2))
        s_cf = -2.0 * depth * half * float(q @ (dx * (dx2 - h2)))
        s_ff = -0.5 * depth * float(q @ (dx2 * (dx2 - 3.0 * h2)))
        curv = np.zeros((n_par, n_par))
        curv[n_base:, n_base:] = [[0.0, s_dc, s_df], [s_dc, s_cc, s_cf], [s_df, s_cf, s_ff]]
        return curv

    def guess(nu, od):
        baseline = float(np.median(od)) if n_base else 0.0
        imin = int(np.argmin(od))
        depth = max(baseline - float(od[imin]), 1e-6)
        center = float(nu[imin])
        below = od < baseline - depth / 2.0
        if below.any():
            fwhm = max(float(nu[below].max() - nu[below].min()),
                       float(nu[1] - nu[0]))
        else:
            fwhm = (nu[-1] - nu[0]) / 10.0
        return np.array([baseline, 0.0][:n_base] + [depth, center, fwhm])

    return ParametricModel(
        name="lorentzian_dip",
        param_names=("baseline", "slope")[:n_base] + ("depth", "center", "fwhm"),
        units=("od", "od/Hz")[:n_base] + ("od", "Hz", "Hz"),
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
