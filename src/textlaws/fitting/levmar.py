"""Damped least-squares (Levenberg-Marquardt) curve fitting.

The damping loop only ever accepts a step that lowers the sum of squared
residuals: a successful step shrinks the damping factor, a rejected one
grows it, and the normal equations use Marquardt's diagonal scaling so
parameters of very different magnitudes condition equally.  Derivatives
come from forward finite differences on the residual vector.  The whole
computation is deterministic: identical inputs reproduce the parameter
trajectory bit for bit.  The settings of the loop are fixed constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, ValidationError
from .models import Model, _as_param_array, get_model


# fixed settings of the damping loop
_MAX_ITERATIONS = 200
_GRADIENT_TOL = 1e-8
_STEP_TOL = 1e-10
_JACOBIAN_REL_STEP = 1e-6
_INITIAL_LAMBDA = 1e-3
_LAMBDA_UP = 10.0
_LAMBDA_DOWN = 0.1
_MIN_LAMBDA = 1e-12
# a fit that needs more damping than this has stalled
_MAX_LAMBDA = 1e14


@dataclass
class FitResult:
    params: dict[str, float]
    stderr: dict[str, float]
    derived: dict[str, float]
    sse: float
    iterations: int
    converged: bool
    final_lambda: float
    sse_trace: tuple[float, ...] = ()


def forward_jacobian(residual_fn, p: np.ndarray, rel_step: float, r0=None) -> np.ndarray:
    """Forward-difference Jacobian of a residual vector w.r.t. parameters.

    ``r0`` is the residual vector at ``p`` when the caller already holds it.
    """
    r0 = residual_fn(p) if r0 is None else r0
    jac = np.empty((r0.size, p.size))
    for j in range(p.size):
        h = rel_step * max(abs(p[j]), 1.0)
        pj = p.copy()
        pj[j] += h
        jac[:, j] = (residual_fn(pj) - r0) / h
    return jac


def _prepare_data(data):
    # no pairs at all is shape (0, 2), so the caller reports too few points
    pairs = np.asarray(data, dtype=float) if len(data) else np.empty((0, 2))
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValidationError("data must be a sequence of (x, y) pairs")
    return pairs[:, 0], pairs[:, 1]


def lm_fit(model: Model | str, data, init=None) -> FitResult:
    """Fit a model to (x, y) data by damped least squares.

    ``init`` maps the model's parameter names, and no others, to finite
    starting values; without it the model's documented default guess is
    used.  A non-finite data point is a validation error.
    Singular normal equations at every damping level yield a result with
    ``converged=False`` rather than an exception; a non-finite model value
    at the accepted parameters is a domain error.
    """
    if isinstance(model, str):
        model = get_model(model)
    x, y = _prepare_data(data)
    if not (finite := np.isfinite(x) & np.isfinite(y)).all():
        i = int(np.argmin(finite))
        point = (float(x[i]), float(y[i]))
        raise ValidationError(f"{model.id}: data point #{i + 1} {point} is not finite")
    if x.size < model.n_params:
        raise ValidationError(
            f"{model.id}: {x.size} data points cannot determine {model.n_params} parameters"
        )
    if not model.x_in_domain(x):
        raise DomainError(f"{model.id}: data abscissae outside the model domain")

    p = model.default_init(x, y) if init is None else _as_param_array(model, init)
    if not model.params_in_domain(p, x):
        raise DomainError(f"{model.id}: initial parameters outside the model domain")

    def residual(params):
        return y - model.evaluate(params, x)

    r = residual(p)
    if not np.all(np.isfinite(r)):
        raise DomainError(f"{model.id}: model is not finite at the initial parameters")
    sse = float(r @ r)
    trace = [sse]
    lam = _INITIAL_LAMBDA
    converged = False
    iterations = 0

    for _ in range(_MAX_ITERATIONS):
        iterations += 1
        jac = forward_jacobian(residual, p, _JACOBIAN_REL_STEP, r)
        grad = jac.T @ r
        if np.all(np.isfinite(grad)) and float(np.max(np.abs(grad))) < _GRADIENT_TOL:
            converged = True
            break
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        diag[~(diag > 0)] = 1.0
        stepped = False
        while lam <= _MAX_LAMBDA:
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= _LAMBDA_UP
                continue
            p_try = p + delta
            if np.all(np.isfinite(p_try)) and model.params_in_domain(p_try, x):
                r_try = residual(p_try)
                if np.all(np.isfinite(r_try)):
                    sse_try = float(r_try @ r_try)
                    if sse_try < sse:
                        p, r, sse = p_try, r_try, sse_try
                        trace.append(sse)
                        lam = max(lam * _LAMBDA_DOWN, _MIN_LAMBDA)
                        stepped = True
                        step_norm = float(np.linalg.norm(delta))
                        if step_norm < _STEP_TOL * (float(np.linalg.norm(p)) + _STEP_TOL):
                            converged = True
                        break
            lam *= _LAMBDA_UP
        if not stepped or converged:
            break

    stderr = _standard_errors(model, residual, p, r, sse)
    derived = model.derived(p) if model.derived is not None else {}
    return FitResult(
        params=dict(zip(model.param_names, (float(v) for v in p))),
        stderr=stderr,
        derived={k: float(v) for k, v in derived.items()},
        sse=sse,
        iterations=iterations,
        converged=converged,
        final_lambda=lam,
        sse_trace=tuple(trace),
    )


def _standard_errors(model, residual, p, r, sse):
    """Asymptotic per-parameter errors from the final Jacobian."""
    names = model.param_names
    dof = r.size - model.n_params
    if dof <= 0:
        return {name: float("nan") for name in names}
    jac = forward_jacobian(residual, p, _JACOBIAN_REL_STEP, r)
    try:
        cov = np.linalg.inv(jac.T @ jac) * (sse / dof)
    except np.linalg.LinAlgError:
        return {name: float("nan") for name in names}
    with np.errstate(invalid="ignore"):
        errs = np.sqrt(np.diag(cov))
    return dict(zip(names, (float(e) for e in errs)))
