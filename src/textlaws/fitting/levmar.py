"""Damped least-squares (Levenberg-Marquardt) curve fitting.

The damping loop only ever accepts a step that lowers the sum of squared
residuals, and the normal equations use Marquardt's diagonal scaling so
parameters of very different magnitudes condition equally.  The damping
factor follows Nielsen's gain ratio (Madsen, Nielsen & Tingleff, *Methods
for Non-Linear Least Squares Problems*, IMM DTU 2004): an accepted step
scales it by how well the linear model predicted the decrease, and each
rejection in a row grows it twice as fast as the one before.  Derivatives
are the model's closed-form ``jacobian``, taken from the model value the
residual already holds.  A fit has converged when a step no longer moves
the parameters or when the Gauss-Newton model predicts a further decrease
below a fixed fraction of the SSE, so the test scales with the data.

A model with an ``amplitude``, a parameter its value is proportional to,
is fitted by variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10
(1973) 413-432; Kaufman, BIT 15 (1975) 49-57).  For the other parameters
the best amplitude is g^T y / g^T g, with g the model at unit amplitude, so
the loop steps those parameters alone: it fills the amplitude in at each
trial and takes Kaufman's Jacobian, the other parameters' rows projected
off g.  The standard errors still come from the full Jacobian.

The loop makes no BLAS or LAPACK call, so its bytes depend on neither the
BLAS kernel nor its thread count.  Each product over the data points (the
sums of squares, J r and J J^T) is one ``np.add.reduce`` over the
elementwise products of contiguous rows, numpy's pairwise sum.  The damped
step, the decrease test and the standard errors solve systems of two or
three unknowns by Gaussian elimination with partial pivoting over Python
floats; a zero or non-finite pivot counts as singular.  So identical inputs
reproduce the parameter trajectory bit for bit.  The settings of the loop
are fixed constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, ValidationError
from .models import Model, _as_param_array, get_model


# fixed settings of the damping loop
_MAX_ITERATIONS = 200
# converged once the Gauss-Newton step would lower the SSE by less than this share
_DECREASE_TOL = 1e-12
_STEP_TOL = 1e-10
_INITIAL_LAMBDA = 1e-3
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
    used.  The start value of a model's ``amplitude`` is replaced by its
    closed form at the other start values.  A non-finite data point is a
    validation error.
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

    # the loop steps q: every parameter, or all but the amplitude k
    k = None if model.amplitude is None else model.param_names.index(model.amplitude)

    def trial(q):
        """Full parameters and model value at q; None outside the domain or for a zero model."""
        p = q if k is None else np.insert(q, k, 1.0)
        if not model.params_in_domain(p, x):
            return None
        f = model.evaluate(p, x)
        if k is None:
            return p, f
        gg = _dot(f, f)
        if not 0.0 < gg < np.inf:
            return None
        p[k] = _dot(f, y) / gg
        return p, p[k] * f

    q = p if k is None else np.delete(p, k)
    start = trial(q)
    if start is None or not np.all(np.isfinite(y - start[1])):
        raise DomainError(f"{model.id}: model is not finite at the initial parameters")
    p, f = start
    r = y - f
    sse = _dot(r, r)
    trace = [sse]
    lam, nu = _INITIAL_LAMBDA, 2.0
    converged = False
    iterations = 0
    full = None

    for _ in range(_MAX_ITERATIONS):
        iterations += 1
        # df/dp, one row per parameter; J^T r is minus half the gradient of the SSE
        full = model.jacobian(p, x, f)
        jac = full if k is None else _projected(full, k)
        jtr = np.add.reduce(jac * r, axis=1)
        jtj = _gram(jac)
        diag = np.array([row[i] if row[i] > 0 else 1.0 for i, row in enumerate(jtj)])
        if 0.0 <= _gauss_newton_decrease(jtj, jtr) <= _DECREASE_TOL * sse:
            converged = True
            break
        stepped = False
        while lam <= _MAX_LAMBDA:
            delta = _solve(jtj, jtr, lam * diag)
            if delta is None:
                lam, nu = lam * nu, 2.0 * nu
                continue
            q_try = q + delta
            if np.all(np.isfinite(q_try)) and (stepped_to := trial(q_try)) is not None:
                p_try, f_try = stepped_to
                r_try = y - f_try
                if np.all(np.isfinite(r_try)):
                    sse_try = _dot(r_try, r_try)
                    if sse_try < sse:
                        # actual over predicted decrease; the prediction is positive
                        gain = (sse - sse_try) / _dot(delta, lam * diag * delta + jtr)
                        lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), _MIN_LAMBDA)
                        nu = 2.0
                        q, p, f, r, sse = q_try, p_try, f_try, r_try, sse_try
                        trace.append(sse)
                        full = None
                        stepped = True
                        step_norm = float(np.sqrt(_dot(delta, delta)))
                        if step_norm < _STEP_TOL * (float(np.sqrt(_dot(q, q))) + _STEP_TOL):
                            converged = True
                        break
            lam, nu = lam * nu, 2.0 * nu
        if not stepped or converged:
            break

    jac = model.jacobian(p, x, f) if full is None else full
    stderr = _standard_errors(model.param_names, jac, sse)
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


def _dot(a, b) -> float:
    """a . b as one pairwise sum of the elementwise products."""
    return float(np.add.reduce(a * b))


def _gram(jac) -> list[list[float]]:
    """J J^T of the Jacobian rows as lists of Python floats.

    Each entry is one pairwise sum of a row product; products commute, so
    the matrix is exactly symmetric.
    """
    return [np.add.reduce(jac * row, axis=1).tolist() for row in jac]


def _solve(a, b, shift=None) -> np.ndarray | None:
    """x with (a + diag(shift)) x = b for a small system; None when it is singular.

    ``a`` is a list of rows, ``b`` and ``shift`` are vectors.  Gaussian
    elimination with partial pivoting over Python floats; a zero or
    non-finite pivot counts as singular.
    """
    rows = [row + [v] for row, v in zip(a, np.asarray(b).tolist())]
    n = len(rows)
    if shift is not None:
        for i, s in enumerate(np.asarray(shift).tolist()):
            rows[i][i] += s
    for col in range(n):
        top = col
        for i in range(col + 1, n):
            if abs(rows[i][col]) > abs(rows[top][col]):
                top = i
        head = rows[top]
        rows[top] = rows[col]
        rows[col] = head
        pivot = head[col]
        if not 0.0 < abs(pivot) < np.inf:
            return None
        for row in rows[col + 1:]:
            factor = row[col] / pivot
            for j in range(col + 1, n + 1):
                row[j] -= factor * head[j]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = row[n]
        for j in range(i + 1, n):
            acc -= row[j] * x[j]
        x[i] = acc / row[i]
    return np.array(x)


def _projected(jac, k):
    """Kaufman's Jacobian: the rows of all parameters but k, projected off row k.

    Row k is the model at unit amplitude, up to a factor.
    """
    g = jac[k]
    gg = _dot(g, g)
    rows = np.delete(jac, k, axis=0)
    # one row at a time, so no temporary is larger than a row
    for row in rows:
        row -= _dot(row, g) / gg * g
    return rows


def _gauss_newton_decrease(jtj, jtr):
    """r^T J (J^T J)^-1 J^T r, the SSE decrease the undamped step predicts.

    Singular or indefinite normal equations give nan or a negative value.
    """
    step = _solve(jtj, jtr)
    return float("nan") if step is None else _dot(jtr, step)


def _standard_errors(names, jac, sse):
    """Asymptotic per-parameter errors from the Jacobian rows at the fitted parameters.

    Each variance is a diagonal entry of (J J^T)^-1, solved for column by column.
    """
    dof = jac.shape[1] - len(names)
    if dof <= 0:
        return {name: float("nan") for name in names}
    gram = _gram(jac)
    columns = [_solve(gram, unit) for unit in np.eye(len(names)).tolist()]
    if any(column is None for column in columns):
        return {name: float("nan") for name in names}
    variances = np.array([column[i] for i, column in enumerate(columns)]) * (sse / dof)
    with np.errstate(invalid="ignore"):
        errs = np.sqrt(variances)
    return dict(zip(names, (float(e) for e in errs)))
