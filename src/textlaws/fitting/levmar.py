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

Everything of the size of the parameters is Python floats and lists: the
parameters, the step, the damping diagonal, J r, J J^T, and the solves of
two or three unknowns, by Gaussian elimination with partial pivoting (a
zero or non-finite pivot counts as singular).  A product of two such
vectors is summed left to right, the order numpy sums fewer than eight
terms in.  The data-sized vectors are what the model evaluates on.  A
``pointwise`` model takes and gives lists of Python floats, and each sum
over its points is ``math.fsum`` of the products, correctly rounded and so
independent of the order of the terms.  Other models take float arrays,
and each sum over the points is one ``np.add.reduce`` over the elementwise
products of contiguous rows, numpy's pairwise sum.  The loop makes no BLAS
or LAPACK call, so its bytes depend on neither the BLAS kernel nor its
thread count, and identical inputs reproduce the parameter trajectory bit
for bit.  The settings of the loop are fixed constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul, sub

import numpy as np

from ..errors import DomainError, ValidationError
from .models import Model, _fsum, _param_values, get_model


# fixed settings of the damping loop
_MAX_ITERATIONS = 200
# converged once the Gauss-Newton step would lower the SSE by less than this share
_DECREASE_TOL = 1e-12
_STEP_TOL = 1e-10
_INITIAL_LAMBDA = 1e-3
_MIN_LAMBDA = 1e-12
# a fit that needs more damping than this has stalled
_MAX_LAMBDA = 1e14
_NOT_PAIRS = "data must be a sequence of (x, y) pairs"


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


def _prepare_data(model: Model, data):
    """x and y of the (x, y) pairs: float lists for a pointwise model, else float arrays.

    A non-finite point is a validation error that names it.
    """
    if model.pointwise:
        try:
            pairs = [(float(x), float(y)) for x, y in data]
        except (TypeError, ValueError):
            raise ValidationError(_NOT_PAIRS) from None
        x, y = [px for px, _ in pairs], [py for _, py in pairs]
        finite = [math.isfinite(px) and math.isfinite(py) for px, py in pairs]
        bad = None if all(finite) else finite.index(False)
    else:
        # no pairs at all is shape (0, 2), so the caller reports too few points
        pairs = np.asarray(data, dtype=float) if len(data) else np.empty((0, 2))
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValidationError(_NOT_PAIRS)
        x, y = pairs[:, 0], pairs[:, 1]
        finite = np.isfinite(x) & np.isfinite(y)
        bad = None if finite.all() else int(np.argmin(finite))
    if bad is not None:
        point = (float(x[bad]), float(y[bad]))
        raise ValidationError(f"{model.id}: data point #{bad + 1} {point} is not finite")
    return x, y


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
    x, y = _prepare_data(model, data)
    if len(x) < model.n_params:
        raise ValidationError(
            f"{model.id}: {len(x)} data points cannot determine {model.n_params} parameters"
        )
    if not model.x_in_domain(x):
        raise DomainError(f"{model.id}: data abscissae outside the model domain")

    p = model.default_init(x, y) if init is None else _param_values(model, init)
    if not model.params_in_domain(p, x):
        raise DomainError(f"{model.id}: initial parameters outside the model domain")

    # the loop steps q: every parameter, or all but the amplitude k
    k = None if model.amplitude is None else model.param_names.index(model.amplitude)

    def trial(q):
        """Full parameters and model value at q; None outside the domain or for a zero model."""
        p = q if k is None else [*q[:k], 1.0, *q[k:]]
        if not model.params_in_domain(p, x):
            return None
        f = model.evaluate(p, x)
        if k is None:
            return p, f
        gg = _dot(f, f)
        if not 0.0 < gg < math.inf:
            return None
        p[k] = _dot(f, y) / gg
        return p, _scaled(p[k], f)

    q = p if k is None else p[:k] + p[k + 1:]
    start = trial(q)
    if start is None or not _finite(_minus(y, start[1])):
        raise DomainError(f"{model.id}: model is not finite at the initial parameters")
    p, f = start
    r = _minus(y, f)
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
        jtr = [_dot(row, r) for row in jac]
        jtj = _gram(jac)
        diag = [row[i] if row[i] > 0 else 1.0 for i, row in enumerate(jtj)]
        if 0.0 <= _gauss_newton_decrease(jtj, jtr) <= _DECREASE_TOL * sse:
            converged = True
            break
        stepped = False
        while lam <= _MAX_LAMBDA:
            damping = [lam * d for d in diag]
            delta = _solve(jtj, jtr, damping)
            if delta is None:
                lam, nu = lam * nu, 2.0 * nu
                continue
            q_try = [a + b for a, b in zip(q, delta)]
            if all(map(math.isfinite, q_try)) and (stepped_to := trial(q_try)) is not None:
                p_try, f_try = stepped_to
                r_try = _minus(y, f_try)
                if _finite(r_try):
                    sse_try = _dot(r_try, r_try)
                    if sse_try < sse:
                        # actual over predicted decrease; the prediction is positive
                        predicted = _inner(
                            delta, [s * d + g for s, d, g in zip(damping, delta, jtr)]
                        )
                        gain = (sse - sse_try) / predicted
                        lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), _MIN_LAMBDA)
                        nu = 2.0
                        q, p, f, r, sse = q_try, p_try, f_try, r_try, sse_try
                        trace.append(sse)
                        full = None
                        stepped = True
                        step_norm = math.sqrt(_inner(delta, delta))
                        if step_norm < _STEP_TOL * (math.sqrt(_inner(q, q)) + _STEP_TOL):
                            converged = True
                        break
            lam, nu = lam * nu, 2.0 * nu
        if not stepped or converged:
            break

    jac = model.jacobian(p, x, f) if full is None else full
    stderr = _standard_errors(model.param_names, jac, len(x), sse)
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


def _inner(a, b) -> float:
    """a . b of two parameter-sized lists, summed left to right from 0.0 as numpy does."""
    total = 0.0
    for u, v in zip(a, b):
        total += u * v
    return total


# The four operations on data-sized vectors: a pointwise model's float lists
# or float arrays.

def _dot(a, b) -> float:
    """a . b over the data points: fsum of the products of lists, one pairwise sum of arrays."""
    if isinstance(a, np.ndarray):
        return float(np.add.reduce(a * b))
    return _fsum(list(map(mul, a, b)))


def _minus(a, b):
    return a - b if isinstance(a, np.ndarray) else list(map(sub, a, b))


def _scaled(c: float, a):
    return c * a if isinstance(a, np.ndarray) else [c * v for v in a]


def _finite(a) -> bool:
    if isinstance(a, np.ndarray):
        return bool(np.all(np.isfinite(a)))
    return all(map(math.isfinite, a))


def _gram(jac) -> list[list[float]]:
    """J J^T of the Jacobian rows as lists of Python floats.

    Each entry is one ``_dot`` of two rows, whose products commute, so the
    matrix is exactly symmetric and each pair is summed once.
    """
    n = len(jac)
    gram = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = _dot(jac[i], jac[j])
    return gram


def _solve(a, b, shift=None) -> list[float] | None:
    """x with (a + diag(shift)) x = b for a small system; None when it is singular.

    ``a`` is a list of rows, ``b`` and ``shift`` are lists.  Gaussian
    elimination with partial pivoting over Python floats; a zero or
    non-finite pivot counts as singular.
    """
    rows = [row + [v] for row, v in zip(a, b)]
    n = len(rows)
    if shift is not None:
        for i, s in enumerate(shift):
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
        if not 0.0 < abs(pivot) < math.inf:
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
    return x


def _projected(jac, k):
    """Kaufman's Jacobian: the rows of all parameters but k, projected off row k.

    Row k is the model at unit amplitude, up to a factor.  One row at a
    time, so no temporary is larger than a row.
    """
    g = jac[k]
    gg = _dot(g, g)
    return [_minus(row, _scaled(_dot(row, g) / gg, g)) for i, row in enumerate(jac) if i != k]


def _gauss_newton_decrease(jtj, jtr):
    """r^T J (J^T J)^-1 J^T r, the SSE decrease the undamped step predicts.

    Singular or indefinite normal equations give nan or a negative value.
    """
    step = _solve(jtj, jtr)
    return math.nan if step is None else _inner(jtr, step)


def _standard_errors(names, jac, points, sse):
    """Asymptotic per-parameter errors from the Jacobian rows at the fitted parameters.

    Each variance is a diagonal entry of (J J^T)^-1, solved for column by column.
    """
    dof = points - len(names)
    if dof <= 0:
        return {name: math.nan for name in names}
    gram = _gram(jac)
    n = len(names)
    columns = [_solve(gram, [float(i == j) for j in range(n)]) for i in range(n)]
    if any(column is None for column in columns):
        return {name: math.nan for name in names}
    variances = [column[i] * (sse / dof) for i, column in enumerate(columns)]
    return {name: math.sqrt(v) if v >= 0.0 else math.nan for name, v in zip(names, variances)}
