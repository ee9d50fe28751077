"""Per-class sigmoid recalibration of probabilistic classifier scores.

Each class gets its own unregularized logistic regression of the one-vs-rest
label indicator on the raw score (slope and intercept, initialized at 1 and 0
and fitted by damped Newton iterations to a fixed tolerance). Applying the
model maps each class score through its sigmoid and renormalizes the result
onto the probability simplex. A class whose indicator never varies in the
fitting data gets an identity map instead; fitting sigmoids to one-class data
diverges.

The sigmoid is :func:`_expit`, which reproduces ``scipy.special.expit`` bit
for bit without importing scipy: ``1 / (1 + exp(-x))`` with the C library's
``exp``, reached through :func:`math.exp`. Neither ``np.exp`` nor a closed
form may stand in for it. NumPy's vectorized ``exp`` differs from the C
library's in the last bit on about 2% of arguments, and a rearranged formula
rounds differently; either would change fitted slopes and calibrated
probabilities. It makes one Python call per element, which is cheap here:
the fit maps only the distinct scores, and a behavior model maps its leaf
tables, a row per leaf, not a row per query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import BOOL, NUMBER, Items, member
from .errors import ClinpolError


class CalibrationError(ClinpolError):
    pass


@dataclass
class CalibrationModel:
    """Per-class (slope, intercept) pairs plus identity flags for degenerate classes."""

    slope: np.ndarray
    intercept: np.ndarray
    identity: np.ndarray

    @property
    def n_classes(self) -> int:
        return len(self.slope)

    def to_json(self) -> dict:
        return {
            "slope": [float(v) for v in self.slope],
            "intercept": [float(v) for v in self.intercept],
            "identity": [bool(v) for v in self.identity],
        }

    @classmethod
    def from_json(cls, obj) -> "CalibrationModel":
        """The model :meth:`to_json` wrote; a missing key, a value that is not
        a list of finite numbers (of booleans, for ``identity``) or lists of
        unequal length raise a :class:`CalibrationError`."""
        def read(key, kind):
            return member(obj, key, Items(kind), CalibrationError, "calibration JSON")

        cm = cls(slope=np.array(read("slope", NUMBER), dtype=np.float64),
                 intercept=np.array(read("intercept", NUMBER), dtype=np.float64),
                 identity=np.array(read("identity", BOOL), dtype=bool))
        if not cm.slope.shape == cm.intercept.shape == cm.identity.shape:
            raise CalibrationError("calibration slope, intercept and identity are not "
                                   "lists of one length")
        return cm


def identity_calibration(n_classes: int) -> CalibrationModel:
    return CalibrationModel(
        slope=np.ones(n_classes),
        intercept=np.zeros(n_classes),
        identity=np.ones(n_classes, dtype=bool),
    )


def _sigmoid(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        # exp(-v) is +inf in C, and 1 / (1 + inf) is 0
        return 0.0


def _expit(v) -> np.ndarray:
    """``scipy.special.expit`` bit for bit, one libm call per element."""
    v = np.asarray(v, dtype=np.float64)
    return np.array([_sigmoid(u) for u in v.ravel().tolist()],
                    dtype=np.float64).reshape(v.shape)


# a Newton fit stops once a step moves both parameters by less than TOL, once
# the objective falls by less than TOL * 1e-3, or after MAX_ITER steps
TOL = 1e-8
MAX_ITER = 100


def _fit_sigmoid(x, y, tol, max_iter):
    """Two-parameter logistic MLE by Newton's method with step halving."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xx = x * x
    # b * xu[inv] + a is elementwise b * x + a, so every elementwise map of
    # it (the sigmoid, the log-partition) needs only the distinct scores
    xu, inv = np.unique(x, return_inverse=True)
    b, a = 1.0, 0.0

    def nll(b_, a_):
        zu = b_ * xu + a_
        return float(np.sum(np.logaddexp(0.0, zu)[inv] - y * zu[inv]))

    # current always belongs to the accepted (b, a): an accepted line-search
    # point is exactly the update, so its objective value carries over
    current = nll(b, a)
    for _ in range(max_iter):
        p = _expit(b * xu + a)[inv]
        r = p - y
        g = np.array([np.dot(r, x), np.sum(r)])
        w = p * (1.0 - p)
        h11 = np.dot(w, xx)
        h12 = np.dot(w, x)
        h22 = np.sum(w)
        # tiny ridge keeps the solve well-posed on separable or constant scores
        H = np.array([[h11 + 1e-10, h12], [h12, h22 + 1e-10]])
        step = np.linalg.solve(H, g)
        scale = 1.0
        for _ in range(25):
            new = nll(b - scale * step[0], a - scale * step[1])
            if new <= current + 1e-12:
                break
            scale *= 0.5
        else:
            # every halving failed, so the step taken is half the last one tried
            new = nll(b - scale * step[0], a - scale * step[1])
        b -= scale * step[0]
        a -= scale * step[1]
        if max(abs(scale * step[0]), abs(scale * step[1])) < tol or current - new < tol * 1e-3:
            break
        current = new
    return float(b), float(a)


def fit_calibration(scores, labels) -> CalibrationModel:
    """Fit one sigmoid per class on held-out (score, label) pairs.

    ``scores`` is an (n, C) matrix of raw class probabilities and ``labels``
    the observed class ids. Classes with all-positive or all-negative
    indicators keep the identity map.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 2:
        raise CalibrationError(f"scores must be (n, C), got shape {scores.shape}")
    n, C = scores.shape
    if len(labels) != n:
        raise CalibrationError(f"{n} score rows but {len(labels)} labels")
    if n < 2:
        raise CalibrationError("need at least 2 samples to fit calibration")
    if labels.min() < 0 or labels.max() >= C:
        raise CalibrationError(f"label outside [0, {C})")

    slope = np.ones(C)
    intercept = np.zeros(C)
    identity = np.zeros(C, dtype=bool)
    for c in range(C):
        y = (labels == c).astype(np.float64)
        if y.sum() == 0 or y.sum() == n:
            identity[c] = True
            continue
        slope[c], intercept[c] = _fit_sigmoid(scores[:, c], y, TOL, MAX_ITER)
    return CalibrationModel(slope=slope, intercept=intercept, identity=identity)


def apply_calibration_batch(cm: CalibrationModel, scores) -> np.ndarray:
    """Sigmoid-map each class column, then renormalize rows onto the simplex."""
    S = np.asarray(scores, dtype=np.float64)
    squeeze = S.ndim == 1
    if squeeze:
        S = S[None, :]
    if S.shape[1] != cm.n_classes:
        raise CalibrationError(f"expected {cm.n_classes} columns, got {S.shape[1]}")
    mapped = S * cm.slope + cm.intercept
    # an identity column is replaced by S below, so it needs no sigmoid
    for c in np.flatnonzero(~cm.identity):
        mapped[:, c] = _expit(mapped[:, c])
    out = np.where(cm.identity, S, mapped)
    totals = out.sum(axis=1, keepdims=True)
    # an all-zero row can only come from identity maps on a zero vector
    uniform = np.full_like(out, 1.0 / cm.n_classes)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(totals > 0, out / np.where(totals > 0, totals, 1.0), uniform)
    return out[0] if squeeze else out
