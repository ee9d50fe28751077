"""Importance-sampling evaluation of a target policy against logged data.

Each trajectory gets one weight, the product over its steps of
p_target(a_t | s_t) / p_behavior(a_t | s_t). Products run in log space; a
zero in the numerator short-circuits the whole trajectory to weight zero,
and a non-positive denominator is a hard error because the logged action was
taken, so the behavior model must give it positive mass.

Estimators:

* ``wis_estimate``: sum(w * G) / sum(w), self-normalized.
* ``is_estimate``: mean(w * G), unbiased under correct behavior
  probabilities but heavy-tailed.

Both report the effective sample size (sum w)^2 / sum(w^2), which equals n
exactly when all weights are one (e.g. evaluating the behavior model against
itself) and collapses toward 1 as the mass concentrates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .checks import OneOf
from .data import StepData
from .errors import ClinpolError


class OPEError(ClinpolError):
    pass


class SupportViolationError(OPEError):
    """The behavior model assigns zero probability to a logged action."""


class NoOverlapError(OPEError):
    """Every trajectory weight is zero; the estimate is undefined."""


@dataclass(frozen=True, eq=False)
class ImportanceWeights:
    """Per-trajectory weights, returns and lengths: entry ``j`` of each is
    trajectory ``j`` of the data, whose id is ``traj_ids[j]`` there."""

    weights: np.ndarray
    returns: np.ndarray
    lengths: np.ndarray

    def __len__(self):
        return len(self.weights)

    @classmethod
    def joined(cls, parts, shared: "ImportanceWeights | None" = None) -> "ImportanceWeights":
        """The weights of consecutive cohort parts as those of one cohort.

        A weight, return and length is a sum over its own trajectory's rows,
        so the joined arrays equal those of the whole cohort bit for bit;
        the estimators then run once over them. ``shared``, another policy's
        weights joined from the same parts, lends its returns and lengths, so
        every policy reads one copy of them.
        """
        weights = np.concatenate([p.weights for p in parts] or [np.empty(0)])
        if shared is not None:
            return replace(shared, weights=weights)
        return cls(weights, *(np.concatenate([getattr(p, name) for p in parts] or [np.empty(0)])
                              for name in ("returns", "lengths")))


@dataclass(frozen=True)
class OPEResult:
    value: float
    ess: float
    n: int
    estimator: str


def importance_weights(policy, behavior_model, data: StepData,
                       evaluation=None) -> ImportanceWeights:
    """Per-trajectory importance weights of ``policy`` against ``behavior_model``.

    ``data`` must hold complete trajectories: the weight is a product over
    every logged step, so a row subset would silently drop factors, and one
    that leaves a trajectory no rows raises ``OPEError``. ``evaluation``, a
    :class:`~clinpol.behavior.Evaluation` of ``behavior_model`` on ``data``,
    is handed to the policy and supplies the denominator, so neither queries
    the model again; a record for another model or ``StepData`` raises
    ``RuntimeError``.
    """
    if evaluation is not None:
        evaluation.check(behavior_model, data.states)
        if evaluation.data is not data:
            raise RuntimeError("evaluation record used with a different StepData")
    lengths = data.trajectory_lengths()
    if not lengths.all():  # argmin is then the first trajectory with no rows
        raise OPEError(f"trajectory {data.traj_ids[int(np.argmin(lengths))]!r} has no rows "
                       "in the data; importance weights need whole trajectories")
    p_pi = policy.probabilities_batch(data.states, data.prev_actions, data.stages,
                                      evaluation=evaluation)
    p_mu = evaluation.probs if evaluation is not None else (
        behavior_model.action_probabilities_batch(data.states, data.prev_actions,
                                                  data.stages))
    rows = np.arange(len(data.actions))
    num = p_pi[rows, data.actions]
    den = p_mu[rows, data.actions]

    bad = ~(den > 0.0) | ~np.isfinite(den)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SupportViolationError(
            "behavior support violation: logged action "
            f"{data.actions[i]} at stage {data.stages[i]} of trajectory "
            f"{data.traj_ids[data.traj_index[i]]!r} has behavior probability "
            f"{den[i]!r}"
        )

    n_traj = len(data.traj_ids)
    zero_num = num == 0.0
    with np.errstate(divide="ignore"):
        log_ratio = np.where(zero_num, 0.0, np.log(num) - np.log(den))
    log_w = np.bincount(data.traj_index, weights=log_ratio, minlength=n_traj)
    dead = np.bincount(data.traj_index, weights=zero_num, minlength=n_traj) > 0
    w = np.exp(log_w)
    w[dead] = 0.0
    # the returns and lengths are computed once per StepData, for every policy
    return ImportanceWeights(w, data.trajectory_returns(), data.trajectory_lengths())


def _arrays(weights: ImportanceWeights) -> tuple[np.ndarray, np.ndarray]:
    if len(weights) == 0:
        raise OPEError("no trajectories to estimate from")
    if not np.any(weights.weights > 0.0):
        raise NoOverlapError(
            "no overlap mass: every trajectory weight is zero under the target policy"
        )
    return weights.weights, weights.returns


def effective_sample_size(weights) -> float:
    """(sum w)^2 / sum(w^2); equals n for uniform weights, 1 for a point mass."""
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0 or not np.any(w > 0.0):
        raise OPEError("effective sample size undefined: no positive weights")
    return float(w.sum() ** 2 / np.sum(w**2))


def wis_estimate(weights: ImportanceWeights) -> OPEResult:
    w, g = _arrays(weights)
    return OPEResult(float(np.sum(w * g) / np.sum(w)), effective_sample_size(w),
                     len(w), "wis")


def is_estimate(weights: ImportanceWeights) -> OPEResult:
    w, g = _arrays(weights)
    return OPEResult(float(np.mean(w * g)), effective_sample_size(w), len(w), "is")


ESTIMATORS = {"wis": wis_estimate, "is": is_estimate}
ESTIMATOR = OneOf(ESTIMATORS, "estimator", "estimators")


def median_iqr(values) -> tuple[float, float, float]:
    """Median and quartiles with linear interpolation between order statistics."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise OPEError("median undefined for an empty collection")
    q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0])
    return float(med), float(q1), float(q3)
