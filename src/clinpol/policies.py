"""Target policies derived from a fitted behavior model.

All policies map a state (plus previous action and stage) to a distribution
over the K treatments. Every model-backed policy transforms one
:class:`~clinpol.behavior.Evaluation` of its model: the caller's record of
the model on the same rows, or, when the caller passes none, a record the
policy builds on the rows it is given.

* ``BehaviorPolicy`` returns the behavior model's own distribution unchanged.
* ``TopKPolicy`` keeps the k most probable treatments (ties to the lower
  action id), zeroes the rest, and renormalizes. With k=K it short-circuits
  and reproduces the behavior distribution bit for bit.
* ``BestOutcomePolicy`` deterministically picks, among the top-k treatments,
  the one with the best leaf-average outcome; treatments whose leaf never saw
  them are skipped, and if none carries data it falls back to the top-1.
* ``SwitchAdjustedPolicy`` shifts a switch-composed model's probability of
  changing treatment by a constant p1 (clamped to [0, 1]), spreading the
  switch mass over the top-k of the conditional switch distribution. At t=1
  there is no stay/switch split to adjust and it behaves like plain top-k.
* ``RandomPolicy`` is uniform, or a per-state deterministic uniform draw when
  given a seed (replayable: the same state always maps to the same action).
* ``soften`` mixes any policy with the uniform distribution,
  p' = (1 - K*eps) * p + eps, so every action keeps at least eps mass.

A descriptor, ``{"type", "k", "p1", "epsilon", "seed"}``, names a policy;
:func:`check_descriptor` is the one rule for which descriptors build.
"""

from __future__ import annotations

import hashlib
import struct
from types import SimpleNamespace

import numpy as np

from .behavior import COMPONENTS, Evaluation, _as_batch, _descending_order
from .checks import check_keys, is_integer, is_number
from .errors import ClinpolError


class PolicyError(ClinpolError):
    pass


class _PolicyBase:
    """The model a policy transforms.

    ``probabilities_batch`` takes an optional ``evaluation``, an
    :class:`~clinpol.behavior.Evaluation` of the policy's model on the same
    rows; without one the policy evaluates its model on those rows.
    """

    n_actions: int

    def __init__(self, model):
        self.model = model
        self.n_actions = model.n_actions

    def _record(self, states, prev_actions, stages, evaluation) -> Evaluation:
        if evaluation is None:
            rows = SimpleNamespace(states=states, prev_actions=prev_actions, stages=stages)
            return Evaluation(self.model, rows)
        evaluation.check(self.model, states)
        return evaluation


def _top_k_sets(order: np.ndarray, k: int) -> np.ndarray:
    """Per-row boolean mask of the first k actions of a descending ``order``.

    A stable sort on descending probability keeps equal entries in action-id
    order, so ties at the k-th rank resolve to the lower id.
    """
    mask = np.zeros(order.shape, dtype=bool)
    mask[np.repeat(np.arange(len(order)), k), order[:, :k].ravel()] = True
    return mask


def _top_k(p: np.ndarray, k: int, order: np.ndarray | None = None) -> np.ndarray:
    """Each row restricted to its k most probable actions, renormalized;
    ``p`` itself when k is every action."""
    if k == p.shape[1]:
        return p
    if order is None:
        order = _descending_order(p)
    restricted = np.where(_top_k_sets(order, k), p, 0.0)
    return restricted / restricted.sum(axis=1, keepdims=True)


class _TopKBase(_PolicyBase):
    """A policy that keeps the model's k most probable treatments."""

    def __init__(self, model, k: int):
        super().__init__(model)
        if not (1 <= k <= model.n_actions):
            raise PolicyError(f"k must be an integer in [1, {model.n_actions}], got {k}")
        self.k = int(k)


class BehaviorPolicy(_PolicyBase):
    """The cloned behavior itself, used for self-evaluation baselines."""

    def probabilities_batch(self, states, prev_actions, stages, evaluation=None) -> np.ndarray:
        return self._record(states, prev_actions, stages, evaluation).probs


class TopKPolicy(_TopKBase):
    """Renormalized restriction to the k most probable treatments."""

    def probabilities_batch(self, states, prev_actions, stages, evaluation=None) -> np.ndarray:
        e = self._record(states, prev_actions, stages, evaluation)
        return _top_k(e.probs, self.k, e.order)


class BestOutcomePolicy(_TopKBase):
    """Deterministic argmax of leaf-average outcome over the top-k set."""

    def probabilities_batch(self, states, prev_actions, stages, evaluation=None) -> np.ndarray:
        e = self._record(states, prev_actions, stages, evaluation)
        order, outcomes = e.order, e.outcomes
        candidates = np.where(_top_k_sets(order, self.k) & ~np.isnan(outcomes),
                              outcomes, -np.inf)
        # argmax hits the first maximum, so outcome ties go to the lower id
        best = np.argmax(candidates, axis=1)
        # where no action in the top-k set carries outcome data, take the top-1
        no_data = ~np.isfinite(candidates.max(axis=1))
        best[no_data] = order[no_data, 0]
        out = np.zeros_like(e.probs)
        out[np.arange(len(out)), best] = 1.0
        return out


class SwitchAdjustedPolicy(_TopKBase):
    """Top-k policy over a switch-composed model with a shifted switch rate.

    The adjusted switch probability is clamp(p_switch + p1, 0, 1); staying
    keeps the complement, and the switch mass follows the model's conditional
    switch distribution restricted to its top-k treatments. A clamped row is
    one where the target leaves the behavior support, which inflates
    evaluation variance; the record's ``switch + p1`` shows which rows clamp.
    """

    def __init__(self, model, k: int, p1: float):
        if "switch" not in getattr(model, "trees", ()):
            raise TypeError(
                "switch adjustment needs a switch-composed model (dts or dtbls); "
                f"got {type(model).__name__}"
            )
        super().__init__(model, k)
        if not (-1.0 <= p1 <= 1.0):
            raise PolicyError(f"p1 must lie in [-1, 1], got {p1}")
        self.p1 = float(p1)

    def probabilities_batch(self, states, prev_actions, stages, evaluation=None) -> np.ndarray:
        e = self._record(states, prev_actions, stages, evaluation)
        prev = np.asarray(prev_actions, dtype=np.int64)
        t = np.asarray(stages, dtype=np.int64)
        first, rest = t == 1, t != 1
        out = np.empty((len(t), self.n_actions), dtype=np.float64)
        if np.any(first):
            # no previous treatment at t=1: nothing to adjust there
            out[first] = _top_k(e.probs[first], self.k, e.order[first])
        if np.any(rest):
            q = _top_k(e.conditional, self.k)
            clamped = np.clip(e.switch + self.p1, 0.0, 1.0)
            adjusted = clamped[:, None] * q
            adjusted[np.arange(len(q)), prev[rest]] = 1.0 - clamped
            out[rest] = adjusted
        return out


class RandomPolicy(_PolicyBase):
    """Uniform over all K actions; with a seed, a fixed per-state choice."""

    def __init__(self, n_actions: int, deterministic_seed: int | None = None):
        if n_actions < 2:
            raise PolicyError(f"K must be >= 2, got {n_actions}")
        self.n_actions = int(n_actions)
        self.deterministic_seed = deterministic_seed

    def probabilities_batch(self, states, prev_actions, stages, evaluation=None) -> np.ndarray:
        states = _as_batch(states)
        n = len(states)
        if self.deterministic_seed is None:
            return np.full((n, self.n_actions), 1.0 / self.n_actions)
        key = struct.pack("<q", int(self.deterministic_seed))
        out = np.zeros((n, self.n_actions))
        for i in range(n):
            h = hashlib.blake2b(states[i].tobytes(), digest_size=8, key=key)
            a = int.from_bytes(h.digest(), "little") % self.n_actions
            out[i, a] = 1.0
        return out


class SoftenedPolicy(_PolicyBase):
    """Mixture with the uniform distribution: p' = (1 - K*eps) * p + eps."""

    def __init__(self, inner, epsilon: float):
        self.inner = inner
        self.n_actions = inner.n_actions
        if not (0.0 <= epsilon <= 1.0 / self.n_actions):
            raise PolicyError(
                f"epsilon must lie in [0, 1/K] = [0, {1.0 / self.n_actions:.6g}], "
                f"got {epsilon}"
            )
        self.epsilon = float(epsilon)

    def probabilities_batch(self, states, prev_actions, stages, evaluation=None) -> np.ndarray:
        p = self.inner.probabilities_batch(states, prev_actions, stages, evaluation)
        if self.epsilon == 0.0:
            return p
        return (1.0 - self.n_actions * self.epsilon) * p + self.epsilon


def soften(policy, epsilon: float):
    """Wrap a policy so every action keeps at least ``epsilon`` probability."""
    if epsilon == 0.0:
        return policy
    return SoftenedPolicy(policy, epsilon)


POLICY_TYPES = ("behavior", "mc", "mc_o", "mc_switch_adj", "random")


def check_descriptor(desc, n_actions: int | None = None, model_kind: str | None = None):
    """Refuse, naming the key, a policy descriptor that cannot build a policy.

    ``type`` is one of :data:`POLICY_TYPES`, and no other key than ``k``,
    ``p1``, ``epsilon`` and ``seed`` is set. ``k``, which the top-k types
    need, is an integer >= 1; ``p1`` is a number in [-1, 1], ``epsilon`` one
    >= 0, and ``seed`` null or a 64-bit integer. When known, the number of
    actions ``n_actions`` bounds k by K and epsilon by 1/K, and the
    ``model_kind`` must be switch-composed for ``mc_switch_adj``.
    """
    if not isinstance(desc, dict) or "type" not in desc:
        raise PolicyError(f"policy descriptor needs a 'type' key, got {desc!r}")
    t = desc["type"]
    if not isinstance(t, str) or t not in POLICY_TYPES:
        raise PolicyError(
            f"unknown policy type {t!r}; valid types are {', '.join(POLICY_TYPES)}"
        )
    check_keys(desc, ("type", "k", "p1", "epsilon", "seed"), PolicyError,
               f"policy {t!r}: unknown keys")
    if "k" in desc or t in ("mc", "mc_o", "mc_switch_adj"):
        k = desc.get("k")
        if not is_integer(k) or k < 1 or (n_actions is not None and k > n_actions):
            bound = ">= 1" if n_actions is None else f"in [1, {n_actions}]"
            raise PolicyError(f"policy {t!r} needs an integer k {bound}, got {k!r}")
    for key in ("p1", "epsilon"):
        if key in desc and not is_number(desc[key]):
            raise PolicyError(f"policy {t!r}: {key} must be a number, got {desc[key]!r}")
    p1 = desc.get("p1", 0.0)
    if not -1.0 <= p1 <= 1.0:
        raise PolicyError(f"p1 must lie in [-1, 1], got {p1!r}")
    eps = desc.get("epsilon", 0.0)
    if eps < 0.0 or (n_actions is not None and eps > 1.0 / n_actions):
        bound = ("be >= 0" if n_actions is None
                 else f"lie in [0, 1/K] = [0, {1.0 / n_actions:.6g}]")
        raise PolicyError(f"epsilon must {bound}, got {eps!r}")
    seed = desc.get("seed")
    if seed is not None and not (is_integer(seed) and -2**63 <= seed < 2**63):
        raise PolicyError(f"policy {t!r}: seed must be null or a 64-bit integer, "
                          f"got {seed!r}")
    if (t == "mc_switch_adj" and model_kind is not None
            and "switch" not in COMPONENTS.get(model_kind, ())):
        raise PolicyError(f"policy {t!r} needs a switch-composed model "
                          f"(dts or dtbls), not {model_kind!r}")


def build_policy(descriptor: dict, model):
    """Construct the policy a descriptor names, once :func:`check_descriptor`
    accepts it for ``model``'s K and kind."""
    check_descriptor(descriptor, model.n_actions, model.kind)
    ptype, k = descriptor["type"], descriptor.get("k")
    if ptype == "behavior":
        policy = BehaviorPolicy(model)
    elif ptype == "mc":
        policy = TopKPolicy(model, k)
    elif ptype == "mc_o":
        policy = BestOutcomePolicy(model, k)
    elif ptype == "mc_switch_adj":
        policy = SwitchAdjustedPolicy(model, k, descriptor.get("p1", 0.0))
    else:
        policy = RandomPolicy(model.n_actions, descriptor.get("seed"))
    return soften(policy, descriptor.get("epsilon", 0.0))
