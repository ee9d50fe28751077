"""Target policies derived from a fitted behavior model.

All policies map a state (plus previous action and stage) to a distribution
over the K treatments:

* ``BehaviorPolicy`` returns the behavior model's own distribution unchanged.
* ``TopKPolicy`` keeps the k most probable treatments (ties to the lower
  action id), zeroes the rest, and renormalizes. With k=K it short-circuits
  and reproduces the behavior distribution bit for bit.
* ``BestOutcomePolicy`` deterministically picks, among the top-k treatments,
  the one with the best leaf-average outcome; treatments whose leaf never saw
  them are skipped, and if none carries data it falls back to the top-1.
* ``SwitchAdjustedPolicy`` shifts a switch-composed model's probability of
  changing treatment by a constant p1 (clamped to [0, 1], with a clamp-event
  counter), spreading the switch mass over the top-k of the conditional
  switch distribution. At t=1 there is no stay/switch split to adjust and it
  behaves like plain top-k.
* ``RandomPolicy`` is uniform, or a per-state deterministic uniform draw when
  given a seed (replayable: the same state always maps to the same action).
* ``soften`` mixes any policy with the uniform distribution,
  p' = (1 - K*eps) * p + eps, so every action keeps at least eps mass.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .behavior import (BaselineSwitchModel, SwitchTreatmentModel, _as_batch,
                       _descending_order)
from .data import NONE_ACTION
from .errors import ClinpolError


class PolicyError(ClinpolError):
    pass


class _PolicyBase:
    """The model a policy transforms, and a scalar convenience wrapper over
    the batch query.

    ``probabilities_batch`` takes an optional ``evaluation``, an
    :class:`~clinpol.behavior.Evaluation` of the policy's model on the same
    rows, and then transforms its arrays instead of querying the model.
    """

    n_actions: int

    def __init__(self, model):
        self.model = model
        self.n_actions = model.n_actions

    def probabilities(self, state, prev_action, t: int) -> np.ndarray:
        prev = NONE_ACTION if prev_action is None else int(prev_action)
        return self.probabilities_batch(_as_batch(state), [prev], [t])[0]

    def descriptor(self) -> dict:
        raise NotImplementedError


def _model_probs(model, states, prev_actions, stages, evaluation):
    if evaluation is None:
        return model.action_probabilities_batch(states, prev_actions, stages)
    evaluation.check(model, states)
    return evaluation.probs


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
        return _model_probs(self.model, states, prev_actions, stages, evaluation)

    def descriptor(self) -> dict:
        return {"type": "behavior"}


class TopKPolicy(_TopKBase):
    """Renormalized restriction to the k most probable treatments."""

    def probabilities_batch(self, states, prev_actions, stages, evaluation=None) -> np.ndarray:
        p = _model_probs(self.model, states, prev_actions, stages, evaluation)
        return _top_k(p, self.k, None if evaluation is None else evaluation.order)

    def descriptor(self) -> dict:
        return {"type": "mc", "k": self.k}


class BestOutcomePolicy(_TopKBase):
    """Deterministic argmax of leaf-average outcome over the top-k set."""

    def probabilities_batch(self, states, prev_actions, stages, evaluation=None) -> np.ndarray:
        p = _model_probs(self.model, states, prev_actions, stages, evaluation)
        if evaluation is None:
            order = _descending_order(p)
            outcomes = self.model.outcome_batch(states, prev_actions, stages)
        else:
            order, outcomes = evaluation.order, evaluation.outcomes
        candidates = np.where(_top_k_sets(order, self.k) & ~np.isnan(outcomes),
                              outcomes, -np.inf)
        # argmax hits the first maximum, so outcome ties go to the lower id
        best = np.argmax(candidates, axis=1)
        # where no action in the top-k set carries outcome data, take the top-1
        no_data = ~np.isfinite(candidates.max(axis=1))
        best[no_data] = order[no_data, 0]
        out = np.zeros_like(p)
        out[np.arange(len(p)), best] = 1.0
        return out

    def descriptor(self) -> dict:
        return {"type": "mc_o", "k": self.k}


class SwitchAdjustedPolicy(_TopKBase):
    """Top-k policy over a switch-composed model with a shifted switch rate.

    The adjusted switch probability is clamp(p_switch + p1, 0, 1); staying
    keeps the complement, and the switch mass follows the model's conditional
    switch distribution restricted to its top-k treatments. Clamping events
    are counted in ``clamp_events`` (each one flags a state where the target
    leaves the behavior support, inflating evaluation variance).
    """

    def __init__(self, model, k: int, p1: float):
        if not isinstance(model, (SwitchTreatmentModel, BaselineSwitchModel)):
            raise TypeError(
                "switch adjustment needs a switch-composed model (dts or dtbls); "
                f"got {type(model).__name__}"
            )
        super().__init__(model, k)
        if not (-1.0 <= p1 <= 1.0):
            raise PolicyError(f"p1 must lie in [-1, 1], got {p1}")
        self.p1 = float(p1)
        self.clamp_events = 0
        self.queries = 0

    @property
    def clamp_rate(self) -> float:
        return self.clamp_events / self.queries if self.queries else 0.0

    def probabilities_batch(self, states, prev_actions, stages, evaluation=None) -> np.ndarray:
        prev = np.asarray(prev_actions, dtype=np.int64)
        t = np.asarray(stages, dtype=np.int64)
        first, rest = t == 1, t != 1
        if evaluation is not None:
            evaluation.check(self.model, states)
            p, order = evaluation.probs[first], evaluation.order[first]
            ps, q = evaluation.switch, evaluation.conditional
        else:
            states, order = _as_batch(states), None
            if np.any(first):
                p = self.model.action_probabilities_batch(states[first], prev[first], t[first])
            if np.any(rest):
                ps = self.model.switch_probability_batch(states[rest])
                q = self.model.conditional_switch_batch(states[rest], prev[rest])
        out = np.empty((len(t), self.n_actions), dtype=np.float64)
        if np.any(first):
            # no previous treatment at t=1: nothing to adjust there
            out[first] = _top_k(p, self.k, order)
        if np.any(rest):
            q = _top_k(q, self.k)
            shifted = ps + self.p1
            clamped = np.clip(shifted, 0.0, 1.0)
            self.clamp_events += int(np.sum((shifted < 0.0) | (shifted > 1.0)))
            self.queries += int(len(ps))
            adjusted = clamped[:, None] * q
            adjusted[np.arange(len(ps)), prev[rest]] = 1.0 - clamped
            out[rest] = adjusted
        return out

    def descriptor(self) -> dict:
        return {"type": "mc_switch_adj", "k": self.k, "p1": self.p1}


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

    def descriptor(self) -> dict:
        d = {"type": "random"}
        if self.deterministic_seed is not None:
            d["seed"] = self.deterministic_seed
        return d


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

    def descriptor(self) -> dict:
        d = dict(self.inner.descriptor())
        d["epsilon"] = self.epsilon
        return d


def soften(policy, epsilon: float):
    """Wrap a policy so every action keeps at least ``epsilon`` probability."""
    if epsilon == 0.0:
        return policy
    return SoftenedPolicy(policy, epsilon)


POLICY_TYPES = ("behavior", "mc", "mc_o", "mc_switch_adj", "random")


def build_policy(descriptor: dict, model):
    """Construct a policy from a descriptor dict {type, k, p1, epsilon, seed}."""
    if not isinstance(descriptor, dict) or "type" not in descriptor:
        raise PolicyError(f"policy descriptor needs a 'type' key, got {descriptor!r}")
    ptype = descriptor["type"]
    if ptype not in POLICY_TYPES:
        raise PolicyError(
            f"unknown policy type {ptype!r}; valid types are {', '.join(POLICY_TYPES)}"
        )
    K = model.n_actions

    def need_k():
        k = descriptor.get("k")
        if not isinstance(k, int) or isinstance(k, bool) or not (1 <= k <= K):
            raise PolicyError(
                f"policy {ptype!r} needs an integer k in [1, {K}], got {k!r}"
            )
        return k

    def number(key):
        try:
            return float(descriptor.get(key, 0.0))
        except (TypeError, ValueError):
            raise PolicyError(f"policy {ptype!r}: {key} must be a number, "
                              f"got {descriptor[key]!r}") from None

    if ptype == "behavior":
        policy = BehaviorPolicy(model)
    elif ptype == "mc":
        policy = TopKPolicy(model, need_k())
    elif ptype == "mc_o":
        policy = BestOutcomePolicy(model, need_k())
    elif ptype == "mc_switch_adj":
        policy = SwitchAdjustedPolicy(model, need_k(), number("p1"))
    else:
        policy = RandomPolicy(K, descriptor.get("seed"))

    return soften(policy, number("epsilon"))
