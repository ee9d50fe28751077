"""Trajectory datasets for sequential treatment records.

A dataset is a cohort of per-patient trajectories stored as columns, one row
per step: the covariates observed *before* acting, the treatment chosen from
``K`` discrete options, and the reward realized after acting, with trajectory
offsets marking where each patient's rows start. ``from_records`` and the
JSONL loader share one conversion from parsed input to columns, which holds
every input check and runs them a chunk of columns at a time. Two interchange
formats are supported:

* JSONL: a header line ``{"schema": [...], "K": ..., "provenance": ...}``
  followed by one trajectory object per line.
* CSV: long format with columns ``id, t, action, reward, <features...>``,
  preceded by a ``# {...}`` comment line carrying K and provenance (plain CSV
  readers can skip it; the mandatory header row follows).

Model-ready matrices are produced in two stages: ``impute_and_encode`` fills
missing values with training-set statistics and one-hot expands categorical
features, then ``build_states`` assembles one state vector per step from the
current covariates, the previous action (with a distinguished "none" slot at
t=1), the previous reward, and optional history aggregates.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import dataclass, replace
from itertools import chain, compress, islice, repeat
from operator import itemgetter

import numpy as np

from .checks import is_integer, is_number
from .errors import ClinpolError

log = logging.getLogger(__name__)

NONE_ACTION = -1

NUMERIC = "numeric"
CATEGORICAL = "categorical"


class DatasetError(ClinpolError):
    """Base class for dataset construction and I/O failures."""


class ParseError(DatasetError):
    """A file could not be parsed; the message names the offending line."""


class SchemaError(DatasetError):
    """Data contradicts the declared schema (bad action id, unknown token, ...)."""


# ---------------------------------------------------------------------------
# schema and dataset containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Feature:
    """One covariate: a name, a kind, and categories if categorical."""

    name: str
    kind: str = NUMERIC
    categories: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise SchemaError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if not self.categories or len(self.categories) < 2:
                raise SchemaError(
                    f"feature {self.name!r}: categorical features need >= 2 categories"
                )
            if len(set(self.categories)) != len(self.categories):
                raise SchemaError(f"feature {self.name!r}: duplicate categories")
        elif self.categories is not None:
            raise SchemaError(f"feature {self.name!r}: numeric features take no categories")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered covariate declaration shared by every step of a dataset."""

    features: tuple[Feature, ...]

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature names in schema")

    def __iter__(self):
        return iter(self.features)

    def __len__(self):
        return len(self.features)

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.features]

    def encoded_names(self) -> list[str]:
        """Column names after one-hot expansion, in schema order."""
        cols: list[str] = []
        for f in self.features:
            if f.kind == NUMERIC:
                cols.append(f.name)
            else:
                cols.extend(f"{f.name}={c}" for c in f.categories)
        return cols

    def is_numeric(self) -> bool:
        return all(f.kind == NUMERIC for f in self.features)

    def to_json(self) -> list[dict]:
        return [
            {
                "name": f.name,
                "kind": f.kind,
                "categories": list(f.categories) if f.categories else None,
            }
            for f in self.features
        ]

    @classmethod
    def from_json(cls, obj) -> "FeatureSchema":
        try:
            feats = tuple(
                Feature(
                    name=str(d["name"]),
                    kind=str(d.get("kind", NUMERIC)),
                    categories=tuple(d["categories"]) if d.get("categories") else None,
                )
                for d in obj
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed schema entry: {exc}") from None
        return cls(feats)


@dataclass(eq=False)
class Dataset:
    """A cohort as columns under a shared schema and action space.

    Row ``r`` is one step: the covariates seen before acting, the action
    taken and the reward realized. Trajectory ``i`` is the rows
    ``offsets[i]:offsets[i + 1]``, in stage order, and ``ids[i]`` names it.
    ``covariates`` holds one column per schema feature: NaN where the value
    is missing, the category's index in the schema for a categorical value.
    """

    schema: FeatureSchema
    n_actions: int
    covariates: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    offsets: np.ndarray
    ids: list
    provenance: str = ""

    def __post_init__(self):
        if self.n_actions < 2:
            raise SchemaError(f"K must be >= 2, got {self.n_actions}")
        self.covariates = np.asarray(self.covariates, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.int64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.ids = list(self.ids)
        n = len(self.actions)
        if (self.covariates.shape != (n, len(self.schema))
                or self.rewards.shape != (n,)
                or self.offsets.shape != (len(self.ids) + 1,)
                or self.offsets[0] != 0 or self.offsets[-1] != n
                or np.any(np.diff(self.offsets) < 1)):
            raise DatasetError(
                "covariates, actions, rewards, offsets and ids do not describe "
                "one cohort of non-empty trajectories"
            )

    def __len__(self):
        return len(self.ids)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.schema == other.schema and self.n_actions == other.n_actions
                and self.ids == other.ids and self.provenance == other.provenance
                and np.array_equal(self.covariates, other.covariates, equal_nan=True)
                and np.array_equal(self.actions, other.actions)
                and np.array_equal(self.rewards, other.rewards)
                and np.array_equal(self.offsets, other.offsets))

    @property
    def n_steps(self) -> int:
        return len(self.actions)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def take(self, index) -> "Dataset":
        """The trajectories at ``index``, in that order."""
        index = np.asarray(index, dtype=np.int64)
        lengths = self.lengths[index]
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        rows = np.arange(offsets[-1]) + np.repeat(self.offsets[index] - offsets[:-1], lengths)
        return Dataset(schema=self.schema, n_actions=self.n_actions,
                       covariates=self.covariates[rows], actions=self.actions[rows],
                       rewards=self.rewards[rows], offsets=offsets,
                       ids=[self.ids[i] for i in index], provenance=self.provenance)

    def cumsum(self, values) -> np.ndarray:
        """Running sums of a per-step array within each trajectory.

        Each trajectory adds its own values left to right, through a padded
        (trajectory x stage) table, so the sums match a per-trajectory loop
        bit for bit.
        """
        lengths = self.lengths
        mask = np.arange(lengths.max(initial=0)) < lengths[:, None]
        table = np.zeros(mask.shape)
        table[mask] = values
        return np.cumsum(table, axis=1)[mask]

    def trajectory_of(self, row: int) -> str:
        """The id of the trajectory that holds step row ``row``."""
        return self.ids[int(np.searchsorted(self.offsets, row, side="right")) - 1]


def from_records(schema: FeatureSchema, n_actions: int, records,
                 provenance: str = "") -> Dataset:
    """Columns from ``(id, steps)`` records, each step ``(features, action, reward)``.

    ``load_jsonl`` shares this conversion from parsed input to a ``Dataset``,
    which holds every check on that input. ``features`` is a dict of feature names
    to values; an absent name or None is missing. An action is an int and a
    reward None or a number. A missing or non-finite reward cuts its
    trajectory before that step, and a trajectory cut at its first step is
    dropped. Records are consumed ``LOAD_CHUNK`` at a time, so a generator
    keeps only one chunk alive.
    """
    return _assemble(schema, n_actions, _record_chunks(records), provenance)


# Records converted per columnar pass. Small chunks keep the parsed objects
# young: a 20k-trajectory load then triggers no full garbage collection.
LOAD_CHUNK = 64
# Trajectories formatted per write; larger chunks raise peak memory.
SAVE_CHUNK = 256

_NUMBER = (int, float)
_NO_FEATURES: dict = {}  # the features of a JSON step that has none; never written to


def _assemble(schema: FeatureSchema, n_actions: int, chunks, provenance: str) -> Dataset:
    """A ``Dataset`` from chunks of up to ``LOAD_CHUNK`` records, checked a
    chunk of columns at a time.

    A chunk is ``(columns, records)``: ``columns`` is ``(ids, lengths,
    features, actions, rewards)`` over all the chunk's steps, or None if the
    records are not shaped as expected, and ``records()`` replays them as
    ``(id, steps)`` records. The column checks only decide whether a chunk is
    clean. A chunk they refuse goes through ``_check_records``, the
    record-by-record conversion, which logs as it goes and raises the chunk's
    first error with its message.
    """
    if n_actions < 2:
        raise SchemaError(f"K must be >= 2, got {n_actions}")
    # name -> None for a numeric feature, else category -> index (None -> NaN)
    lookups = {f.name: None if f.kind == NUMERIC else
               {**{c: float(i) for i, c in enumerate(f.categories)}, None: math.nan}
               for f in schema}
    seen: set = set()
    parts = [(np.empty((0, len(schema))), np.empty(0, np.int64), np.empty(0),
              np.empty(0, np.int64), [])]
    for columns, records in chunks:
        part = None if columns is None else _chunk_arrays(lookups, n_actions, columns, seen)
        if part is None:
            _check_records(schema, n_actions, records(), seen)
            raise RuntimeError("the column checks refused records the record checks accept")
        parts.append(part)
    covariates, actions, rewards, lengths, ids = zip(*parts)
    return Dataset(schema=schema, n_actions=n_actions, covariates=np.concatenate(covariates),
                   actions=np.concatenate(actions), rewards=np.concatenate(rewards),
                   offsets=np.concatenate(([0], np.cumsum(np.concatenate(lengths)))),
                   ids=list(chain.from_iterable(ids)), provenance=provenance)


def _only(types, kinds, none: bool = False) -> bool:
    """Whether values of these types are all ``kinds`` but not bool, or None if ``none``."""
    return all((none and t is type(None)) or (issubclass(t, kinds) and not issubclass(t, bool))
               for t in types)


def _chunk_arrays(lookups: dict, n_actions: int, columns, seen: set):
    """A chunk's covariates, actions, rewards, lengths and ids after its cuts,
    or None if any check refuses it. Logs the cuts and adds the ids to
    ``seen`` only when every check passes."""
    ids, lengths, features, actions, rewards = columns
    if not all(lengths) or not _only(set(map(type, rewards)), _NUMBER, none=True):
        return None
    try:
        rewards = np.array(rewards, dtype=np.float64)  # None reads as NaN
    except OverflowError:
        return None
    lengths = np.array(lengths, dtype=np.int64)
    kept, cut = lengths, np.flatnonzero(~np.isfinite(rewards))
    cut_at = {}  # trajectory -> its steps before the first missing reward
    if cut.size:
        starts = np.cumsum(lengths) - lengths
        traj, first = np.unique(np.searchsorted(starts, cut, side="right") - 1,
                                return_index=True)
        kept = lengths.copy()
        kept[traj] = cut[first] - starts[traj]
        cut_at = dict(zip(traj.tolist(), kept[traj].tolist()))
        keep = np.arange(len(rewards)) - np.repeat(starts, lengths) < np.repeat(kept, lengths)
        rewards = rewards[keep]
        keep = keep.tolist()
        features, actions = list(compress(features, keep)), list(compress(actions, keep))
    live = list(compress(ids, (kept > 0).tolist())) if cut.size else ids
    try:
        if len(set(live)) < len(live) or not seen.isdisjoint(live):
            return None
    except TypeError:  # an unhashable id
        return None
    if (not _only(set(map(type, features)), dict)
            or not set().union(*features).issubset(lookups)):
        return None
    covariates = np.empty((len(features), len(lookups)))
    for j, (name, lookup) in enumerate(lookups.items()):
        values = list(map(dict.get, features, repeat(name)))
        types = set(map(type, values))
        if lookup is None:
            if not _only(types, _NUMBER, none=True):
                return None
            try:
                covariates[:, j] = values  # None reads as NaN
            except OverflowError:
                return None
            if np.count_nonzero(np.isfinite(covariates[:, j])) + values.count(None) < len(values):
                return None
        else:
            if not _only(types, str, none=True):
                return None
            values = list(map(lookup.get, values))
            if None in values:
                return None
            covariates[:, j] = values
    if not _only(set(map(type, actions)), int):
        return None
    try:
        actions = np.array(actions, dtype=np.int64)
    except OverflowError:
        return None
    if actions.size and (actions.min() < 0 or actions.max() >= n_actions):
        return None
    for i, n in cut_at.items():
        if n:
            log.debug("trajectory %r truncated at step %d (missing reward)", ids[i], n)
        else:
            log.warning("trajectory %r dropped: reward missing at first step", ids[i])
    seen.update(live)
    return covariates, actions, rewards, kept[kept > 0], live


def _check_records(schema: FeatureSchema, n_actions: int, records, seen: set) -> None:
    """Convert ``records`` one step at a time, only to find and word the first
    error: logs cuts as it goes, adds ids to ``seen`` and raises that error."""
    column = {f.name: j for j, f in enumerate(schema)}
    codes = [None if f.kind == NUMERIC else {c: i for i, c in enumerate(f.categories)}
             for f in schema]

    def error(message):  # reads the tid and t being checked
        return SchemaError(f"trajectory {tid!r} step {t}: {message}")

    for tid, steps in records:
        for t, (_, _, reward) in enumerate(steps, start=1):
            if reward is None:
                continue
            if not isinstance(reward, _NUMBER) or isinstance(reward, bool):
                raise error(f"reward {reward!r} is not a number")
            try:
                float(reward)
            except OverflowError:
                raise error("reward is an integer too large for a float") from None
        kept = _before_missing_reward(steps)
        if steps and not kept:
            log.warning("trajectory %r dropped: reward missing at first step", tid)
            continue
        if len(kept) < len(steps):
            log.debug("trajectory %r truncated at step %d (missing reward)", tid, len(kept))
        if tid in seen:
            raise SchemaError(f"duplicate trajectory id {tid!r}")
        seen.add(tid)
        if not kept:
            raise SchemaError(f"trajectory {tid!r}: empty trajectory")
        for t, (features, action, reward) in enumerate(kept, start=1):
            if not isinstance(action, int) or isinstance(action, bool):
                raise error(f"action {action!r} is not an integer")
            if not 0 <= action < n_actions:
                raise error(f"action {action} outside [0, {n_actions})")
            if not isinstance(features, dict):
                raise error(f"features {features!r} are not a dict")
            for name, v in features.items():
                j = column.get(name)
                if j is None:
                    raise error(f"unknown feature {name!r}")
                if v is None:
                    continue
                if codes[j] is not None:
                    if not isinstance(v, str) or v not in codes[j]:
                        raise error(f"value {v!r} not a declared category of {name!r}")
                elif not isinstance(v, _NUMBER) or isinstance(v, bool):
                    raise error(f"numeric feature {name!r} holds {type(v).__name__}")
                else:
                    try:
                        finite = math.isfinite(v)
                    except OverflowError:
                        raise error(f"numeric feature {name!r} is an integer too large "
                                    "for a float") from None
                    if not finite:
                        raise error(f"numeric feature {name!r} is {v!r}, not a finite number")


def _before_missing_reward(steps):
    """The steps before the first missing or non-finite reward."""
    for i, (_, _, reward) in enumerate(steps):
        if reward is None or not math.isfinite(reward):
            return steps[:i]
    return steps


def _record_chunks(records):
    """Chunks of ``(id, steps)`` records with ``(features, action, reward)`` steps."""
    records = iter(records)
    while chunk := list(islice(records, LOAD_CHUNK)):
        yield _record_columns(chunk), lambda chunk=chunk: chunk


def _record_columns(records):
    """Columns over all steps of ``records``, or None if they are not pairs of
    an id and a list or tuple of 3-item lists or tuples."""
    try:
        if set(map(len, records)) != {2}:
            return None
        ids, step_lists = list(map(itemgetter(0), records)), list(map(itemgetter(1), records))
    except (KeyError, TypeError):
        return None
    if not _only(set(map(type, step_lists)), (list, tuple)):
        return None
    steps = list(chain.from_iterable(step_lists))
    if not _only(set(map(type, steps)), (list, tuple)) or set(map(len, steps)) - {3}:
        return None
    features, actions, rewards = zip(*steps) if steps else ((), (), ())
    return ids, list(map(len, step_lists)), features, actions, rewards


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def _texts(values: np.ndarray, missing: str | None = None) -> list:
    """Each value's repr, as ``json.dumps`` and ``csv`` write a Python int or
    float; NaN as ``missing`` when given.

    Covariates repeat within a trajectory, so each distinct value is
    formatted once; values are told apart by their bits, which keeps -0.0
    apart from 0.0.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = repr(bits.view(values.dtype).tolist())[1:-1].split(", ")
    if missing is not None:
        texts = [missing if text == "nan" else text for text in texts]
    return np.array(texts, dtype=object)[inverse].tolist()


def _feature_texts(ds: Dataset, lo: int, hi: int, missing: str, category) -> list:
    """Each feature's values on rows ``lo:hi``: a float's repr, ``category(c)``
    for a category ``c``, ``missing`` where the value is missing."""
    columns = []
    for f, col in zip(ds.schema, ds.covariates[lo:hi].T):
        if f.kind == NUMERIC:
            columns.append(_texts(col, missing))
        else:
            choices = np.array([*map(category, f.categories), missing], dtype=object)
            index = np.where(np.isnan(col), len(f.categories), col).astype(np.int64)
            columns.append(choices[index].tolist())
    return columns


def _chunk_rows(ds: Dataset):
    """``(i, j, lo, hi)``: trajectories ``i:j`` and their rows ``lo:hi``,
    ``SAVE_CHUNK`` trajectories at a time."""
    offsets = ds.offsets.tolist()
    for i in range(0, len(ds), SAVE_CHUNK):
        j = min(i + SAVE_CHUNK, len(ds))
        yield i, j, offsets[i], offsets[j]


def _step_name(ds: Dataset, row: int) -> str:
    traj = int(np.searchsorted(ds.offsets, row, side="right")) - 1
    return f"trajectory {ds.ids[traj]!r} step {row - int(ds.offsets[traj]) + 1}"


def _refuse_bad_codes(ds: Dataset) -> None:
    """Raise a ``DatasetError`` at a categorical value that is neither
    missing nor a category's index: no file can name its category."""
    for f, col in zip(ds.schema, ds.covariates.T):
        if f.kind == CATEGORICAL:
            bad = ~(np.isnan(col) | np.isin(col, np.arange(len(f.categories))))
            if bad.any():
                row = int(np.argmax(bad))
                raise DatasetError(f"{_step_name(ds, row)}: categorical feature {f.name!r} "
                                   f"holds {float(col[row])!r}, not a category index")


def _refuse_non_finite(ds: Dataset, fmt: str) -> None:
    """Raise a ``DatasetError`` at the first step whose reward is not finite
    or whose numeric covariate is infinite: neither format can hold either
    (the CSV reader would cut the trajectory at a ``nan`` reward)."""
    numeric = [j for j, f in enumerate(ds.schema) if f.kind == NUMERIC]
    bad = ~np.isfinite(ds.rewards)
    for j in numeric:
        bad |= np.isinf(ds.covariates[:, j])
    if not bad.any():
        return
    row = int(np.argmax(bad))
    for j in numeric:
        value = float(ds.covariates[row, j])
        if math.isinf(value):
            raise DatasetError(f"{_step_name(ds, row)}: numeric feature {ds.schema.names[j]!r} "
                               f"is {value!r}, which {fmt} cannot hold")
    raise DatasetError(f"{_step_name(ds, row)}: reward is {float(ds.rewards[row])!r}, "
                       f"which {fmt} cannot hold")


def save_jsonl(ds: Dataset, path) -> None:
    """The header line, then one line per trajectory, byte for byte as
    ``json.dumps`` with compact separators writes them.

    A non-finite reward, an infinite covariate or a categorical value that
    is no category's index raises a ``DatasetError``; a missing covariate is
    written as null.
    """
    _refuse_bad_codes(ds)
    _refuse_non_finite(ds, "JSON")
    features = ",".join(json.dumps(name).replace("%", "%%") + ":%s" for name in ds.schema.names)
    # one step: its line's head (or a comma), its fields, its line's end (or nothing)
    step = '%s{"features":{' + features + '},"action":%s,"reward":%s}%s'
    with open(path, "w") as fh:
        header = {"schema": ds.schema.to_json(), "K": ds.n_actions, "provenance": ds.provenance}
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for i, j, lo, hi in _chunk_rows(ds):
            heads = np.full(hi - lo, ",", dtype=object)
            heads[ds.offsets[i:j] - lo] = ['{"id":' + json.dumps(tid) + ',"steps":['
                                           for tid in ds.ids[i:j]]
            ends = np.full(hi - lo, "", dtype=object)
            ends[ds.offsets[i + 1:j + 1] - lo - 1] = "]}\n"
            columns = [heads.tolist(), *_feature_texts(ds, lo, hi, "null", json.dumps),
                       _texts(ds.actions[lo:hi]), _texts(ds.rewards[lo:hi]), ends.tolist()]
            fh.write("".join(map(step.__mod__, zip(*columns))))


def _jsonl_chunks(path, lines):
    """Chunks of the trajectory lines; line 1 is the header."""
    objs, linenos = [], []
    for lineno, line in enumerate(lines, start=2):
        try:
            objs.append(json.loads(line))
        except ValueError as exc:  # bad JSON, or an integer of over 4300 digits
            if not line.strip():
                continue
            if objs:  # the lines before come first, and so do their errors
                yield _json_chunk(path, linenos, objs)
            raise ParseError(f"{path} line {lineno}: {getattr(exc, 'msg', exc)}") from None
        linenos.append(lineno)
        if len(objs) == LOAD_CHUNK:
            yield _json_chunk(path, linenos, objs)
            objs, linenos = [], []
    if objs:
        yield _json_chunk(path, linenos, objs)


def _json_chunk(path, linenos, objs):
    return _json_columns(objs), lambda: _json_records(path, linenos, objs)


_ID, _STEPS, _ACTION, _REWARD = map(itemgetter, ("id", "steps", "action", "reward"))


def _json_columns(objs):
    """Columns over all steps of parsed trajectory lines, or None unless every
    line is an object with an ``id`` and a ``steps`` list of objects, each with
    an optional ``features`` object, an integer ``action`` and a ``reward``
    that is null or a number."""
    try:
        ids = list(map(str, map(_ID, objs)))
        step_lists = list(map(_STEPS, objs))
    except (KeyError, TypeError):
        return None
    if set(map(type, step_lists)) != {list}:
        return None
    steps = list(chain.from_iterable(step_lists))
    if set(map(type, steps)) != {dict}:
        return None
    try:
        actions, rewards = list(map(_ACTION, steps)), list(map(_REWARD, steps))
    except KeyError:
        return None
    features = list(map(dict.get, steps, repeat("features"), repeat(_NO_FEATURES)))
    if (set(map(type, features)) != {dict} or set(map(type, actions)) != {int}
            or not set(map(type, rewards)) <= {float, int, type(None)}):
        return None
    return ids, list(map(len, step_lists)), features, actions, rewards


def _json_records(path, linenos, objs):
    """The lines' ``(id, steps)`` records, parsed a step at a time for the
    per-record checks; raises a line's first ``ParseError``."""
    for lineno, obj in zip(linenos, objs):
        try:
            tid = str(obj["id"])
            raw_steps = obj["steps"]
        except (KeyError, TypeError):
            raise ParseError(f"{path} line {lineno}: trajectory needs 'id' and 'steps'") from None
        try:
            steps = [_json_step(f"{path} line {lineno}: trajectory {tid!r} step {t}", s)
                     for t, s in enumerate(raw_steps, start=1)]
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError):
            raise ParseError(f"{path} line {lineno}: malformed step in {tid!r}") from None
        yield tid, steps


def _json_step(where: str, s):
    """A JSON step as ``(features, action, reward)``.

    What the loader always refused (a missing key, a null or unparsable
    action, a reward that is no number even as text) raises KeyError,
    TypeError or ValueError, reported as a malformed step. What it used to
    coerce (a non-object step or features, a non-integer action, a reward
    given as text or a boolean, an integer too large for a float) raises a
    ``ParseError`` naming the step.
    """
    if not isinstance(s, dict):
        raise ParseError(f"{where}: step is not an object")
    try:  # the old coercion, for what it refused
        dict(s.get("features", {})), int(s["action"]), s["reward"] is None or float(s["reward"])
    except OverflowError:  # an infinite action or a huge integer reward
        pass
    features, action, reward = s.get("features", {}), s["action"], s["reward"]
    if not isinstance(features, dict):
        raise ParseError(f"{where}: features {features!r} are not an object")
    if type(action) is not int:
        raise ParseError(f"{where}: action {action!r} is not an integer")
    if reward is not None:
        if type(reward) not in (int, float):
            raise ParseError(f"{where}: reward {reward!r} is not a number")
        try:
            reward = float(reward)
        except OverflowError:
            raise ParseError(f"{where}: reward is an integer too large for a float") from None
    return features, action, reward


def load_jsonl(path) -> Dataset:
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise ParseError(f"{path}: empty file, expected a header line")
        try:
            header = json.loads(first)
        except ValueError as exc:
            raise ParseError(f"{path} line 1: bad header ({getattr(exc, 'msg', exc)})") from None
        if not isinstance(header, dict) or "schema" not in header or "K" not in header:
            raise ParseError(f"{path} line 1: header must carry 'schema' and 'K'")
        try:
            n_actions = int(header["K"])
        except (TypeError, ValueError):
            raise ParseError(f"{path} line 1: K is {header['K']!r}, not an integer") from None
        return _assemble(FeatureSchema.from_json(header["schema"]), n_actions,
                         _jsonl_chunks(path, fh), str(header.get("provenance", "")))


def save_csv(ds: Dataset, path) -> None:
    """A ``# {"K":...,"provenance":...}`` line, the header row, then one row
    per step. Refuses what :func:`save_jsonl` refuses, before it opens the
    file; a missing covariate is written as an empty field."""
    _refuse_bad_codes(ds)
    _refuse_non_finite(ds, "a CSV cohort")
    with open(path, "w", newline="") as fh:
        meta = {"K": ds.n_actions, "provenance": ds.provenance}
        fh.write("# " + json.dumps(meta, separators=(",", ":")) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["id", "t", "action", "reward"] + ds.schema.names)
        for i, j, lo, hi in _chunk_rows(ds):
            lengths = ds.lengths[i:j]
            ids = chain.from_iterable(map(repeat, ds.ids[i:j], lengths.tolist()))
            stages = np.arange(lo, hi) - np.repeat(ds.offsets[i:j], lengths) + 1
            # a category goes to the writer as it is, which writes None as ""
            writer.writerows(zip(ids, stages.tolist(), ds.actions[lo:hi].tolist(),
                                 _texts(ds.rewards[lo:hi]),
                                 *_feature_texts(ds, lo, hi, "", lambda c: c)))


def load_csv(path, n_actions: int | None = None) -> Dataset:
    with open(path, newline="") as fh:
        raw = fh.read()
    meta = {}
    body_lines = []
    for line in raw.splitlines():
        if line.startswith("#"):
            payload = line.lstrip("#").strip()
            if payload.startswith("{"):
                try:
                    meta = json.loads(payload)
                except json.JSONDecodeError:
                    pass
        else:
            body_lines.append(line)
    reader = csv.reader(io.StringIO("\n".join(body_lines)))
    rows = [r for r in reader if r]
    if not rows:
        raise ParseError(f"{path}: no header row")
    header = rows[0]
    if header[:4] != ["id", "t", "action", "reward"]:
        raise ParseError(f"{path}: header must start with id,t,action,reward")
    feat_names = header[4:]

    parsed = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(f"{path} row {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            t = int(row[1])
            action = int(row[2])
        except ValueError:
            raise ParseError(f"{path} row {lineno}: t and action must be integers") from None
        reward = None if row[3] == "" else _parse_float(path, lineno, "reward", row[3])
        parsed.append((row[0], t, action, reward, row[4:]))

    # a column is numeric when every present token parses as a number
    features = []
    for j, name in enumerate(feat_names):
        tokens = {p[4][j] for p in parsed} - {""}
        if all(_is_float(tok) for tok in tokens):
            features.append(Feature(name, NUMERIC))
        else:
            features.append(Feature(name, CATEGORICAL, tuple(sorted(tokens))))
    schema = FeatureSchema(tuple(features))

    by_id: dict[str, list] = {}
    for tid, t, action, reward, tokens in parsed:
        values = {f.name: None if tok == "" else float(tok) if f.kind == NUMERIC else tok
                  for f, tok in zip(features, tokens)}
        by_id.setdefault(tid, []).append((t, (values, action, reward)))
    records = []
    for tid, entries in by_id.items():
        if [t for t, _ in entries] != list(range(1, len(entries) + 1)):
            raise ParseError(f"{path}: trajectory {tid!r} steps are not t=1..T in order")
        records.append((tid, [step for _, step in entries]))

    if n_actions is None:
        n_actions = meta.get("K")
    if n_actions is None:
        n_actions = 1 + max((a for _, steps in records
                             for _, a, _ in _before_missing_reward(steps)), default=1)
    return from_records(schema, int(n_actions), records, str(meta.get("provenance", "")))


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _parse_float(path, lineno, what, tok):
    try:
        return float(tok)
    except ValueError:
        raise ParseError(f"{path} row {lineno}: {what} {tok!r} is not a number") from None


def save_dataset(ds: Dataset, path) -> None:
    """Write JSONL or CSV depending on the file extension."""
    if str(path).endswith(".csv"):
        save_csv(ds, path)
    else:
        save_jsonl(ds, path)


def load_dataset(path, n_actions: int | None = None) -> Dataset:
    """Read JSONL or CSV depending on the file extension."""
    if str(path).endswith(".csv"):
        return load_csv(path, n_actions=n_actions)
    return load_jsonl(path)




# ---------------------------------------------------------------------------
# imputation and one-hot encoding
# ---------------------------------------------------------------------------

@dataclass
class ImputationStats:
    """Per-feature fill values learned from a training cohort.

    Numeric features carry their observed mean, categorical features their
    modal category (ties break by schema category order).
    """

    schema: FeatureSchema
    values: dict

    def to_json(self) -> dict:
        return {"schema": self.schema.to_json(), "values": dict(self.values)}

    @classmethod
    def from_json(cls, obj) -> "ImputationStats":
        return cls(schema=FeatureSchema.from_json(obj["schema"]), values=dict(obj["values"]))


def fit_imputation(ds: Dataset) -> ImputationStats:
    """Means and modes over the observed values, summed in row order."""
    values = {}
    for f, col in zip(ds.schema, ds.covariates.T):
        observed = col[~np.isnan(col)]
        if observed.size == 0:
            raise DatasetError(
                f"feature {f.name!r} entirely missing in statistics source; "
                "no imputation statistic definable"
            )
        if f.kind == NUMERIC:
            values[f.name] = float(np.mean(observed))
        else:
            counts = np.bincount(observed.astype(np.int64), minlength=len(f.categories))
            # argmax takes the first maximum: ties break by schema category order
            values[f.name] = f.categories[int(np.argmax(counts))]
    return ImputationStats(schema=ds.schema, values=values)


def apply_imputation(ds: Dataset, stats: ImputationStats) -> Dataset:
    """Fill missing values using ``stats`` and one-hot encode categoricals.

    Returns a new dataset with an all-numeric schema; the input is untouched.
    Applying the function to its own output is a no-op.
    """
    if ds.schema.names != stats.schema.names:
        raise SchemaError("imputation statistics were fitted on a different schema")
    enc_schema = FeatureSchema(tuple(Feature(n, NUMERIC) for n in ds.schema.encoded_names()))
    out = np.empty((ds.n_steps, len(enc_schema)))
    j = 0
    for f, col in zip(ds.schema, ds.covariates.T):
        missing = np.isnan(col)
        fill = stats.values[f.name]
        if f.kind == NUMERIC:
            out[:, j] = np.where(missing, float(fill), col)
            j += 1
            continue
        if missing.any():
            if fill not in f.categories:
                raise SchemaError(
                    f"trajectory {ds.trajectory_of(int(np.argmax(missing)))!r}: "
                    f"value {fill!r} not a category of {f.name!r}"
                )
            col = np.where(missing, f.categories.index(fill), col)
        k = len(f.categories)
        out[:, j:j + k] = col[:, None] == np.arange(k)
        j += k
    return replace(ds, schema=enc_schema, covariates=out)


def impute_and_encode(ds: Dataset, stats_source: Dataset | None = None,
                      stats: ImputationStats | None = None) -> Dataset:
    """Impute with ``stats``, or with statistics fitted on ``stats_source``
    (default: ``ds`` itself)."""
    if stats is None:
        stats = fit_imputation(stats_source if stats_source is not None else ds)
    elif stats_source is not None:
        raise DatasetError("pass imputation statistics or a source to fit them on, not both")
    return apply_imputation(ds, stats)


@dataclass(frozen=True)
class StateConfig:
    """Which history aggregates the state vector carries."""

    switch_count: bool = True
    mean_reward: bool = True

    def __post_init__(self):
        for key in ("switch_count", "mean_reward"):
            value = getattr(self, key)
            if not isinstance(value, bool):
                raise DatasetError(f"malformed state config: {key!r} must be a boolean, "
                                   f"got {value!r}")

    def to_json(self) -> dict:
        return {"switch_count": self.switch_count, "mean_reward": self.mean_reward}

    @classmethod
    def from_json(cls, obj) -> "StateConfig":
        return cls(switch_count=obj.get("switch_count", True),
                   mean_reward=obj.get("mean_reward", True))


class StateAssembler:
    """Maps (covariates, previous action, history) to flat state vectors.

    The layout is: encoded covariates in schema order, a previous-action
    one-hot block with a trailing "none" slot used at t=1, the previous
    reward (0 at t=1), then the configured aggregates.
    """

    def __init__(self, feature_names, n_actions: int, config: StateConfig = StateConfig()):
        self.feature_names = list(feature_names)
        self.n_actions = int(n_actions)
        self.config = config
        names = list(self.feature_names)
        names += [f"prev_action={a}" for a in range(self.n_actions)]
        names += ["prev_action=none", "prev_reward"]
        if config.switch_count:
            names.append("switch_count")
        if config.mean_reward:
            names.append("mean_prev_reward")
        self.names = names

    def column(self, name: str) -> int:
        return self.names.index(name)

    def assemble_batch(self, covariates, prev_actions, prev_rewards,
                       switch_counts=None, mean_rewards=None) -> np.ndarray:
        """Stack state vectors for ``n`` steps; prev_action -1 means none."""
        cov = np.asarray(covariates, dtype=np.float64)
        n = cov.shape[0]
        if cov.shape[1] != len(self.feature_names):
            raise DatasetError(
                f"expected {len(self.feature_names)} covariate columns, got {cov.shape[1]}"
            )
        prev = np.asarray(prev_actions, dtype=np.int64)
        onehot = np.zeros((n, self.n_actions + 1), dtype=np.float64)
        slot = np.where(prev == NONE_ACTION, self.n_actions, prev)
        onehot[np.arange(n), slot] = 1.0
        cols = [cov, onehot, np.asarray(prev_rewards, dtype=np.float64).reshape(n, 1)]
        if self.config.switch_count:
            if switch_counts is None:
                raise DatasetError("state config includes switch_count but none given")
            cols.append(np.asarray(switch_counts, dtype=np.float64).reshape(n, 1))
        if self.config.mean_reward:
            if mean_rewards is None:
                raise DatasetError("state config includes mean_prev_reward but none given")
            cols.append(np.asarray(mean_rewards, dtype=np.float64).reshape(n, 1))
        return np.concatenate(cols, axis=1)


@dataclass
class StepData:
    """Flat per-step arrays for a cohort, grouped by trajectory.

    ``traj_index`` maps each step to its trajectory's position in ``traj_ids``
    and is non-decreasing, so per-trajectory reductions can use bincount.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    prev_actions: np.ndarray
    stages: np.ndarray
    traj_index: np.ndarray
    traj_ids: list
    n_actions: int
    feature_names: list

    def __len__(self):
        return len(self.actions)

    @property
    def n_trajectories(self) -> int:
        return len(self.traj_ids)

    def switch_labels(self) -> np.ndarray:
        """1 where the action differs from the previous action (t>1 only)."""
        if np.any(self.prev_actions == NONE_ACTION):
            raise DatasetError("switch labels are undefined at t=1 steps")
        return (self.actions != self.prev_actions).astype(np.int64)

    def subset(self, mask) -> "StepData":
        mask = np.asarray(mask)
        return StepData(
            states=self.states[mask],
            actions=self.actions[mask],
            rewards=self.rewards[mask],
            prev_actions=self.prev_actions[mask],
            stages=self.stages[mask],
            traj_index=self.traj_index[mask],
            traj_ids=self.traj_ids,
            n_actions=self.n_actions,
            feature_names=self.feature_names,
        )

    def trajectory_returns(self) -> np.ndarray:
        """Sum of rewards per trajectory, ordered like ``traj_ids``."""
        return np.bincount(self.traj_index, weights=self.rewards,
                           minlength=len(self.traj_ids))

    def trajectory_lengths(self) -> np.ndarray:
        return np.bincount(self.traj_index, minlength=len(self.traj_ids))


def build_states(ds: Dataset, config: StateConfig = StateConfig()) -> StepData:
    """Turn an encoded dataset into one model-ready record per step.

    History aggregates only see steps strictly before t: the switch count is
    the number of treatment changes among a_1..a_{t-1} and the running mean
    reward averages r_1..r_{t-1} (both 0 at t=1), so no state leaks the action
    it is meant to predict.
    """
    if not ds.schema.is_numeric():
        raise DatasetError("dataset still holds categorical features; run impute_and_encode")
    missing = np.isnan(ds.covariates)
    if missing.any():
        row, col = np.argwhere(missing)[0]
        raise DatasetError(
            f"trajectory {ds.trajectory_of(row)!r}: missing value for "
            f"{ds.schema.names[col]!r}; run impute_and_encode"
        )
    assembler = StateAssembler(ds.schema.names, ds.n_actions, config)
    traj_index = np.repeat(np.arange(len(ds)), ds.lengths)
    stages = np.arange(ds.n_steps) - ds.offsets[traj_index] + 1
    first = stages == 1

    def previous(x, fill):
        out = np.roll(x, 1)
        out[first] = fill
        return out

    prev_actions = previous(ds.actions, NONE_ACTION)
    prev_rewards = previous(ds.rewards, 0.0)
    # a switch at step t-1 (a_{t-1} != a_{t-2}) counts from step t on
    switched = previous((~first & (ds.actions != prev_actions)).astype(np.float64), 0.0)
    # the running sum of prev_rewards starts at 0.0 and adds r_1, r_2, ... in
    # order, the same float sums a per-trajectory loop makes
    mean_rewards = np.where(first, 0.0, ds.cumsum(prev_rewards) / np.maximum(stages - 1, 1))
    states = assembler.assemble_batch(ds.covariates, prev_actions, prev_rewards,
                                      ds.cumsum(switched), mean_rewards)
    return StepData(
        states=states,
        actions=ds.actions,
        rewards=ds.rewards,
        prev_actions=prev_actions,
        stages=stages,
        traj_index=traj_index,
        traj_ids=list(ds.ids),
        n_actions=ds.n_actions,
        feature_names=assembler.names,
    )


# ---------------------------------------------------------------------------
# trajectory-level splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    """Trajectory-level split: held-out test, then validation carved from train."""

    train_fraction: float = 0.8
    validation_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        # a value of the right type is stored as a Python float or int
        for key, ok, what, kind in (("train_fraction", is_number, "a finite number", float),
                                    ("validation_fraction", is_number, "a finite number", float),
                                    ("seed", is_integer, "an integer", int)):
            value = getattr(self, key)
            if not ok(value):
                raise DatasetError(f"malformed split: {key!r} must be {what}, got {value!r}")
            object.__setattr__(self, key, kind(value))
        if not (0.0 < self.train_fraction < 1.0):
            raise DatasetError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if not (0.0 <= self.validation_fraction < 1.0):
            raise DatasetError(
                f"validation_fraction must be in [0, 1), got {self.validation_fraction}"
            )

    def to_json(self) -> dict:
        return {"train_fraction": self.train_fraction,
                "validation_fraction": self.validation_fraction, "seed": self.seed}

    @classmethod
    def from_json(cls, obj) -> "SplitSpec":
        return cls(train_fraction=obj.get("train_fraction", 0.8),
                   validation_fraction=obj.get("validation_fraction", 0.2),
                   seed=obj.get("seed", 0))


def split_dataset(ds: Dataset, spec: SplitSpec):
    """Shuffle trajectories by seed and cut train/validation/test partitions.

    Splits are by whole trajectory; no patient contributes steps to two
    partitions. Raises if any partition comes out empty.
    """
    n = len(ds)
    if n < 10:
        raise DatasetError(f"need >= 10 trajectories to split, got {n}")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    n_train_all = int(round(n * spec.train_fraction))
    n_val = int(round(n_train_all * spec.validation_fraction))
    n_train = n_train_all - n_val
    n_test = n - n_train_all
    if n_train <= 0 or n_val <= 0 or n_test <= 0:
        raise DatasetError(
            f"split fractions yield an empty partition "
            f"(train={n_train}, validation={n_val}, test={n_test})"
        )
    return (ds.take(perm[:n_train]), ds.take(perm[n_train:n_train_all]),
            ds.take(perm[n_train_all:]))
