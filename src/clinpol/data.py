"""Trajectory datasets for sequential treatment records.

A dataset is a cohort of per-patient trajectories stored as columns, one row
per step: the covariates observed *before* acting, the treatment chosen from
``K`` discrete options, and the reward realized after acting, with trajectory
offsets marking where each patient's rows start. ``from_records`` builds one
from Python records, and loaders read two interchange formats:

* JSONL: a header line ``{"schema": [...], "K": ..., "provenance": ...}``
  followed by one trajectory object per line.
* CSV: long format with columns ``id, t, action, reward, <features...>``,
  preceded by a ``# {...}`` comment line carrying K and provenance (plain CSV
  readers can skip it; the mandatory header row follows).

All three readers hand their input, a chunk of columns at a time, to one
checker that holds every input rule (``_assemble``). Every rule checks every
step, those after a missing reward included. A chunk that breaks rules raises
the fault at the smallest (trajectory, step, check) position, after logging
the cuts and drops of the trajectories before it. A trajectory's shape is
checked first; then each step's shape, features, action, reward, unknown
feature names and each feature's value, in that order; then whether the
trajectory is empty or repeats an id.

Model-ready matrices are produced in two stages: ``impute_and_encode`` fills
missing values with training-set statistics and one-hot expands categorical
features, then ``build_states`` assembles one state vector per step from the
current covariates, the previous action (with a distinguished "none" slot at
t=1), the previous reward, and optional history aggregates.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, replace
from functools import partial
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
            stray = [c for c in self.categories if not isinstance(c, str)]
            if stray:
                raise SchemaError(f"feature {self.name!r}: categories must be strings, "
                                  f"got {stray[0]!r}")
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
        self.n_actions = _checked_k(self.n_actions)
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

    ``features`` is a dict of feature names to values, an action an int and
    a reward None or a number; every broken rule is a ``SchemaError``.
    Records are consumed ``LOAD_CHUNK`` at a time, so a generator keeps only
    one chunk alive.
    """
    return _assemble(schema, n_actions, _record_chunks(records), provenance)


# Records converted per columnar pass. Small chunks keep the parsed objects
# young: a 20k-trajectory load then triggers no full garbage collection.
LOAD_CHUNK = 64
# Trajectories formatted per write; larger chunks raise peak memory.
SAVE_CHUNK = 256

_NUMBER = (int, float)
_NO_FEATURES: dict = {}  # the features of a step that has none; never written to
_ABSENT = object()  # the action or reward of a JSON step that has none

# The checks of one step, in the order that breaks ties between faults (see
# the module docstring); schema feature j's value is check _VALUES + j.
_SHAPE, _FEATURES, _ACTION, _REWARD, _UNKNOWN, _VALUES = range(6)


def _checked_k(n_actions) -> int:
    """K, refused unless an integer from 2 up to the largest int64."""
    if not is_integer(n_actions):
        raise SchemaError(f"K is {n_actions!r}, not an integer")
    if n_actions < 2 or n_actions >= 2 ** 63:
        raise SchemaError(f"K must be >= 2, got {n_actions}" if n_actions < 2 else
                          f"K is {n_actions}, more actions than an int64 can number")
    return int(n_actions)


def _assemble(schema: FeatureSchema, n_actions, chunks, provenance: str) -> Dataset:
    """A ``Dataset`` from chunks of columns, each checked by the one input
    checker that all three readers share.

    A chunk is ``(columns, faults, lines)``: ``(ids, lengths, features,
    actions, rewards)`` over its steps, ``features`` one dict per step or the
    schema's columns by name; the reader's shape faults, each
    ``((trajectory, step, check), kind, message)``; and a JSONL chunk's
    ``(path, line numbers)``, its type and shape faults being
    ``ParseError``s that name the line, or None. Every rule checks every
    step, cut or not, and a chunk raises the fault at the smallest
    (trajectory, step, check) position (see the module docstring).
    ``n_actions`` None infers K from the kept actions of the first chunk.
    """
    if n_actions is not None:
        n_actions = _checked_k(n_actions)
    # name -> None for a numeric feature, else category -> index (None -> NaN)
    lookups = {f.name: None if f.kind == NUMERIC else
               {**{c: float(i) for i, c in enumerate(f.categories)}, None: math.nan}
               for f in schema}
    seen: set = set()
    parts = [(np.empty((0, len(schema))), np.empty(0, np.int64), np.empty(0),
              np.empty(0, np.int64), [])]
    for chunk in chunks:
        *part, n_actions = _chunk_arrays(lookups, n_actions, chunk, seen)
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


def _kind(parse, value) -> str:
    """A fault's kind: "schema" without ``parse`` or for a value of the type
    it makes, else "malformed" if ``parse`` cannot read the value at all
    (the JSONL reader names no step for it), else "type"."""
    if parse is None or type(value) is parse:
        return "schema"
    try:
        parse(value)
    except (TypeError, ValueError):
        return "malformed"
    except OverflowError:
        pass
    return "type"


def _floats(values):
    """``values`` as float64 (None as NaN) if each is None or a float's number."""
    if _only(set(map(type, values)), _NUMBER, none=True):
        try:
            return np.array(values, dtype=np.float64)
        except OverflowError:  # an integer too large for a float
            pass
    return None


# Each check's rule for one value: the fault's message, or a false value.

def _reward_fault(reward):
    if not _only((type(reward),), _NUMBER, none=True):
        return f"reward {reward!r} is not a number"
    if _floats([reward]) is None:
        return "reward is an integer too large for a float"


def _action_fault(n_actions, action):
    if not _only((type(action),), int):
        return f"action {action!r} is not an integer"
    return not 0 <= action < n_actions and f"action {action} outside [0, {n_actions})"


def _numeric_fault(name, value):
    if not _only((type(value),), _NUMBER, none=True):
        return f"numeric feature {name!r} holds {type(value).__name__}"
    if _floats([value]) is None:
        return f"numeric feature {name!r} is an integer too large for a float"
    if value is not None and not math.isfinite(value):
        return f"numeric feature {name!r} is {value!r}, not a finite number"


def _chunk_arrays(lookups: dict, n_actions, chunk, seen: set):
    """A chunk's covariates, actions, rewards, lengths and ids after its cuts,
    and K. Each check decides a whole column at once; only a column it
    refuses is walked value by value, to find the first fault and to read
    the refused values as clean ones for the checks after it. Raises the
    chunk's first fault, or logs its cuts and adds its ids to ``seen``."""
    (ids, lengths, features, actions, rewards), faults, lines = chunk
    lengths = np.array(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths

    def refuse(values, check, fault, clean=None, parse=None):
        """``values`` with each that ``fault`` refuses read as ``clean``, the
        first recorded as a fault of its step."""
        found = list(map(fault, values))
        row = next(r for r, message in enumerate(found) if message)
        i = int(np.searchsorted(starts, row, side="right")) - 1
        t = row - int(starts[i]) + 1
        faults.append(((i, t, check), _kind(parse, values[row]),
                       f"trajectory {ids[i]!r} step {t}: {found[row]}"))
        return [clean if message else v for v, message in zip(values, found)]

    if not isinstance(features, dict):  # one dict per step
        if not _only(set(map(type, features)), dict):
            noun = "an object" if lines else "a dict"
            features = refuse(features, _FEATURES, lambda f: not isinstance(f, dict) and
                              f"features {f!r} are not {noun}", _NO_FEATURES, dict)
        if not set().union(*features) <= lookups.keys():
            refuse(features, _UNKNOWN, lambda f: next(
                (f"unknown feature {name!r}" for name in f if name not in lookups), None))
        features = {name: list(map(dict.get, features, repeat(name))) for name in lookups}

    floats = _floats(rewards)
    if floats is None:
        floats = _floats(refuse(rewards, _REWARD, _reward_fault, parse=float))
    rewards = floats
    kept, cut, keep, cut_at = lengths, np.flatnonzero(~np.isfinite(rewards)), slice(None), {}
    if cut.size:
        traj, first = np.unique(np.searchsorted(starts, cut, side="right") - 1,
                                return_index=True)
        kept = lengths.copy()
        kept[traj] = cut[first] - starts[traj]
        cut_at = dict(zip(traj.tolist(), kept[traj].tolist()))
        keep = np.arange(len(rewards)) - np.repeat(starts, lengths) < np.repeat(kept, lengths)

    if n_actions is None:  # every action is an int (the CSV reader's)
        n_actions = _checked_k(1 + max(compress(actions, keep.tolist()) if cut.size else actions,
                                       default=1))
    try:
        ints = np.array(actions, dtype=np.int64) if _only(set(map(type, actions)), int) else None
    except OverflowError:  # an action past int64, and so past K
        ints = None
    if ints is None or ints.size and (ints.min() < 0 or ints.max() >= n_actions):
        ints = np.array(refuse(actions, _ACTION, partial(_action_fault, n_actions), 0, int),
                        dtype=np.int64)
    actions = ints

    covariates = np.empty((len(rewards), len(lookups)))
    for j, (name, lookup) in enumerate(lookups.items()):
        values = features[name]
        if lookup is None:
            column = _floats(values)
            if column is None or np.isfinite(column).sum() < len(values) - values.count(None):
                column = refuse(values, _VALUES + j, partial(_numeric_fault, name))
            covariates[:, j] = column  # None reads as NaN
        else:
            codes = (list(map(lookup.get, values))
                     if _only(set(map(type, values)), str, none=True) else [None])
            if None in codes:
                codes = list(map(lookup.get, refuse(values, _VALUES + j, lambda v: not (
                    v is None or isinstance(v, str) and v in lookup)
                    and f"value {v!r} not a declared category of {name!r}")))
            covariates[:, j] = codes

    empty = np.flatnonzero(lengths == 0)
    if empty.size:
        i = int(empty[0])
        faults.append(((i, 1, _SHAPE), "schema", f"trajectory {ids[i]!r}: empty trajectory"))
    live = list(compress(ids, (kept > 0).tolist())) if cut.size or empty.size else ids
    if len(set(live)) < len(live) or not seen.isdisjoint(live):
        taken = set(seen)  # set.add returns None, so the walk stops at the first id taken
        i = next(i for i in np.flatnonzero(kept).tolist() if ids[i] in taken or taken.add(ids[i]))
        faults.append(((i, int(lengths[i]) + 1, _SHAPE), "schema",
                       f"duplicate trajectory id {ids[i]!r}"))

    first = min(faults, key=itemgetter(0), default=None)
    for i, n in cut_at.items():
        if first and i >= first[0][0]:
            break
        if n:
            log.debug("trajectory %r truncated at step %d (missing reward)", ids[i], n)
        else:
            log.warning("trajectory %r dropped: reward missing at first step", ids[i])
    if first:
        (i, _, _), kind, message = first
        if kind == "schema" or lines is None:
            raise SchemaError(message)
        path, linenos = lines
        raise ParseError(f"{path} line {linenos[i]}: " + (
            f"malformed step in {ids[i]!r}" if kind == "malformed" else message))
    seen.update(live)
    return covariates[keep], actions[keep], rewards[keep], kept[kept > 0], live, n_actions


def _record_chunks(records):
    """Chunks of records as columns, and the faults in their shape: a record
    is ``(id, steps)`` with a hashable id and ``(features, action, reward)``
    steps, and one that does not unpack so reads as one with no steps."""
    try:
        records = iter(records)
    except TypeError:
        raise SchemaError(f"records {records!r} are not iterable") from None
    done = 0
    while chunk := list(islice(records, LOAD_CHUNK)):
        ids, step_lists, faults = [], [], []
        for i, record in enumerate(chunk):
            try:
                tid, steps = record
                hash(tid)
                steps = [(features, action, reward) for features, action, reward in steps]
            except (TypeError, ValueError):
                faults.append(((i, 0, _SHAPE), "schema", f"record {done + i} is no (id, steps) "
                               "pair of a hashable id and (features, action, reward) steps"))
                tid, steps = None, []
            ids.append(tid)
            step_lists.append(steps)
        steps = list(chain.from_iterable(step_lists))
        features, actions, rewards = zip(*steps) if steps else ((), (), ())
        yield (ids, list(map(len, step_lists)), features, actions, rewards), faults, None
        done += len(chunk)


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
    with open(path, "w", encoding="utf-8") as fh:
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
                yield *_json_columns(objs), (path, linenos)
            raise ParseError(f"{path} line {lineno}: {getattr(exc, 'msg', exc)}") from None
        linenos.append(lineno)
        if len(objs) == LOAD_CHUNK:
            yield *_json_columns(objs), (path, linenos)
            objs, linenos = [], []
    if objs:
        yield *_json_columns(objs), (path, linenos)


def _json_columns(objs):
    """Columns over all steps of parsed trajectory lines, and the faults in
    their shape. A line is an object with an ``id`` and a ``steps`` list of
    objects, read up to its first fault; an absent ``action`` or ``reward``
    reads as ``_ABSENT``."""
    try:
        ids, step_lists = (list(map(str, map(itemgetter("id"), objs))),
                             list(map(itemgetter("steps"), objs)))
        steps = list(chain.from_iterable(step_lists))
        clean = set(map(type, step_lists)) == {list} and set(map(type, steps)) <= {dict}
    except (KeyError, TypeError):
        clean = False
    faults = []
    if not clean:
        ids, step_lists = [], []
        for i, obj in enumerate(objs):
            try:
                tid, steps = str(obj["id"]), obj["steps"]
            except (KeyError, TypeError):
                tid, steps = None, None
            if type(steps) is not list:
                faults.append(((i, 0, _SHAPE), "type", "trajectory needs 'id' and 'steps'"))
                steps = []
            t = next((t for t, step in enumerate(steps) if type(step) is not dict), len(steps))
            if t < len(steps):  # that step and the ones after it are not read
                faults.append(((i, t + 1, _SHAPE), "type",
                               f"trajectory {tid!r} step {t + 1}: step is not an object"))
            ids.append(tid)
            step_lists.append(steps[:t])
        steps = list(chain.from_iterable(step_lists))
    features, actions, rewards = (list(map(dict.get, steps, repeat(key), repeat(default)))
                                  for key, default in (("features", _NO_FEATURES),
                                                       ("action", _ABSENT),
                                                       ("reward", _ABSENT)))
    return (ids, list(map(len, step_lists)), features, actions, rewards), faults


def _not_utf8(path, exc: UnicodeDecodeError) -> ParseError:
    """The error for a cohort file that is not UTF-8 text, naming the first
    line that is not (a UTF-8 sequence never spans a newline byte)."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                break
    return ParseError(f"{path} line {lineno}: not UTF-8 text ({exc.reason})")


def load_jsonl(path) -> Dataset:
    """A cohort from a UTF-8 JSONL file: a header line with an integer
    ``K``, then one trajectory a line. A broken type or shape rule, or a
    byte that is not UTF-8, is a ``ParseError`` naming the line, any other
    broken rule a ``SchemaError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
            if not first:
                raise ParseError(f"{path}: empty file, expected a header line")
            try:
                header = json.loads(first)
            except ValueError as exc:
                raise ParseError(f"{path} line 1: bad header "
                                 f"({getattr(exc, 'msg', exc)})") from None
            if not isinstance(header, dict) or "schema" not in header or "K" not in header:
                raise ParseError(f"{path} line 1: header must carry 'schema' and 'K'")
            if not is_integer(header["K"]):
                raise ParseError(f"{path} line 1: K is {header['K']!r}, not an integer")
            return _assemble(FeatureSchema.from_json(header["schema"]), header["K"],
                             _jsonl_chunks(path, fh), str(header.get("provenance", "")))
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def save_csv(ds: Dataset, path) -> None:
    """A ``# {"K":...,"provenance":...}`` line, the header row, then one row
    per step. Refuses what :func:`save_jsonl` refuses, before it opens the
    file; a missing covariate is written as an empty field."""
    _refuse_bad_codes(ds)
    _refuse_non_finite(ds, "a CSV cohort")
    with open(path, "w", encoding="utf-8", newline="") as fh:
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
    """A cohort from a UTF-8 CSV file, read as columns, each distinct token
    parsed once. The rows of one id, whose ``t`` counts 1..T, make one
    trajectory. ``n_actions`` overrides the meta line's K, an integer;
    without either, K is one more than the largest kept action."""
    meta, meta_line, lines = {}, 0, []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.startswith("#"):
                    lines.append(line)
                elif line.lstrip("#").strip().startswith("{"):
                    try:
                        meta, meta_line = json.loads(line.lstrip("#")), lineno
                    except ValueError:  # a comment, not a meta line
                        pass
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    try:
        rows = [row for row in csv.reader(lines) if row]
    except csv.Error as exc:  # a field over the csv module's size limit
        raise ParseError(f"{path}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: no header row")
    header, body = rows[0], rows[1:]
    if header[:4] != ["id", "t", "action", "reward"]:
        raise ParseError(f"{path}: header must start with id,t,action,reward")
    # row numbers count the header as row 1 and skip comments and blank lines
    end = next((r for r, row in enumerate(body) if len(row) != len(header)), len(body))
    columns = list(zip(*body[:end])) or [()] * len(header)
    (stages, bad_t), (actions, bad_a), (rewards, bad_r) = (
        _parsed(columns[c], parse) for c, parse in ((1, int), (2, int), (3, _float_or_none)))
    if bad_t or bad_a or bad_r:
        for r, (t, a, reward) in enumerate(zip(*columns[1:4])):
            if t in bad_t or a in bad_a:
                raise ParseError(f"{path} row {r + 2}: t and action must be integers")
            if reward in bad_r:
                raise ParseError(f"{path} row {r + 2}: reward {reward!r} is not a number")
    if end < len(body):
        raise ParseError(f"{path} row {end + 2}: expected {len(header)} fields, "
                         f"got {len(body[end])}")

    # a column is numeric when every present token parses as a number
    features, values = [], {}
    for name, column in zip(header[4:], columns[4:]):
        numbers, refused = _parsed(column, _float_or_none)
        categories = tuple(sorted(set(column) - {""})) if refused else None
        features.append(Feature(name, CATEGORICAL if refused else NUMERIC, categories))
        values[name] = [token or None for token in column] if refused else numbers
    schema = FeatureSchema(tuple(features))

    first: dict = {}  # id -> its trajectory's index
    traj = np.array([first.setdefault(tid, len(first)) for tid in columns[0]], dtype=np.int64)
    lengths = np.bincount(traj, minlength=len(first))
    if np.any(traj[1:] < traj[:-1]):  # gather each trajectory's rows
        order = np.argsort(traj, kind="stable")
        stages, actions, rewards, *gathered = (np.array(column, dtype=object)[order].tolist()
                                               for column in (stages, actions, rewards,
                                                              *values.values()))
        values = dict(zip(values, gathered))
    ends = np.cumsum(lengths)
    want = (np.arange(len(stages)) - np.repeat(ends - lengths, lengths) + 1).tolist()
    if stages != want:
        row = next(r for r, (t, w) in enumerate(zip(stages, want)) if t != w)
        tid = list(first)[int(np.searchsorted(ends, row, side="right"))]
        raise ParseError(f"{path}: trajectory {tid!r} steps are not t=1..T in order")

    if n_actions is None:
        n_actions = meta.get("K")
        if n_actions is not None and not is_integer(n_actions):
            raise ParseError(f"{path} line {meta_line}: K is {n_actions!r}, not an integer")
    return _assemble(schema, n_actions, [((list(first), lengths, values, actions, rewards),
                                          [], None)], str(meta.get("provenance", "")))


def _float_or_none(token: str):
    return float(token) if token else None


def _parsed(tokens, parse):
    """``tokens`` read by ``parse``, once per distinct token, and the set of
    tokens it refuses (read as None)."""
    table, refused = {}, set()
    for token in set(tokens):
        try:
            table[token] = parse(token)
        except ValueError:
            table[token] = None
            refused.add(token)
    return list(map(table.__getitem__, tokens)), refused


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
