"""Dataset containers, file round-trips, imputation/encoding, states, splits."""

import csv
import json
import logging
import math
import random
import re
from functools import partial

import numpy as np
import pytest

from clinpol.errors import ClinpolError
from clinpol.data import (
    CATEGORICAL,
    LOAD_CHUNK,
    NONE_ACTION,
    NUMERIC,
    Dataset,
    DatasetError,
    Feature,
    FeatureSchema,
    ParseError,
    SAVE_CHUNK,
    SchemaError,
    SplitSpec,
    StateConfig,
    build_states,
    fit_imputation,
    from_records,
    impute_and_encode,
    load_csv,
    load_jsonl,
    save_csv,
    save_jsonl,
    split_dataset,
)


def tiny_schema():
    return FeatureSchema((
        Feature("sev", NUMERIC),
        Feature("marker", CATEGORICAL, ("hi", "lo")),
    ))


def tiny_records():
    return [
        ("p0", [({"sev": 3.0, "marker": "hi"}, 0, 1.5),
                ({"sev": 4.5, "marker": "lo"}, 1, -0.5)]),
        ("p1", [({"sev": None, "marker": "hi"}, 2, 0.25)]),
    ]


def tiny_dataset():
    return from_records(tiny_schema(), 3, tiny_records(), provenance="test")


def one_trajectory(steps, schema=None, n_actions=2):
    return from_records(schema or tiny_schema(), n_actions, [("p0", steps)])


JSONL_HEADER = (
    '{"schema":[{"name":"sev","kind":"numeric","categories":null}],"K":2,"provenance":""}\n'
)


# ---------------------------------------------------------------------------
# schema and validation
# ---------------------------------------------------------------------------

def test_schema_rejects_duplicates_and_thin_categoricals():
    with pytest.raises(SchemaError):
        FeatureSchema((Feature("a"), Feature("a")))
    with pytest.raises(SchemaError):
        Feature("m", CATEGORICAL, ("only",))
    with pytest.raises(SchemaError):
        Feature("m", "weird")


@pytest.mark.parametrize("categories, shown", [([1, 2], "1"), (["a", None], "None"),
                                              (["a", ["b"]], "['b']")])
def test_schema_categories_that_are_not_strings_are_schema_errors(categories, shown):
    # a category matches only a string value, so a number could never be filled
    entry = {"name": "m", "kind": "categorical", "categories": categories}
    with pytest.raises(SchemaError, match=re.escape(
            f"feature 'm': categories must be strings, got {shown}")):
        FeatureSchema.from_json([entry])


def test_encoded_names_are_ordered_and_deterministic():
    schema = tiny_schema()
    assert schema.encoded_names() == ["sev", "marker=hi", "marker=lo"]


def test_validate_catches_bad_action_and_empty_trajectory():
    records = tiny_records()
    records[0][1][0] = ({"sev": 3.0, "marker": "hi"}, 7, 1.5)
    with pytest.raises(SchemaError, match="trajectory 'p0' step 1: action 7"):
        from_records(tiny_schema(), 3, records)

    with pytest.raises(SchemaError, match="empty trajectory"):
        from_records(tiny_schema(), 3, tiny_records() + [("p2", [])])


def test_validate_catches_unknown_category_and_k_floor():
    records = tiny_records()
    records[1][1][0] = ({"sev": None, "marker": "nope"}, 2, 0.25)
    with pytest.raises(SchemaError, match="not a declared category"):
        from_records(tiny_schema(), 3, records)
    with pytest.raises(SchemaError, match="K must be >= 2"):
        from_records(tiny_schema(), 1, [])
    with pytest.raises(SchemaError, match="K must be >= 2"):
        Dataset(tiny_schema(), 1, np.empty((0, 2)), [], [], [0], [])


def test_conversion_rejects_unknown_features_bad_types_and_duplicate_ids():
    with pytest.raises(SchemaError, match="step 2: unknown feature 'dose'"):
        one_trajectory([({"sev": 1.0}, 0, 0.0), ({"dose": 1.0}, 0, 0.0)])
    for bad in ("3.0", True, [1.0]):
        with pytest.raises(SchemaError, match="numeric feature 'sev' holds"):
            one_trajectory([({"sev": bad}, 0, 0.0)])
    with pytest.raises(SchemaError, match="duplicate trajectory id 'p0'"):
        from_records(tiny_schema(), 3, tiny_records() + [tiny_records()[0]])


def test_array_constructor_checks_the_column_shapes():
    ds = tiny_dataset()
    assert ds.covariates.shape == (3, 2) and ds.offsets.tolist() == [0, 2, 3]
    # missing numerics are NaN; categoricals are their index in the schema
    assert np.isnan(ds.covariates[2, 0]) and ds.covariates[:, 1].tolist() == [0.0, 1.0, 0.0]
    with pytest.raises(DatasetError, match="non-empty trajectories"):
        Dataset(ds.schema, 3, ds.covariates, ds.actions, ds.rewards, [0, 3, 3], ds.ids)
    with pytest.raises(DatasetError, match="non-empty trajectories"):
        Dataset(ds.schema, 3, ds.covariates[:2], ds.actions, ds.rewards, ds.offsets, ds.ids)


def test_take_selects_whole_trajectories_in_order():
    ds = tiny_dataset()
    back = ds.take([1, 0])
    assert back.ids == ["p1", "p0"]
    assert back.actions.tolist() == [2, 0, 1]
    assert back.offsets.tolist() == [0, 1, 3]
    assert back.take([1, 0]) == ds


# ---------------------------------------------------------------------------
# JSONL round trip
# ---------------------------------------------------------------------------

def test_jsonl_round_trip_exact(tmp_path):
    ds = tiny_dataset()
    path = tmp_path / "d.jsonl"
    save_jsonl(ds, path)
    back = load_jsonl(path)
    assert back == ds


def test_jsonl_action_outside_header_k_is_schema_error(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"schema":[{"name":"sev","kind":"numeric","categories":null}],"K":4,"provenance":""}\n'
        '{"id":"p0","steps":[{"features":{"sev":1.0},"action":5,"reward":0.0}]}\n'
    )
    with pytest.raises(SchemaError, match=r"action 5"):
        load_jsonl(path)


def test_jsonl_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"schema":[{"name":"sev","kind":"numeric","categories":null}],"K":2,"provenance":""}\n'
        '{"id":"p0","steps":[{"features":{"sev":1.0},"action":0,"reward":0.0}]}\n'
        "{this is not json\n"
    )
    with pytest.raises(ParseError, match="line 3"):
        load_jsonl(path)


def test_jsonl_missing_reward_truncates_trajectory(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"schema":[{"name":"sev","kind":"numeric","categories":null}],"K":2,"provenance":""}\n'
        '{"id":"p0","steps":['
        '{"features":{"sev":1.0},"action":0,"reward":2.0},'
        '{"features":{"sev":2.0},"action":1,"reward":null},'
        '{"features":{"sev":3.0},"action":1,"reward":4.0}]}\n'
    )
    ds = load_jsonl(path)
    assert len(ds) == 1
    assert ds.offsets.tolist() == [0, 1]
    assert ds.rewards.tolist() == [2.0]


def test_jsonl_first_step_missing_reward_drops_trajectory(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"schema":[{"name":"sev","kind":"numeric","categories":null}],"K":2,"provenance":""}\n'
        '{"id":"p0","steps":[{"features":{"sev":1.0},"action":0,"reward":null}]}\n'
        '{"id":"p1","steps":[{"features":{"sev":1.0},"action":0,"reward":1.0}]}\n'
    )
    ds = load_jsonl(path)
    assert ds.ids == ["p1"]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_jsonl_non_finite_numeric_is_schema_error(tmp_path, token):
    path = tmp_path / "d.jsonl"
    path.write_text(
        JSONL_HEADER
        + '{"id":"p0","steps":[{"features":{"sev":1.0},"action":0,"reward":0.0}]}\n'
        + '{"id":"p1","steps":[{"features":{"sev":1.0},"action":0,"reward":0.0},'
        + '{"features":{"sev":%s},"action":1,"reward":0.0}]}\n' % token
    )
    with pytest.raises(SchemaError, match="trajectory 'p1' step 2: numeric feature 'sev'"):
        load_jsonl(path)


def test_jsonl_integer_numerics_read_back_as_floats(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        JSONL_HEADER + '{"id":"p0","steps":[{"features":{"sev":3},"action":0,"reward":1}]}\n'
    )
    again = tmp_path / "again.jsonl"
    save_jsonl(load_jsonl(path), again)
    assert again.read_text().splitlines()[1] == (
        '{"id":"p0","steps":[{"features":{"sev":3.0},"action":0,"reward":1.0}]}'
    )


def test_jsonl_explicit_empty_trajectory_is_error(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"schema":[{"name":"sev","kind":"numeric","categories":null}],"K":2,"provenance":""}\n'
        '{"id":"p0","steps":[]}\n'
    )
    with pytest.raises(SchemaError, match="empty trajectory"):
        load_jsonl(path)


# ---------------------------------------------------------------------------
# JSONL type rules
# ---------------------------------------------------------------------------

def write_steps(tmp_path, *steps, line_two=None):
    """A one-numeric-feature JSONL file: line 2 holds ``line_two`` (raw JSON)
    or p0 with the given raw JSON steps; p1 is a clean line after it."""
    path = tmp_path / "d.jsonl"
    line = line_two or '{"id":"p0","steps":[%s]}' % ",".join(steps)
    path.write_text(JSONL_HEADER + line + "\n"
                    + '{"id":"p1","steps":[{"features":{"sev":1.0},"action":0,"reward":0.0}]}\n')
    return path


OK_STEP = '{"features":{"sev":1.0},"action":1,"reward":0.5}'


@pytest.mark.parametrize("step, message", [
    ('{"features":{"sev":1.0},"action":2.7,"reward":0.5}', "action 2.7 is not an integer"),
    ('{"features":{"sev":1.0},"action":"1","reward":0.5}', "action '1' is not an integer"),
    ('{"features":{"sev":1.0},"action":true,"reward":0.5}', "action True is not an integer"),
    ('{"features":{"sev":1.0},"action":Infinity,"reward":0.5}', "action inf is not an integer"),
    ('{"features":{"sev":1.0},"action":1,"reward":"1.5"}', "reward '1.5' is not a number"),
    ('{"features":{"sev":1.0},"action":1,"reward":true}', "reward True is not a number"),
    ('{"features":{"sev":1.0},"action":1,"reward":1%s}' % ("0" * 400),
     "reward is an integer too large for a float"),
    ('{"features":[["sev",1.0]],"action":1,"reward":0.5}',
     r"features \[\['sev', 1.0\]\] are not an object"),
    ('[{"sev":1.0},1,0.5]', "step is not an object"),
    ('7', "step is not an object"),
])
def test_jsonl_type_errors_name_the_line_trajectory_and_step(tmp_path, step, message):
    path = write_steps(tmp_path, OK_STEP, step)
    with pytest.raises(ParseError, match=rf"d.jsonl line 2: trajectory 'p0' step 2: {message}"):
        load_jsonl(path)


def test_jsonl_type_errors_hold_after_a_missing_reward(tmp_path):
    # a reward cut keeps later steps out of the dataset, not out of the parse
    path = write_steps(tmp_path, '{"features":{"sev":1.0},"action":1,"reward":null}',
                       '{"features":{"sev":1.0},"action":"1","reward":0.5}')
    with pytest.raises(ParseError, match="line 2: trajectory 'p0' step 2: action '1'"):
        load_jsonl(path)


def load_steps(reader, tmp_path, steps):
    """``steps`` as p0 of a cohort with one numeric feature and K=2, read by ``reader``."""
    schema = FeatureSchema((Feature("sev", NUMERIC),))
    if reader == "from_records":
        return from_records(schema, 2, [("p0", steps)])
    path = tmp_path / f"d.{reader}"
    if reader == "jsonl":
        path.write_text(JSONL_HEADER + json.dumps({"id": "p0", "steps": [
            {"features": f, "action": a, "reward": r} for f, a, r in steps]}) + "\n")
        return load_jsonl(path)
    path.write_text('# {"K":2}\nid,t,action,reward,sev\n' + "".join(
        f"p0,{t},{a},{'' if r is None else r},{f['sev']}\n"
        for t, (f, a, r) in enumerate(steps, start=1)))
    return load_csv(path)


AFTER_A_CUT = [  # a step after a missing reward, and its fault
    (({"sev": 1.0}, 9, 0.5), "action 9 outside [0, 2)", ("from_records", "jsonl", "csv")),
    (({"sev": math.nan}, 1, 0.5), "numeric feature 'sev' is nan, not a finite number",
     ("from_records", "jsonl", "csv")),
    (({"sev": 1.0}, "1", 0.5), "action '1' is not an integer", ("from_records", "jsonl")),
    (({"dose": 1.0}, 1, 0.5), "unknown feature 'dose'", ("from_records", "jsonl")),
]


@pytest.mark.parametrize("reader, late, message", [
    (reader, late, message) for late, message, readers in AFTER_A_CUT for reader in readers])
@pytest.mark.parametrize("first_reward", [None, 0.5])
def test_every_rule_checks_the_steps_a_missing_reward_cuts(tmp_path, reader, late, message,
                                                           first_reward):
    # the cut drops p0 or keeps its first step; either way its later steps are checked
    steps = [({"sev": 1.0}, 1, first_reward), ({"sev": 2.0}, 0, None), late]
    with pytest.raises((SchemaError, ParseError), match=re.escape(
            f"trajectory 'p0' step 3: {message}")):
        load_steps(reader, tmp_path, steps)
    assert len(load_steps(reader, tmp_path, steps[:2])) == (first_reward is not None)


def test_jsonl_integer_feature_too_large_for_a_float_is_schema_error(tmp_path):
    path = write_steps(tmp_path, OK_STEP, '{"features":{"sev":%s},"action":1,"reward":0.5}'
                       % ("9" * 400))
    with pytest.raises(SchemaError, match="trajectory 'p0' step 2: numeric feature 'sev' is an "
                                          "integer too large for a float"):
        load_jsonl(path)


@pytest.mark.parametrize("step", [
    '{"features":null,"action":1,"reward":0.5}',
    '{"features":{"sev":1.0},"reward":0.5}',
    '{"features":{"sev":1.0},"action":"x","reward":0.5}',
    '{"features":{"sev":1.0},"action":NaN,"reward":0.5}',
    '{"features":{"sev":1.0},"action":1,"reward":"x"}',
    '{"features":{"sev":1.0},"action":1}',
])
def test_jsonl_malformed_steps_keep_their_message(tmp_path, step):
    with pytest.raises(ParseError, match=r"^\S*d.jsonl line 2: malformed step in 'p0'$"):
        load_jsonl(write_steps(tmp_path, OK_STEP, step))


def test_jsonl_header_k_that_is_no_integer_is_parse_error(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(JSONL_HEADER.replace('"K":2', '"K":"two"'))
    with pytest.raises(ParseError, match="line 1: K is 'two', not an integer"):
        load_jsonl(path)
    # the CSV meta line's K follows the same rule, on the line it stands
    for k, shown in (('2.7', "2.7"), ('"3"', "'3'"), ('true', "True"), ('[2]', "[2]"),
                     ('"two"', "'two'"), ('1e400', "inf")):
        path.write_text(JSONL_HEADER.replace('"K":2', f'"K":{k}'))
        with pytest.raises(ParseError, match=re.escape(f"d.jsonl line 1: K is {shown}, not an")):
            load_jsonl(path)
        csv_path = tmp_path / "d.csv"
        csv_path.write_text(f'# note\n# {{"K":{k}}}\nid,t,action,reward,sev\np0,1,0,1.0,3.0\n')
        with pytest.raises(ParseError, match=re.escape(f"d.csv line 2: K is {shown}, not an")):
            load_csv(csv_path)
    for k in ("1" + "0" * 400, "1"):  # integers, but no K
        path.write_text(JSONL_HEADER.replace('"K":2', f'"K":{k}'))
        with pytest.raises(SchemaError, match="K "):
            load_jsonl(path)


def test_a_byte_that_is_not_utf8_is_a_parse_error_naming_file_and_line(tmp_path):
    step = b'{"features":{"sev":1.0},"action":0,"reward":1.0}'
    path = tmp_path / "d.jsonl"
    path.write_bytes(JSONL_HEADER.encode() + b'{"id":"a","steps":[' + step + b']}\n'
                     + b'{"id":"p\xe9","steps":[' + step + b']}\n')
    with pytest.raises(ParseError, match=r"d\.jsonl line 3: not UTF-8 text"):
        load_jsonl(path)
    csv_path = tmp_path / "d.csv"
    csv_path.write_bytes(b'# {"K":2}\nid,t,action,reward,sev\np\xe9,1,0,1.0,3.0\n')
    with pytest.raises(ParseError, match=r"d\.csv line 3: not UTF-8 text"):
        load_csv(csv_path)
    # UTF-8 text, non-ASCII included, loads in either format
    ds = from_records(FeatureSchema((Feature("sev"),)), 2,
                      [("pé", [({"sev": 1.0}, 0, 1.0)])])
    for save, load, name in ((save_jsonl, load_jsonl, "u.jsonl"), (save_csv, load_csv, "u.csv")):
        save(ds, tmp_path / name)
        assert load(tmp_path / name).ids == ["pé"]


def test_jsonl_integer_of_too_many_digits_is_parse_error(tmp_path):
    path = write_steps(tmp_path, '{"features":{"sev":1%s},"action":1,"reward":0.5}' % ("0" * 5000))
    with pytest.raises(ParseError, match="line 2: Exceeds the limit"):
        load_jsonl(path)


@pytest.mark.parametrize("line", ['{"steps":[]}', '[1,2]', '"p0"'])
def test_jsonl_line_without_id_and_steps_is_parse_error(tmp_path, line):
    with pytest.raises(ParseError, match="line 2: trajectory needs 'id' and 'steps'"):
        load_jsonl(write_steps(tmp_path, line_two=line))


@pytest.mark.parametrize("step, message", [
    (({"sev": 1.0}, "1", 0.5), "step 1: action '1' is not an integer"),
    (({"sev": 1.0}, 1.0, 0.5), "step 1: action 1.0 is not an integer"),
    (({"sev": 1.0}, True, 0.5), "step 1: action True is not an integer"),
    (({"sev": 1.0}, 1, "0.5"), "step 1: reward '0.5' is not a number"),
    (({"sev": 1.0}, 1, False), "step 1: reward False is not a number"),
    (({"sev": 1.0}, 1, 10 ** 400), "step 1: reward is an integer too large for a float"),
    (([("sev", 1.0)], 1, 0.5), r"step 1: features \[\('sev', 1.0\)\] are not a dict"),
])
def test_records_type_errors_are_schema_errors(step, message):
    schema = FeatureSchema((Feature("sev", NUMERIC),))
    with pytest.raises(SchemaError, match=rf"^trajectory 'p0' {message}$"):
        one_trajectory([step], schema)


def test_records_accept_int_and_float_subclasses():
    schema = FeatureSchema((Feature("sev", NUMERIC),))
    ds = one_trajectory([({"sev": np.float64(2.5)}, 1, np.float64(0.5)), ({"sev": 3}, 0, 1)],
                        schema)
    assert ds.covariates[:, 0].tolist() == [2.5, 3.0] and ds.rewards.tolist() == [0.5, 1.0]


# ---------------------------------------------------------------------------
# the columnar loader against a record-by-record reference
# ---------------------------------------------------------------------------

RANDOM_HEADER = {
    "schema": [{"name": "sev", "kind": "numeric", "categories": None},
               {"name": "marker", "kind": "categorical", "categories": ["mid", "hi", "lo"]},
               {"name": "dose", "kind": "numeric", "categories": None}],
    "K": 3, "provenance": "random",
}


def random_lines(rng, n, faults=()):
    """Trajectory lines with missing (null or absent) values, integer
    numerics, categories, rewards that cut or drop, and blank lines; then
    one fault of each kind in ``faults`` (see ``inject``) on a random line."""
    lines = []
    for i in range(n):
        steps = []
        for _ in range(rng.randint(1, 6)):
            features = {}
            for name in ("sev", "marker", "dose"):
                r = rng.random()
                if r < 0.1:
                    continue  # absent
                if r < 0.2:
                    features[name] = None
                elif name == "marker":
                    features[name] = rng.choice(["mid", "hi", "lo"])
                else:
                    features[name] = rng.randint(-9, 9) if r < 0.35 else rng.uniform(-9, 9)
            r = rng.random()
            reward = (None if r < 0.05 else math.nan if r < 0.07 else -math.inf if r < 0.08
                      else rng.randint(-3, 3) if r < 0.2 else rng.uniform(-3, 3))
            step = {"features": features, "action": rng.randint(0, 2), "reward": reward}
            if not features and rng.random() < 0.5:
                del step["features"]
            steps.append(step)
        lines.append(json.dumps({"id": f"p{i}" if rng.random() < 0.9 else i, "steps": steps}))
        if rng.random() < 0.03:
            lines.append(rng.choice(["", "   ", "\t"]))
    targets = rng.sample([i for i, line in enumerate(lines) if line.strip()][1:], len(faults))
    for kind, i in zip(faults, targets):
        inject(rng, lines, i, kind)
    return lines


JSON_ONLY_FAULTS = ("json", "shape", "step", "absent")  # no record can hold these
FAULTS = JSON_ONLY_FAULTS + ("features", "action", "range", "reward", "unknown",
                             "category", "numeric", "duplicate")


def inject(rng, lines, i, kind):
    """One fault of ``kind`` on trajectory line ``lines[i]``."""
    obj = json.loads(lines[i])
    step = rng.choice(obj["steps"])
    features = step.setdefault("features", {})
    if kind == "json":
        lines[i] = lines[i][:-1]
        return
    if kind == "shape":
        obj = rng.choice([{"steps": []}, [1, 2], {"id": obj["id"], "steps": 5}])
    elif kind == "step":
        obj["steps"][rng.randrange(len(obj["steps"]))] = rng.choice([7, [features, 0, 1.0]])
    elif kind == "absent":
        del step[rng.choice(["action", "reward"])]
    elif kind == "features":
        step["features"] = rng.choice([None, [["sev", 1.0]], "x", 3])
    elif kind == "action":
        step["action"] = rng.choice(["1", 2.5, True, None, "x", math.inf, math.nan])
    elif kind == "range":
        step["action"] = rng.choice([3, -1, 10 ** 30])
    elif kind == "reward":
        step["reward"] = rng.choice(["1.5", True, "x", [1], 10 ** 400])
    elif kind == "unknown":
        features["bogus"] = 1.0
    elif kind == "category":
        features["marker"] = rng.choice(["nope", 2.5, True, ["hi"]])
    elif kind == "numeric":
        features[rng.choice(["sev", "dose"])] = rng.choice(
            ["3", True, [1.0], math.nan, math.inf, 10 ** 400])
    elif kind == "duplicate":
        obj["id"] = json.loads(rng.choice([line for line in lines[:i] if line.strip()]))["id"]
    lines[i] = json.dumps(obj)


def reference_load(schema, n_actions, lines):
    """The record-by-record conversion the columnar loader replaced: the
    dataset and the log lines it writes."""
    codes = {f.name: f.categories and {c: i for i, c in enumerate(f.categories)} for f in schema}
    rows, actions, rewards, offsets, ids, logs = [], [], [], [0], [], []
    for line in lines:
        if not line.strip():
            continue
        obj = json.loads(line)
        steps = [(s.get("features", {}), s["action"], s["reward"]) for s in obj["steps"]]
        kept = next((steps[:t] for t, (_, _, r) in enumerate(steps)
                     if r is None or not math.isfinite(r)), steps)
        tid = str(obj["id"])
        if not kept:
            logs.append(f"trajectory {tid!r} dropped: reward missing at first step")
            continue
        if len(kept) < len(steps):
            logs.append(f"trajectory {tid!r} truncated at step {len(kept)} (missing reward)")
        for features, action, reward in kept:
            rows.append([math.nan if features.get(f.name) is None
                         else codes[f.name][features[f.name]] if codes[f.name]
                         else float(features[f.name]) for f in schema])
            actions.append(action)
            rewards.append(float(reward))
        offsets.append(len(actions))
        ids.append(tid)
    ds = Dataset(schema, n_actions, np.array(rows).reshape(len(actions), len(schema)),
                 actions, rewards, offsets, ids, provenance="random")
    return ds, logs


def reference_error(schema, n_actions, lines, path=None):
    """The first error, as ``(class, message)`` or None, and the log lines of
    a record-by-record check in the documented order: the JSONL loader's if
    ``path`` is given, else ``from_records``' on ``records_of(lines)``."""
    categories = {f.name: f.categories for f in schema}
    seen, logs, absent = set(), [], object()

    def too_large(number):
        try:
            float(number)
        except OverflowError:
            return True
        return False

    def kind(parse, value):  # the JSONL loader words a value parse cannot read as malformed
        if type(value) is parse:
            return "schema"
        try:
            parse(value)
        except (TypeError, ValueError):
            return "malformed"
        except OverflowError:
            pass
        return "type"

    def fault(s):  # of one step: None or (kind, message)
        if path and type(s) is not dict:
            return "type", "step is not an object"
        f, a, r = (s.get("features", {}), s.get("action", absent),
                   s.get("reward", absent)) if path else s
        if not isinstance(f, dict):
            return kind(dict, f), f"features {f!r} are not {'an object' if path else 'a dict'}"
        if type(a) is not int:
            return kind(int, a), f"action {a!r} is not an integer"
        if not 0 <= a < n_actions:
            return "schema", f"action {a} outside [0, {n_actions})"
        if r is not None and type(r) not in (int, float):
            return kind(float, r), f"reward {r!r} is not a number"
        if r is not None and too_large(r):
            return "type", "reward is an integer too large for a float"
        for name in f:
            if name not in categories:
                return "schema", f"unknown feature {name!r}"
        for name, cats in categories.items():
            v = f.get(name)
            if v is None:
                continue
            if cats and not (isinstance(v, str) and v in cats):
                return "schema", f"value {v!r} not a declared category of {name!r}"
            if not cats and type(v) not in (int, float):
                return "schema", f"numeric feature {name!r} holds {type(v).__name__}"
            if not cats and too_large(v):
                return "schema", f"numeric feature {name!r} is an integer too large for a float"
            if not cats and not math.isfinite(v):
                return "schema", f"numeric feature {name!r} is {v!r}, not a finite number"
        return None

    def error(kind, message):
        if path is None or kind == "schema":
            return SchemaError, message
        if kind == "malformed":
            message = f"malformed step in {tid!r}"
        return ParseError, f"{path} line {lineno}: {message}"

    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            return (ParseError, f"{path} line {lineno}: {exc.msg}"), logs
        if not (isinstance(obj, dict) and "id" in obj and type(obj.get("steps")) is list):
            return error("type", "trajectory needs 'id' and 'steps'"), logs
        tid, steps = str(obj["id"]), obj["steps"]
        if path is None:
            steps = [(s.get("features", {}), s["action"], s["reward"]) for s in steps]
        for t, s in enumerate(steps, start=1):
            if found := fault(s):
                return error(found[0], f"trajectory {tid!r} step {t}: {found[1]}"), logs
        rewards = [s.get("reward") if path else s[2] for s in steps]
        kept = next((t for t, r in enumerate(rewards) if r is None or not math.isfinite(r)),
                    len(steps))
        if not steps:
            return (SchemaError, f"trajectory {tid!r}: empty trajectory"), logs
        if not kept:
            logs.append(f"trajectory {tid!r} dropped: reward missing at first step")
            continue
        if tid in seen:
            return (SchemaError, f"duplicate trajectory id {tid!r}"), logs
        seen.add(tid)
        if kept < len(steps):
            logs.append(f"trajectory {tid!r} truncated at step {kept} (missing reward)")
    return None, logs


def records_of(lines):
    for line in lines:
        if line.strip():
            obj = json.loads(line)
            yield str(obj["id"]), [(s.get("features", {}), s["action"], s["reward"])
                                   for s in obj["steps"]]


@pytest.mark.parametrize("seed", range(4))
def test_columnar_loader_equals_the_record_by_record_reference(tmp_path, caplog, seed):
    rng = random.Random(seed)
    lines = random_lines(rng, rng.randint(3 * LOAD_CHUNK, 6 * LOAD_CHUNK))
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join([json.dumps(RANDOM_HEADER)] + lines) + "\n")
    schema = FeatureSchema.from_json(RANDOM_HEADER["schema"])
    want, want_logs = reference_load(schema, 3, lines)
    assert want_logs and want.n_steps > LOAD_CHUNK  # cuts and drops happen, over many chunks
    for load in (lambda: load_jsonl(path),
                 lambda: from_records(schema, 3, records_of(lines), provenance="random")):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="clinpol.data"):
            got = load()
        assert got == want
        assert [r.getMessage() for r in caplog.records] == want_logs


@pytest.mark.parametrize("seed", range(24))
def test_first_errors_and_logs_equal_a_record_by_record_oracle(tmp_path, caplog, seed):
    rng = random.Random(100 + seed)
    faults = rng.sample(FAULTS, rng.randint(1, 3))
    lines = random_lines(rng, rng.randint(3 * LOAD_CHUNK, 5 * LOAD_CHUNK), faults)
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join([json.dumps(RANDOM_HEADER)] + lines) + "\n")
    schema = FeatureSchema.from_json(RANDOM_HEADER["schema"])
    loads = [(str(path), lambda: load_jsonl(path))]
    if not set(faults) & set(JSON_ONLY_FAULTS):
        loads.append((None, lambda: from_records(schema, 3, records_of(lines))))
    for where, load in loads:
        want, want_logs = reference_error(schema, 3, lines, where)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="clinpol.data"):
            try:
                load()
                got = None
            except DatasetError as exc:
                got = (type(exc), str(exc))
        assert got == want
        assert [r.getMessage() for r in caplog.records] == want_logs


MUTANTS = [None, "x", [], {}, True, 2.5, -1, 10 ** 400, math.nan]


def mutations(obj):
    """``obj`` with one value, or one dict key, replaced by each of ``MUTANTS``."""
    yield from MUTANTS
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from ({**obj, key: inner} for inner in mutations(value))
            yield from ({(new if k == key else k): v for k, v in obj.items()}
                        for new in MUTANTS if not isinstance(new, (list, dict)))
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from (type(obj)([*obj[:i], inner, *obj[i + 1:]]) for inner in mutations(item))


def test_every_mutation_of_an_input_loads_or_raises_a_clinpol_error(tmp_path):
    schema = tiny_schema()
    records = [("p0", [({"sev": 1.0, "marker": "hi"}, 0, 1.0),
                       ({"sev": 2, "marker": "lo"}, 1, None)]),
               ("p1", [({"sev": None}, 1, 0.5)])]
    document = [{"schema": schema.to_json(), "K": 2, "provenance": "p"}] + [
        {"id": tid, "steps": [{"features": f, "action": a, "reward": r} for f, a, r in steps]}
        for tid, steps in records]
    table = [["id", "t", "action", "reward", "sev", "marker"], ["p0", 1, 0, 1.0, 1.0, "hi"],
             ["p0", 2, 1, None, 2.0, "lo"], ["p1", 1, 1, 0.5, None, "hi"]]
    jsonl, csv_path = tmp_path / "d.jsonl", tmp_path / "d.csv"

    def read_jsonl(doc):
        jsonl.write_text("".join(json.dumps(obj) + "\n" for obj in doc))
        return load_jsonl(jsonl)

    def read_csv(meta, rows):
        with open(csv_path, "w", newline="") as fh:
            fh.write("# " + json.dumps(meta) + "\n")
            csv.writer(fh).writerows(rows)
        return load_csv(csv_path)

    loads = [partial(read_jsonl, [*document[:i], inner, *document[i + 1:]])
             for i in range(len(document)) for inner in mutations(document[i])]
    loads += [partial(read_csv, meta, table) for meta in mutations({"K": 2, "provenance": "p"})]
    loads += [partial(read_csv, {"K": 2}, [[*row[:j], new, *row[j + 1:]] if r == i else row
                                           for r, row in enumerate(table)])
              for i, row in enumerate(table) for j in range(len(row)) for new in MUTANTS]
    loads += [partial(from_records, schema, k, records) for k in MUTANTS]
    loads += [partial(from_records, schema, 2, recs) for recs in mutations(records)]
    assert len(loads) > 900
    bare = []
    for load in loads:
        try:
            load()
        except ClinpolError:
            pass
        except Exception as exc:  # any other exception is a finding
            bare.append(f"{type(exc).__name__}: {exc}"[:200])
    assert bare == []


def chunked_file(tmp_path, n, edits):
    """``n`` clean one-step lines for ids p0..; ``edits`` maps a trajectory
    index to the raw JSON line that replaces it."""
    lines = [edits.get(i, '{"id":"p%d","steps":[{"features":{"sev":%d.5},"action":%d,'
                          '"reward":1.0}]}' % (i, i, i % 2)) for i in range(n)]
    path = tmp_path / "d.jsonl"
    path.write_text(JSONL_HEADER + "\n".join(lines) + "\n")
    return path


def test_a_bad_row_in_a_later_chunk_raises_its_own_error(tmp_path):
    late = 3 * LOAD_CHUNK + 5
    path = chunked_file(tmp_path, 4 * LOAD_CHUNK, {
        late: '{"id":"bad","steps":[{"features":{"sev":1.0},"action":0,"reward":1.0},'
              '{"features":{"sev":1.0},"action":2,"reward":1.0}]}'})
    with pytest.raises(SchemaError, match=r"^trajectory 'bad' step 2: action 2 outside \[0, 2\)$"):
        load_jsonl(path)


def test_a_duplicate_id_across_chunks_is_schema_error(tmp_path):
    path = chunked_file(tmp_path, 3 * LOAD_CHUNK, {
        2 * LOAD_CHUNK + 1: '{"id":"p3","steps":[{"features":{},"action":0,"reward":1.0}]}'})
    with pytest.raises(SchemaError, match=r"^duplicate trajectory id 'p3'$"):
        load_jsonl(path)


def test_the_first_error_of_a_chunk_wins_and_logs_stop_there(tmp_path, caplog):
    drop = '{"id":"p%d","steps":[{"features":{},"action":0,"reward":null}]}'
    path = chunked_file(tmp_path, 2 * LOAD_CHUNK, {
        LOAD_CHUNK + 1: drop % (LOAD_CHUNK + 1),
        LOAD_CHUNK + 3: '{"id":"p0","steps":[{"features":{},"action":0,"reward":1.0}]}',
        LOAD_CHUNK + 4: '{"id":"x","steps":[{"features":{"dose":1.0},"action":0,"reward":1.0}]}',
        LOAD_CHUNK + 6: drop % (LOAD_CHUNK + 6),
        LOAD_CHUNK + 8: "{not json",
    })
    with caplog.at_level(logging.DEBUG, logger="clinpol.data"):
        with pytest.raises(SchemaError, match=r"^duplicate trajectory id 'p0'$"):
            load_jsonl(path)
    assert [r.getMessage() for r in caplog.records] == [
        f"trajectory 'p{LOAD_CHUNK + 1}' dropped: reward missing at first step"]


def test_a_json_error_comes_after_the_errors_of_earlier_lines(tmp_path):
    path = chunked_file(tmp_path, 10, {
        4: '{"id":"p4","steps":[{"features":{"sev":"high"},"action":0,"reward":1.0}]}',
        6: "{not json"})
    with pytest.raises(SchemaError, match="trajectory 'p4' step 1: numeric feature 'sev' holds str"):
        load_jsonl(path)
    path = chunked_file(tmp_path, 10, {6: "{not json"})
    with pytest.raises(ParseError, match="line 8"):
        load_jsonl(path)


# ---------------------------------------------------------------------------
# writers against json.dumps and csv oracles
# ---------------------------------------------------------------------------

def awkward_dataset():
    """Ids and categories with quotes, backslashes, non-ASCII and '%'; extreme
    floats; missing values; more trajectories than one write chunk."""
    schema = FeatureSchema((
        Feature('na"me%s', NUMERIC),
        Feature("größe", CATEGORICAL, ('q"uote', "ümlaut", "back\\slash", "a,b")),
        Feature("x", NUMERIC),
    ))
    rng = np.random.default_rng(7)
    extremes = [-0.0, 0.0, 5e-324, 1e16, 1e-7, 123456789.125, -2.5e300, 0.1, None]
    records = []
    for i in range(SAVE_CHUNK + 40):
        steps = []
        for t in range(1 + i % 4):
            cat = [None, 'q"uote', "ümlaut", "back\\slash", "a,b"][(i + t) % 5]
            steps.append(({'na"me%s': extremes[int(rng.integers(0, 9))], "größe": cat,
                           "x": None if (i * t) % 7 == 3 else float(rng.normal())},
                          int(rng.integers(0, 3)), extremes[int(rng.integers(0, 8))]))
        tid = ["p%d" % i, 'q"%d' % i, "ü%d" % i, "tab\t%d" % i][i % 4]
        records.append((tid, steps))
    return from_records(schema, 3, records, provenance='prov "ü"'), records


def test_jsonl_writer_matches_a_json_dumps_oracle(tmp_path):
    ds, records = awkward_dataset()
    path = tmp_path / "d.jsonl"
    save_jsonl(ds, path)
    header = {"schema": ds.schema.to_json(), "K": 3, "provenance": ds.provenance}
    want = [json.dumps(header, separators=(",", ":"))] + [
        json.dumps({"id": tid, "steps": [
            {"features": features, "action": action, "reward": reward}
            for features, action, reward in steps]}, separators=(",", ":"))
        for tid, steps in records]
    assert path.read_text().split("\n") == want + [""]
    assert load_jsonl(path) == ds


def test_csv_writer_matches_a_csv_module_oracle(tmp_path):
    ds, records = awkward_dataset()
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        fh.write("# " + json.dumps({"K": 3, "provenance": ds.provenance},
                                   separators=(",", ":")) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["id", "t", "action", "reward"] + ds.schema.names)
        for tid, steps in records:
            for t, (features, action, reward) in enumerate(steps, start=1):
                writer.writerow([tid, t, action, repr(reward)] + [
                    "" if v is None else v if isinstance(v, str) else repr(v)
                    for v in features.values()])
    assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()


NON_FINITE = [
    ("rewards", 1, math.nan, "trajectory 'p0' step 2: reward is nan"),
    ("rewards", 2, -math.inf, "trajectory 'p1' step 1: reward is -inf"),
    ("covariates", (1, 0), math.inf, "trajectory 'p0' step 2: numeric feature 'sev' is inf"),
]


@pytest.mark.parametrize("column, row, value, message", NON_FINITE)
def test_jsonl_writer_refuses_what_json_cannot_hold(tmp_path, column, row, value, message):
    ds = tiny_dataset()
    getattr(ds, column)[row] = value
    with pytest.raises(DatasetError, match=message):
        save_jsonl(ds, tmp_path / "d.jsonl")
    assert not (tmp_path / "d.jsonl").exists()


@pytest.mark.parametrize("column, row, value, message", NON_FINITE)
def test_csv_writer_refuses_what_the_csv_reader_cannot_read_back(tmp_path, column, row,
                                                                  value, message):
    # a nan reward written as "nan" would come back as a trajectory cut short
    ds = tiny_dataset()
    getattr(ds, column)[row] = value
    with pytest.raises(DatasetError) as info:
        save_csv(ds, tmp_path / "d.csv")
    assert str(info.value) == message + ", which a CSV cohort cannot hold"
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("code", [-1.0, 2.0, 0.5, math.inf])
@pytest.mark.parametrize("save", [save_jsonl, save_csv])
def test_writers_refuse_a_categorical_value_that_is_no_category_index(tmp_path, save, code):
    ds = tiny_dataset()
    ds.covariates[2, 1] = code
    with pytest.raises(DatasetError, match=f"trajectory 'p1' step 1: categorical feature "
                                           f"'marker' holds {code!r}, not a category index"):
        save(ds, tmp_path / "d.out")
    assert not (tmp_path / "d.out").exists()


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_csv_round_trip_exact(tmp_path):
    ds = tiny_dataset()
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert back == ds


def test_csv_missing_header_is_parse_error(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("p0,1,0,1.0,3.0\n")
    with pytest.raises(ParseError, match="header"):
        load_csv(path)


def test_csv_out_of_order_steps_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,t,action,reward,sev\np0,2,0,1.0,3.0\np0,1,0,1.0,2.0\n")
    with pytest.raises(ParseError, match="t=1..T"):
        load_csv(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e400"])
def test_csv_non_finite_numeric_is_schema_error(tmp_path, token):
    path = tmp_path / "d.csv"
    path.write_text("id,t,action,reward,sev\np0,1,0,1.0,3.0\n"
                    f"p1,1,1,0.5,2.0\np1,2,1,0.5,{token}\n")
    with pytest.raises(SchemaError, match="trajectory 'p1' step 2: numeric feature 'sev'"):
        load_csv(path)


def test_csv_infers_k_from_actions_when_no_comment(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,t,action,reward,sev\np0,1,0,1.0,3.0\np1,1,3,0.5,2.0\n")
    ds = load_csv(path)
    assert ds.n_actions == 4


# ---------------------------------------------------------------------------
# imputation and encoding
# ---------------------------------------------------------------------------

def test_numeric_mean_imputation():
    ds = one_trajectory([
        ({"sev": 1.0, "marker": "hi"}, 0, 0.0),
        ({"sev": None, "marker": "hi"}, 0, 0.0),
        ({"sev": 3.0, "marker": "hi"}, 0, 0.0),
    ])
    enc = impute_and_encode(ds)
    assert enc.covariates[1, 0] == 2.0


def test_mode_imputation_tie_breaks_by_schema_order():
    ds = one_trajectory([
        ({"sev": 1.0, "marker": "lo"}, 0, 0.0),
        ({"sev": 1.0, "marker": "hi"}, 0, 0.0),
        ({"sev": 1.0, "marker": None}, 0, 0.0),
    ])
    stats = fit_imputation(ds)
    assert stats.values["marker"] == "hi"


def test_imputation_uses_stats_source_not_target():
    train = one_trajectory([
        ({"sev": 10.0, "marker": "hi"}, 0, 0.0),
        ({"sev": 20.0, "marker": "hi"}, 0, 0.0),
    ])
    test = one_trajectory([({"sev": None, "marker": "lo"}, 0, 0.0)])
    enc = impute_and_encode(test, stats_source=train)
    assert enc.covariates[0, 0] == 15.0


def test_imputation_takes_precomputed_statistics():
    train = one_trajectory([
        ({"sev": 10.0, "marker": "hi"}, 0, 0.0),
        ({"sev": 20.0, "marker": "hi"}, 0, 0.0),
    ])
    test = one_trajectory([({"sev": None, "marker": "lo"}, 0, 0.0)])
    stats = fit_imputation(train)
    enc = impute_and_encode(test, stats=stats)
    assert enc == impute_and_encode(test, stats_source=train)
    with pytest.raises(DatasetError, match="not both"):
        impute_and_encode(test, stats_source=train, stats=stats)


def test_entirely_missing_feature_is_error():
    ds = one_trajectory([({"sev": None, "marker": "hi"}, 0, 0.0)])
    with pytest.raises(DatasetError, match="entirely missing"):
        fit_imputation(ds)


def test_one_hot_encoding_and_idempotence():
    ds = tiny_dataset()
    enc = impute_and_encode(ds)
    assert enc.schema.names == ["sev", "marker=hi", "marker=lo"]
    assert enc.covariates[0].tolist() == [3.0, 1.0, 0.0]
    twice = impute_and_encode(enc)
    assert twice == enc
    # the input dataset is untouched
    assert ds.schema.names == ["sev", "marker"]


# ---------------------------------------------------------------------------
# state assembly
# ---------------------------------------------------------------------------

def encoded_line(actions, rewards, sevs=None):
    """A single-feature encoded dataset holding one trajectory."""
    if sevs is None:
        sevs = [float(i) for i in range(len(actions))]
    steps = [({"sev": s}, a, r) for s, a, r in zip(sevs, actions, rewards)]
    schema = FeatureSchema((Feature("sev", NUMERIC),))
    return one_trajectory(steps, schema, max(max(actions) + 1, 4))


def test_states_single_step_trajectory_boundary():
    ds = encoded_line([2], [1.5])
    sd = build_states(ds)
    assert len(sd) == 1
    assert sd.prev_actions[0] == NONE_ACTION
    names = sd.feature_names
    row = sd.states[0]
    assert row[names.index("prev_action=none")] == 1.0
    assert row[names.index("prev_reward")] == 0.0
    assert row[names.index("switch_count")] == 0.0
    assert row[names.index("mean_prev_reward")] == 0.0


def test_states_prev_action_one_hot_and_prev_reward():
    ds = encoded_line([1, 3], [2.0, 0.0])
    sd = build_states(ds)
    names = sd.feature_names
    assert sd.states[1][names.index("prev_action=1")] == 1.0
    assert sd.states[1][names.index("prev_action=none")] == 0.0
    assert sd.states[1][names.index("prev_reward")] == 2.0
    assert sd.prev_actions[1] == 1


def test_switch_count_counts_transitions_strictly_before_t():
    ds = encoded_line([1, 1, 2, 2, 3], [0.0] * 5)
    sd = build_states(ds)
    col = sd.feature_names.index("switch_count")
    assert sd.states[:, col].tolist() == [0.0, 0.0, 0.0, 1.0, 1.0]
    # brute-force recount of all transitions over the whole sequence
    acts = [1, 1, 2, 2, 3]
    total = sum(1 for i in range(1, len(acts)) if acts[i] != acts[i - 1])
    assert total == 2


def test_running_mean_reward_prefix_only():
    ds = encoded_line([0, 0, 0], [3.0, 5.0, 100.0])
    sd = build_states(ds)
    col = sd.feature_names.index("mean_prev_reward")
    assert sd.states[:, col].tolist() == [0.0, 3.0, 4.0]


def test_states_deterministic_and_config_respected():
    ds = encoded_line([0, 1, 0], [1.0, 2.0, 3.0])
    a = build_states(ds)
    b = build_states(ds)
    assert np.array_equal(a.states, b.states)
    slim = build_states(ds, StateConfig(switch_count=False, mean_reward=False))
    assert "switch_count" not in slim.feature_names
    assert slim.states.shape[1] == a.states.shape[1] - 2


def test_build_states_rejects_unencoded_dataset():
    with pytest.raises(DatasetError, match="impute_and_encode"):
        build_states(tiny_dataset())
    numeric = FeatureSchema((Feature("sev", NUMERIC),))
    gap = from_records(numeric, 2, [("p0", [({"sev": 1.0}, 0, 0.0)]),
                                    ("p1", [({"sev": 1.0}, 0, 0.0), ({}, 1, 0.0)])])
    with pytest.raises(DatasetError, match="trajectory 'p1': missing value for 'sev'"):
        build_states(gap)


def test_states_of_several_trajectories_restart_at_each_boundary():
    numeric = FeatureSchema((Feature("sev", NUMERIC),))
    ds = from_records(numeric, 3, [
        ("p0", [({"sev": 0.0}, 0, 1.0), ({"sev": 0.0}, 1, 2.0), ({"sev": 0.0}, 2, 4.0)]),
        ("p1", [({"sev": 0.0}, 2, 8.0), ({"sev": 0.0}, 0, 16.0)]),
    ])
    sd = build_states(ds)
    col = sd.feature_names.index
    assert sd.stages.tolist() == [1, 2, 3, 1, 2]
    assert sd.traj_index.tolist() == [0, 0, 0, 1, 1]
    assert sd.prev_actions.tolist() == [NONE_ACTION, 0, 1, NONE_ACTION, 2]
    assert sd.states[:, col("prev_reward")].tolist() == [0.0, 1.0, 2.0, 0.0, 8.0]
    assert sd.states[:, col("mean_prev_reward")].tolist() == [0.0, 1.0, 1.5, 0.0, 8.0]
    assert sd.states[:, col("switch_count")].tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]


def test_trajectory_reductions():
    ds = encoded_line([0, 1], [2.0, 3.0])
    sd = build_states(ds)
    assert sd.trajectory_returns().tolist() == [5.0]
    assert sd.trajectory_lengths().tolist() == [2]
    assert sd.subset(sd.stages > 1).switch_labels().tolist() == [1]


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def many_trajectories(n):
    schema = FeatureSchema((Feature("sev", NUMERIC),))
    return from_records(schema, 2, [(f"p{i}", [({"sev": float(i)}, 0, 0.0)]) for i in range(n)])


def test_split_sizes_80_20_with_inner_validation():
    ds = many_trajectories(100)
    train, val, test = split_dataset(ds, SplitSpec(0.8, 0.2, seed=1))
    assert (len(train), len(val), len(test)) == (64, 16, 20)


def test_split_deterministic_and_seed_sensitive():
    ds = many_trajectories(50)
    a = split_dataset(ds, SplitSpec(seed=3))
    b = split_dataset(ds, SplitSpec(seed=3))
    c = split_dataset(ds, SplitSpec(seed=4))
    assert a[0].ids == b[0].ids
    assert a[0].ids != c[0].ids


def test_split_partitions_cover_without_overlap():
    ds = many_trajectories(37)
    for seed in range(100):
        train, val, test = split_dataset(ds, SplitSpec(0.8, 0.2, seed=seed))
        ids = train.ids + val.ids + test.ids
        assert sorted(ids) == sorted(ds.ids)
        assert len(set(ids)) == len(ids)


def test_split_rejects_tiny_cohorts_and_empty_partitions():
    with pytest.raises(DatasetError, match=">= 10"):
        split_dataset(many_trajectories(9), SplitSpec())
    with pytest.raises(DatasetError, match="empty partition"):
        split_dataset(many_trajectories(10), SplitSpec(0.95, 0.0, seed=0))


def test_split_spec_validates_fractions():
    with pytest.raises(DatasetError):
        SplitSpec(train_fraction=1.5)
    with pytest.raises(DatasetError):
        SplitSpec(validation_fraction=1.0)


@pytest.mark.parametrize("build, message", [
    (lambda: SplitSpec(train_fraction="x"), "'train_fraction' must be a finite number, got 'x'"),
    (lambda: SplitSpec(validation_fraction=math.nan), "'validation_fraction' must be a finite"),
    (lambda: SplitSpec.from_json({"seed": 1.5}), "'seed' must be an integer, got 1.5"),
    (lambda: SplitSpec(seed=True), "'seed' must be an integer, got True"),
    (lambda: StateConfig(mean_reward=1), "'mean_reward' must be a boolean, got 1"),
    (lambda: StateConfig.from_json({"switch_count": "no"}),
     "'switch_count' must be a boolean, got 'no'"),
])
def test_split_and_state_configs_refuse_a_value_of_the_wrong_type_by_name(build, message):
    with pytest.raises(DatasetError, match=re.escape(message)):
        build()


def test_split_spec_stores_python_floats_and_ints():
    spec = SplitSpec.from_json({"train_fraction": 1 - 0.25, "validation_fraction": 0,
                                "seed": np.int64(3)})
    assert spec.to_json() == {"train_fraction": 0.75, "validation_fraction": 0.0, "seed": 3}
    assert type(spec.validation_fraction) is float and type(spec.seed) is int
