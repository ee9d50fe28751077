"""Dataset containers, file round-trips, imputation/encoding, states, splits."""

import numpy as np
import pytest

from clinpol.data import (
    CATEGORICAL,
    NONE_ACTION,
    NUMERIC,
    Dataset,
    DatasetError,
    Feature,
    FeatureSchema,
    ParseError,
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
