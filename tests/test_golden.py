"""Byte-level golden hashes of the data layer.

The pinned digests were computed on the dict-per-step cohort that preceded
the columnar ``Dataset``; they hold the file bytes, the imputation statistics
and the state arrays to exactly what that implementation produced. The cases
cover what the simulated benchmark cohorts do not: missing numeric and
categorical values, a mode tie, a reward missing mid-trajectory (truncation)
and at t=1 (drop), and the CSV path.
"""

import hashlib
import json

import pytest

from clinpol.data import (
    SplitSpec,
    apply_imputation,
    build_states,
    fit_imputation,
    load_dataset,
    save_dataset,
    split_dataset,
)
from clinpol.sim import ChronicSimConfig, EpisodicSimConfig, generate_chronic, generate_episodic

HEADER = {
    "schema": [
        {"name": "sev", "kind": "numeric", "categories": None},
        {"name": "marker", "kind": "categorical", "categories": ["mid", "hi", "lo"]},
        {"name": "dose", "kind": "numeric", "categories": None},
    ],
    "K": 3,
    "provenance": "hand-made",
}

# (id, [(features, action, reward), ...]); absent keys and None are missing
HAND_MADE = [
    ("a0", [({"sev": 3.25, "marker": "lo", "dose": 1.5}, 0, 1.5),
            ({"sev": None, "marker": "hi", "dose": 2.0}, 1, -0.5),
            ({"sev": 4.75, "marker": None, "dose": 0.1}, 1, 0.3)]),
    ("a1", [({"sev": 0.1, "marker": "hi"}, 2, 0.25)]),
    ("a2", [({"sev": 1.1, "marker": "lo", "dose": None}, 0, 2.0),
            ({"sev": 2.2, "marker": "lo", "dose": 3.3}, 0, None),
            ({"sev": 9.9, "marker": "mid", "dose": 3.3}, 2, 5.0)]),
    ("a3", [({"sev": 7.0, "marker": "hi", "dose": 0.7}, 1, None),
            ({"sev": 7.5, "marker": "hi", "dose": 0.8}, 1, 1.0)]),
    ("a4", [({"sev": 0.3, "marker": "lo", "dose": 0.2}, 2, 0.1),
            ({"sev": 0.7, "marker": "hi", "dose": 0.4}, 2, 0.2),
            ({"sev": 0.11, "marker": None, "dose": None}, 0, 0.3),
            ({"sev": None, "marker": "mid", "dose": 0.9}, 1, -2.5)]),
    ("a5", [({"marker": "hi", "dose": 1.25}, 1, 1.0),
            ({"sev": 5.5, "dose": 1.75}, 2, 1.0)]),
    ("a6", [({"sev": 2.5, "marker": "lo", "dose": 0.6}, 0, 0.0)]),
    ("a7", [({"sev": 6.1, "marker": "mid", "dose": 0.3}, 1, 3.5),
            ({"sev": 6.2, "marker": "lo", "dose": 0.35}, 0, -1.25)]),
    ("a8", [({"sev": 8.8, "marker": "hi", "dose": 2.5}, 2, 0.5),
            ({"sev": 8.1, "marker": "hi", "dose": 2.75}, 2, 0.5),
            ({"sev": 7.9, "marker": "lo", "dose": 2.25}, 1, 0.75)]),
    ("a9", [({"sev": 1.9, "marker": "lo", "dose": None}, 0, 0.1)]),
    ("a10", [({"sev": 4.4, "marker": "hi", "dose": 1.1}, 2, 0.6),
             ({"sev": 4.6, "marker": "lo", "dose": 1.2}, 0, 0.7)]),
    ("a11", [({"sev": 3.3, "marker": "hi", "dose": 0.5}, 0, 1.1)]),
    ("a12", [({"sev": 2.8, "marker": "lo", "dose": 0.45}, 1, 0.9),
             ({"sev": 2.9, "marker": None, "dose": 0.55}, 1, 0.8)]),
    ("a13", [({"sev": 5.0, "marker": "hi", "dose": 0.05}, 0, 2.2)]),
]


def hand_made_text():
    lines = [json.dumps(HEADER)]
    for tid, steps in HAND_MADE:
        lines.append(json.dumps({"id": tid, "steps": [
            {"features": f, "action": a, "reward": r} for f, a, r in steps
        ]}))
    return "\n".join(lines) + "\n"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def states_digest(sd) -> str:
    h = hashlib.sha256()
    for name in ("states", "actions", "rewards", "prev_actions", "stages", "traj_index"):
        arr = getattr(sd, name)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    h.update(json.dumps([list(sd.traj_ids), list(sd.feature_names)]).encode())
    return h.hexdigest()


def pipeline_digests(ds, seed):
    """Stats of a train partition and the state arrays of all three parts."""
    train, val, test = split_dataset(ds, SplitSpec(seed=seed))
    stats = fit_imputation(train)
    return {
        "stats": sha(json.dumps(stats.to_json(), sort_keys=True).encode()),
        "states": [states_digest(build_states(apply_imputation(part, stats)))
                   for part in (train, val, test)],
    }


def file_digests(ds, tmp_path, stem):
    """Saved bytes in both formats and the bytes after a load/save round trip."""
    jpath, cpath = tmp_path / f"{stem}.jsonl", tmp_path / f"{stem}.csv"
    save_dataset(ds, jpath)
    save_dataset(ds, cpath)
    rj, rc = tmp_path / f"{stem}.rt.jsonl", tmp_path / f"{stem}.rt.csv"
    save_dataset(load_dataset(jpath), rj)
    save_dataset(load_dataset(cpath), rc)
    return {"jsonl": sha(jpath.read_bytes()), "csv": sha(cpath.read_bytes()),
            "jsonl_rt": sha(rj.read_bytes()), "csv_rt": sha(rc.read_bytes())}


GOLDEN = {
    "hand_made_files": {
        "jsonl": "d5a7eddfa775f617571e6f7823054095f63515f05b002fb3ad69c4527ead78d9",
        "csv": "42db7f763d88ab688ebee87a77b394dc6d264a6e8ad78659c50dbd5328799ec4",
        "jsonl_rt": "d5a7eddfa775f617571e6f7823054095f63515f05b002fb3ad69c4527ead78d9",
        "csv_rt": "42db7f763d88ab688ebee87a77b394dc6d264a6e8ad78659c50dbd5328799ec4",
    },
    "hand_made_full_stats": "ac211cdb428a7c19a784b8ada81d55ce21c66345e68620e89969d2b502272620",
    "hand_made_pipeline": {
        "stats": "4187d42282b9f58cc57a515a120a2d8858f986975d16d0d1652adce619c44a8f",
        "states": [
            "5b45d303f01d64ea7ee1b07a4e4eab9b649865df1eb64fc2ba5e0157bab9db0a",
            "392c8364711d55b2702e0036cb18dcab9caf1cbaa333ddaa89e6259a96be5a4b",
            "486b4cbcdaf963a42463f67c63308b75ab914567425ea3b40ba8659b2338ba57",
        ],
    },
    "hand_made_csv_pipeline": {
        "stats": "d03c3722a8e79185258df611b58ae7c2cbff88f487aa308d3f3af1e75c9d2d46",
        "states": [
            "a4bfecaa46ab7cbb98ea44a0ba2178605835fd552dbb7feed66ee41263841f46",
            "47541e5effad0549a89ad98a05c5e709e2c0762b7ac889c57269b65f9c4580f2",
            "163635d9ad5383e16b8310ab226d073d0b0f4ae2d23b61f7ee8ade5c60cbb63d",
        ],
    },
    "chronic_files": {
        "jsonl": "76abe6ee938885b82ca5f63bf0c1a5e23711c77f770afda2e29ef4d4f71cce77",
        "csv": "d82088c0541ded600f044e26c5a27ea5de180726d6409725026f5e09a4c791eb",
        "jsonl_rt": "76abe6ee938885b82ca5f63bf0c1a5e23711c77f770afda2e29ef4d4f71cce77",
        "csv_rt": "d82088c0541ded600f044e26c5a27ea5de180726d6409725026f5e09a4c791eb",
    },
    "chronic_pipeline": {
        "stats": "5dfba3be307a3e34457ead1c68e9cf46940dedf8f9ffcef58d3ae8a588f54eb0",
        "states": [
            "ef329339cd6baf5c6c25f6036ea163ed859db9c21b3b4d6aae5ad7a7a5767f16",
            "9af242dc081254b34c35a4d56a928c2ec583f32f69ecbaa3e858e5371625135b",
            "2e4f9d2bef236f7446c13f7e60ce61f80a88826280f6b3f4a76906f536431fa8",
        ],
    },
    "episodic_files": {
        "jsonl": "38f218570ad4fedf3b5dddb54e0578422dee309278a4c5441a251054539e4916",
        "csv": "a487cb1f86aa88b54c817357eb0d67d63f42d246db4872b8f2e93cdede467f43",
        "jsonl_rt": "38f218570ad4fedf3b5dddb54e0578422dee309278a4c5441a251054539e4916",
        "csv_rt": "a487cb1f86aa88b54c817357eb0d67d63f42d246db4872b8f2e93cdede467f43",
    },
    "episodic_pipeline": {
        "stats": "0e63a87dd55225803266d7313f0ad6aba4aa745726b547ac1f840e18f1d2889e",
        "states": [
            "53bf16e1c6c46233488dc1c2f1acf5a909c2617a18ae6f98a991a0b6b2259800",
            "7f47fc88daf07b10af8a34aa349f15423788810a8b242efa1ca1b84c3ac9f37b",
            "c08f84a440faee41e8ee1ecba97aa9d3655ffef6bac985faf2d85d06c644fb55",
        ],
    },
}


@pytest.fixture
def hand_made(tmp_path):
    path = tmp_path / "hand.jsonl"
    path.write_text(hand_made_text())
    return load_dataset(path)


def test_hand_made_cohort_truncates_and_drops_as_designed(hand_made):
    # a3 loses its first reward and is dropped; a2 is cut after step 1
    assert len(hand_made) == 13
    assert hand_made.n_steps == 24


def test_hand_made_files_are_pinned(hand_made, tmp_path):
    assert file_digests(hand_made, tmp_path, "hand") == GOLDEN["hand_made_files"]


def test_hand_made_mode_tie_and_means_are_pinned(hand_made):
    stats = fit_imputation(hand_made)
    # "hi" and "lo" tie on 9 observations each; "hi" comes first in the schema
    assert stats.values["marker"] == "hi"
    digest = sha(json.dumps(stats.to_json(), sort_keys=True).encode())
    assert digest == GOLDEN["hand_made_full_stats"]


def test_hand_made_pipeline_is_pinned(hand_made):
    assert pipeline_digests(hand_made, seed=5) == GOLDEN["hand_made_pipeline"]


def test_hand_made_csv_pipeline_is_pinned(hand_made, tmp_path):
    path = tmp_path / "hand.csv"
    save_dataset(hand_made, path)
    assert pipeline_digests(load_dataset(path), seed=5) == GOLDEN["hand_made_csv_pipeline"]


@pytest.mark.parametrize("kind", ["chronic", "episodic"])
def test_simulated_files_and_pipeline_are_pinned(kind, tmp_path):
    if kind == "chronic":
        ds = generate_chronic(ChronicSimConfig(n_patients=50, seed=3))
    else:
        ds = generate_episodic(EpisodicSimConfig(n_patients=50, seed=4))
    assert file_digests(ds, tmp_path, kind) == GOLDEN[f"{kind}_files"]
    assert pipeline_digests(ds, seed=11) == GOLDEN[f"{kind}_pipeline"]
