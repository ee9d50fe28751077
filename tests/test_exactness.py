"""SHA-256 digests of the numbers and reports clinpol computes.

``test_golden*.py`` pin cohort bytes, states and fitted models; this file
pins what is computed from them: policy values, weights and ESS under every
model kind and both estimators, calibrated probabilities through the
policies that read them, ``clinpol evaluate`` on a JSONL and a CSV cohort
with every descriptor type, ``clinpol report``, on-policy rollouts of both
simulators, and the cohorts of simulator configs the golden files leave out.
Failed repeats are pinned too: their ``failures.csv`` rows are output.

A change that moves a digest names the digest, and why it moved, in its
change notes.
"""

import hashlib
import json

import pytest

from clinpol.cli import main
from clinpol.data import StateConfig, load_dataset, save_dataset
from clinpol.harness import ExperimentConfig, load_bundle, run_experiment
from clinpol.policies import build_policy
from clinpol.sim import (
    ChronicSimConfig,
    EpisodicSimConfig,
    generate_chronic,
    generate_episodic,
    monte_carlo_value,
    truth_policy,
)

# the episodic cohort makes some repeats fail on support and some succeed
SIMULATORS = {"chronic": ChronicSimConfig(n_patients=200, seed=11),
              "episodic": EpisodicSimConfig(n_patients=400, dose_levels=3, seed=13)}

POLICIES = ({"type": "behavior"}, {"type": "mc", "k": 1}, {"type": "mc_o", "k": 2},
            {"type": "mc_switch_adj", "k": 2, "p1": 0.1})

# every descriptor type, softened and seeded ones included
EVAL_POLICIES = [{"type": "behavior"}, {"type": "mc", "k": 1},
                 {"type": "mc", "k": 2, "epsilon": 0.05}, {"type": "mc_o", "k": 2},
                 {"type": "mc_switch_adj", "k": 2, "p1": 0.1},
                 {"type": "mc_switch_adj", "k": 3, "p1": -0.05, "epsilon": 0.1},
                 {"type": "random"}, {"type": "random", "seed": 3, "epsilon": 0.05}]

# {kind}-{model}-{estimator}: {report file: SHA-256}
EXPERIMENTS = {
    "chronic-dt-wis": {
        "failures": "e35c7d0f7777e6467bcaf76c5143f81919ce450ee59c0f56640d4c5dc89524a6",
        "per_k": "1104c1d1df3bd04155b7b493f3227a20d36f20c7fb4760a921898068bc49a17c",
        "per_p1": "c506daf846c278661409e3ae4f76a1efec15e59cdf3e8694397c78b4dcc07662",
        "rows": "ae89d326e57a00291a4031516f57d048b6ab961a952a0e37e235d630a431d978",
        "summary": "a945f16cb73951cded8988528615949e36f019b1204ed3492c599b3676085cbf",
    },
    "chronic-dts-wis": {
        "failures": "ea8fd13ff4d7b4c97494deaa2993274a1bc2e9adaad00683b3c9abdea231d9c6",
        "per_k": "d18f4be215f21a43402ce64824a9b0fd7648344afe9bbc315ef61c20b692b947",
        "per_p1": "11ea6f3d6555a1f95a2bb7819d2f597170dcef9f9cac9e5f362418c6d4795fd9",
        "rows": "a5879ca6fb454c98c397f1f2ea216a44262e3cb0254728cd3cc772e43de6dca8",
        "summary": "5cb0f7495ce7b85f4e438f36179f66e3f81c5bcd36fb075f8f83a982698aeed3",
    },
    "chronic-dtbls-wis": {
        "failures": "ea8fd13ff4d7b4c97494deaa2993274a1bc2e9adaad00683b3c9abdea231d9c6",
        "per_k": "49c6ff6e918a5b46f9dba0976cb3d733e06abfdd975e0eea6d3ca87bb96c722b",
        "per_p1": "056b1bb5ee246703ce68a6cf9f8487b0f7969bf2eec3e26d0ea322e500a65fc3",
        "rows": "96f0aa131a4f14e194c635ff03ed7ca0b74bbc6c2e8b25150dbb3b5f3f0c0a67",
        "summary": "86751bacb3ffc0adeaa5b1f0fd76dc2033cfd174a693a45d23cd1c75846636ce",
    },
    "chronic-dtbls-is": {
        "failures": "ea8fd13ff4d7b4c97494deaa2993274a1bc2e9adaad00683b3c9abdea231d9c6",
        "per_k": "7f6e7e17417aea3b5f3c9fb528ff24965859bc02aa62a7f7312dcc26a175b2b9",
        "per_p1": "71565085f329c6eadf331bc708d4bc1119d30095b365380efaec2b38877791c7",
        "rows": "5b61dda46ad9cccecd4248c33784b4ef4d8943e90ceada81665f6e21b7709edb",
        "summary": "16bafb18df7a78b6ac0c324a057de516c1ee2133ce90856bf33fe1e2d4fc0630",
    },
    "episodic-dt-wis": {
        "failures": "643e193b545ecdbd40fe6412c207b748f2ff016a4f898840d79a9186aa2e43bf",
        "per_k": "f2fb8a4818063954dd416024afb65f639b81a1528a672348b80b79eabefdedaf",
        "per_p1": "c506daf846c278661409e3ae4f76a1efec15e59cdf3e8694397c78b4dcc07662",
        "rows": "58d35c77e8abd53d181b763f1a3ce1c87ba42b4e60fd71cab51c4964909264c0",
        "summary": "5c086af33739fee5d8c1d8e078b0c319e4059313938fad0c9ba50656f5733cfc",
    },
    "episodic-dts-wis": {
        "failures": "ea8fd13ff4d7b4c97494deaa2993274a1bc2e9adaad00683b3c9abdea231d9c6",
        "per_k": "a6a99a889f404c099ee2728727a4563538b882a5131626e666f7548d8b4a6db6",
        "per_p1": "1fb68023c33cfd5d0ddf179173706dedd107c2184060d4326aa0388bb8bd2611",
        "rows": "a92443861eb68d81b36e3fb48248422b1c3500b6436be2e753c2ce6c862a8e44",
        "summary": "7e9e21d5ed27fe3202eabc6a56c2394be91139e5da208997ad776f86f61b84dd",
    },
    "episodic-dtbls-wis": {
        "failures": "724cbf124aa7a019156dc8f214cf1dc936996268d8a8e0f70308306ded750967",
        "per_k": "e7d470d0ba9305c006d4afa5c4d02fb6bbfa11cb5a279a232d3f38b4698c5a23",
        "per_p1": "519ef7775aa5c4955ba7edcf07975bf7c54ced8971a423a22d172fb8e034b9a3",
        "rows": "a93053790d1dc952b545907cc0ff290f88240f6c92478d140982313b8bd63105",
        "summary": "de8d32d36b92360a6300773a587798ceab3f9b61c13eecc667bb071b0c720ca0",
    },
}

EVALUATE = {
    "jsonl": "803fa7ad5d97c9d45121f8557ae9099b18b019878d1c419e3a53916355e93032",
    "csv": "803fa7ad5d97c9d45121f8557ae9099b18b019878d1c419e3a53916355e93032",
}

REPORT = "d00ede818d89df2c6664a4a1d743eb14e68c2425728ed47dcc1d94736e3123d5"

MONTE_CARLO = "353c182bb7918d8655e611274b032c988742d145c11bd8ba468a4c648e0e6f59"

# {case: SHA-256 of the repr of [(value, se) for each of ROLLOUT_COUNTS]} of
# the rollouts in ``rollout``. An episodic return is +-100, so one (value, se)
# pins only a survivor count; forty streams pin the survival draws.
ROLLOUT_COUNTS = (*range(2, 42), 400)
ROLLOUTS = {
    "chronic-confounded-truth": "ac3e404380925864f2f8fb0db5d21d2b12c1191d7dae685be27744fda8f0b487",
    "episodic-truth": "d48cab7a408ae6f5957fd1f59904e60891cbee2c374f18b7c4b6ca7985c3381b",
    "episodic-mc": "fcef47619ed1f60598597426f4704a70a368805ed56ee2baa89aed8c2e72b469",
}

# {case: (generator, config, patients first:stop or None)}
COHORTS = {
    "chronic-k8-horizons-1-9-confounded": (
        generate_chronic, ChronicSimConfig(n_patients=150, n_actions=8, horizon_range=(1, 9),
                                           hidden_confounder=True, seed=29), None),
    "episodic-3-levels-horizon-4": (
        generate_episodic, EpisodicSimConfig(n_patients=150, dose_levels=3, horizon=4,
                                             seed=31), None),
    "chronic-patients-37-81": (generate_chronic, ChronicSimConfig(n_patients=100, seed=37),
                               (37, 81)),
}

# {case: SHA-256 of the cohort's ids, offsets, covariates, actions and rewards}
COHORT_DIGESTS = {
    "chronic-k8-horizons-1-9-confounded":
        "abf4615ad64034edad3c3d13d786daa930b3e8c94d54425fa6e6175a890de0d9",
    "episodic-3-levels-horizon-4":
        "00f16a214640c52695972590517da522e2bf3396e2b8caaa34d654d49980b9c2",
    "chronic-patients-37-81":
        "ebdc57b2c98fc2076dbbf9c790eceed716060ef3027b4959e90b0e0aa7ded053",
}


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def experiment_digests(kind, model, estimator, out_dir) -> dict:
    policies = [p for p in POLICIES if model != "dt" or p["type"] != "mc_switch_adj"]
    cfg = ExperimentConfig(simulator=SIMULATORS[kind], n_repeats=3, model=model,
                           n_candidates=3, policies=tuple(policies), estimator=estimator,
                           out_dir=str(out_dir), seed=5)
    return {name: sha256(path) for name, path in sorted(run_experiment(cfg).items())}


def cohort_digest(ds) -> str:
    h = hashlib.sha256("\n".join(ds.ids).encode())
    for array in (ds.offsets, ds.covariates, ds.actions, ds.rewards):
        h.update(array.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A fitted ``dtbls`` bundle, a held-out cohort as JSONL and as CSV, and
    an evaluate config holding ``EVAL_POLICIES``."""
    tmp = tmp_path_factory.mktemp("exactness")
    fitting, cohort, bundle = (str(tmp / name) for name in
                               ("fitting.jsonl", "cohort.jsonl", "bundle.json"))
    sim, fit, config = (tmp / name for name in ("sim.json", "fit.json", "eval.json"))
    sim.write_text(json.dumps({"kind": "chronic", "config": {"n_patients": 300}}))
    fit.write_text(json.dumps({"model": "dtbls", "n_candidates": 3}))
    config.write_text(json.dumps({"policies": EVAL_POLICIES}))
    assert main(["simulate", "--config", str(sim), "--seed", "3", "--out", fitting]) == 0
    assert main(["fit", fitting, "--config", str(fit), "--seed", "4", "--out", bundle]) == 0
    assert main(["simulate", "--config", str(sim), "--seed", "6", "--out", cohort]) == 0
    save_dataset(load_dataset(cohort), str(tmp / "cohort.csv"))
    return tmp, bundle, str(config)


@pytest.mark.parametrize("case", [f"{kind}-{model}-wis" for kind in SIMULATORS
                                  for model in ("dt", "dts", "dtbls")] + ["chronic-dtbls-is"])
def test_experiment_reports_keep_their_bytes(case, tmp_path):
    kind, model, estimator = case.split("-")
    assert experiment_digests(kind, model, estimator, tmp_path) == EXPERIMENTS[case]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_evaluate_keeps_its_bytes(fmt, pipeline):
    tmp, bundle, config = pipeline
    out = tmp / f"eval_{fmt}.csv"
    assert main(["evaluate", str(tmp / f"cohort.{fmt}"), "--model", bundle,
                 "--config", config, "--seed", "2", "--out", str(out)]) == 0
    assert sha256(out) == EVALUATE[fmt]


def test_report_keeps_its_bytes(tmp_path):
    rows = run_experiment(ExperimentConfig(
        simulator=SIMULATORS["chronic"], n_repeats=3, model="dt", n_candidates=2,
        policies=POLICIES[:3], out_dir=str(tmp_path), seed=8))["rows"]
    out = tmp_path / "report.csv"
    assert main(["report", rows, "--out", str(out)]) == 0
    assert sha256(out) == REPORT


def test_monte_carlo_value_keeps_its_bits(pipeline):
    _, bundle, _ = pipeline
    model, _, state_config = load_bundle(bundle)
    policy = build_policy({"type": "mc_o", "k": 2, "epsilon": 0.05}, model)
    value = monte_carlo_value(policy, ChronicSimConfig(n_patients=10, seed=21), 500,
                              state_config)
    assert hashlib.sha256(repr(value).encode()).hexdigest() == MONTE_CARLO


@pytest.fixture(scope="module")
def episodic_bundle(tmp_path_factory):
    """A ``dtbls`` bundle fitted on a small episodic cohort (K=9)."""
    tmp = tmp_path_factory.mktemp("episodic")
    cohort, bundle = str(tmp / "cohort.jsonl"), str(tmp / "bundle.json")
    sim, fit = tmp / "sim.json", tmp / "fit.json"
    sim.write_text(json.dumps({"kind": "episodic",
                               "config": {"n_patients": 200, "dose_levels": 3}}))
    fit.write_text(json.dumps({"model": "dtbls", "n_candidates": 2}))
    assert main(["simulate", "--config", str(sim), "--seed", "7", "--out", cohort]) == 0
    assert main(["fit", cohort, "--config", str(fit), "--seed", "8", "--out", bundle]) == 0
    return bundle


def rollout(case, episodic_bundle):
    """The (policy, config, state config) of a ``ROLLOUTS`` case."""
    if case == "chronic-confounded-truth":
        cfg = ChronicSimConfig(n_patients=10, hidden_confounder=True, seed=23)
        return truth_policy(cfg), cfg, StateConfig()
    cfg = EpisodicSimConfig(n_patients=10, dose_levels=3, seed=27)
    if case == "episodic-truth":
        return truth_policy(cfg), cfg, StateConfig()
    model, _, state_config = load_bundle(episodic_bundle)
    return build_policy({"type": "mc", "k": 2, "epsilon": 0.1}, model), cfg, state_config


@pytest.mark.parametrize("case", ROLLOUTS)
def test_rollouts_keep_their_bits(case, episodic_bundle):
    policy, cfg, state_config = rollout(case, episodic_bundle)
    values = [monte_carlo_value(policy, cfg, n, state_config) for n in ROLLOUT_COUNTS]
    assert hashlib.sha256(repr(values).encode()).hexdigest() == ROLLOUTS[case]


@pytest.mark.parametrize("case", COHORTS)
def test_cohorts_keep_their_bits(case):
    generate, cfg, patients = COHORTS[case]
    ds = generate(cfg) if patients is None else generate(cfg, *patients)
    assert cohort_digest(ds) == COHORT_DIGESTS[case]
