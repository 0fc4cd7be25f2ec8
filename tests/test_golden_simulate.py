"""Model x mode simulator golden.

Pins what ``run_protocol`` produces for every device model in both protocol
modes, with and without ``project_test_rounds``, on two seeds:

- the SHA-256 of the transcript's CSV text, plus its win count
  and abort flag, compared exactly;
- per block pair (c, d), the number of kept states and the sum of their
  Bell-basis diagonals, compared to 1e-12 relative, because a kept state may
  be computed along a different floating-point route to the same matrix.

It also pins the ``repr`` of abort estimates (for the honest and classical
models, the exact binomial tail and its one-point interval) and the SHA-256
of two statistics-equivalence reports. The classical model's modified-mode cases
were recorded once deterministic strategies gained a Jordan block; before
that the modified mode crashed on them. Every other case was recorded with
the simulator as it stood before its per-round geometry was folded into
``_Source``.

``PYTHONPATH=src python tests/test_golden_simulate.py`` records the cases
the golden lacks and leaves the recorded ones alone; change a recorded case
only together with an argued change of the simulator's output.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from diecert.chsh import optimal_strategy, winning_probability
from diecert.quantum import bell_diagonal_entries, werner_state
from diecert.rates import ProtocolParams
from diecert.simulate import (
    ClassicalDeterministicDevice,
    HonestIIDDevice,
    MemorySwitcherDevice,
    NoisyDriftDevice,
    check_statistics_equivalence,
    estimate_abort_probability,
    kept_states,
    run_protocol,
)
from oracles import transcript_text
from test_simulate import (
    BlockPairDevice,
    drift_win_probabilities,
    memory_abort_probability,
    poisson_binomial_below,
)

PATH = Path(__file__).parent / "golden" / "simulate_models.json"
PARAMS = ProtocolParams(n=1500, gamma=0.3, omega_exp=0.8, delta_est=0.015)
SEEDS = (7, 2026)
MODES = (
    ("standard", False),
    ("standard", True),
    ("modified", False),
    ("modified", True),
)

MODELS = {
    "honest_xi0": lambda: HonestIIDDevice(optimal_strategy(werner_state(0.0).matrix)),
    "honest_xi0.13": lambda: HonestIIDDevice(
        optimal_strategy(werner_state(0.13).matrix)
    ),
    "classical_0000": lambda: ClassicalDeterministicDevice(0, 0, 0, 0),
    "classical_1011": lambda: ClassicalDeterministicDevice(1, 0, 1, 1),
    "memory": lambda: MemorySwitcherDevice(
        optimal_strategy(), optimal_strategy(werner_state(0.6).matrix)
    ),
    "drift": lambda: NoisyDriftDevice(0.01, 2e-4),
    "block_pair": BlockPairDevice,
}
EQUIVALENCE_MODELS = ("honest_xi0.13", "block_pair")


def transcript_cases():
    return [
        {"model": m, "mode": mode, "project_test_rounds": proj, "seed": seed}
        for m in MODELS
        for mode, proj in MODES
        for seed in SEEDS
    ]


def run_transcript(case):
    tr = run_protocol(
        MODELS[case["model"]](),
        PARAMS,
        case["mode"],
        seed=case["seed"],
        project_test_rounds=case["project_test_rounds"],
    )
    kept = {}
    for r, state in zip(tr.rounds, kept_states(MODELS[case["model"]](), tr)):
        if state is None:
            continue
        key = f"{r.c},{r.d}"
        diag = np.diag(bell_diagonal_entries(state)).real
        entry = kept.setdefault(key, {"rounds": 0, "bell_diagonal_sum": np.zeros(4)})
        entry["rounds"] += 1
        entry["bell_diagonal_sum"] = entry["bell_diagonal_sum"] + diag
    return {
        "sha256": hashlib.sha256(transcript_text(tr).encode()).hexdigest(),
        "win_count": tr.win_count,
        "aborted": tr.aborted,
        "kept": {
            k: {"rounds": v["rounds"], "bell_diagonal_sum": v["bell_diagonal_sum"].tolist()}
            for k, v in sorted(kept.items())
        },
    }


def run_abort(model):
    trials = 300 if model.startswith("honest") else 5
    estimate, interval = estimate_abort_probability(MODELS[model](), PARAMS, trials, seed=11)
    return {"estimate": repr(estimate), "interval": [repr(v) for v in interval]}


def run_equivalence(model):
    report = check_statistics_equivalence(MODELS[model](), PARAMS, trials=2, seed=12)
    return {"sha256": hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()}


def case_id(case):
    proj = "+proj" if case["project_test_rounds"] else ""
    return f"{case['model']}-{case['mode']}{proj}-s{case['seed']}"


GOLDEN = json.loads(PATH.read_text())


@pytest.mark.parametrize(
    "entry", GOLDEN["transcripts"], ids=lambda e: case_id(e["inputs"])
)
def test_transcript(entry):
    got = run_transcript(entry["inputs"])
    want = entry["outputs"]
    assert (got["sha256"], got["win_count"], got["aborted"]) == (
        want["sha256"],
        want["win_count"],
        want["aborted"],
    )
    assert sorted(got["kept"]) == sorted(want["kept"])
    for key, w in want["kept"].items():
        assert got["kept"][key]["rounds"] == w["rounds"]
        assert got["kept"][key]["bell_diagonal_sum"] == pytest.approx(
            w["bell_diagonal_sum"], rel=1e-12, abs=1e-12
        )


def test_every_model_and_mode_is_pinned():
    pinned = {case_id(e["inputs"]) for e in GOLDEN["transcripts"]}
    assert pinned == {case_id(c) for c in transcript_cases()}


@pytest.mark.parametrize("model", sorted(GOLDEN["abort_estimates"]))
def test_abort_estimate(model):
    assert run_abort(model) == GOLDEN["abort_estimates"][model]


@pytest.mark.parametrize("model", sorted(GOLDEN["equivalence"]))
def test_statistics_equivalence_report(model):
    assert run_equivalence(model) == GOLDEN["equivalence"][model]


def test_sequential_abort_estimates_hold_the_exact_value():
    # the DP oracles of test_simulate give drift and memory their exact abort
    # probability, which each recorded interval must hold; a 400-trial memory
    # estimate must hold it too (drift runs too slowly for that many trials)
    drift = MODELS["drift"]()
    even, odd = optimal_strategy(), optimal_strategy(werner_state(0.6).matrix)
    exact = {
        "drift": poisson_binomial_below(
            drift_win_probabilities(drift, PARAMS.n, PARAMS.gamma), PARAMS.min_wins
        ),
        "memory": memory_abort_probability(
            (winning_probability(even), winning_probability(odd)),
            PARAMS.gamma, PARAMS.n, PARAMS.min_wins,
        ),
    }
    for model, p in exact.items():
        low, high = map(float, GOLDEN["abort_estimates"][model]["interval"])
        assert low <= p <= high, model
    _, (low, high) = estimate_abort_probability(MODELS["memory"](), PARAMS, 400, seed=11)
    assert low <= exact["memory"] <= high


# Transcripts whose streams cross tile edges: n = 8195 = 2 * _TILE + 3, so
# `_draw` reads each stream in three tiles, while every case above fits in
# one. Recorded with the draw lists built whole, before `_draw` yielded tiles;
# modified mode projects the test rounds too. (SHA-256, win count, aborted).
TILE_PARAMS = ProtocolParams(n=8195, gamma=0.3, omega_exp=0.8, delta_est=0.015)
TILE_PINS = {
    ("honest_xi0.13", "standard"): (
        "705996002a8f3f0590d151e479a22880c07ad44bcabefafb7e4a78c33604396f", 2039, False),
    ("honest_xi0.13", "modified"): (
        "fc0b42d1dce1c06aa31dd6180ab99e10f73cf303b08f5ee8b1190bcd99be21cf", 2039, False),
    ("drift", "standard"): (
        "39b2dddeea0ad4104939adecc1bcb54047c5e4b64be123b43cf91278bd50b814", 1519, True),
    ("drift", "modified"): (
        "c4c178d1e60d5a66e94614134850c492e63ceab5e799cb3dae10ec4f239b8c53", 1519, True),
    ("block_pair", "standard"): (
        "4ea6f25844dd68d95df3f4a1ceed4db7dd3b197b039e467bd2f2aff3bb39b398", 1390, True),
    ("block_pair", "modified"): (
        "6ba49e7d40cbf242aa65fc38e42f0d0a8a607dcc1ddcc5f7c01de9959b437618", 1397, True),
}


@pytest.mark.parametrize("model, mode", TILE_PINS)
def test_transcript_across_tiles(model, mode):
    tr = run_protocol(MODELS[model](), TILE_PARAMS, mode, seed=7,
                      project_test_rounds=mode == "modified")
    digest = hashlib.sha256(transcript_text(tr).encode()).hexdigest()
    assert (digest, tr.win_count, tr.aborted) == TILE_PINS[model, mode]


def _regenerate():
    """Add the cases the golden lacks, computed with the simulator as it is.

    Recorded cases are kept as they are; delete one to record it again.
    """
    recorded = {case_id(e["inputs"]): e for e in GOLDEN["transcripts"]}
    for case in transcript_cases():
        if case_id(case) not in recorded:
            recorded[case_id(case)] = {"inputs": case, "outputs": run_transcript(case)}
    aborts, equivalence = GOLDEN["abort_estimates"], GOLDEN["equivalence"]
    golden = {
        "transcripts": [recorded[case_id(c)] for c in transcript_cases()],
        "abort_estimates": {m: aborts.get(m) or run_abort(m) for m in MODELS},
        "equivalence": {m: equivalence.get(m) or run_equivalence(m) for m in EQUIVALENCE_MODELS},
    }
    PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
