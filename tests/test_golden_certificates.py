"""Full-precision certificate golden.

The CLI goldens print six digits, so a last-bit drift in the rate pipeline
slips past them. This golden stores the ``repr`` of every float a
certificate carries and asserts exact equality, so any change to the order
of floating-point operations in ``diecert.rates`` shows up here.
Regenerate the outputs from the recorded inputs with
``python tests/test_golden_certificates.py``.

The inputs cover both modes, n from 1e4 to 1e12 and gamma from 1e-3 to 1,
with observed score omega_exp - delta_est/gamma >= 3/4.
"""

import json
from pathlib import Path

import pytest

from diecert.cli import main
from diecert.rates import (
    ErrorBudget,
    ProtocolParams,
    _v_half,
    certified_log_l,
    optimize_parameters,
)

PATH = Path(__file__).parent / "golden" / "certificates_exact.json"
GOLDEN = json.loads(PATH.read_text())


def certificate_fields(cert):
    """Every float a certificate carries, as its repr."""
    fields = {
        "eta_opt_value": cert.eta_opt_value,
        "cutoff": cert.cutoff,
        "pt_p0": cert.minimizer_pt.p0,
        "pt_p1": cert.minimizer_pt.p1,
        "pt_p_bot": cert.minimizer_pt.p_bot,
        "second_order_v": cert.second_order_v,
        "log_l": cert.log_l,
        "rate_raw": cert.rate_raw,
        "rate": cert.rate,
        "gamma": cert.params.gamma,
        "delta_est": cert.params.delta_est,
        "eps_smo": cert.errors.eps_smo,
    }
    return {k: repr(v) for k, v in fields.items()}


def run_certified(case):
    params = ProtocolParams(
        n=case["n"],
        gamma=float(case["gamma"]),
        omega_exp=float(case["omega_exp"]),
        delta_est=float(case["delta_est"]),
    )
    budget = ErrorBudget(
        eps_dist=float(case["eps_dist"]),
        eps_snd=float(case["eps_snd"]),
        eps_cmp=float(case["eps_cmp"]),
        eps_smo=float(case["eps_smo"]),
    )
    return certified_log_l(params, budget, case["mode"])


def run_optimized(case):
    return optimize_parameters(
        case["n"],
        float(case["omega_exp"]),
        float(case["eps_dist"]),
        float(case["eps_snd"]),
        float(case["eps_cmp"]),
        case["mode"],
    )


@pytest.mark.parametrize("case", GOLDEN["certified_log_l"], ids=lambda c: c["id"])
def test_certified_log_l_bit_identical(case):
    assert certificate_fields(run_certified(case["inputs"])) == case["outputs"]


@pytest.mark.parametrize("case", GOLDEN["optimize_parameters"], ids=lambda c: c["id"])
def test_optimize_parameters_bit_identical(case):
    assert certificate_fields(run_optimized(case["inputs"])) == case["outputs"]


# rows where p_t(1) / gamma is not the cutoff score the search computed eta at
ROUND_TRIP_LOSSY = ["ceiling-5", "printed-7", "ceiling-8"]
CERTIFIED = {case["id"]: case["inputs"] for case in GOLDEN["certified_log_l"]}


@pytest.mark.parametrize("case_id", ROUND_TRIP_LOSSY)
def test_v_and_pt_omega_read_the_cutoff(case_id, capsys):
    case = CERTIFIED[case_id]
    cert = run_certified(case)
    gamma = cert.params.gamma
    assert cert.minimizer_pt.p1 / gamma != cert.cutoff  # the round trip would lose it
    assert cert.second_order_v == 2 * _v_half(cert.cutoff, gamma, cert.mode)
    argv = ["rate", "--exact"]
    for key, value in case.items():
        if key != "eps_cmp":  # --delta-est excludes it
            argv += [f"--{key.replace('_', '-')}", str(value)]
    assert main(argv) == 0
    exact = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert exact["pt_omega"] == cert.cutoff


RUNNERS = {"certified_log_l": run_certified, "optimize_parameters": run_optimized}


def _regenerate():
    """Recompute every row's outputs from its recorded inputs, printing each
    row's old -> new rate_raw."""
    for section, run in RUNNERS.items():
        for case in GOLDEN[section]:
            old = case["outputs"].get("rate_raw")
            case["outputs"] = certificate_fields(run(case["inputs"]))
            print(f"{case['id']}: {old} -> {case['outputs']['rate_raw']}")
    PATH.write_text(json.dumps(GOLDEN, indent=1) + "\n")


if __name__ == "__main__":
    _regenerate()
