"""Full-precision certificate golden.

The CLI goldens print six digits, so a last-bit drift in the rate pipeline
slips past them. This golden stores the ``repr`` of every float a
certificate carries and asserts exact equality, so any change to the order
of floating-point operations in ``diecert.rates`` shows up here.
Regenerate the outputs from the recorded inputs with
``python tests/test_golden_certificates.py``.

The inputs cover both modes, n from 1e4 to 1e15 and gamma from 1e-3 to 1,
with observed score omega_exp - delta_est/gamma >= 3/4. Row 12 scores within
3e-7 of omega_max, where the ceiling step tops need their margin in score.
"""

import json
from pathlib import Path

import pytest

from diecert.cli import main
from diecert.rates import (
    _LOG2_5,
    ErrorBudget,
    ProtocolParams,
    _cutoff_terms,
    certified_log_l,
    optimize_parameters,
)

from oracles import exact_step

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


CERTIFIED = GOLDEN["certified_log_l"]


@pytest.mark.parametrize("case", CERTIFIED, ids=lambda c: c["id"])
def test_v_and_pt_omega_read_the_cutoff(case, capsys):
    inputs = case["inputs"]
    cert = run_certified(inputs)
    v_half = _cutoff_terms(cert.params.p1_obs, cert.cutoff, cert.params.gamma, cert.mode)[1]
    assert cert.second_order_v == 2 * v_half
    argv = ["rate", "--exact"]
    for key, value in inputs.items():
        if key != "eps_cmp":  # --delta-est excludes it
            argv += [f"--{key.replace('_', '-')}", str(value)]
    assert main(argv) == 0
    exact = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert exact["pt_omega"] == cert.cutoff


def test_some_row_is_round_trip_lossy():
    # p_t(1) / gamma need not give the cutoff back, so v and pt_omega must
    # read the cutoff itself, as the test above checks on every row
    certs = [run_certified(case["inputs"]) for case in CERTIFIED]
    assert any(c.minimizer_pt.p1 / c.params.gamma != c.cutoff for c in certs)


def step_excess(outputs):
    """A ceiling row's stored gradient step less the 50-digit one at its
    stored cutoff and gamma: below 0 the certificate is optimistic."""
    stored = round(float(outputs["second_order_v"]) / 2 - _LOG2_5)
    return stored - exact_step(float(outputs["cutoff"]), float(outputs["gamma"]))


CEILING = [case for section in ("certified_log_l", "optimize_parameters")
           for case in GOLDEN[section] if case["inputs"]["mode"] == "ceiling"]


@pytest.mark.parametrize("case", CEILING, ids=lambda c: c["id"])
def test_ceiling_rows_store_the_exact_step(case):
    assert step_excess(case["outputs"]) == 0


RUNNERS = {"certified_log_l": run_certified, "optimize_parameters": run_optimized}


def _regenerate():
    """Recompute every row's outputs from its recorded inputs, printing each
    row's old -> new eta_opt_value, cutoff, rate_raw and eps_smo, and marking
    a row whose eta rose, an optimized row whose rate fell and a ceiling row
    whose new step is below or above the 50-digit one."""
    for section, run in RUNNERS.items():
        for case in GOLDEN[section]:
            old = case["outputs"]
            case["outputs"] = new = certificate_fields(run(case["inputs"]))
            changes = ", ".join(f"{k} {old.get(k)} -> {new[k]}"
                                for k in ("eta_opt_value", "cutoff", "rate_raw", "eps_smo"))
            marks = ""
            if old and float(new["eta_opt_value"]) > float(old["eta_opt_value"]):
                marks += "  ETA ROSE"
            if (old and section == "optimize_parameters"
                    and float(new["rate_raw"]) < float(old["rate_raw"])):
                marks += "  RATE FELL"
            if case["inputs"]["mode"] == "ceiling" and (excess := step_excess(new)):
                marks += "  STEP LOW" if excess < 0 else "  STEP HIGH"
            print(f"{case['id']}: {changes}{marks}")
    PATH.write_text(json.dumps(GOLDEN, indent=1) + "\n")


if __name__ == "__main__":
    _regenerate()
