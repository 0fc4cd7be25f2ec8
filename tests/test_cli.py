import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diecert import rates, simulate
from diecert.chsh import optimal_strategy
from diecert.cli import _COMMANDS, _MODELS, _SWITCHES, main
from diecert.quantum import werner_state
from diecert.rates import ErrorBudget, ProtocolParams, certified_log_l, delta_est_for
from diecert.simulate import ClassicalDeterministicDevice, MemorySwitcherDevice, run_trials
from oracles import transcript_text
from test_simulate import CLI_MODELS, counting, exact_abort

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent / "configs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEntropyCurve:
    def test_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "entropy-curve", "--omega-values", "0.75,0.78,0.81,0.84,0.853553"
        )
        assert code == 0
        assert out == (GOLDEN / "entropy_curve_small.csv").read_text()

    def test_header(self, capsys):
        code, out, _ = run_cli(capsys, "entropy-curve", "--omega-values", "0.8")
        assert out.splitlines()[0] == "omega,beta,conditional_bound"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            capsys, "entropy-curve", "--omega-values", "0.8", "--out", str(target)
        )
        assert code == 0
        assert target.read_text().splitlines()[1].startswith("0.8,")

    def test_score_rounded_below_the_classical_point_reads_as_it(self, capsys):
        # check_score allows 1e-12 below 3/4; the bound must not refuse what it allowed
        code, out, _ = run_cli(capsys, "entropy-curve", "--omega-values", "0.7499999999995,0.75")
        assert code == 0
        assert out.splitlines()[1:] == ["0.75,2,0.201752"] * 2

    def test_rejects_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "entropy-curve", "--omega-values", "0.9")
        assert code == 1
        assert "error:" in err

    def test_default_grid_span(self, capsys):
        code, out, _ = run_cli(
            capsys, "entropy-curve", "--omega-min", "0.75", "--omega-max", "0.76",
            "--omega-step", "0.0025",
        )
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 5
        assert rows[0].startswith("0.75,")


class TestCurve:
    def test_golden(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "curve",
            "--n-values", "1e6",
            "--omega-values", "0.82,0.83,0.84",
            "--mode", "ceiling",
            "--asymptotic",
        )
        assert code == 0
        assert out == (GOLDEN / "curve_small.csv").read_text()

    def test_asymptotic_score_rounded_above_the_maximum_reads_as_it(self, capsys):
        # 9e-13 above omega_max: check_score allows it, and -g reads it at omega_max
        code, out, _ = run_cli(capsys, "curve", "--n-values", "1e6",
                               "--omega-values", "0.8535533905941737", "--asymptotic")
        assert code == 0
        assert out.splitlines()[-1] == "asymptotic,0.853553,1,1,,,,"

    def test_budget_too_small_for_the_search_names_it(self, capsys):
        # the search's first eps_smo, sqrt(eps_dist) / 2, times eps_snd underflows to 0
        code, _, err = run_cli(capsys, "curve", "--n-values", "1e6", "--omega-values", "0.8",
                               "--eps-dist", "1e-300", "--eps-snd", "1e-300")
        assert code == 1
        assert err.startswith("error: eps_dist=1e-300 and eps_snd=1e-300 are too small")


class TestRate:
    def test_golden_fixed_parameters(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate", "--n", "1e8", "--omega-exp", "0.84",
            "--gamma", "0.01", "--eps-smo", "1e-4", "--eps-dist", "1e-6",
            "--eps-snd", "1e-6", "--delta-est", "1e-5",
        )
        assert code == 0
        assert out == (GOLDEN / "rate_fixed.txt").read_text()

    def test_exact_flag_appends_json(self, capsys):
        _, out, _ = run_cli(
            capsys, "rate", "--n", "1e6", "--omega-exp", "0.84",
            "--gamma", "0.1", "--eps-smo", "1e-4", "--eps-dist", "1e-6",
            "--eps-snd", "1e-6", "--delta-est", "1e-4",
            "--exact",
        )
        exact = json.loads(out.strip().splitlines()[-1])
        assert exact["omega_exp"] == 0.84
        assert "rate_raw" in exact and "eta_opt" in exact

    def test_out_json(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        code, _, _ = run_cli(
            capsys, "rate", "--n", "1e6", "--omega-exp", "0.84",
            "--gamma", "0.1", "--eps-smo", "1e-4", "--eps-dist", "1e-6",
            "--eps-snd", "1e-6", "--delta-est", "1e-4",
            "--out", str(target),
        )
        assert code == 0
        record = json.loads(target.read_text())
        assert record["n"] == 10**6
        assert record["rate"] == max(record["rate_raw"], 0.0)

    def test_delta_est_sets_eps_cmp(self, capsys):
        # the record states the completeness error its delta_est has, exp(-2)
        code, out, _ = run_cli(
            capsys, "rate", "--n", "1e6", "--omega-exp", "0.84", "--gamma", "0.1",
            "--eps-smo", "1e-4", "--delta-est", "1e-3",
        )
        assert code == 0
        assert "eps_cmp = 0.135335\n" in out

    def test_optimizing_path(self, capsys):
        point = ["rate", "--n", "1e6", "--omega-exp", "0.83225", "--mode", "ceiling"]
        code, out, _ = run_cli(capsys, *point, "--exact")
        assert code == 0
        values = dict(
            line.split(" = ") for line in out.strip().splitlines() if " = " in line
        )
        assert float(values["rate"]) == pytest.approx(0.081133, abs=0.01)
        # the search returns the certificate of the parameters it reports
        exact = out.strip().splitlines()[-1]
        found = json.loads(exact)
        fixed = [
            f"--{k.replace('_', '-')}={found[k]!r}" for k in ("gamma", "eps_smo")
        ]
        code, again, _ = run_cli(capsys, *point, *fixed, "--exact")
        assert code == 0
        assert again.strip().splitlines()[-1] == exact

    @pytest.mark.parametrize("omega_exp, eps_snd", [("0.8", "1e-300")])
    def test_budget_too_small_for_the_search_names_it(self, capsys, omega_exp, eps_snd):
        # no --eps-smo is given: the error names the budget, not the search's eps_smo
        code, out, err = run_cli(capsys, "rate", "--n", "1e6", "--omega-exp", omega_exp,
                                 "--eps-dist", "1e-300", "--eps-snd", eps_snd)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: eps_dist=1e-300 and eps_snd={eps_snd} are too small")

    def test_tiny_budget_the_search_keeps_positive_certifies_zero(self, capsys):
        # the searched eps_smo stays near sqrt(eps_dist) = 1e-150, so its
        # product with eps_snd = 1e-172 does not underflow
        code, out, _ = run_cli(capsys, "rate", "--n", "1e6", "--omega-exp", "0.8",
                               "--eps-dist", "1e-300", "--eps-snd", "1e-172")
        assert code == 0
        assert "rate = 0\n" in out

    def test_huge_n_searches_eps_smo_below_sqrt_eps_dist(self, capsys):
        # at n = 1e24 the stationary eps_smo rounds to sqrt(eps_dist) itself,
        # which the budget refuses: the search must stay one float below it
        code, out, _ = run_cli(capsys, "rate", "--n", "1e24", "--omega-exp", "0.85",
                               "--mode", "ceiling")
        assert code == 0
        assert "rate = 0.90875\n" in out

    def test_low_score_certifies_nothing(self, capsys):
        # the observed score 0.76 - 0.3/0.5 = 0.16 is far below 3/4
        code, out, _ = run_cli(
            capsys, "rate", "--n", "1e8", "--omega-exp", "0.76", "--gamma", "0.5",
            "--eps-smo", "1e-4", "--eps-dist", "1e-6", "--eps-snd", "1e-6",
            "--delta-est", "0.3", "--mode", "ceiling",
        )
        assert code == 0
        assert "rate = 0\n" in out

    @pytest.mark.parametrize("route, value, n", [
        ("flag", "9007199254740993", 2**53 + 1),
        ("flag", "1e23", 10**23),
        ("flag", "1e308", 10**308),
        ("config", 9007199254740993, 2**53 + 1),
        ("config", "1e23", 10**23),
        ("config", 1.5e6, 1500000),
        ("config-text", "1e23", 10**23),
        ("config-text", "9007199254740993.0", 2**53 + 1),
    ], ids=["flag-2^53+1", "flag-1e23", "flag-1e308", "config-int-2^53+1",
            "config-string-1e23", "config-float-1.5e6", "config-float-1e23",
            "config-float-2^53+1"])
    def test_count_is_read_exactly(self, capsys, tmp_path, route, value, n):
        # not through a float, which rounds above 2^53; up to the float range
        # the rates take it, delta_est's 2n included. A "config-text" value
        # is the JSON number text itself, which a Python float cannot hold.
        argv = ["rate", "--omega-exp", "0.84", "--gamma", "0.01", "--eps-smo", "1e-4"]
        if route == "flag":
            argv += ["--n", value]
        else:
            cfgfile = tmp_path / "cfg.json"
            text = value if route == "config-text" else json.dumps(value)
            cfgfile.write_text(f'{{"n": {text}}}')
            argv += ["--config", str(cfgfile)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith(f"n = {n}\n")

    def test_missing_required_option(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--n", "1e6")
        assert code == 1
        assert "omega-exp" in err


class TestConfigFile:
    def test_config_supplies_options(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "n": 1e6, "omega_exp": 0.84, "gamma": 0.1, "eps_smo": 1e-4,
            "eps_dist": 1e-6, "eps_snd": 1e-6, "delta_est": 1e-4,
        }))
        code, out, _ = run_cli(capsys, "rate", "--config", str(cfgfile))
        assert code == 0
        assert "omega_exp = 0.84" in out

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "n": 1e6, "omega_exp": 0.80, "gamma": 0.1, "eps_smo": 1e-4,
            "eps_dist": 1e-6, "eps_snd": 1e-6, "delta_est": 1e-4,
        }))
        code, out, _ = run_cli(
            capsys, "rate", "--config", str(cfgfile), "--omega-exp", "0.84"
        )
        assert code == 0
        assert "omega_exp = 0.84" in out

    def test_invalid_json_fails_cleanly(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text("{not json")
        code, _, err = run_cli(capsys, "rate", "--config", str(cfgfile))
        assert code == 1
        assert "error:" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--config", "/nonexistent.json")
        assert code == 1

    def test_config_must_be_an_object(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text("[1]")
        code, _, err = run_cli(capsys, "rate", "--config", str(cfgfile))
        assert code == 1
        assert "error: config file must contain a JSON object" in err

    @pytest.mark.parametrize("argv, text", [
        (["rate"], '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}"),
        (["simulate"], "[" * 50_000),
    ], ids=["rate-100000", "simulate-50000"])
    def test_deep_nesting_fails_cleanly(self, argv, text, tmp_path):
        # json's decoder recurses once per level and would end in a RecursionError
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(text)
        assert _run_quietly([*argv, "--config", str(cfgfile)]) == (
            1, "error: config file nests too deeply\n")


def _exact_abort(table, **params) -> float:
    """The exact abort probability of a classical table, as simulate prints it."""
    model, p = ClassicalDeterministicDevice(*table), ProtocolParams(**params)
    return float(f"{float(exact_abort(model, p)):.6g}")


class TestSimulate:
    def test_golden_summary_and_transcript(self, capsys, tmp_path):
        target = tmp_path / "transcript.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--model", "honest", "--n", "2000",
            "--gamma", "0.5", "--omega-exp", "0.8", "--delta-est", "0.05",
            "--trials", "50", "--seed", "3", "--out", str(target),
        )
        assert code == 0
        assert out == (GOLDEN / "simulate_summary.json").read_text()
        assert target.read_text() == (GOLDEN / "simulate_transcript.csv").read_text()

    @pytest.mark.parametrize("model", list(_MODELS))
    def test_every_model_builds_one_jordan_geometry(self, capsys, monkeypatch, model):
        # every built-in model plays observables from one shared set, so a
        # second model on the same ones builds no geometry; the standard
        # protocol needs none
        simulate._geometry.cache_clear()
        calls = counting(monkeypatch, "jordan_blocks")
        for protocol, want in (("standard", 0), ("modified", 2), ("modified", 0)):
            calls.clear()
            code, _, _ = run_cli(
                capsys, "simulate", "--model", model, "--n", "300", "--gamma", "0.5",
                "--omega-exp", "0.8", "--trials", "2", "--seed", "6", "--protocol", protocol,
            )
            assert code == 0 and len(calls) == want

    def test_classical_model_aborts(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--model", "classical", "--table", "0,0,0,0",
            "--n", "2000", "--gamma", "0.5", "--omega-exp", "0.85",
            "--delta-est", "0.01", "--trials", "20", "--seed", "1",
        )
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        want = _exact_abort((0, 0, 0, 0), n=2000, gamma=0.5, omega_exp=0.85, delta_est=0.01)
        assert summary["abort_estimate"] == want == 0.999869
        assert summary["interval"] == [want, want]

    def test_modified_protocol_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--model", "honest", "--protocol", "modified",
            "--n", "500", "--gamma", "0.5", "--omega-exp", "0.8",
            "--delta-est", "0.05", "--trials", "5", "--seed", "2",
        )
        assert code == 0
        assert "mode=modified" in out

    def test_classical_model_modified_protocol(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--model", "classical", "--table", "1,0,1,1",
            "--protocol", "modified", "--n", "500", "--gamma", "0.5",
            "--omega-exp", "0.85", "--delta-est", "0.01", "--trials", "5",
            "--seed", "1",
        )
        assert code == 0, err
        assert "mode=modified" in out
        want = _exact_abort((1, 0, 1, 1), n=500, gamma=0.5, omega_exp=0.85, delta_est=0.01)
        assert json.loads(out.strip().splitlines()[-1])["abort_estimate"] == want == 0.967053

    def test_out_file_is_written_as_the_rows_come(self, tmp_path):
        # the whole text, built before the write, would peak near 22 MB here
        argv = ["simulate", "--model", "honest", "--xi", "0.1", "--gamma", "0.5",
                "--omega-exp", "0.8", "--delta-est", "0.05", "--trials", "1", "--seed", "3"]
        target = tmp_path / "run.csv"
        assert _run_quietly([*argv, "--n", "100", "--out", str(target)]) == (0, "")  # warm-up
        params = ProtocolParams(n=200_000, gamma=0.5, omega_exp=0.8, delta_est=0.05)
        first = run_trials(CLI_MODELS["honest"](), params, 1, 3)[0]
        kept = sys.getsizeof(first.rounds)  # the rows are a few shared records
        tracemalloc.start()
        try:
            assert _run_quietly([*argv, "--n", "200000", "--out", str(target)]) == (0, "")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < kept + 3 * 2**20
        assert target.read_text() == transcript_text(first)

    def test_negative_exponent_value_is_read_as_its_flag_value(self, capsys):
        argv = ["simulate", "--model", "drift", "--xi", "0.5", "--n", "200",
                "--omega-exp", "0.8", "--trials", "3"]
        code, joined, _ = run_cli(capsys, *argv, "--xi-slope=-1e-3")
        assert code == 0
        assert run_cli(capsys, *argv, "--xi-slope", "-1e-3") == (0, joined, "")

    @pytest.mark.parametrize("token", ["-inf", "-nan", "-Infinity", "-INF"])
    def test_negative_non_finite_value_is_read_as_its_flag_value(self, capsys, token):
        argv = ["simulate", "--model", "drift", "--n", "200", "--omega-exp", "0.8",
                "--trials", "3", "--xi-slope"]
        error = f"error: xi_slope={float(token)} is not finite\n"
        assert run_cli(capsys, *argv, token) == (1, "", error)
        assert run_cli(capsys, *argv[:-1], f"--xi-slope={token}") == (1, "", error)

    _MEMORY = ["simulate", "--model", "memory", "--n", "300", "--gamma", "0.5",
               "--omega-exp", "0.8", "--delta-est", "0.05", "--trials", "3", "--seed", "4"]

    def test_memory_model_floors_xi_at_one_half(self, capsys):
        # the range check sees 0.2; the noisy strategy is built at 0.5
        code, low, _ = run_cli(capsys, *self._MEMORY, "--xi", "0.2")
        assert code == 0
        assert run_cli(capsys, *self._MEMORY, "--xi", "0.5") == (0, low, "")

    def test_memory_model_switches_to_the_werner_source(self, capsys):
        code, out, _ = run_cli(capsys, *self._MEMORY, "--xi", "0.6")
        assert code == 0
        params = ProtocolParams(n=300, gamma=0.5, omega_exp=0.8, delta_est=0.05)
        model = MemorySwitcherDevice(optimal_strategy(),
                                     optimal_strategy(werner_state(0.6).matrix))
        first = run_trials(model, params, 3, 4)[0]
        assert out.splitlines()[:-1] == list(first.lines())

    @pytest.mark.parametrize("xi", ["nan", "-0.5", "1.5"])
    def test_xi_outside_the_unit_interval_reads_alike_for_every_model(self, xi):
        # werner_state is the one check, whichever model reads --xi
        for model in ("honest", "memory", "drift"):
            argv = ["simulate", "--model", model, "--n", "100", "--omega-exp", "0.8", f"--xi={xi}"]
            assert _run(argv) == (1, "", f"error: xi={float(xi)} outside [0, 1]\n")

    @pytest.mark.parametrize("model, option, value", [
        ("honest", "xi_slope", "1e-3"), ("honest", "table", "0,0,0,0"),
        ("classical", "xi", "0.3"), ("classical", "xi_slope", "1e-3"),
        ("memory", "xi_slope", "1e-3"), ("memory", "table", "0,0,0,0"),
        ("drift", "table", "0,0,0,0"),
    ])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_option_the_model_never_reads_is_rejected(self, model, option, value, route,
                                                      tmp_path):
        # it would otherwise be dropped without a word
        argv = ["simulate", "--model", model, "--n", "100", "--omega-exp", "0.8"]
        flag = "--" + option.replace("_", "-")
        if route == "flag":
            argv += [flag, value]
        else:
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps({option: value}))
            argv += ["--config", str(cfgfile)]
        assert _run_quietly(argv) == (1, f"error: {flag} is not read by --model {model}\n")

    def test_unknown_model(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--model", "psychic", "--n", "100",
            "--omega-exp", "0.8",
        )
        assert code == 1
        assert "unknown model" in err


def _run(argv):
    """Exit code, stdout and stderr of cli.main, counting argparse's exit as a code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _run_quietly(argv):
    """Exit code and stderr of cli.main, counting argparse's exit as a code."""
    code, _, err = _run(argv)
    return code, err


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


_MALFORMED = st.one_of(
    st.text(alphabet="0123456789.,-+eEinfa _", max_size=12),
    st.sampled_from(["inf", "-inf", "nan", "0", "-1", "1e-300", "1e30", "1e400", ","]),
)
_SIMULATE = ["--omega-exp", "0.8", "--gamma", "0.5", "--trials", "2"]


class TestMalformedInput:
    """Every input either runs or ends in exit 1 with an error line; argparse
    rejections exit 2. None ends in a traceback."""

    @pytest.mark.parametrize("argv", [
        ["rate", "--n", "inf", "--omega-exp", "0.84"],
        ["rate", "--n", "abc", "--omega-exp", "0.84"],
        ["simulate", "--model", "classical", "--table", "0,1", "--n", "100",
         "--omega-exp", "0.8"],
        ["simulate", "--n", "1e30", "--omega-exp", "0.8"],
        ["simulate", "--n", "100", "--omega-exp", "0.8", "--trials", "1000000000"],
        ["simulate", "--n", "100", "--omega-exp", "0.8", "--seed", "-1"],
        # about 10^11 points if it were built
        ["entropy-curve", "--omega-step", "1e-12"],
        ["entropy-curve", "--omega-values", "nan"],
        ["rate", "--n", "1e6", "--omega-exp", "abc"],
        ["simulate", "--n", "100", "--omega-exp", "0.8", "--gamma", "abc"],
        ["simulate", "--n", "100", "--omega-exp", "0.8", "--trials", "1.5"],
        ["rate", "--n", "1e6", "--omega-exp", "0.84", "--mode", "bogus"],
        ["rate", "--n", "1e6", "--omega-exp", "0.84", "--gamma", "0.1", "--eps-smo", "1e-4",
         "--config", str(CONFIGS / "exact_string.json")],
        ["curve", "--n-values", "1e6", "--omega-values", "0.84",
         "--config", str(CONFIGS / "asymptotic_string.json")],
        # a fixed parameter given alone would be dropped for a search
        ["rate", "--n", "1e6", "--omega-exp", "0.84", "--gamma", "0.1"],
        ["rate", "--n", "1e6", "--omega-exp", "0.84", "--eps-smo", "1e-4"],
        ["rate", "--n", "1e6", "--omega-exp", "0.84", "--delta-est", "0.001"],
        ["rate", "--n", "1e6", "--omega-exp", "0.84", "--eps-snd", "0"],
        ["curve", "--n-values", "1e6", "--omega-values", "0.84", "--eps-snd", "0"],
        ["rate", "--n", "1e6", "--omega-exp", "0.84",
         "--config", str(CONFIGS / "not_utf8.json")],
        ["simulate", "--n", "100", "--omega-exp", "0.8",
         "--config", str(CONFIGS / "trials_bool.json")],
        ["simulate", "--model", "classical", "--n", "100", "--omega-exp", "0.8",
         "--config", str(CONFIGS / "table_bool.json")],
        # JSON true and false are values for a switch and for nothing else
        ["rate", "--n", "1e8", "--omega-exp", "0.84",
         "--config", str(CONFIGS / "gamma_bool.json")],
        ["simulate", "--n", "100", "--omega-exp", "0.8", "--trials", "2",
         "--config", str(CONFIGS / "xi_bool.json")],
        ["entropy-curve", "--config", str(CONFIGS / "omega_values_bool.json")],
        # an explicitly given list has at least one element
        ["entropy-curve", "--omega-values", ""],
        ["entropy-curve", "--config", str(CONFIGS / "omega_values_empty.json")],
        ["curve", "--n-values", ""],
        # a device's noise parameter lies in [0, 1] and its drift is finite
        ["simulate", "--model", "drift", "--xi", "2", "--n", "100", "--omega-exp", "0.8"],
        ["simulate", "--model", "drift", "--xi", "-0.5", "--n", "100", "--omega-exp", "0.8"],
        ["simulate", "--model", "memory", "--xi", "-5", "--n", "100", "--omega-exp", "0.8"],
        ["simulate", "--model", "drift", "--xi-slope", "nan", "--n", "100",
         "--omega-exp", "0.8"],
        # a misspelt key would otherwise leave its option at the default
        ["rate", "--config", str(CONFIGS / "unknown_key.json")],
        # a negative value in exponent form reaches the range check
        ["rate", "--n", "1e6", "--omega-exp", "0.84", "--gamma", "0.5", "--eps-smo", "1e-4",
         "--delta-est", "-1e-3"],
        # too few rounds or too small an eps_cmp for a confidence width below 1
        ["simulate", "--n", "2", "--omega-exp", "0.8"],
        ["rate", "--n", "1", "--omega-exp", "0.8"],
        ["rate", "--n", "100", "--omega-exp", "0.8", "--eps-cmp", "1e-320"],
    ], ids=["rate-n-inf", "rate-n-abc", "table-two-bits", "simulate-n-1e30",
            "simulate-trials-1e9", "simulate-seed-negative", "entropy-curve-step-1e-12",
            "entropy-curve-nan", "rate-omega-exp-abc",
            "simulate-gamma-abc", "simulate-trials-1.5", "rate-mode-bogus",
            "config-exact-string", "config-asymptotic-string", "rate-gamma-alone",
            "rate-eps-smo-alone", "rate-delta-est-alone", "rate-eps-snd-0",
            "curve-eps-snd-0", "config-not-utf8", "config-trials-bool",
            "config-table-bool", "config-gamma-bool", "config-xi-bool",
            "config-omega-values-bool", "entropy-curve-omega-values-empty",
            "config-omega-values-empty", "curve-n-values-empty", "drift-xi-2",
            "drift-xi-negative", "memory-xi-negative", "drift-xi-slope-nan",
            "config-unknown-key", "rate-delta-est-negative-exponent", "simulate-width-n-2",
            "rate-width-n-1", "rate-width-eps-cmp-1e-320"])
    def test_rejected_with_error_line(self, argv):
        code, err = _run_quietly(argv)
        assert code == 1
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [
        "2e308", "1e309", "inf", "1.0000000000000001", "9007199254740993.5", 10**400,
    ])
    def test_count_not_whole_or_beyond_a_float_rejected(self, value, tmp_path):
        # by flag and by config; a float would round the middle two to whole
        # numbers, and a count past the float range would overflow the rates
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": value}))
        common = ["rate", "--omega-exp", "0.84", "--gamma", "0.01", "--eps-smo", "1e-4"]
        for argv in ([*common, "--n", str(value)], [*common, "--config", str(cfgfile)]):
            code, err = _run_quietly(argv)
            assert code == 1
            assert err.startswith("error: --n: ") and "Traceback" not in err

    @pytest.mark.parametrize("option, argv", [
        ("eps_snd", ["rate", "--n", "1e6", "--omega-exp", "0.84", "--eps-snd", "0"]),
        ("eps_snd", ["curve", "--n-values", "1e6", "--omega-values", "0.84", "--eps-snd", "0"]),
        ("eps_dist", ["rate", "--n", "1e6", "--omega-exp", "0.84", "--eps-dist", "0"]),
        ("eps_dist", ["rate", "--n", "1e6", "--omega-exp", "0.84", "--gamma", "0.1",
                      "--eps-smo", "1e-4", "--eps-dist", "0"]),
    ], ids=["rate-eps-snd-0", "curve-eps-snd-0", "rate-eps-dist-0", "rate-fixed-eps-dist-0"])
    def test_zero_budget_entry_is_named(self, option, argv):
        # not eps_smo, which the search chose and the user never gave
        code, err = _run_quietly(argv)
        assert (code, err) == (1, f"error: {option}=0.0 outside (0, 1]\n")

    def test_unknown_config_key_is_named(self):
        code, err = _run_quietly(["rate", "--config", str(CONFIGS / "unknown_key.json")])
        assert (code, err) == (1, "error: unknown config keys: eps_sound\n")

    @pytest.mark.parametrize("argv", [
        ["rate", "--n", "1e6", "--omega-exp", "0.84", "--gamma", "0.1", "--eps-smo", "1e-4"],
        ["simulate", "--n", "100", "--omega-exp", "0.8", "--trials", "1"],
    ], ids=["rate", "simulate"])
    @pytest.mark.parametrize("by_flag", [("delta_est", "eps_cmp"), ("delta_est",), ()],
                             ids=["flags", "mixed", "config"])
    def test_delta_est_excludes_eps_cmp(self, argv, by_flag, tmp_path):
        # one choice: Hoeffding ties them by eps_cmp = exp(-2 n delta_est^2)
        values = {"delta_est": 1e-3, "eps_cmp": 1e-6}
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({k: v for k, v in values.items() if k not in by_flag}))
        flags = [a for k in by_flag for a in (f"--{k.replace('_', '-')}", str(values[k]))]
        code, err = _run_quietly([*argv, *flags, "--config", str(cfgfile)])
        assert (code, err) == (
            1, "error: --delta-est excludes --eps-cmp: it sets eps_cmp = exp(-2 n delta^2)\n")

    @pytest.mark.filterwarnings("ignore:omega_exp")  # the threshold is vacuous
    @pytest.mark.parametrize("mode", ["printed", "ceiling"])
    def test_tiny_gamma_certifies_nothing(self, capsys, mode):
        # (1 - gamma)/gamma overflows, so v and eta are infinite; at the
        # smallest normal gamma f_max is -inf too, and eta must not be nan
        for tail in (["--gamma", "1e-307"],
                     ["--gamma", "2.2250738585072014e-308", "--delta-est", "0"]):
            code, out, err = run_cli(
                capsys, "rate", "--n", "1e6", "--omega-exp", "0.84", "--eps-smo", "1e-4",
                "--mode", mode, *tail,
            )
            assert code == 0 and "rate = 0\n" in out and "Traceback" not in err

    @pytest.mark.parametrize("mode", ["printed", "ceiling"])
    @pytest.mark.parametrize("gamma", ["1e-321", "5e-324"])
    def test_subnormal_gamma_rejected(self, gamma, mode):
        # omega_exp * gamma and minimizer_pt's cutoff * gamma round to
        # multiples of 5e-324: at gamma = 1e-323 both read a score of 1
        code, err = _run_quietly([
            "rate", "--n", "1e6", "--omega-exp", "0.84", "--gamma", gamma, "--eps-smo", "1e-4",
            "--mode", mode,
        ])
        assert (code, err) == (1, f"error: gamma={float(gamma)!r} is subnormal\n")

    @pytest.mark.parametrize("option, value", [
        ("seed", "3.0"), ("seed", "1e3"), ("table", "0.0,1,0,1"),
        ("seed", 3.0), ("seed", 1e3), ("seed", 1e30), ("table", [0.0, 1, 0, 1]),
    ], ids=["flag-seed-3.0", "flag-seed-1e3", "flag-table-0.0", "config-seed-3.0",
            "config-seed-1e3", "config-seed-1e30", "config-table-0.0"])
    def test_integer_option_rejects_a_float_by_either_route(self, option, value, tmp_path):
        argv = ["simulate", "--model", "classical", "--n", "100", "--omega-exp", "0.8",
                "--trials", "1", "--out", str(tmp_path / "run.csv")]
        if isinstance(value, str):
            argv += [f"--{option}", value]
        else:
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps({option: value}))
            argv += ["--config", str(cfgfile)]
        code, err = _run_quietly(argv)
        assert code == 1
        assert err.startswith(f"error: --{option}: ")
        assert err.endswith(" is not a non-negative integer\n")

    @pytest.mark.parametrize("option, argv", [
        ("omega-step", ["entropy-curve", "--omega-step", "inf"]),
        ("omega-step", ["curve", "--n-values", "1e6", "--omega-step", "inf"]),
        ("omega-min", ["entropy-curve", "--omega-min", "nan"]),
        ("omega-max", ["entropy-curve", "--omega-max=-inf"]),
    ], ids=["entropy-curve-step-inf", "curve-step-inf", "min-nan", "max-minus-inf"])
    def test_non_finite_grid_option_is_named(self, option, argv):
        code, err = _run_quietly(argv)
        assert code == 1
        assert err.startswith(f"error: --{option}: ") and err.endswith(" is not finite\n")

    @pytest.mark.parametrize("option, argv", [
        ("gamma", ["rate", "--n", "1e8", "--omega-exp", "0.84"]),
        ("xi", ["simulate", "--n", "100", "--omega-exp", "0.8", "--trials", "2"]),
        ("omega_values", ["entropy-curve"]),
    ])
    def test_json_boolean_rejected_as_its_option(self, option, argv):
        # not taken as 1.0 or 0.0, nor rejected later as a score out of range
        code, err = _run_quietly([*argv, "--config", str(CONFIGS / f"{option}_bool.json")])
        assert code == 1
        assert f"error: --{option.replace('_', '-')}: True is not a value here" in err

    @pytest.mark.parametrize("option, argv, config", [
        ("omega-values", ["entropy-curve"], "omega_values_int"),
        ("omega-values", ["entropy-curve"], "omega_values_zero"),
        # an object's keys would be read as the list
        ("n-values", ["curve", "--omega-values", "0.84"], "n_values_object"),
        ("table", ["simulate", "--model", "classical", "--n", "100", "--omega-exp", "0.8"],
         "table_int"),
    ], ids=["omega-values-5", "omega-values-0", "n-values-object", "table-1"])
    def test_list_option_rejects_a_json_scalar_or_object(self, option, argv, config):
        code, err = _run_quietly([*argv, "--config", str(CONFIGS / f"{config}.json")])
        assert code == 1
        assert f"error: --{option}: " in err and "is not a list" in err

    @pytest.mark.parametrize("option, argv", [
        ("omega-values", ["entropy-curve"]),
        ("omega-values", ["curve", "--n-values", "1e6"]),
        ("n-values", ["curve", "--omega-values", "0.84"]),
        ("table", ["simulate", "--model", "classical", "--n", "100", "--omega-exp", "0.8"]),
    ], ids=["entropy-curve-omega-values", "curve-omega-values", "curve-n-values",
            "simulate-table"])
    def test_list_option_holds_at_most_a_grid_of_values(self, option, argv, tmp_path):
        # a list would otherwise skip the cap a min/max/step grid has
        value = {"omega-values": 0.8, "n-values": 1e6, "table": 0}[option]
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({option.replace("-", "_"): [value] * 100_001}))
        flag = ",".join([str(value)] * 100_001)
        cap = f"error: --{option}: needs 1 to 100000 values, got 100001\n"
        assert _run_quietly([*argv, "--config", str(cfgfile)]) == (1, cap)
        assert _run_quietly([*argv, f"--{option}", flag]) == (1, cap)

    @pytest.mark.parametrize("argv, n_count, score_count", [
        (["--omega-values", ",".join(["0.8"] * 20_001)], 5, 20_001),
        (["--n-values", ",".join(["1e6"] * 333), "--omega-min", "0.8", "--omega-max", "0.83",
          "--omega-step", "1e-4"], 333, 301),
    ], ids=["default-n-values", "n-values-by-grid"])
    def test_curve_certifies_at_most_a_grid_of_points(self, argv, n_count, score_count):
        # each list is within the cap, but curve certifies every (n, score) pair
        assert _run_quietly(["curve", *argv]) == (1, f"error: curve of more than 100000 points: "
                                                     f"{n_count} n values times {score_count} scores\n")

    def test_list_of_a_grid_of_values_passes_the_cap(self):
        # 10^5 bits reach the table's own check, past the list cap, which names
        # their count and does not echo them
        flag = ",".join(["0"] * 100_000)
        assert _run_quietly(["simulate", "--model", "classical", "--n", "100", "--omega-exp",
                             "0.8", "--table", flag]) == (
            1, "error: --table needs four bits a0,a1,b0,b1, got 100000\n")

    def test_table_bit_other_than_0_or_1_is_named(self):
        argv = ["simulate", "--model", "classical", "--n", "100", "--omega-exp", "0.8"]
        assert _run_quietly([*argv, "--table", "0,1,2,0"]) == (
            1, "error: table bits 0,1,2,0 are not all 0 or 1\n")

    def test_long_echo_is_cut_in_its_middle(self):
        code, err = _run_quietly(["rate", "--n", "1" + "0" * 5000, "--omega-exp", "0.84"])
        assert code == 1 and len(err) < 300 and err.count("\n") == 1
        assert err.startswith("error: --n: '1000") and " ... " in err
        assert err.endswith("000' is not a positive integer\n")

    @pytest.mark.parametrize("argv, config, err", [
        (["entropy-curve"], '{"omega_values": 0.84}', "--omega-values: 0.84 is not a list"),
        (["rate", "--n", "1e6", "--omega-exp", "0.84", "--gamma", "0.1", "--eps-smo", "1e-4"],
         '{"exact": 1.0}', "--exact: 1.0 is not true or false"),
        (["simulate", "--n", "100", "--omega-exp", "0.8", "--trials", "1"],
         '{"seed": 1e3}', "--seed: 1E+3 is not a non-negative integer"),
        (["entropy-curve"], '{"omega_step": 1e400}', "--omega-step: 1E+400 is not finite"),
    ], ids=["list-0.84", "switch-1.0", "seed-1e3", "step-1e400"])
    def test_json_number_is_named_as_written(self, argv, config, err, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(config)
        assert _run_quietly([*argv, "--config", str(cfgfile)]) == (1, f"error: {err}\n")

    @pytest.mark.parametrize("command", ["verify-bound", "verify-twirl"])
    def test_removed_subcommand_is_an_invalid_choice(self, command):
        code, err = _run_quietly([command])
        assert code == 2
        assert "invalid choice" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["entropy-curve", "--omega-values", "0.8", "--omega-min", "0.76", "--omega-max", "0.77",
         "--omega-step", "0.005"],
        ["curve", "--n-values", "1e6", "--omega-values", "0.8", "--omega-step", "0.005"],
    ], ids=["entropy-curve", "curve"])
    def test_omega_values_exclude_range_flags(self, argv, tmp_path):
        # a range flag beside the list would be dropped without a word
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"omega_min": 0.76}))
        for args in (argv, [*argv[:argv.index("--omega-values") + 2], "--config", str(cfgfile)]):
            code, err = _run_quietly(args)
            assert code == 1
            assert "error: --omega-values excludes --omega-min" in err

    @pytest.mark.filterwarnings("ignore:omega_exp")  # tiny n: vacuous threshold
    @given(_MALFORMED)
    def test_fuzz_n(self, text):
        value = _number(text)
        # a valid simulate --n runs: keep it small
        assume(value is None or not 1e4 < value <= 1e7)
        for argv in (
            ["rate", f"--n={text}", "--omega-exp", "0.84", "--gamma", "0.1",
             "--eps-smo", "1e-4"],
            ["simulate", f"--n={text}", *_SIMULATE],
        ):
            code, err = _run_quietly(argv)
            assert code in (0, 1, 2) and "Traceback" not in err

    @given(_MALFORMED)
    def test_fuzz_table(self, text):
        code, err = _run_quietly(
            ["simulate", "--model", "classical", f"--table={text}", "--n", "50", *_SIMULATE]
        )
        assert code in (0, 1, 2) and "Traceback" not in err

    @given(_MALFORMED)
    def test_fuzz_omega_step(self, text):
        value = _number(text)
        # a valid step runs: at most 100 points on this 0.001-wide range
        assume(value is None or not 0 < value < 1e-5)
        code, err = _run_quietly(
            ["entropy-curve", "--omega-min", "0.8", "--omega-max", "0.801",
             f"--omega-step={text}"]
        )
        assert code in (0, 1, 2) and "Traceback" not in err


# for each flag a value that passes, so that a drawn invocation can also run
# to its end; counts stay small (simulate --n 100 --trials 2), so a run is quick
_PASSING = {
    "n": ["100"], "omega-exp": ["0.8"], "eps-dist": ["1e-5"], "eps-snd": ["1e-5"],
    "eps-cmp": ["1e-2"], "gamma": ["0.5"], "eps-smo": ["1e-4"], "delta-est": ["0.05"],
    "mode": list(rates.MODES), "out": ["out.txt"], "n-values": ["1e6"], "omega-min": ["0.8"],
    "omega-max": ["0.81"], "omega-step": ["0.005"], "omega-values": ["0.8,0.83"],
    "model": list(_MODELS), "trials": ["2"], "protocol": list(simulate.MODES), "xi": ["0.1"],
    "xi-slope": ["1e-3"], "table": ["1,0,1,1"], "seed": ["3"],
}
_DIGITS = "1" + "0" * 5000  # past int's 4,300-digit limit
_ZEROS = ",".join(["0"] * 100_000)  # a list of 10^5 values, within the cap
_HOSTILE_TEXT = ["nan", "inf", "-inf", "-0", "5e-324", "1e308", _DIGITS, _ZEROS, "true", ""]
_HOSTILE_JSON = ["NaN", "Infinity", "-Infinity", "-0.0", "5e-324", "1e308", _DIGITS,
                 f"[{_ZEROS}]", "true", "false", "[" * 100_000 + "]" * 100_000]


@st.composite
def _invocations(draw):
    """A subcommand with some of its flags on the command line and some as
    keys of a config file (the JSON text of each value). In half the draws
    every value passes; in the others, a quarter of them are hostile."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv, config, calm = [command], [], draw(st.booleans())
    for flag in _COMMANDS[command][2].split():
        route = draw(st.sampled_from(["none", "none", "flag", "config"]))
        hostile = not calm and draw(st.integers(0, 3)) == 0
        if route == "flag" and flag in _SWITCHES:
            argv.append(f"--{flag}")
        elif route == "flag":
            values = _HOSTILE_TEXT if hostile else _PASSING[flag]
            argv += [f"--{flag}", draw(st.sampled_from(values))]
        elif route == "config":
            passing = ["true", "false"] if flag in _SWITCHES else map(json.dumps, _PASSING[flag])
            values = _HOSTILE_JSON if hostile else list(passing)
            config.append((flag.replace("-", "_"), draw(st.sampled_from(values))))
    return argv, config


def _without_search(n, omega_exp, eps_dist, eps_snd, eps_cmp, mode="printed"):
    """What `optimize_parameters` returns when nothing certifies, after the
    same input checks, but without its search of about 2 s."""
    delta_est = delta_est_for(n, eps_cmp)
    ErrorBudget(eps_dist, eps_snd, eps_cmp, eps_smo=0.0)
    params = ProtocolParams(n, 1.0, omega_exp, delta_est)
    return certified_log_l(params, ErrorBudget(eps_dist, eps_snd, eps_cmp,
                                               math.sqrt(eps_dist) / 2), mode)


@contextlib.contextmanager
def _inside(path):
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


class TestContract:
    """Every invocation drawn from the subcommands' flags and a hostile pool
    (NaN, infinities, -0, a subnormal, 1e308, a 5,001-digit integer, 10^5
    values, booleans, JSON nested 10^5 deep) exits 0, 1 or, for an argparse
    structure error alone, 2, with no traceback; on 1, stdout is empty and
    stderr ends in one error line of at most 1 KB after any warning lines."""

    # gamma = -0 or a low omega_exp makes the abort threshold vacuous: its
    # warning must reach the CLI, which prints it as a "warning: " line
    @pytest.mark.filterwarnings("always:omega_exp:UserWarning")
    @settings(max_examples=150, deadline=None)
    @given(_invocations())
    @example((["rate", "--n", "100", "--omega-exp", "0.8", "--gamma", "-0", "--eps-smo",
               "nan"], []))
    # holes that ended in a traceback, or in a record on stdout before the
    # --out write failed
    @example((["rate"], [("n", _DIGITS)]))
    @example((["rate", "--n", "1e6", "--omega-exp", "0.84", "--gamma", "0.1", "--eps-smo",
               "1e-4", "--out", "/nonexistent/x.json"], []))
    # a negative value in any form float reads, after its flag, which argparse
    # alone takes for a flag when it is -inf, -nan or -Infinity (exit 2)
    @example((["simulate", "--model", "drift", "--n", "100", "--omega-exp", "0.8",
               "--trials", "2", "--xi-slope", "-inf"], []))
    @example((["simulate", "--model", "drift", "--n", "100", "--omega-exp", "0.8",
               "--trials", "2", "--xi-slope", "-nan"], []))
    @example((["simulate", "--model", "drift", "--n", "100", "--omega-exp", "0.8",
               "--trials", "2", "--xi-slope", "-Infinity"], []))
    @example((["simulate", "--model", "drift", "--n", "100", "--omega-exp", "0.8",
               "--trials", "2", "--xi-slope", "-1e-3"], []))
    def test_exit_code_and_error_line(self, invocation):
        argv, config = invocation
        # in a directory of its own, since --out nan writes a file named nan;
        # curve and rate with no --gamma certify without the search
        with tempfile.TemporaryDirectory() as tmp, _inside(tmp), \
                mock.patch.object(rates, "optimize_parameters", _without_search):
            if config:
                Path("cfg.json").write_text(
                    "{" + ", ".join(f'"{key}": {text}' for key, text in config) + "}")
                argv = [*argv, "--config", "cfg.json"]
            code, out, err = _run(argv)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("usage: ")  # argparse's own message
            assert "expected one argument" not in err  # every drawn flag has its value
        else:
            assert code in (0, 1)
        if code == 1:
            *warned, last = err.splitlines()
            assert out == "" and err.endswith("\n")
            assert last.startswith("error: ") and len(last.encode()) < 1024
            assert all(line.startswith("warning: ") for line in warned)


_REMOVED_FLAGS = [
    ("rate", "--seed", "1"),
    ("curve", "--seed", "1"),
    ("curve", "--exact"),
    ("entropy-curve", "--seed", "1"),
    ("entropy-curve", "--mode", "printed"),
    ("entropy-curve", "--exact"),
    ("simulate", "--mode", "printed"),
    ("simulate", "--exact"),
]


class TestFlagsPerCommand:
    """Each subcommand accepts only the flags it reads."""

    @pytest.mark.parametrize("argv", _REMOVED_FLAGS, ids=lambda a: " ".join(a[:2]))
    def test_flag_it_ignores_is_unrecognized(self, argv, tmp_path):
        target = tmp_path / "out"
        code, err = _run_quietly([a.replace("OUT", str(target)) for a in argv])
        assert code == 2
        assert "unrecognized arguments" in err
        assert not target.exists()

    def test_count_in_float_notation_same_by_flag_and_config(self, capsys, tmp_path):
        argv = ["simulate", "--n", "200", "--gamma", "0.5", "--omega-exp", "0.8",
                "--seed", "4"]
        by_flag = run_cli(capsys, *argv, "--trials", "1e3")
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"trials": "1e3"}))
        by_config = run_cli(capsys, *argv, "--config", str(cfgfile))
        assert by_flag[0] == 0
        assert by_flag == by_config == run_cli(capsys, *argv, "--trials", "1000")

    def test_switch_from_config_matches_flag(self, capsys, tmp_path):
        argv = ["rate", "--n", "1e6", "--omega-exp", "0.84", "--gamma", "0.1",
                "--eps-smo", "1e-4", "--delta-est", "1e-4"]
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"exact": True}))
        by_config = run_cli(capsys, *argv, "--config", str(cfgfile))
        assert by_config[0] == 0
        assert by_config == run_cli(capsys, *argv, "--exact")

    def test_switch_false_in_config_matches_no_switch(self, capsys, tmp_path):
        argv = ["rate", "--n", "1e6", "--omega-exp", "0.84", "--gamma", "0.1",
                "--eps-smo", "1e-4", "--delta-est", "1e-4"]
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"exact": False}))
        by_config = run_cli(capsys, *argv, "--config", str(cfgfile))
        assert by_config[0] == 0
        assert by_config == run_cli(capsys, *argv)


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "diecert.cli", "entropy-curve",
             "--omega-values", "0.75"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].startswith("0.75,")

    def test_warning_prints_as_one_line(self):
        # not Python's "file:line: UserWarning: ..." followed by the source line
        argv = ["-m", "diecert.cli", "simulate", "--n", "10", "--omega-exp", "0.8",
                "--gamma", "0"]
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
        quiet = subprocess.run([sys.executable, "-W", "ignore", *argv],
                               capture_output=True, text=True)
        assert proc.returncode == quiet.returncode == 0 and quiet.stderr == ""
        assert proc.stderr == (
            "warning: omega_exp*gamma - delta_est <= 0: the abort threshold is vacuous\n")
        assert proc.stdout == quiet.stdout


class TestOneParser:
    """`main` builds its parser once per process: every later call, an
    argparse error among them, parses with that one and prints the same bytes."""

    def test_calls_build_no_second_parser(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": "1e6", "omega_exp": 0.84, "exact": True}))
        fixed = ["--gamma", "0.1", "--eps-smo", "1e-4"]
        calls = [
            ["rate", "--n", "1e6", "--omega-exp", "0.84", *fixed],
            ["curve", "--n-values", "1e6", "--omega-values", "0.84"],
            ["simulate", "--n", "200", "--gamma", "0.5", "--omega-exp", "0.8", "--trials", "2"],
            ["rate", "--config", str(cfgfile), *fixed],
            ["rate", "--seed", "1"],  # a flag rate does not read: argparse exits 2
            ["entropy-curve", "--omega-values", "0.8"],
        ]
        first = [_run(argv) for argv in calls]  # the first call may build the parser
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        with mock.patch.object(argparse.ArgumentParser, "__init__", counted):
            again = [_run(argv) for argv in calls]
        assert [code for code, _, _ in first] == [0, 0, 0, 0, 2, 0]
        assert built == []
        assert again == first
