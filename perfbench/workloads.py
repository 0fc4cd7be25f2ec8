"""The four seeded workloads and the output check for every op.

A workload is an endless sequence of cycles. Cycle ``k`` of a workload is
drawn from ``random.Random(f"{workload}:{seed}:{k}")``, so the same seed
always gives the same inputs. Every cycle holds the same mix of op kinds
(stratified, with seeded values inside each stratum), so runs of whole
cycles measure the same mix whatever the seed.

An op runs the program and returns its stdout (or, for library calls, a
canonical text of the result). Its check raises ``CheckFailed`` when the
output is wrong. Failures that match a defect already documented in the
README are classified by ``known``; every other failure is unexpected.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import traceback
from dataclasses import dataclass
from typing import Callable

import diecert.bounds
import diecert.chsh
import diecert.cli
import diecert.quantum
import diecert.rates
import diecert.simulate

OMEGA_MAX = (2 + math.sqrt(2)) / 4
LOW_SCORE_HOLE = "low_score_hole"
JORDAN_COMMUTING = "jordan_blocks_commuting_observables"
KNOWN_DEFECTS = (LOW_SCORE_HOLE, JORDAN_COMMUTING)  # see README.md


class CheckFailed(Exception):
    """An op finished but its output is wrong."""


@dataclass
class Op:
    kind: str
    run: Callable[[], str]
    check: Callable[[str], dict]
    known: Callable[[BaseException], str | None] = lambda exc: None
    rounds: int = 0
    cli: bool = False  # run through diecert.cli.main


def _h2(x: float) -> float:
    return 0.0 if x <= 0 or x >= 1 else -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def rate_ceiling(omega: float) -> float:
    """max(0, -g(omega)): no sound certificate exceeds it. Computed here, not by diecert."""
    return max(0.0, 1 - 2 * _h2(0.5 - (2 * omega - 1) / math.sqrt(2)))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def run_cli(argv: list[str]) -> str:
    """``diecert.cli.main`` in process; a non-zero exit is an op failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = diecert.cli.main(argv)
    if code != 0:
        raise CheckFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def _stratum(rng: random.Random, k: int, count: int, lo: float, hi: float) -> float:
    return lo + (hi - lo) * (k + rng.random()) / count


# -- certify: the experiment-design path through cli.main ---------------------

# An op's cost follows log n (how many test probabilities the outer search
# finds feasible), so a cycle visits eight fixed bands of log10 n in [6, 12]
# and four score bands in (0.78, 0.853); the seed picks the point inside each
# band and the order. Every seed then measures the same mix of sizes.
CERTIFY_KINDS = (("rate", "printed"), ("rate", "ceiling"), ("curve", "printed"),
                 ("curve", "ceiling"))
CERTIFY_SCORE_BAND = {0: 3, 1: 1, 4: 2, 5: 0}  # rate op position -> score band


def certify_cycle(rng: random.Random, k: int) -> list[Op]:
    """Two rate and two curve commands in each mode, one per band of log10 n."""
    ops = []
    for i in range(8):
        kind, mode = CERTIFY_KINDS[i % 4]
        n = int(round(10 ** _stratum(rng, i, 8, 6.0, 12.0)))
        if kind == "rate":
            ops.append(_rate_op(n, _stratum(rng, CERTIFY_SCORE_BAND[i], 4, 0.78, 0.853), mode))
        else:
            ops.append(_curve_op(n, sorted(rng.uniform(0.78, 0.853) for _ in range(20)), mode))
    rng.shuffle(ops)
    return ops


def _rate_op(n: int, omega: float, mode: str) -> Op:
    argv = ["rate", "--n", str(n), "--omega-exp", repr(omega), "--mode", mode, "--exact"]

    def check(out: str) -> dict:
        lines = out.splitlines()
        _require(lines and lines[0] == f"n = {n}", "first line is not the requested n")
        cert = json.loads(lines[-1])
        _check_certificate(n, omega, cert)
        return {"rate": cert["rate"]}

    return Op("rate", lambda: run_cli(argv), check, cli=True)


def _check_certificate(n: int, omega: float, c: dict) -> None:
    """Self-consistency of one certificate, and the bound any sound one obeys."""
    _require(0 < c["gamma"] <= 1, f"gamma={c['gamma']} outside (0, 1]")
    _require(0 < c["eps_smo"] < math.sqrt(c["eps_dist"]), "eps_smo outside (0, sqrt(eps_dist))")
    _require(0.75 < c["pt_omega"] < OMEGA_MAX, f"cutoff score {c['pt_omega']} outside (3/4, omega_max)")
    expected = -n * c["eta_opt"] - 4 * math.log2(1 / (math.sqrt(c["eps_dist"]) - c["eps_smo"]))
    _require(_close(c["log_l"], expected), "log_l inconsistent with eta_opt and the budget")
    _require(_close(c["rate_raw"], c["log_l"] / n, 1e-12), "rate_raw != log_l / n")
    _require(c["rate"] == max(c["rate_raw"], 0.0), "rate != max(rate_raw, 0)")
    bound = rate_ceiling(omega)
    _require(c["rate"] <= bound + 1e-12, f"rate {c['rate']!r} > max(0, -g(omega)) = {bound!r}")


def _curve_op(n: int, omegas: list[float], mode: str) -> Op:
    argv = ["curve", "--n-values", str(n), "--omega-values", ",".join(map(repr, omegas)),
            "--mode", mode]

    def check(out: str) -> dict:
        lines = out.splitlines()
        _require(lines[0] == diecert.cli._CURVE_HEADER, "unexpected curve header")
        rows = [line.split(",") for line in lines[1:]]
        _require(len(rows) == len(omegas), f"{len(rows)} rows for {len(omegas)} scores")
        rates = []
        for row, omega in zip(rows, omegas):
            _require(row[0] == str(n) and float(row[1]) == float(f"{omega:.6g}"), "row order")
            raw, rate = float(row[2]), float(row[3])
            _require(rate == float(f"{max(raw, 0.0):.6g}"), "rate != max(rate_raw, 0)")
            bound = rate_ceiling(omega)
            _require(rate <= bound * (1 + 1e-5) + 1e-9, f"rate {rate} > max(0, -g) = {bound}")
            rates.append(rate)
        _require(len({tuple(r[4:7]) for r in rows}) == 1, "parameters differ across the sweep")
        _require(all(a <= b for a, b in zip(rates, rates[1:])), "rate decreases in the score")
        return {}

    return Op("curve", lambda: run_cli(argv), check, cli=True)


# -- sweep: per-row rate work as library calls --------------------------------

# A row's observed score is omega - delta_est/gamma. Every pair has its first
# row (the smaller delta_est) at an observed score of at least 3/4. Its second
# row falls in one of three strata, in fixed numbers per cycle, so every cycle
# has exactly three rows in the low-score hole and its failed share is the
# same whatever the seed and however many cycles a run does:
#   "sound"   observed score >= 3/4: a sound certificate (nine pairs);
#   "refused" observed score in [0.01, 0.14]: below 0.1464, where the entropy
#             argument of g leaves [0, 1], so the row raises (two pairs);
#   "over"    observed score in [0.15, 0.2] with omega <= 0.77, gamma in
#             [0.15, 0.45] and n >= 1e9: the row certifies at least
#             (1 - gamma) (-g(0.2)) >= 0.12 bits less a second-order term of at
#             most 0.031, where max(0, -g(omega)) is 0 (one pair).
SWEEP_STRATA = ("sound", "sound", "sound", "refused", "sound", "sound", "sound", "over",
                "sound", "sound", "refused", "sound")


def sweep_cycle(rng: random.Random, k: int) -> list[Op]:
    """Twelve pairs of certificate rows that differ only in delta_est, then one
    brute-force oracle row (a fixed 1-in-25 share)."""
    ops = []
    for p, stratum in enumerate(SWEEP_STRATA):
        mode = diecert.rates.MODES[p % 2]
        if stratum == "over":
            n = int(round(_log_uniform(rng, 1e9, 1e12)))
            omega = rng.uniform(0.75, 0.77)
            gamma = _log_uniform(rng, 0.15, 0.45)
        else:
            n = int(round(_log_uniform(rng, 1e6, 1e12)))
            omega = rng.uniform(0.75, OMEGA_MAX)
            gamma = _log_uniform(rng, 1e-3, 1.0)
        if stratum == "refused":
            score = rng.uniform(0.01, 0.14)
            gamma = min(gamma, 0.3 / (omega - score))  # keeps delta_est <= 0.3
        elif stratum == "over":
            score = rng.uniform(0.15, 0.2)
        lo_max = min(0.3, gamma * (omega - 0.75))  # observed score >= 3/4
        if stratum == "sound":
            lo_delta, hi_delta = sorted(rng.uniform(0.0, lo_max) for _ in range(2))
        else:
            lo_delta, hi_delta = rng.uniform(0.0, lo_max), gamma * (omega - score)
        eps_dist = _log_uniform(rng, 1e-10, 1e-2)
        eps_snd = _log_uniform(rng, 1e-10, 1e-2)
        eps_smo = math.sqrt(eps_dist) * _log_uniform(rng, 1e-4, 0.99)
        budget = (eps_dist, eps_snd, 1e-2, eps_smo)
        pair: dict = {}
        for first, delta in ((True, lo_delta), (False, hi_delta)):
            ops.append(_row_op(n, gamma, omega, delta, budget, mode, pair, first))
    beta = 8 * rng.uniform(0.76, OMEGA_MAX) - 4
    ops.append(_oracle_op(beta))
    return ops


def _row_op(n, gamma, omega, delta, budget, mode, pair: dict, first: bool) -> Op:
    def run() -> str:
        params = diecert.rates.ProtocolParams(n=n, gamma=gamma, omega_exp=omega, delta_est=delta)
        errors = diecert.rates.ErrorBudget(*budget)
        cert = diecert.rates.certified_log_l(params, errors, mode)
        asym = diecert.rates.asymptotic_rate(omega)
        entropy = diecert.bounds.bell_diag_entropy_bound(8 * omega - 4)
        return json.dumps({
            "eta_opt": cert.eta_opt_value, "pt_omega": cert.minimizer_pt.p1 / gamma,
            "log_l": cert.log_l, "rate_raw": cert.rate_raw, "rate": cert.rate,
            "gamma": gamma, "eps_dist": budget[0], "eps_smo": budget[3],
            "asymptotic": asym, "conditional_bound": entropy.conditional_bound,
        })

    def check(out: str) -> dict:
        c = json.loads(out)
        _check_certificate(n, omega, c)
        _require(_close(c["asymptotic"], -c["conditional_bound"], 1e-12),
                 "asymptotic rate != -(entropy bound at beta = 8 omega - 4)")
        if first:
            pair["rate"] = c["rate"]
        else:
            _require(c["rate"] <= pair.get("rate", math.inf) + 1e-12,
                     f"rate rises with delta_est: {pair.get('rate')!r} -> {c['rate']!r}")
        return {}

    def known(exc: BaseException) -> str | None:
        # f evaluates g at the observed score omega - delta/gamma even below 3/4,
        # where g is no bound (the higher delta of a pair has the lower score)
        return LOW_SCORE_HOLE if omega - delta / gamma < 0.75 else None

    return Op("row", run, check, known)


def _oracle_op(beta: float) -> Op:
    def run() -> str:
        spectrum, found = diecert.bounds.brute_force_max_entropy(beta, 0.01)
        analytic = diecert.bounds.bell_diag_entropy_bound(beta).max_total_entropy
        return json.dumps({"beta": beta, "found": found, "analytic": analytic,
                           "spectrum": spectrum.as_array().tolist()})

    def check(out: str) -> dict:
        c = json.loads(out)
        _require(abs(c["found"] - c["analytic"]) <= 1e-3, "oracle disagrees with the bound")
        _require(abs(sum(c["spectrum"]) - 1) <= 1e-9, "oracle spectrum is not normalised")
        return {}

    return Op("oracle", run, check)


# -- simulations through cli.main ---------------------------------------------

def _sim_op(model: str, protocol: str, n: int, trials: int, extra: list[str],
            rng: random.Random) -> Op:
    gamma = rng.uniform(0.45, 0.55)
    omega = rng.uniform(0.78, 0.85)
    delta = rng.uniform(0.01, 0.05)
    argv = ["simulate", "--model", model, "--protocol", protocol, "--n", str(n),
            "--gamma", repr(gamma), "--omega-exp", repr(omega), "--delta-est", repr(delta),
            "--trials", str(trials), "--seed", str(rng.randrange(2**31)), *extra]
    threshold = (omega * gamma - delta) * n

    def check(out: str) -> dict:
        lines = out.splitlines()
        header = dict(f.split("=", 1) for f in lines[0][2:].split())
        _require(int(header["n"]) == n and header["mode"] == protocol, "transcript header")
        _require(lines[1] == "i,t,x,y,a,b,w,c,d", "transcript columns")
        rows = [line.split(",") for line in lines[2:-1]]
        _require(len(rows) == n, f"{len(rows)} transcript rows, expected {n}")
        wins = tests = 0
        for i, (idx, t, x, y, a, b, w, _c, _d) in enumerate(rows):
            _require(idx == str(i), "round index")
            if t == "1":
                tests += 1
                won = int((int(a) ^ int(b)) == (int(x) & int(y)))
                _require(w == str(won), f"round {i}: w disagrees with a, b, x, y")
                wins += won
        _require(int(header["win_count"]) == wins, "win_count disagrees with the rows")
        _require(header["aborted"] == str(wins < threshold), "abort flag vs threshold")
        summary = json.loads(lines[-1])
        low, high = summary["interval"]
        _require(low - 1e-9 <= summary["abort_estimate"] <= high + 1e-9,
                 "abort estimate outside its interval")
        rate = float(f"{wins / tests:.6g}") if tests else 0.0
        _require(summary["win_rate"] == rate, "win_rate disagrees with the rows")
        return {}

    def known(exc: BaseException) -> str | None:
        # A deterministic table plays +I or -I, and jordan_blocks pairs +1 with -1
        # eigenvectors: +I has no -1 vector to pair (IndexError), -I gives no
        # block at all, so drawing a block pair divides by zero.
        if (model, protocol) != ("classical", "modified"):
            return None
        frames = [f.name for f in traceback.extract_tb(exc.__traceback__)]
        if isinstance(exc, IndexError) and "jordan_blocks" in frames \
                or isinstance(exc, ZeroDivisionError) and "_sample_block" in frames:
            return JORDAN_COMMUTING
        return None

    return Op(f"sim_{model}_{protocol}", lambda: run_cli(argv), check, known, n * trials, True)


# Each cycle covers eight bands of log n in [500, 2000], one per op; op i has
# model and protocol i % 4 and band (i + k) % 8 in cycle k. Every model and
# protocol thus meets a small and a large size (2 times apart) in every
# cycle, and the op costs spread evenly instead of clustering by size, so the
# median does not sit in a gap between clusters.
SIM_ADAPTIVE = (("drift", "standard"), ("drift", "modified"), ("memory", "standard"),
                ("memory", "modified"))


def sim_adaptive_cycle(rng: random.Random, k: int) -> list[Op]:
    """drift and memory models, both protocols, sizes from 500 to 2000."""
    ops = []
    for i in range(8):
        model, protocol = SIM_ADAPTIVE[i % 4]
        n = int(round(10 ** _stratum(rng, (i + k) % 8, 8, math.log10(500), math.log10(2000))))
        if model == "drift":
            extra = ["--xi", repr(rng.uniform(0.0, 0.05)),
                     "--xi-slope", repr(_log_uniform(rng, 1e-5, 1e-4))]
        else:
            extra = ["--xi", repr(rng.uniform(0.5, 0.7))]
        ops.append(_sim_op(model, protocol, n, 2, extra, rng))
    rng.shuffle(ops)
    return ops


def sim_iid_cycle(rng: random.Random, k: int) -> list[Op]:
    """honest and classical models, both protocols, large n, many trials; plus
    two statistics-equivalence checks on the honest model."""
    ops = []
    for model in ("honest", "classical"):
        for protocol in ("standard", "modified"):
            for n in (20000, 50000):
                if model == "honest":
                    extra = ["--xi", repr(rng.uniform(0.0, 0.15))]
                else:
                    extra = ["--table", ",".join(str(rng.randrange(2)) for _ in range(4))]
                ops.append(_sim_op(model, protocol, n, 200, extra, rng))
    ops += [_equivalence_op(rng), _equivalence_op(rng)]
    rng.shuffle(ops)
    return ops


def _equivalence_op(rng: random.Random) -> Op:
    xi = rng.uniform(0.0, 0.15)
    n, trials = 2000, 4
    gamma, omega = rng.uniform(0.45, 0.55), rng.uniform(0.78, 0.85)
    delta, seed = rng.uniform(0.01, 0.05), rng.randrange(2**31)

    def run() -> str:
        opt = diecert.chsh.optimal_strategy()
        model = diecert.simulate.HonestIIDDevice(diecert.chsh.Strategy(
            state=diecert.quantum.werner_state(xi).matrix,
            alice_observables=opt.alice_observables,
            bob_observables=opt.bob_observables,
        ))
        params = diecert.rates.ProtocolParams(n=n, gamma=gamma, omega_exp=omega, delta_est=delta)
        report = diecert.simulate.check_statistics_equivalence(model, params, trials, seed)
        return json.dumps(report, sort_keys=True)

    def check(out: str) -> dict:
        _require(json.loads(out)["passed"] is True, "standard and modified statistics differ")
        return {}

    return Op("equivalence", run, check, rounds=2 * n * trials)


CYCLES = {
    "certify": certify_cycle,
    "sweep": sweep_cycle,
    "sim_adaptive": sim_adaptive_cycle,
    "sim_iid": sim_iid_cycle,
}


def cycle(workload: str, seed: int, k: int) -> list[Op]:
    return CYCLES[workload](random.Random(f"{workload}:{seed}:{k}"), k)
