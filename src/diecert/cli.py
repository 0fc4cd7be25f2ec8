"""Command-line interface.

Subcommands: rate, curve, entropy-curve, simulate, verify-bound, verify-twirl.
All outputs are deterministic for a fixed configuration and seed. Numbers are
printed with 6 significant digits; --exact adds a full-precision JSON dump.
Options may also come from a JSON config file (--config); explicit flags win.

Exit codes: 0 success, 1 validation error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bounds, rates, simulate
from .chsh import BETA_MAX, OMEGA_MAX, optimal_strategy, Strategy
from .quantum import (
    BELL_BASIS,
    TwoQubitState,
    ValidationError,
    bell_diagonal_entries,
    twirl,
    werner_state,
)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _round6(v: float) -> float:
    return float(f"{v:.6g}")


class _Config:
    """Flag values with JSON-file fallback: explicit flags override the file."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.file = {}
        path = self.args.get("config")
        if path:
            with open(path) as fh:
                self.file = json.load(fh)
            if not isinstance(self.file, dict):
                raise ValidationError("config file must contain a JSON object")

    def get(self, name, default=None):
        v = self.args.get(name)
        if v is not None:
            return v
        if name in self.file:
            return self.file[name]
        return default

    def require(self, name):
        v = self.get(name)
        if v is None:
            raise ValidationError(f"missing required option --{name.replace('_', '-')}")
        return v


def _write_text(out_path, text):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _omega_grid(cfg, default_min, default_max, default_step):
    values = cfg.get("omega_values")
    if values:
        if isinstance(values, str):
            values = [float(v) for v in values.split(",") if v.strip()]
        return [float(v) for v in values]
    lo = float(cfg.get("omega_min", default_min))
    hi = float(cfg.get("omega_max", default_max))
    step = float(cfg.get("omega_step", default_step))
    if step <= 0 or hi < lo:
        raise ValidationError("empty score grid")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + i * step for i in range(count)]


def _certificate_record(cert: rates.RateCertificate) -> dict:
    return {
        "n": cert.params.n,
        "omega_exp": cert.params.omega_exp,
        "gamma": cert.params.gamma,
        "delta_est": cert.params.delta_est,
        "eps_dist": cert.errors.eps_dist,
        "eps_snd": cert.errors.eps_snd,
        "eps_cmp": cert.errors.eps_cmp,
        "eps_smo": cert.errors.eps_smo,
        "eta_opt": cert.eta_opt_value,
        "pt_omega": cert.minimizer_pt.p1 / cert.params.gamma,
        "second_order_v": cert.second_order_v,
        "log_l": cert.log_l,
        "rate_raw": cert.rate_raw,
        "rate": cert.rate,
        "mode": cert.mode,
    }


def _eps_budget(cfg: _Config) -> tuple[float, float, float]:
    """(eps_dist, eps_snd, eps_cmp), defaulting to 1e-5, 1e-5 and 1e-2."""
    return (
        float(cfg.get("eps_dist", 1e-5)),
        float(cfg.get("eps_snd", 1e-5)),
        float(cfg.get("eps_cmp", 1e-2)),
    )


def cmd_rate(cfg: _Config) -> int:
    n = int(float(cfg.require("n")))
    omega_exp = float(cfg.require("omega_exp"))
    eps_dist, eps_snd, eps_cmp = _eps_budget(cfg)
    mode = cfg.get("mode", "printed")
    gamma = cfg.get("gamma")
    eps_smo = cfg.get("eps_smo")
    delta_est = cfg.get("delta_est")

    if gamma is not None and eps_smo is not None:
        de = float(delta_est) if delta_est is not None else rates.delta_est_for(n, eps_cmp)
        params = rates.ProtocolParams(
            n=n, gamma=float(gamma), omega_exp=omega_exp, delta_est=de
        )
        budget = rates.ErrorBudget(
            eps_dist=eps_dist, eps_snd=eps_snd, eps_cmp=eps_cmp, eps_smo=float(eps_smo)
        )
        cert = rates.certified_log_l(params, budget, mode)
    else:
        cert = rates.optimize_parameters(n, omega_exp, eps_dist, eps_snd, eps_cmp, mode)

    record = _certificate_record(cert)
    for key, value in record.items():
        print(f"{key} = {_fmt(value)}")
    out = cfg.get("out")
    if out or cfg.get("exact"):
        dump = {k: (_round6(v) if isinstance(v, float) else v) for k, v in record.items()}
        if cfg.get("exact"):
            dump["exact"] = {k: v for k, v in record.items() if isinstance(v, float)}
            if not out:
                print(json.dumps(dump["exact"], sort_keys=True))
        if out:
            _write_text(out, json.dumps(dump, indent=2, sort_keys=True) + "\n")
    return 0


_CURVE_HEADER = "n,omega_exp,rate_raw,rate,gamma,eps_smo,delta_est,eta_opt"


def cmd_curve(cfg: _Config) -> int:
    n_values = cfg.get("n_values", "1e6,1e7,1e8,1e10,1e12")
    if isinstance(n_values, str):
        n_list = [int(float(v)) for v in n_values.split(",") if v.strip()]
    else:
        n_list = [int(float(v)) for v in n_values]
    omegas = _omega_grid(cfg, 0.78, 0.853, 0.00365)
    if not omegas and not cfg.get("asymptotic"):
        raise ValidationError("empty curve grid")
    eps_dist, eps_snd, eps_cmp = _eps_budget(cfg)
    mode = cfg.get("mode", "printed")

    lines = [_CURVE_HEADER]
    for n in sorted(n_list):
        certs = rates.rate_curve(n, omegas, eps_dist, eps_snd, eps_cmp, mode)
        for w, cert in sorted(zip(omegas, certs), key=lambda p: p[0]):
            lines.append(
                f"{n},{_fmt(w)},{_fmt(cert.rate_raw)},{_fmt(cert.rate)},"
                f"{_fmt(cert.params.gamma)},{_fmt(cert.errors.eps_smo)},"
                f"{_fmt(cert.params.delta_est)},{_fmt(cert.eta_opt_value)}"
            )
    if cfg.get("asymptotic"):
        for w in sorted(omegas):
            raw = rates.asymptotic_rate(w)
            lines.append(f"asymptotic,{_fmt(w)},{_fmt(raw)},{_fmt(max(raw, 0.0))},,,,")
    _write_text(cfg.get("out"), "\n".join(lines) + "\n")
    return 0


def cmd_entropy_curve(cfg: _Config) -> int:
    omegas = _omega_grid(cfg, 0.75, OMEGA_MAX, 0.0025)
    lines = ["omega,beta,conditional_bound"]
    for w in omegas:
        if w < 0.75 - 1e-12 or w > OMEGA_MAX + 1e-12:
            raise ValidationError(f"omega={w} outside [0.75, (2+sqrt(2))/4]")
        beta = 8 * min(w, OMEGA_MAX) - 4
        result = bounds.bell_diag_entropy_bound(beta)
        lines.append(f"{_fmt(w)},{_fmt(beta)},{_fmt(result.conditional_bound)}")
    _write_text(cfg.get("out"), "\n".join(lines) + "\n")
    return 0


_MODELS = ("honest", "classical", "memory", "drift")


def _build_model(cfg: _Config) -> simulate.DeviceModel:
    name = cfg.get("model", "honest")
    xi = float(cfg.get("xi", 0.0))
    opt = optimal_strategy()
    if name == "honest":
        strat = Strategy(
            state=werner_state(xi).matrix,
            alice_observables=opt.alice_observables,
            bob_observables=opt.bob_observables,
        )
        return simulate.HonestIIDDevice(strat)
    if name == "classical":
        table = cfg.get("table", "0,0,0,0")
        if isinstance(table, str):
            table = [int(v) for v in table.split(",")]
        return simulate.ClassicalDeterministicDevice(*table)
    if name == "memory":
        noisy = Strategy(
            state=werner_state(max(xi, 0.5)).matrix,
            alice_observables=opt.alice_observables,
            bob_observables=opt.bob_observables,
        )
        return simulate.MemorySwitcherDevice(opt, noisy)
    if name == "drift":
        return simulate.NoisyDriftDevice(xi, float(cfg.get("xi_slope", 1e-3)))
    raise ValidationError(f"unknown model {name!r}; available: {', '.join(_MODELS)}")


def cmd_simulate(cfg: _Config) -> int:
    n = int(float(cfg.require("n")))
    gamma = float(cfg.get("gamma", 1.0))
    omega_exp = float(cfg.require("omega_exp"))
    delta_est = cfg.get("delta_est")
    if delta_est is None:
        delta_est = rates.delta_est_for(n, float(cfg.get("eps_cmp", 1e-2)))
    params = rates.ProtocolParams(
        n=n, gamma=gamma, omega_exp=omega_exp, delta_est=float(delta_est)
    )
    model = _build_model(cfg)
    seed = int(cfg.get("seed", 0))
    trials = int(cfg.get("trials", 100))
    protocol_mode = cfg.get("protocol", "standard")

    first = simulate.run_protocol(
        model,
        params,
        protocol_mode,
        seed=simulate._trial_seed(seed, 0),
        record_kept_states=False,
    )
    _write_text(cfg.get("out"), first.serialize())
    estimate, interval = simulate.estimate_abort_probability(model, params, trials, seed)
    tests = sum(1 for r in first.rounds if r.t == 1)
    summary = {
        "abort_estimate": _round6(estimate),
        "interval": [_round6(interval[0]), _round6(interval[1])],
        "hoeffding_bound": _round6(rates.completeness_bound(n, params.delta_est)),
        "win_rate": _round6(first.win_count / tests) if tests else 0.0,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_verify_bound(cfg: _Config) -> int:
    betas = cfg.get("beta_values")
    if betas:
        if isinstance(betas, str):
            betas = [float(v) for v in betas.split(",") if v.strip()]
    else:
        betas = list(np.linspace(2.05, BETA_MAX, 20))
    grid_step = float(cfg.get("grid_step", 1e-3))
    worst = 0.0
    for beta in betas:
        analytic = bounds.max_total_entropy(beta)
        if beta >= BETA_MAX:
            _, found = bounds.brute_force_max_entropy(BETA_MAX, grid_step)
        else:
            _, found = bounds.brute_force_max_entropy(beta, grid_step)
        dev = abs(found - analytic)
        worst = max(worst, dev)
        print(f"beta={_fmt(float(beta))} analytic={_fmt(analytic)} "
              f"brute_force={_fmt(found)} deviation={_fmt(dev)}")
    print(f"max_deviation = {_fmt(worst)}")
    if worst > 1e-3:
        print("verification FAILED", file=sys.stderr)
        return 2
    return 0


def cmd_verify_twirl(cfg: _Config) -> int:
    seed = int(cfg.get("seed", 0))
    rng = np.random.default_rng(seed)
    failures = []
    for k in range(100):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        dens = raw @ raw.conj().T
        state = TwoQubitState(dens / np.trace(dens).real)
        out = twirl(state)
        in_bell = bell_diagonal_entries(out)
        off = in_bell - np.diag(np.diag(in_bell))
        if np.max(np.abs(off)) >= 1e-12:
            failures.append(f"state {k}: off-diagonal {np.max(np.abs(off)):.3g}")
        again = twirl(out)
        if np.max(np.abs(again.matrix - out.matrix)) > 1e-12:
            failures.append(f"state {k}: twirl not idempotent")
        din = np.diag(bell_diagonal_entries(state))
        dout = np.diag(in_bell)
        if np.max(np.abs(din - dout)) > 1e-12:
            failures.append(f"state {k}: Bell diagonal not preserved")
    for vec in BELL_BASIS.T:
        pure = TwoQubitState(np.outer(vec, vec.conj()))
        if np.max(np.abs(twirl(pure).matrix - pure.matrix)) > 1e-14:
            failures.append("Bell state not a fixed point")
    mixed = TwoQubitState(np.eye(4) / 4)
    if np.max(np.abs(twirl(mixed).matrix - mixed.matrix)) > 1e-14:
        failures.append("maximally mixed state not a fixed point")
    print(f"checked 100 random states and 5 fixed points; failures: {len(failures)}")
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    return 2 if failures else 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="master random seed")
    p.add_argument("--out", default=None, help="output file path")
    p.add_argument("--config", default=None, help="JSON config file; flags override it")
    p.add_argument(
        "--mode",
        choices=rates.MODES,
        default=None,
        help="second-order gradient-term convention",
    )
    p.add_argument("--exact", action="store_true", help="also emit full-precision JSON")


def _add_eps(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps-dist", dest="eps_dist", type=float, default=None)
    p.add_argument("--eps-snd", dest="eps_snd", type=float, default=None)
    p.add_argument("--eps-cmp", dest="eps_cmp", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diecert",
        description="Device-independent certification of one-shot distillable "
        "entanglement from CHSH statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", help="certified rate for one parameter point")
    _add_common(p)
    p.add_argument("--n", default=None)
    p.add_argument("--omega-exp", dest="omega_exp", type=float, default=None)
    _add_eps(p)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--eps-smo", dest="eps_smo", type=float, default=None)
    p.add_argument("--delta-est", dest="delta_est", type=float, default=None)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("curve", help="rate curves over a score grid")
    _add_common(p)
    p.add_argument("--n-values", dest="n_values", default=None)
    p.add_argument("--omega-min", dest="omega_min", type=float, default=None)
    p.add_argument("--omega-max", dest="omega_max", type=float, default=None)
    p.add_argument("--omega-step", dest="omega_step", type=float, default=None)
    p.add_argument("--omega-values", dest="omega_values", default=None)
    p.add_argument("--asymptotic", action="store_true", default=None,
                   help="append the many-round limit curve")
    _add_eps(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("entropy-curve", help="conditional-entropy bound curve")
    _add_common(p)
    p.add_argument("--omega-min", dest="omega_min", type=float, default=None)
    p.add_argument("--omega-max", dest="omega_max", type=float, default=None)
    p.add_argument("--omega-step", dest="omega_step", type=float, default=None)
    p.add_argument("--omega-values", dest="omega_values", default=None)
    p.set_defaults(func=cmd_entropy_curve)

    p = sub.add_parser("simulate", help="run the protocol against a device model")
    _add_common(p)
    p.add_argument("--model", default=None, help=f"one of: {', '.join(_MODELS)}")
    p.add_argument("--n", default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--omega-exp", dest="omega_exp", type=float, default=None)
    p.add_argument("--delta-est", dest="delta_est", type=float, default=None)
    p.add_argument("--eps-cmp", dest="eps_cmp", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--protocol", choices=("standard", "modified"), default=None)
    p.add_argument("--xi", type=float, default=None, help="Werner noise parameter")
    p.add_argument("--xi-slope", dest="xi_slope", type=float, default=None)
    p.add_argument("--table", default=None, help="a0,a1,b0,b1 for the classical model")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify-bound", help="brute-force oracle vs analytic bound")
    _add_common(p)
    p.add_argument("--beta-values", dest="beta_values", default=None)
    p.add_argument("--grid-step", dest="grid_step", type=float, default=None)
    p.set_defaults(func=cmd_verify_bound)

    p = sub.add_parser("verify-twirl", help="twirl structure property suite")
    _add_common(p)
    p.set_defaults(func=cmd_verify_twirl)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _Config(args)
        return args.func(cfg)
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
