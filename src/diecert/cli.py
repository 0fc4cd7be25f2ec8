"""Command-line interface.

Subcommands: rate, curve, entropy-curve, simulate.
All outputs are deterministic for a fixed configuration and seed. Numbers are
printed with 6 significant digits; --exact adds a full-precision JSON dump.
Options may also come from a JSON config file (--config); explicit flags win,
and a key that names none of the subcommand's flags is an error.

Exit codes: 0 success, 1 validation error (a malformed or missing option), 2
an argparse structure error: an unknown subcommand or flag, a flag without a
value or no command.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from itertools import islice

from . import bounds, rates, simulate
from .chsh import (OMEGA_CLASSICAL, OMEGA_MAX, beta_from_omega, check_score, optimal_strategy,
                   Strategy)  # not called here; perfbench/tracing.py counts it by this name
from .quantum import ValidationError, werner_state


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _round6(v: float) -> float:
    return float(f"{v:.6g}")


_MAX_COUNT = 10**7  # largest simulate --n and --trials: bounds the allocations
_MAX_GRID = 10**5  # most points in one score grid or curve, and values in one list option
_MAX_ERROR = 240  # characters of an error message that main prints in full
_EPS_CMP = 1e-2  # eps_cmp where neither --eps-cmp nor --delta-est sets it


def _count(v) -> int:
    """A positive integer, also accepted in float notation such as 1e6, read
    exactly. `float` first checks the syntax and that the rates can take it."""
    x = Fraction(v) if 1 <= float(v) < math.inf else None
    if x is None or x.denominator != 1:
        raise ValueError(f"{v!r} is not a positive integer")
    return int(x)


def _natural(v) -> int:
    """A non-negative integer written as one, not as a float such as 3.0 or
    1e3, by either route: a seed (`rates._whole` takes no float) or a bit of --table."""
    try:
        k = int(v) if isinstance(v, (int, str)) else -1
    except ValueError:
        k = -1
    if k < 0:
        raise ValueError(f"{v!r} is not a non-negative integer")
    return k


def _finite(v) -> float:
    """A finite float: an end or the step of a score grid."""
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"{v!r} is not finite")
    return x


def _choice(options):
    """Parser that accepts only one of `options`."""

    def parse(v):
        if v not in options:
            raise ValueError(f"{v!r} is not one of {', '.join(options)}")
        return v

    return parse


def _convert(kind, v):
    """`kind(v)`; JSON true and false are values for a switch (kind `bool`) alone."""
    if (kind is bool) != isinstance(v, bool):
        raise ValueError(f"{v!r} is not {'true or false' if kind is bool else 'a value here'}")
    return kind(v)


def _list(kind):
    """Parser of a comma-separated string or a JSON list of 1 to `_MAX_GRID`
    `kind` values."""

    def parse(v):
        if isinstance(v, str):
            v = [x for x in v.split(",") if x.strip()]
        if not isinstance(v, list):
            raise ValueError(f"{v!r} is not a list")
        if not 0 < len(v) <= _MAX_GRID:
            raise ValueError(f"needs 1 to {_MAX_GRID} values, got {len(v)}")
        return [_convert(kind, x) for x in v]

    return parse


class _Number(Decimal):
    """A JSON number with a fraction or exponent: exact for `_count`, shown as written."""
    __repr__ = Decimal.__str__


class _Config:
    """Flag values with JSON-file fallback: explicit flags override the file,
    whose keys must be the subcommand's flags. `get` converts and checks a
    value the same way whichever route it took."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.file = {}
        path = self.args.get("config")
        if path:
            with open(path, encoding="utf-8") as fh:
                try:
                    self.file = json.load(fh, parse_float=_Number)
                except RecursionError:
                    raise ValidationError("config file nests too deeply") from None
                except ValueError as exc:  # not UTF-8, not JSON or an int past 4,300 digits
                    raise ValidationError(f"config file: {exc}") from None
            if not isinstance(self.file, dict):
                raise ValidationError("config file must contain a JSON object")
            flags = _COMMANDS[self.args["command"]][2].replace("-", "_").split()
            unknown = sorted(set(self.file) - set(flags))
            if unknown:
                raise ValidationError(f"unknown config keys: {', '.join(unknown)}")

    def get(self, name, default=None, kind=None):
        """The option's value, converted by `kind` unless it is None."""
        v = self.args.get(name)
        if v is None:
            v = self.file.get(name, default)
        if v is None or kind is None:
            return v
        try:
            return _convert(kind, v)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"--{name.replace('_', '-')}: {exc}") from None

    def require(self, name, kind=None):
        v = self.get(name, kind=kind)
        if v is None:
            raise ValidationError(f"missing required option --{name.replace('_', '-')}")
        return v


def _write_text(out_path, lines):
    """Write `lines` as they come, each ended by a newline, to `out_path` or
    stdout, 4096 to a write: a write per line would cost more than the joins."""
    lines = iter(lines)
    with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        while chunk := list(islice(lines, 4096)):
            fh.write("\n".join(chunk) + "\n")


def _omega_grid(cfg, default_min, default_max, default_step):
    values = cfg.get("omega_values", kind=_list(float))
    if values:
        if any(cfg.get(f"omega_{end}") is not None for end in ("min", "max", "step")):
            raise ValidationError("--omega-values excludes --omega-min, --omega-max, --omega-step")
        return values
    lo = cfg.get("omega_min", default_min, _finite)
    hi = cfg.get("omega_max", default_max, _finite)
    step = cfg.get("omega_step", default_step, _finite)
    if not (step > 0 and hi >= lo):
        raise ValidationError("empty score grid")
    span = (hi - lo) / step + 1e-9
    if not span < _MAX_GRID:
        raise ValidationError(f"score grid of more than {_MAX_GRID} points")
    return [lo + i * step for i in range(int(math.floor(span)) + 1)]


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
        "pt_omega": cert.cutoff,
        "second_order_v": cert.second_order_v,
        "log_l": cert.log_l,
        "rate_raw": cert.rate_raw,
        "rate": cert.rate,
        "mode": cert.mode,
    }


def _eps_budget(cfg: _Config) -> tuple[float, float, float]:
    """(eps_dist, eps_snd, eps_cmp), defaulting to 1e-5, 1e-5 and _EPS_CMP."""
    return (
        cfg.get("eps_dist", 1e-5, float),
        cfg.get("eps_snd", 1e-5, float),
        cfg.get("eps_cmp", _EPS_CMP, float),
    )


def _protocol(cfg: _Config, n: int, gamma: float) -> tuple[rates.ProtocolParams, float]:
    """The protocol's parameters and its completeness error eps_cmp, one choice
    made by either option: --delta-est, whose Hoeffding bound exp(-2 n delta_est^2)
    is then eps_cmp, or --eps-cmp (default _EPS_CMP), whose width is then delta_est."""
    omega_exp = cfg.require("omega_exp", float)
    delta_est = cfg.get("delta_est", kind=float)
    if delta_est is None:
        eps_cmp = cfg.get("eps_cmp", _EPS_CMP, float)
        delta_est = rates.delta_est_for(n, eps_cmp)
    elif cfg.get("eps_cmp") is not None:
        raise ValidationError("--delta-est excludes --eps-cmp: it sets eps_cmp = exp(-2 n delta^2)")
    else:
        eps_cmp = rates.completeness_bound(n, delta_est)
    return rates.ProtocolParams(n, gamma, omega_exp, delta_est), eps_cmp


def cmd_rate(cfg: _Config) -> int:
    n = cfg.require("n", _count)
    eps_dist, eps_snd, eps_cmp = _eps_budget(cfg)
    mode = cfg.get("mode", "printed", _choice(rates.MODES))
    gamma = cfg.get("gamma", kind=float)
    eps_smo = cfg.get("eps_smo", kind=float)
    exact = cfg.get("exact", False, bool)
    out = cfg.get("out", kind=str)
    if (gamma is None) != (eps_smo is None) or gamma is None and cfg.get("delta_est") is not None:
        raise ValidationError("--gamma and --eps-smo go together; --delta-est needs both")

    if gamma is not None:
        params, eps_cmp = _protocol(cfg, n, gamma)
        budget = rates.ErrorBudget(eps_dist, eps_snd, eps_cmp, eps_smo)
        cert = rates.certified_log_l(params, budget, mode)
    else:
        omega_exp = cfg.require("omega_exp", float)
        cert = rates.optimize_parameters(n, omega_exp, eps_dist, eps_snd, eps_cmp, mode)

    record = _certificate_record(cert)
    dump = {k: (_round6(v) if isinstance(v, float) else v) for k, v in record.items()}
    if exact:
        dump["exact"] = {k: v for k, v in record.items() if isinstance(v, float)}
    if out:  # before stdout, so a path that cannot be written leaves stdout empty
        _write_text(out, [json.dumps(dump, indent=2, sort_keys=True)])
    for key, value in record.items():
        print(f"{key} = {_fmt(value)}")
    if exact and not out:
        print(json.dumps(dump["exact"], sort_keys=True))
    return 0


_CURVE_HEADER = "n,omega_exp,rate_raw,rate,gamma,eps_smo,delta_est,eta_opt"


def cmd_curve(cfg: _Config) -> int:
    n_list = cfg.get("n_values", "1e6,1e7,1e8,1e10,1e12", _list(_count))
    omegas = _omega_grid(cfg, 0.78, 0.853, 0.00365)
    if len(n_list) * len(omegas) > _MAX_GRID:
        raise ValidationError(f"curve of more than {_MAX_GRID} points: "
                              f"{len(n_list)} n values times {len(omegas)} scores")
    asymptotic = cfg.get("asymptotic", False, bool)
    eps_dist, eps_snd, eps_cmp = _eps_budget(cfg)
    mode = cfg.get("mode", "printed", _choice(rates.MODES))

    lines = [_CURVE_HEADER]
    for n in sorted(n_list):
        certs = rates.rate_curve(n, omegas, eps_dist, eps_snd, eps_cmp, mode)
        for cert in sorted(certs, key=lambda c: c.params.omega_exp):
            record = _certificate_record(cert)
            lines.append(",".join(_fmt(record[k]) for k in _CURVE_HEADER.split(",")))
    if asymptotic:
        for w in sorted(omegas):
            raw = rates.asymptotic_rate(check_score("omega", w))
            lines.append(f"asymptotic,{_fmt(w)},{_fmt(raw)},{_fmt(max(raw, 0.0))},,,,")
    _write_text(cfg.get("out", kind=str), lines)
    return 0


def cmd_entropy_curve(cfg: _Config) -> int:
    omegas = _omega_grid(cfg, OMEGA_CLASSICAL, OMEGA_MAX, 0.0025)
    lines = ["omega,beta,conditional_bound"]
    for w in omegas:
        beta = beta_from_omega(check_score("omega", w))
        result = bounds.bell_diag_entropy_bound(beta)
        lines.append(f"{_fmt(w)},{_fmt(beta)},{_fmt(result.conditional_bound)}")
    _write_text(cfg.get("out", kind=str), lines)
    return 0


# each model and the options it reads: `_build_model` refuses the others
_MODELS = {"honest": ("xi",), "classical": ("table",), "memory": ("xi",),
           "drift": ("xi", "xi_slope")}


def _build_model(cfg: _Config) -> simulate.DeviceModel:
    name = cfg.get("model", "honest", str)
    if name not in _MODELS:
        raise ValidationError(f"unknown model {name!r}; available: {', '.join(_MODELS)}")
    for option in ("xi", "xi_slope", "table"):  # one the model never reads would be dropped
        if option not in _MODELS[name] and cfg.get(option) is not None:
            raise ValidationError(f"--{option.replace('_', '-')} is not read by --model {name}")
    if name == "classical":  # deterministic_strategy checks each bit
        table = cfg.get("table", "0,0,0,0", _list(_natural))
        if len(table) != 4:
            raise ValidationError(f"--table needs four bits a0,a1,b0,b1, got {len(table)}")
        return simulate.ClassicalDeterministicDevice(*table)
    xi = cfg.get("xi", 0.0, float)
    if name == "drift":  # builds its own optimal strategy
        return simulate.NoisyDriftDevice(xi, cfg.get("xi_slope", 1e-3, float))
    if name == "honest":
        return simulate.HonestIIDDevice(optimal_strategy(werner_state(xi).matrix))
    werner_state(xi)  # memory: the range check, before the 0.5 floor below hides it
    return simulate.MemorySwitcherDevice(optimal_strategy(),
                                         optimal_strategy(werner_state(max(xi, 0.5)).matrix))


def cmd_simulate(cfg: _Config) -> int:
    n = cfg.require("n", _count)
    trials = cfg.get("trials", 100, _count)
    if max(n, trials) > _MAX_COUNT:
        raise ValidationError(f"--n and --trials may not exceed {_MAX_COUNT}")
    params, _ = _protocol(cfg, n, cfg.get("gamma", 1.0, float))
    model = _build_model(cfg)
    seed = cfg.get("seed", 0, _natural)
    protocol_mode = cfg.get("protocol", "standard", _choice(simulate.MODES))

    first, estimate, interval = simulate.run_trials(model, params, trials, seed, protocol_mode)
    _write_text(cfg.get("out", kind=str), first.lines())
    tests = sum(r.t for r in first.rounds)
    summary = {
        "abort_estimate": _round6(estimate),
        "interval": [_round6(interval[0]), _round6(interval[1])],
        "hoeffding_bound": _round6(rates.completeness_bound(n, params.delta_est)),
        "win_rate": _round6(first.win_count / tests) if tests else 0.0,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


# subcommand: (handler, help, the flags besides --config that it reads)
_COMMANDS = {
    "rate": (cmd_rate, "certified rate for one parameter point",
             "n omega-exp eps-dist eps-snd eps-cmp gamma eps-smo delta-est mode out exact"),
    "curve": (cmd_curve, "rate curves over a score grid",
              "n-values omega-min omega-max omega-step omega-values asymptotic "
              "eps-dist eps-snd eps-cmp mode out"),
    "entropy-curve": (cmd_entropy_curve, "conditional-entropy bound curve",
                      "omega-min omega-max omega-step omega-values out"),
    "simulate": (cmd_simulate, "run the protocol against a device model",
                 "model n gamma omega-exp delta-est eps-cmp trials protocol xi xi-slope "
                 "table seed out"),
}
_SWITCHES = ("exact", "asymptotic")
_HELP = {
    "config": "JSON config file; flags override it",
    "seed": "master random seed",
    "out": "output file path",
    "mode": f"second-order gradient-term convention: {', '.join(rates.MODES)}",
    "exact": "also emit full-precision JSON",
    "asymptotic": "append the many-round limit curve",
    "model": f"one of: {', '.join(_MODELS)}",
    "protocol": f"one of: {', '.join(simulate.MODES)}",
    "xi": "Werner noise parameter",
    "table": "a0,a1,b0,b1 for the classical model",
}


# one per process: a parse writes only to the namespace it returns, and each cmd_* is bound
# when the parser is first built
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Declares each subcommand's flags; every value stays a string (or True
    for a switch) for `_Config.get` to convert. Flags must be spelled in
    full, so no abbreviation resolves to another command's flag."""
    parser = argparse.ArgumentParser(
        prog="diecert",
        description="Device-independent certification of one-shot distillable "
        "entanglement from CHSH statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in ["config", *flags.split()]:
            action = "store_true" if flag in _SWITCHES else "store"
            p.add_argument(f"--{flag}", action=action, default=None, help=_HELP.get(flag))
        p.set_defaults(func=func)
    return parser


_VALUE_FLAGS = {f"--{f}" for _, _, names in _COMMANDS.values()
                for f in ["config", *names.split()] if f not in _SWITCHES}


def _join_negatives(argv) -> list[str]:
    """Each token of a minus sign then a digit, a point, inf or nan, as every
    negative number `float` reads begins, joined to the value flag before it:
    argparse reads only a plain decimal such as -0.001 as a value."""
    joined = []
    for token in argv:
        if joined and joined[-1] in _VALUE_FLAGS and re.match(r"-(?i:[\d.]|inf|nan)", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_negatives(sys.argv[1:] if argv is None else argv))
    try:
        with warnings.catch_warnings():  # one line per warning, not Python's two
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.func(_Config(args))
    except (ValidationError, OSError) as exc:
        # one line, whose middle gives way when an echoed value makes it long
        text = " ".join(str(exc).splitlines())
        if len(text) > _MAX_ERROR:
            text = f"{text[:_MAX_ERROR // 2]} ... {text[-_MAX_ERROR // 2:]}"
        print(f"error: {text}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
