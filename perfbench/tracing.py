"""Spans and counters around the calls into each diecert module.

Nothing inside the package changes: the tracer swaps module attributes for
wrappers while it is installed and puts the originals back afterwards. A
wrapper is installed on the name as the *calling* module bound it, so
``diecert.rates.g`` counts the calls that ``rates`` makes into ``bounds``
and ``diecert.simulate.werner_state`` the calls ``simulate`` makes into
``quantum``.

Calls that take more than about 10 microseconds get a span (name, parent,
start, end, and the time of its children). Cheaper calls are only counted,
because a span would cost more than the call; the per-round ``quantum``
calls are counted and timed, and their time is charged to the enclosing
span so self times stay honest. Spans are kept in memory and written out
when the run ends.
"""

from __future__ import annotations

import inspect
import statistics
from time import perf_counter

import diecert.bounds
import diecert.chsh
import diecert.cli
import diecert.rates
import diecert.simulate

MODEL_LABELS = {
    "HonestIIDDevice": "honest",
    "ClassicalDeterministicDevice": "classical",
    "MemorySwitcherDevice": "memory",
    "NoisyDriftDevice": "drift",
}
PROTOCOLS = ("standard", "modified")

# (module, attribute, span name) for calls that get a span
_SPANS = (
    (diecert.cli, "main", "cli.main"),
    (diecert.rates, "optimize_parameters", "rates.optimize_parameters"),
    (diecert.rates, "rate_curve", "rates.rate_curve"),
    (diecert.rates, "certified_log_l", "rates.certified_log_l"),
    (diecert.bounds, "bell_diag_entropy_bound", "bounds.bell_diag_entropy_bound"),
    (diecert.bounds, "brute_force_max_entropy", "bounds.brute_force_max_entropy"),
    (diecert.simulate, "estimate_abort_probability", "simulate.estimate_abort_probability"),
    (diecert.simulate, "check_statistics_equivalence", "simulate.check_statistics_equivalence"),
)
# (module, attribute, counter name) for calls that are only counted
_COUNTS = (
    (diecert.rates, "g", "bounds.g"),
    (diecert.rates, "g_prime", "bounds.g_prime"),
    (diecert.rates, "asymptotic_rate", "rates.asymptotic_rate"),
    (diecert.rates, "delta_est_for", "rates.delta_est_for"),
    (diecert.rates, "completeness_bound", "rates.completeness_bound"),
    (diecert.cli, "optimal_strategy", "chsh.optimal_strategy"),
    (diecert.cli, "Strategy", "chsh.Strategy"),
    (diecert.chsh, "optimal_strategy", "chsh.optimal_strategy"),
    (diecert.chsh, "deterministic_strategy", "chsh.deterministic_strategy"),
    (diecert.simulate, "winning_probability", "chsh.winning_probability"),
)
# (module, attribute, counter name) for counted calls whose time is also kept
_TIMED_COUNTS = (
    (diecert.simulate, "werner_state", "quantum.werner_state"),
    (diecert.simulate, "jordan_blocks", "quantum.jordan_blocks"),
    (diecert.simulate, "block_projectors", "quantum.block_projectors"),
    (diecert.simulate, "twirl", "quantum.twirl"),
)


class Tracer:
    """Installs the wrappers, records spans and counts, and derives metrics."""

    def __init__(self):
        # span: [name, parent index, start, end, child seconds, tag]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.timed: dict[str, float] = {}
        self.rounds: list[tuple[str, str, int, float]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        for module, attr, name in _SPANS:
            self._swap(module, attr, self._span(name, getattr(module, attr)))
        run = diecert.simulate.run_protocol
        self._swap(diecert.simulate, "run_protocol", self._run_protocol(run))
        for module, attr, name in _COUNTS:
            self._swap(module, attr, self._count(name, getattr(module, attr)))
        for module, attr, name in _TIMED_COUNTS:
            self._swap(module, attr, self._timed_count(name, getattr(module, attr)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _swap(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _open(self, name, tag=None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, 0.0, 0.0, 0.0, tag])
        self.stack.append(idx)
        self.spans[idx][2] = perf_counter()
        return idx

    def _close(self, idx: int) -> float:
        end = perf_counter()
        span = self.spans[idx]
        span[3] = end
        self.stack.pop()
        if span[1] >= 0:
            self.spans[span[1]][4] += end - span[2]
        return end - span[2]

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            tag = args[0][0] if name == "cli.main" and args and args[0] else None
            idx = self._open(name, tag)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed_count(self, name, fn):
        counts, timed, spans, stack = self.counts, self.timed, self.spans, self.stack
        counts.setdefault(name, 0)
        timed.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                timed[name] += took
                if stack:
                    spans[stack[-1]][4] += took

        return wrapper

    def _run_protocol(self, fn):
        """Span around run_protocol that also counts the model's prepare_round
        calls and keeps the time per round for each model and protocol."""
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            model = bound.arguments["model"]
            label = MODEL_LABELS.get(type(model).__name__, type(model).__name__)
            mode = bound.arguments["mode"]
            n = bound.arguments["params"].n
            model.prepare_round = self._count(
                "simulate.prepare_round", type(model).prepare_round.__get__(model)
            )
            idx = self._open("simulate.run_protocol", (label, mode))
            try:
                result = fn(*args, **kwargs)
            finally:
                took = self._close(idx)
                del model.prepare_round
            self.rounds.append((label, mode, n, took))
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def _root(self, span) -> int:
        """Index of the outermost span enclosing ``span``."""
        idx = -1
        while span[1] >= 0:
            idx = span[1]
            span = self.spans[idx]
        return idx

    def _busy(self, name):
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def _self(self, name):
        return [s[3] - s[2] - s[4] for s in self.spans if s[0] == name]

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics; totals are divided by the ops of the traced pass."""
        counts = self.counts

        def per_op(total):
            return total / ops

        simulate_cmds = {i for i, s in enumerate(self.spans)
                         if s[0] == "cli.main" and s[5] == "simulate"}
        under_cli = sum(1 for s in self.spans
                        if s[0] == "simulate.run_protocol" and self._root(s) in simulate_cmds)
        brute = self._busy("bounds.brute_force_max_entropy")
        cli_self = self._self("cli.main")
        out = {
            "cli.main.self_s": statistics.fmean(cli_self) if cli_self else 0.0,
            "cli.simulate.run_protocol_calls":
                under_cli / len(simulate_cmds) if simulate_cmds else 0.0,
            "rates.optimize_parameters.busy_s": per_op(sum(self._busy("rates.optimize_parameters"))),
            "rates.optimize_parameters.self_s": per_op(sum(self._self("rates.optimize_parameters"))),
            "rates.rate_curve.busy_s": per_op(sum(self._busy("rates.rate_curve"))),
            "rates.certified_log_l.busy_s": per_op(sum(self._busy("rates.certified_log_l"))),
            "rates.certified_log_l.calls": per_op(len(self._busy("rates.certified_log_l"))),
            "bounds.g.calls": per_op(counts["bounds.g"]),
            "bounds.g_prime.calls": per_op(counts["bounds.g_prime"]),
            "bounds.bell_diag_entropy_bound.busy_s":
                per_op(sum(self._busy("bounds.bell_diag_entropy_bound"))),
            "bounds.brute_force_max_entropy.busy_s": per_op(sum(brute)),
            "bounds.brute_force_max_entropy.first_call_s": brute[0] if brute else 0.0,
        }
        for label in ("drift", "memory", "honest", "classical"):
            for mode in PROTOCOLS:
                runs = [(n, t) for lab, m, n, t in self.rounds if lab == label and m == mode]
                rounds = sum(n for n, _ in runs)
                out[f"simulate.run_protocol.us_per_round.{label}.{mode}"] = (
                    sum(t for _, t in runs) / rounds * 1e6 if rounds else 0.0
                )
        out.update({
            "simulate.run_protocol.self_s": per_op(sum(self._self("simulate.run_protocol"))),
            "simulate.prepare_round.calls": per_op(counts.get("simulate.prepare_round", 0)),
            "simulate.estimate_abort_probability.busy_s":
                per_op(sum(self._busy("simulate.estimate_abort_probability"))),
            "simulate.check_statistics_equivalence.busy_s":
                per_op(sum(self._busy("simulate.check_statistics_equivalence"))),
            "quantum.jordan_blocks.calls": per_op(counts["quantum.jordan_blocks"]),
            "quantum.werner_state.calls": per_op(counts["quantum.werner_state"]),
            "quantum.twirl.calls": per_op(counts["quantum.twirl"]),
            "quantum.busy_s": per_op(sum(self.timed.values())),
            "chsh.calls": per_op(sum(v for k, v in counts.items() if k.startswith("chsh."))),
        })
        return out

    def dump(self) -> dict:
        """Spans and counters in a JSON-ready form, times relative to the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        return {
            "spans": [
                {"name": s[0], "parent": s[1], "start": s[2] - origin,
                 "end": s[3] - origin, "self": s[3] - s[2] - s[4], "tag": s[5]}
                for s in self.spans
            ],
            "counts": self.counts,
            "timed_s": self.timed,
        }

