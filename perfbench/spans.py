"""Spans recorded from outside gwmono, for the traced run only.

The tracer swaps a timing wrapper in for each public function at every
module attribute through which the layers call one another (``from .x
import y`` gives each calling module its own binding, so each binding is
wrapped on its own).  A span holds its name, the binding it went through,
start, end, parent span and the instance (operation) id.  Spans stay in
memory and are written out when the run ends; ``uninstall`` puts every
original function object back and ``restored`` checks that it did.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

# (module, attribute, span name).  Several bindings of one function share a
# span name; the binding is kept per span so callers can still be told apart.
BINDINGS = [
    ("gwmono.states", "to_state_vector", "states.to_state_vector"),
    ("gwmono.monogamy", "to_state_vector", "states.to_state_vector"),
    ("gwmono.residual", "to_state_vector", "states.to_state_vector"),
    ("gwmono.cli", "to_state_vector", "states.to_state_vector"),
    ("gwmono.states", "reduce", "states.reduce"),
    ("gwmono.monogamy", "reduce", "states.reduce"),
    ("gwmono.cli", "load_state_json", "states.load_state_json"),
    ("gwmono.concurrence", "gw_block_concurrence_oracle", "concurrence.oracle"),
    ("gwmono.monogamy", "gw_block_concurrence_oracle", "concurrence.oracle"),
    ("gwmono.cli", "gw_block_concurrence_oracle", "concurrence.oracle"),
    ("gwmono.concurrence", "oracle_pair_concurrence_sq", "concurrence.pair_sq"),
    ("gwmono.residual", "oracle_pair_concurrence_sq", "concurrence.pair_sq"),
    ("gwmono.concurrence", "wootters_concurrence", "concurrence.wootters"),
    ("gwmono.cli", "pair_source_comparison", "concurrence.source_comparison"),
    ("gwmono.monogamy", "g_qs", "unified.g_qs"),
    ("gwmono.residual", "g_qs", "unified.g_qs"),
    ("gwmono.monogamy", "f_qs", "unified.f_qs"),
    ("gwmono.unified", "f_qs", "unified.f_qs"),
    ("gwmono.monogamy", "ue_pure", "unified.ue_pure"),
    ("gwmono.monogamy", "unified_entropy", "unified.unified_entropy"),
    ("gwmono.unified", "convex_roof_ue_rank2", "unified.roof"),
    ("gwmono.residual", "residual_chain_check", "residual.chain_check"),
    ("gwmono.cli", "block_residual_table", "residual.table"),
    ("gwmono.cli", "pairwise_residual_table", "residual.table"),
    ("gwmono.cli", "main", "cli.main"),
] + [
    (module, checker, "monogamy.check")
    for module in ("gwmono.monogamy", "gwmono.cli")
    for checker in (
        "check_squared_monogamy",
        "check_power_monogamy",
        "check_tightened",
        "check_chained",
        "check_beta_lower_bound",
        "check_beta_upper_bound",
    )
]

# Span names reported with ``.calls`` and ``.self_s``.
LAYERS = (
    "states.to_state_vector",
    "states.reduce",
    "states.load_state_json",
    "concurrence.oracle",
    "concurrence.wootters",
    "unified.g_qs",
    "unified.f_qs",
    "unified.ue_pure",
    "unified.unified_entropy",
    "unified.roof",
    "monogamy.check",
    "residual.chain_check",
    "residual.table",
    "cli.main",
)


def _amplitudes(value) -> int:
    return int(getattr(getattr(value, "amps", None), "size", 0))


class Tracer:
    """Installs the wrappers, records spans and turns them into layer figures."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, binding, start, end, parent, instance]
        self.counters: dict[str, float] = {}
        self.instance = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.missing: list[str] = []
        monogamy = importlib.import_module("gwmono.monogamy")
        self._refusal = monogamy.HypothesisNotMet
        self._margin_tol = monogamy.MARGIN_TOL

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def install(self) -> None:
        for binding, (mod_name, attr, name) in enumerate(BINDINGS):
            module = importlib.import_module(mod_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, binding))

    def uninstall(self) -> None:
        for module, attr, original in self._saved:
            setattr(module, attr, original)

    def restored(self) -> bool:
        """Whether every wrapped attribute is again the original function object."""
        return all(getattr(m, a) is orig for m, a, orig in self._saved)

    def _wrap(self, original, name: str, binding: int):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, binding, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = original(*args, **kwargs)
            except self._refusal:
                if name == "monogamy.check":
                    self.count("monogamy.refused")
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            self._note(name, args, result)
            return result

        return wrapper

    def _note(self, name: str, args, result) -> None:
        if name == "states.to_state_vector":
            self.count("states.amplitudes_materialised", _amplitudes(result))
        elif name == "concurrence.oracle":
            self.count("concurrence.oracle.input_amplitudes", _amplitudes(args[0]))
        elif name == "monogamy.check":
            violated = result.hypotheses_ok and result.margin < -self._margin_tol
            self.count("monogamy.violated" if violated else "monogamy.held")

    # ------------------------------------------------------------------ analysis

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                out[s[4]] -= s[3] - s[2]
        return out

    def self_check(self, wall_s: float) -> tuple[bool, float, float]:
        """Span self times plus the untraced remainder must sum to the wall time.

        Also checks that every child lies inside its parent's interval, which
        is what makes the self times non-overlapping.
        """
        selfs = self.self_times()
        top = sum(s[3] - s[2] for s in self.spans if s[4] < 0)
        remainder = wall_s - top
        nested = all(
            s[4] < 0
            or (self.spans[s[4]][2] <= s[2] <= s[3] <= self.spans[s[4]][3])
            for s in self.spans
        )
        total = sum(selfs) + remainder
        ok = nested and remainder >= 0.0 and abs(total - wall_s) <= 1e-9 * (1 + len(selfs))
        return ok, sum(selfs), remainder

    def layer_metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        for s, st in zip(self.spans, selfs):
            calls[s[0]] = calls.get(s[0], 0) + 1
            busy[s[0]] = busy.get(s[0], 0.0) + st
        oracle_us = sorted(
            (s[3] - s[2]) * 1e6 for s in self.spans if s[0] == "concurrence.oracle"
        )
        residual_binding = {
            i for i, b in enumerate(BINDINGS) if b[0] == "gwmono.residual" and b[1] == "to_state_vector"
        }
        out: dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = busy.get(name, 0.0)
        amps = self.counters.get("states.amplitudes_materialised", 0)
        out["states.amplitudes_materialised"] = amps
        out["states.bytes_materialised"] = 16 * amps
        out["concurrence.oracle.call_us_p50"] = _median(oracle_us)
        out["concurrence.oracle.input_amplitudes"] = self.counters.get(
            "concurrence.oracle.input_amplitudes", 0
        )
        held = self.counters.get("monogamy.held", 0)
        refused = self.counters.get("monogamy.refused", 0)
        violated = self.counters.get("monogamy.violated", 0)
        checks = calls.get("monogamy.check", 0)
        out["monogamy.held"] = held
        out["monogamy.refused"] = refused
        out["monogamy.violated"] = violated
        out["monogamy.evaluated_ratio"] = (held + violated) / checks if checks else 0.0
        out["residual.dense_rebuilds"] = sum(
            1 for s in self.spans if s[1] in residual_binding
        )
        return out

    def write(self, path: Path, meta: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        payload = {
            "meta": meta,
            "bindings": [f"{m}.{a}" for m, a, _ in BINDINGS],
            "missing_bindings": self.missing,
            "span_names": names,
            "columns": ["name", "binding", "start_s", "end_s", "parent", "instance"],
            "spans": [
                [index[s[0]], s[1], round(s[2] - t0, 9), round(s[3] - t0, 9), s[4], s[5]]
                for s in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))


def _median(values: list[float]) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2.0
