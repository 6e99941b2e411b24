"""In-memory span tracer that wraps wtnrank's public functions from outside.

Each traced function is replaced at every module attribute bound to it (for
example ``build_google`` in ``wtnrank.google_matrix``, ``wtnrank.sensitivity``,
``wtnrank.cli`` and ``wtnrank``), so calls made between library modules are
seen too. A span records name, start, end, parent span and pass id; the
benchmark adds its own spans around CLI commands. A traced name that the
library no longer defines is reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (layer, module, functions, result attribute counted as work done)
LAYERS = (
    ("trade_data.ingest_csv", "wtnrank.trade_data", ("ingest_csv",), "rows_used"),
    ("trade_data.write_trade_csv", "wtnrank.trade_data", ("write_trade_csv",), None),
    ("trade_data.merge_country_group", "wtnrank.trade_data", ("merge_country_group",), None),
    ("trade_data.volume_probabilities", "wtnrank.trade_data", ("volume_probabilities",), None),
    ("google_matrix.build_google", "wtnrank.google_matrix", ("build_google",), None),
    ("ranks.pagerank", "wtnrank.ranks", ("pagerank",), "iterations"),
    ("ranks.assign_ranks", "wtnrank.ranks", ("assign_ranks",), None),
    ("ranks.rank_table", "wtnrank.ranks", ("rank_table",), None),
    ("sensitivity.perturb_money", "wtnrank.sensitivity", ("perturb_money",), None),
    ("sensitivity.balance_report", "wtnrank.sensitivity", ("balance_report",), None),
    ("sensitivity.balance_sensitivity", "wtnrank.sensitivity", ("balance_sensitivity",), None),
    ("sensitivity.labor_cost_matrix", "wtnrank.sensitivity", ("labor_cost_matrix",), None),
    ("sensitivity.writers", "wtnrank.sensitivity",
     ("write_balance_csv", "write_balance_json", "write_sensitivity_csv",
      "write_sensitivity_json"), None),
    ("regomax.reduce", "wtnrank.regomax", ("reduce",), "series_terms"),
    ("regomax.strongest_links", "wtnrank.regomax", ("strongest_links",), None),
    ("regomax.writers", "wtnrank.regomax", ("write_matrix_csv", "write_dot"), None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: str
    work: int | None = None  # from the result attribute named in LAYERS


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.pass_id = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.pass_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def _wrap(self, layer: str, fn, work_attr: str | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer) as span:
                result = fn(*args, **kwargs)
                if work_attr is not None:
                    span.work = getattr(result, work_attr, None)
                    if span.work is None and f"{layer}.{work_attr}" not in self.absent:
                        self.absent.append(f"{layer}.{work_attr}")
                return result
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "wtnrank" or name.startswith("wtnrank."))]
        for layer, module_name, names, work_attr in LAYERS:
            home = sys.modules.get(module_name)
            for fn_name in names:
                original = getattr(home, fn_name, None)
                if original is None:
                    self.absent.append(f"{module_name}.{fn_name}")
                    continue
                traced = self._wrap(layer, original, work_attr)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def per_pass(self, pass_ids) -> list[dict]:
        """Per pass: {name: {"self_s", "total_s", "calls", "work"}} over its spans."""
        own = self.self_times()
        out = []
        for pid in pass_ids:
            table: dict[str, dict] = {}
            for s, self_s in zip(self.spans, own):
                if s.pass_id != pid:
                    continue
                row = table.setdefault(s.name, {"self_s": 0.0, "total_s": 0.0,
                                                "calls": 0, "work": 0})
                row["self_s"] += self_s
                row["total_s"] += s.end - s.start
                row["calls"] += 1
                row["work"] += s.work or 0
            out.append(table)
        return out

    def calls_under(self, name: str, ancestor: str, pass_id: str) -> int:
        """Calls of ``name`` in the pass made (at any depth) inside an ``ancestor`` span."""
        count = 0
        for s in self.spans:
            if s.name != name or s.pass_id != pass_id:
                continue
            parent = s.parent
            while parent is not None and self.spans[parent].name != ancestor:
                parent = self.spans[parent].parent
            count += parent is not None
        return count

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "pass": s.pass_id, "work": s.work} for s in self.spans]
