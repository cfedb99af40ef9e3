"""Common result container for experiment scripts."""

from __future__ import annotations

from typing import Any, Optional


class ExperimentResult:
    """Rows regenerating one of the paper's tables or figures."""

    def __init__(self, experiment: str, title: str,
                 rows: Optional[list[dict[str, Any]]] = None,
                 notes: str = "", metrics: Optional[dict[str, Any]] = None,
                 breakdown: Optional[dict[str, Any]] = None,
                 spans: Optional[dict[str, Any]] = None) -> None:
        self.experiment = experiment
        self.title = title
        self.rows = rows if rows is not None else []
        self.notes = notes
        #: point_id -> metrics payload (``MetricsRegistry.to_payload``
        #: form); attached by :func:`repro.experiments.registry.run_sweep`
        #: from the points' payloads, like the two blocks below.
        self.metrics = metrics if metrics is not None else {}
        #: point_id -> list of per-flow FCT breakdown dicts
        #: (:func:`repro.analysis.latency.flow_breakdown` components);
        #: present when span tracing was enabled (``--breakdown``).
        self.breakdown = breakdown if breakdown is not None else {}
        #: point_id -> span payload (``SpanTracker.to_payload`` form);
        #: present when span tracing was enabled (``--breakdown``,
        #: ``--perfetto-out``).
        self.spans = spans if spans is not None else {}

    def columns(self) -> list[str]:
        cols: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def format_table(self) -> str:
        """Plain-text table, one row per dict."""
        cols = self.columns()
        if not cols:
            return f"{self.experiment}: (no rows)"

        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.4g}"
            if isinstance(value, (tuple, list)):
                # Lists appear when a row round-tripped through the
                # runner's JSON cache (tuples have no JSON form).
                return "~".join(fmt(v) for v in value)
            return str(value)

        table = [[fmt(row.get(c, "")) for c in cols] for row in self.rows]
        widths = [max(len(c), *(len(r[i]) for r in table)) if table else len(c)
                  for i, c in enumerate(cols)]
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in table:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def print_table(self) -> None:
        print(self.format_table())

    def format_breakdown(self) -> str:
        """Per-flow FCT attribution table (``--breakdown``).

        One row per (point, flow): FCT plus each component as a
        percentage.  A ``*`` after the flow id flags a flow that had
        not completed when the run ended (partial attribution).  Points
        are listed in sorted order so the table is byte-identical
        whether it was built live or restored from a payload (whose
        dicts canonicalize to sorted keys).
        """
        if not self.breakdown:
            return (f"== {self.experiment}: breakdown == (no span data; "
                    "run with --breakdown on a simulation experiment)")
        from repro.analysis.latency import breakdown_rows
        ordered = {point: self.breakdown[point]
                   for point in sorted(self.breakdown)}
        table = ExperimentResult(
            self.experiment, "FCT breakdown (% of completion time)",
            rows=breakdown_rows(ordered))
        return table.format_table()

    def column(self, name: str) -> list[Any]:
        return [row.get(name) for row in self.rows]

    def row_by(self, key: str, value: Any) -> dict[str, Any]:
        for row in self.rows:
            if row.get(key) == value:
                return row
        raise KeyError(f"no row with {key}={value!r}")
