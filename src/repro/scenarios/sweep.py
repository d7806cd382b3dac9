"""Sweep orchestration: expand spec grids, run cells (optionally in parallel).

The :class:`SweepRunner` is the canonical way to run many
:class:`~repro.scenarios.spec.ScenarioSpec` cells:

* :func:`expand_grid` expands the cartesian product of the swept axes into
  a flat spec list (workload entries may be callables of ``n`` so request
  counts can scale with the cluster size);
* :meth:`SweepRunner.run` executes the cells serially (timing-faithful, the
  benchmark default) or across a ``multiprocessing`` pool, streaming one
  JSON row per finished cell to an optional callback and/or an optional
  JSONL ``sink`` (a path or open text handle) — with ``collect=False`` a
  100+ cell matrix whose rows carry quantile/series blocks streams to disk
  without ever being held in memory.

Workers receive specs as plain dictionaries and return plain row
dictionaries, so the pool works under both the ``fork`` and ``spawn`` start
methods and every row is JSON-serialisable by construction.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.exceptions import ConfigurationError
from repro.scenarios.spec import DelaySpec, FailureSpec, ScenarioSpec, WorkloadSpec

__all__ = ["SweepRunner", "expand_grid", "run_scenario"]

#: A grid workload axis entry: a ready spec, or a callable of ``n`` (so a
#: cell's request count can scale with its size).
WorkloadAxis = WorkloadSpec | Callable[[int], WorkloadSpec]


def run_scenario(spec: ScenarioSpec) -> dict[str, Any]:
    """Run one cell and return its flat JSON row."""
    return spec.run().row()


def _error_row(spec: ScenarioSpec, exc: Exception) -> dict[str, Any]:
    """The row a cell yields when ``tolerate_errors`` swallows its crash.

    Carries enough of the cell's identity to be diffable next to real rows,
    an ``error`` block naming the exception, and ``None`` verdicts (the run
    died, so neither safety nor liveness was established — adversarial
    network faults can legitimately crash a protocol that assumes reliable
    channels, and the fuzzer's oracle classifies exactly that).
    """
    return {
        "algorithm": spec.algorithm,
        "n": spec.n,
        "metrics_detail": spec.metrics_detail,
        "workload": spec.workload.kind,
        "delay": spec.delay.kind,
        "fifo": spec.fifo,
        "seed": spec.seed,
        "safety_ok": None,
        "liveness_ok": None,
        "analysis_ok": None,
        "error": {"type": type(exc).__name__, "message": str(exc)},
        **({"label": spec.label} if spec.label is not None else {}),
    }


def _run_scenario_tolerant(spec: ScenarioSpec) -> dict[str, Any]:
    """Run one cell, converting a crashing run into an error row."""
    try:
        return run_scenario(spec)
    except Exception as exc:  # noqa: BLE001 - the point is to survive the cell
        return _error_row(spec, exc)


def _run_spec_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Pool worker entry point: dict in, dict out (pickle-friendly)."""
    return run_scenario(ScenarioSpec.from_dict(payload))


def _run_spec_payload_tolerant(payload: dict[str, Any]) -> dict[str, Any]:
    """Error-tolerant pool worker: a crashing cell yields an error row."""
    return _run_scenario_tolerant(ScenarioSpec.from_dict(payload))


def expand_grid(
    *,
    algorithms: Sequence[str],
    sizes: Sequence[int],
    workloads: Sequence[WorkloadAxis],
    delays: Sequence[DelaySpec] = (DelaySpec(),),
    fifos: Sequence[bool] = (False,),
    seeds: Sequence[int] = (0,),
    failures: Sequence[FailureSpec | None] = (None,),
    metrics_details: Sequence[str] = ("full",),
    **common: Any,
) -> list[ScenarioSpec]:
    """Expand the cartesian product of the swept axes into a spec list.

    ``common`` keyword arguments (``repeats``, ``trace``, ``node_options``,
    ``max_events``, ...) are applied to every generated spec.
    """
    specs: list[ScenarioSpec] = []
    for algorithm, n, workload, delay, fifo, seed, failure, detail in itertools.product(
        algorithms, sizes, workloads, delays, fifos, seeds, failures, metrics_details
    ):
        resolved = workload(n) if callable(workload) else workload
        specs.append(
            ScenarioSpec(
                algorithm=algorithm,
                n=n,
                workload=resolved,
                delay=delay,
                fifo=fifo,
                seed=seed,
                failures=failure,
                metrics_detail=detail,
                **common,
            )
        )
    return specs


@dataclass
class SweepRunner:
    """Runs a list of scenario cells and collects their JSON rows.

    Args:
        specs: the cells to run, in order.
        processes: 1 (default) runs in-process and in order — the right
            choice for timing-sensitive benchmarks; ``> 1`` distributes the
            cells over a ``multiprocessing`` pool (rows still come back in
            spec order).  Sharded cells (``spec.shards >= 1``) fork their
            own shard workers, which a daemonic pool worker may not do, so
            they run in the parent process alongside the pool.  Parallel
            workers each measure their own wall time, so expect more timing
            noise per cell.
        start_method: ``multiprocessing`` start method; defaults to
            ``"fork"`` where available (it does not re-import ``__main__``,
            so it also works from scripts run via stdin) and the platform
            default elsewhere.
        tolerate_errors: ``False`` (default) lets a crashing cell abort the
            sweep — the benchmark contract, where an exception is a bug.
            ``True`` converts a cell that raises into an ``error`` row
            (``safety_ok``/``liveness_ok`` ``None``, exception type +
            message) and keeps sweeping — the fuzzing contract, where
            adversarial faults are *expected* to crash protocols that assume
            reliable channels.
    """

    specs: list[ScenarioSpec] = field(default_factory=list)
    processes: int = 1
    start_method: str | None = None
    tolerate_errors: bool = False

    @classmethod
    def from_grid(cls, *, processes: int = 1, **grid: Any) -> "SweepRunner":
        """Build a runner directly from :func:`expand_grid` axes."""
        return cls(specs=expand_grid(**grid), processes=processes)

    def run(
        self,
        *,
        on_row: Callable[[dict[str, Any]], None] | None = None,
        sink: Path | str | io.TextIOBase | None = None,
        collect: bool = True,
    ) -> list[dict[str, Any]]:
        """Run every cell; returns one row per spec, in spec order.

        Args:
            on_row: called with each finished row as it completes — *before*
                the sink records it, so a callback that enriches the row in
                place (the scale bench's baseline decoration) is reflected in
                the JSONL stream and the returned list alike.
            sink: stream each finished row as one JSON Lines record the
                moment the cell completes — serial and pool runs alike.  A
                path (opened/truncated here, flushed per row, closed at the
                end) or an already-open text handle (flushed per row, left
                open).  Crash-tolerant by construction: everything finished
                before an interrupt is already on disk.
            collect: ``False`` skips accumulating the (quantile/series-heavy)
                rows in memory and returns an empty list — the streaming
                mode for 100+ cell matrices; requires a ``sink`` or
                ``on_row`` to receive the rows.
        """
        if not self.specs:
            return []
        if self.processes < 1:
            raise ConfigurationError(f"processes must be >= 1, got {self.processes}")
        if not collect and sink is None and on_row is None:
            raise ConfigurationError(
                "collect=False discards the rows: pass a sink or on_row to "
                "receive them"
            )
        rows: list[dict[str, Any]] = []
        with contextlib.ExitStack() as stack:
            if sink is None:
                handle = None
            elif isinstance(sink, (str, Path)):
                handle = stack.enter_context(Path(sink).open("w", encoding="utf-8"))
            else:
                handle = sink

            def emit(row: dict[str, Any]) -> None:
                if on_row is not None:
                    on_row(row)
                if handle is not None:
                    _write_jsonl_row(handle, row)
                if collect:
                    rows.append(row)

            run_one = _run_scenario_tolerant if self.tolerate_errors else run_scenario
            if self.processes == 1:
                for spec in self.specs:
                    emit(run_one(spec))
                return rows
            worker = (
                _run_spec_payload_tolerant if self.tolerate_errors else _run_spec_payload
            )
            # Pool workers are daemonic and may not fork, but a sharded cell
            # forks its shard workers: those cells run here in the parent
            # while the pool works through the rest.
            payloads = [spec.to_dict() for spec in self.specs if not spec.shards]
            workers = max(1, min(self.processes, len(payloads)))
            method = self.start_method
            if method is None and "fork" in multiprocessing.get_all_start_methods():
                method = "fork"
            with multiprocessing.get_context(method).Pool(workers) as pool:
                pooled = pool.imap(worker, payloads)
                for spec in self.specs:
                    emit(run_one(spec) if spec.shards else next(pooled))
        return rows

    def write_rows(self, rows: Iterable[dict[str, Any]], path: Path | str) -> None:
        """Write precomputed rows as JSON Lines (one row object per line).

        Thin post-hoc wrapper over the same emitter :meth:`run`'s ``sink``
        streams through; prefer ``run(sink=...)`` when the rows are being
        produced anyway.
        """
        with Path(path).open("w", encoding="utf-8") as handle:
            for row in rows:
                _write_jsonl_row(handle, row)


def _write_jsonl_row(handle: io.TextIOBase, row: dict[str, Any]) -> None:
    """One JSON Lines record, flushed so interrupted sweeps keep their rows."""
    handle.write(json.dumps(row) + "\n")
    handle.flush()
