"""Every benchmark operation runs and passes its own check.

perfbench/workloads.py calls the library directly (geodesics, CommutatorData,
a factorization's meta, a relation witness's extra generator and more), and
perfbench/tracing.py wraps functions by name and reads their results.  A
change that breaks one of these would otherwise fail only when the benchmark
runs.  One round of each workload is run once, under the tracer, as a traced
benchmark round runs it.
"""
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    import workloads

    # the workloads pin the process to one processor in turn; a test leaves affinity alone
    monkeypatch.setattr(workloads, "use_cpu", lambda turn: None)
    return workloads, tracing


def _run_round(ops, tracing) -> None:
    tracer = tracing.Tracer()
    for op in ops:
        outcome = op.check(tracer.run_op(op.run))
        assert not outcome.failed, op.kind


def test_oracle_cold_round_passes(perfbench):
    workloads, tracing = perfbench
    # setup() only times child imports, so it is skipped
    _run_round(workloads.OracleCold(1, str(ROOT)).round(), tracing)


def test_decompose_warm_round_passes(perfbench):
    workloads, tracing = perfbench
    workload = workloads.DecomposeWarm(1)
    workload.setup()
    _run_round(workload.round(), tracing)


def test_cli_roundtrip_round_passes_in_process(perfbench, tmp_path):
    workloads, tracing = perfbench
    # setup() only times child imports, so it is skipped
    workload = workloads.CliRoundtrip(1, str(ROOT), str(tmp_path), in_process=True)
    _run_round(workload.round(), tracing)
