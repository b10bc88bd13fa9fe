"""Fault-cell smoke tests (the full sweep runs as ``python -m
repro.conformance``; these keep the ``contained`` contract honest in the
suite)."""

from dataclasses import replace

import pytest

from repro import conformance
from repro.apps.registry import make_app
from repro.conformance import (
    REFERENCE,
    Cell,
    Result,
    app_subject,
    check,
    compare,
    main,
    run,
    run_cell,
)
from repro.parallel import procpool
from repro.resilience.faults import FAULT_CLASSES
from repro.resilience.guard import STATS

#: The lane every fault class is injected on.
FAULT_LANE = Cell(backend="codegen", workers=2, guard=True, via="ladder")


@pytest.fixture(autouse=True)
def _reset_guard_stats():
    STATS.reset()
    yield
    STATS.reset()


@pytest.fixture(scope="module")
def gamma():
    subject = app_subject(make_app("gamma", seed=0))
    return subject, run_cell(subject, REFERENCE)


class TestRunChaos:
    @pytest.mark.parametrize("fault_class", sorted(FAULT_CLASSES))
    def test_every_class_is_contained_and_bit_exact(self, gamma, fault_class):
        subject, reference = gamma
        for seed in range(6):
            cell = replace(FAULT_LANE, fault=fault_class, seed=seed)
            outcome = run_cell(subject, cell)
            if outcome.fired:
                break
        else:
            pytest.fail(f"{fault_class} never fired on seeds 0-5")
        assert outcome.error == ""
        contracts = ["contained"] + ["exact"] * (fault_class != "cache_load")
        for contract in contracts:
            result = check(subject, cell, reference, contract, outcome)
            assert result.status == "ok", result.describe()

    def test_a_plan_that_never_fired_is_not_a_pass(self, gamma):
        subject, reference = gamma
        # seed 0 rolls a compile spec that skips its one visit
        result = check(
            subject, replace(FAULT_LANE, fault="compile"), reference, "contained"
        )
        assert result.fired == 0
        assert result.status == "not reached"

    def test_fault_free_run_serves_at_depth_zero(self, gamma):
        subject, reference = gamma
        # worker_crash at seed 0 is absorbed by the serial re-execution
        # inside the launch, so the first rung still serves; just assert
        # the bookkeeping here.
        outcome = run_cell(subject, replace(FAULT_LANE, fault="worker_crash"))
        assert compare(reference.arrays, outcome.arrays) is None
        assert outcome.served  # a ladder rung label, not ""

    def test_results_are_seed_deterministic(self, gamma):
        subject, _reference = gamma
        cell = replace(FAULT_LANE, fault="nan_output", seed=4)
        runs = [run_cell(subject, cell) for _ in range(2)]
        assert runs[0].fired == runs[1].fired
        assert runs[0].served == runs[1].served
        assert runs[0].depth == runs[1].depth

    def test_describe_flags_failures(self):
        cell = replace(FAULT_LANE, fault="compile")
        good = Result("contained", "a", cell)
        bad = Result("contained", "a", cell, "FAIL", "boom")
        assert good.ok and "[ok]" in good.describe()
        assert not bad.ok and "[FAIL]" in bad.describe() and "boom" in bad.describe()
        assert cell.label() in bad.describe()


class TestCheckApps:
    def test_smoke_sweep_over_two_apps(self):
        results = run(
            ["gamma", "blackscholes"], ("contained",), out=lambda line: None
        )
        assert {r.cell.fault for r in results} == set(FAULT_CLASSES)
        assert {r.subject for r in results} == {"Gamma Correction", "BlackScholes"}
        assert all(r.ok for r in results), [
            r.describe() for r in results if not r.ok
        ]

    def test_summarize_counts_passes_and_fires(self):
        lines = []
        results = run(["gamma"], ("contained",), out=lines.append)
        ok = sum(r.status == "ok" for r in results)
        vacuous = sum(r.status == "not reached" for r in results)
        assert ok and vacuous and ok + vacuous == len(results)
        assert all((r.fired > 0) == (r.status == "ok") for r in results)
        assert lines[-4] == (
            f"contained: {len(results)} cells run, {ok} ok, "
            f"{vacuous} not reached, 0 failed"
        )
        for line, executor in zip(lines[-3:-1], ("thread", "process")):
            assert line.startswith(f"fault cells fired / not reached on {executor}: ")
            fired = sum(
                r.cell.fault == "nan_output" and r.cell.executor == executor
                and r.fired > 0
                for r in results
            )
            assert f"nan_output {fired}/{3 - fired}" in line
        assert lines[-1].startswith(f"{len(results)} cells run in ")

    def test_a_dead_process_seam_fails_though_thread_cells_fire(self, monkeypatch):
        """The never-fired audit is kept per executor: with the process
        lane's draw switched off, worker faults that fire on the thread
        cells must not hide that none fires on the process cells."""
        faults = (None, "worker_crash", "worker_dead")
        monkeypatch.setitem(conformance.AXES, "fault", faults)
        monkeypatch.setattr(procpool, "_draw_faults", lambda kernel, shards: {})
        lines = []
        results = run(["gamma"], ("contained",), out=lines.append)
        failed = [r for r in results if not r.ok]
        assert {r.subject for r in failed} == {
            "Gamma Correction / worker_crash", "Gamma Correction / worker_dead",
        }
        assert {r.detail for r in failed} == {
            "never fired across seeds [0, 1, 2] on the process executor"
        }
        assert all(
            r.fired == 0 for r in results if r.cell and r.cell.executor == "process"
        )
        assert any(r.fired for r in results if r.cell and r.cell.executor == "thread")
        assert "on process: worker_crash 0/3, worker_dead 0/3" in lines[-2]


class TestMain:
    def test_cli_passes_on_one_app(self, capsys):
        code = main(["gamma", "--contract", "contained", "--seeds", "0", "1", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[ok ] contained gamma: 42 cells run" in out

    def test_cli_fails_when_a_reachable_fault_never_fires(self, capsys):
        # under seed 2 alone the nan_output spec skips its one visit
        code = main(["gamma", "--contract", "contained", "--seeds", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "Gamma Correction / nan_output: never fired across seeds [2]" in out
