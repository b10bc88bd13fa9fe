"""The conformance runner itself: what it enumerates, and that it fails.

Coverage: every configuration the six retired drivers hard-coded is a
member of the enumerated cell set, so the move to one runner provably
did not shrink coverage.  Planted bugs: for each of the five contracts a
deliberately broken subject makes the runner exit non-zero and name the
cell.
"""

import itertools
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro import current_options
from repro.approx.compiler import Paraprox
from repro.apps.gamma import GammaCorrectionApp
from repro.apps.registry import APP_CLASSES, make_app
from repro.conformance import (
    AXES,
    CHAOS_POLICY,
    VARIANT_LANES,
    Cell,
    Subject,
    cells,
    check,
    excluded,
    main,
    run,
)
from repro.parallel.pool import ParallelPolicy, policy_from_options
from repro.registry import VariantRegistry
from repro.resilience import GuardPolicy
from repro.resilience.faults import FAULT_CLASSES, active_plan

SEEDS = (0, 1, 2)


class TestCoverage:
    def test_every_old_driver_configuration_is_an_enumerated_cell(self):
        enumerated = set(cells(SEEDS))
        old_drivers = {
            "python -m repro.codegen": Cell(backend="codegen"),
            "python -m repro.parallel": Cell(backend="codegen", workers=4),
            "python -m repro.serve.frontend --workers 2": Cell(
                backend="codegen", executor="process", workers=2, via="frontend"
            ),
        }
        for fault, seed in itertools.product(FAULT_CLASSES, SEEDS):
            old_drivers[f"python -m repro.resilience ({fault}@{seed})"] = Cell(
                backend="codegen", workers=2, guard=True, via="ladder",
                fault=fault, seed=seed,
            )
        missing = [name for name, cell in old_drivers.items() if cell not in enumerated]
        assert not missing

    def test_cells_map_to_the_old_drivers_options(self):
        sharded = Cell(backend="codegen", workers=4).options()
        assert policy_from_options(sharded) == ParallelPolicy(
            workers=4, min_shard_threads=1
        )
        assert sharded.guard is None  # explicitly unguarded
        frontend = Cell(backend="codegen", executor="process", workers=2).options()
        assert policy_from_options(frontend) == ParallelPolicy(
            workers=2, min_shard_threads=1, executor="process"
        )
        faulted = Cell(backend="codegen", workers=2, guard=True, fault="compile")
        assert faulted.options().guard == CHAOS_POLICY == GuardPolicy(
            retries=1, backoff_seconds=0.001, deadline_seconds=0.15
        )
        assert Cell(backend="codegen", guard=True).options().guard == GuardPolicy()

    def test_all_13_apps_x_47_variants_meet_the_codegen_lane(self):
        assert Cell(backend="codegen") in VARIANT_LANES
        assert len(VARIANT_LANES) == 4
        toq = Paraprox(target_quality=0.9)
        counts = {name: len(toq.compile(make_app(name))) for name in APP_CLASSES}
        assert len(counts) == 13 and sum(counts.values()) == 47

    def test_every_product_member_is_enumerated_or_excluded_with_a_reason(self):
        enumerated = set(cells(SEEDS))
        for values in itertools.product(*AXES.values()):
            cell = Cell(**dict(zip(AXES, values)))
            reason = excluded(cell)
            assert (cell in enumerated) == (reason is None)
        assert "never shards" in excluded(Cell(workers=2))
        assert "one shard split" in excluded(
            Cell(backend="codegen", workers=4, guard=True, via="ladder", fault="quality")
        )
        for executor in AXES["executor"]:
            assert excluded(
                Cell(
                    backend="codegen", executor=executor, workers=2, guard=True,
                    via="ladder", fault="worker_crash",
                )
            ) is None
        # 48 fault-free + 2 executors x 7 fault classes x 3 seeds
        assert len(enumerated) == 90


# ------------------------------------------------------------ planted bugs


def _stub(broken):
    """A subject whose codegen runs return ``broken(reference)``."""
    reference = (np.arange(8, dtype=np.float32), np.ones(3, np.int32))

    def run_exact(_inputs):
        fresh = tuple(a.copy() for a in reference)
        if current_options().backend == "codegen":
            fresh = broken(fresh)
        return fresh, None

    return Subject("stub", SimpleNamespace(run_exact=run_exact), {})


def _flip_one_byte(arrays):
    arrays[0].view(np.uint8)[5] ^= 1
    return arrays


@pytest.mark.parametrize(
    "broken,symptom",
    [
        (_flip_one_byte, "1 differing bytes, first at element 1"),
        (lambda arrays: arrays[:1], "output arity changed: 2 reference arrays vs 1"),
        (lambda arrays: (arrays[0].astype(np.float64), arrays[1]), "dtype/shape"),
    ],
)
def test_exact_catches_a_flipped_byte_a_dropped_array_and_a_changed_dtype(
    broken, symptom
):
    result = check(_stub(broken), Cell(backend="codegen"))
    assert result.status == "FAIL" and symptom in result.detail
    assert check(_stub(lambda arrays: arrays), Cell(backend="codegen")).status == "ok"


def _corrupt_under_codegen(out):
    if current_options().backend == "codegen":
        out.view(np.uint8).reshape(-1)[0] ^= 1
    return out


class _FlippedExact(GammaCorrectionApp):
    def run_exact(self, inputs):
        out, trace = super().run_exact(inputs)
        return _corrupt_under_codegen(out), trace


class _FlippedVariant(GammaCorrectionApp):
    def run_variant(self, variant, inputs):
        out, trace = super().run_variant(variant, inputs)
        return _corrupt_under_codegen(out), trace


class _LeakyLadder(GammaCorrectionApp):
    """Fails on every rung while a fault plan is active, so the ladder's
    last rung lets the exception out."""

    def run_exact(self, inputs):
        if active_plan() is not None:
            raise RuntimeError("planted: last rung failed too")
        return super().run_exact(inputs)


class _BelowFloor(GammaCorrectionApp):
    def evaluate(self, output, inputs):
        return 0.1


@pytest.mark.parametrize(
    "planted,contract,named",
    [
        (_FlippedExact, "exact", "exact Gamma Correction in codegen/serial/direct:"),
        (_FlippedVariant, "variant", " in codegen/processx2/direct: output[0]: 1 differing"),
        (
            _LeakyLadder,
            "contained",
            "in codegen/threadx2/ladder/guard/nan_output@0: uncontained RuntimeError",
        ),
        (_BelowFloor, "floor", "floor Gamma Correction seed=0: served gold below its floor"),
    ],
)
def test_runner_exits_nonzero_and_names_the_cell(
    planted, contract, named, monkeypatch, capsys
):
    monkeypatch.setitem(APP_CLASSES, "planted", planted)
    code = main(["planted", "--contract", contract, "--seeds", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert f"[FAIL] {contract} planted" in out
    assert named in out


def test_warm_start_fails_on_a_registry_that_forgets(monkeypatch, capsys):
    monkeypatch.setattr(VariantRegistry, "lookup", lambda self, key, refresh=True: [])
    code = main(["gamma", "--contract", "warm_start"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] warm_start Gamma Correction: seed_mode=cold" in out
    assert "[FAIL] warm_start aggregate" in out


def test_a_one_contract_run_reports_only_that_contract(capsys):
    """``--contract exact`` runs the fault cells too (their output must be
    exact) but the "never fired" audit belongs to ``contained``: with one
    seed some plans legitimately never fire, and that must not fail a run
    that did not ask for the contract."""
    code = main(["gamma", "--contract", "exact", "--seeds", "0"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "exact:" in out
    for other in ("contained", "variant", "floor", "warm_start"):
        assert other not in out


def test_the_runner_ends_with_what_the_sweep_cost(capsys):
    main(["gamma", "--contract", "warm_start"])
    last = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(r"2 cells run in \d+\.\d s", last), last


def test_the_cost_line_counts_the_cells_of_every_contract():
    lines = []
    results = run(["gamma"], ["floor", "warm_start"], seeds=(0,), out=lines.append)
    totals = {
        contract: int(re.match(rf"{contract}: (\d+) cells run", line).group(1))
        for contract in ("floor", "warm_start")
        for line in lines
        if line.startswith(f"{contract}: ")
    }
    assert totals["floor"] and totals["warm_start"]
    cost = re.fullmatch(r"(\d+) cells run in \d+\.\d s", lines[-1])
    assert cost and int(cost.group(1)) == len(results) == sum(totals.values())


def test_a_cell_has_no_fusion_axis():
    import dataclasses

    assert list(AXES) == ["fault", "backend", "executor", "workers", "guard", "via"]
    assert "fuse" not in {f.name for f in dataclasses.fields(Cell)}
    with pytest.raises(TypeError):
        Cell(fuse=True)
    labels = {cell.label() for cell in (*cells(SEEDS), *VARIANT_LANES)}
    assert not [label for label in labels if "fuse" in label]
