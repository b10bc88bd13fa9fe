"""One contract, one runner: ``python -m repro.conformance``.

Paraprox's argument rests on the exact kernel being *the* reference: an
approximate variant may change what is computed, but nothing underneath
it — lowering, sharding, the fallback ladder, the serving queue —
may change it further, and every served answer must clear its TOQ.  This
module states each of those promises once and checks it over every
configuration that can occur; the five contracts — ``exact``,
``variant``, ``contained``, ``floor``, ``warm_start`` — are tabulated
once, in the Conformance section of ``docs/API.md``, and each is stated
on the function below that checks it.

A configuration is data — a frozen :class:`Cell` mapping to
:class:`~repro.LaunchOptions` plus an optional
:class:`~repro.resilience.faults.FaultPlan` — and what runs under it is
a :class:`Subject`: an app's exact pipeline, one of its variants, or a
bare kernel.  Comparison is dtype, shape, arity and ``tobytes()``; there
are no tolerances.  A fault cell whose plan never fired is ``not
reached``, never ``ok``.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import itertools
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ._options import LaunchOptions, options
from .approx.compiler import Paraprox
from .apps.registry import APP_CLASSES, make_app
from .codegen.cache import clear_cache
from .codegen.runtime import scribble_workspace
from .device import DeviceKind, spec_for
from .engine.interpreter import launch
from .engine.launch import resolve_kernel
from .errors import BackpressureError
from .obs.registry import get_registry
from .parallel.shard import STATS as SHARD_STATS, scribble_staging
from .registry import VariantRegistry
from .resilience.faults import (
    FAULT_CLASSES,
    SITE_OVERLOAD,
    SITE_WORKER,
    FaultPlan,
    FaultSpec,
    random_plan,
    use_faults,
)
from .resilience.guard import GuardPolicy, run_ladder
from .runtime.tuner import GreedyTuner
from .serve import (
    ApproxSession,
    MonitorConfig,
    OverloadConfig,
    Recalibrator,
    ServeFrontend,
)
from .serve.cache import CacheEntry, VariantCache

CONTRACTS = ("exact", "variant", "contained", "floor", "warm_start")

#: Guard knobs of the fault cells: a tight deadline so injected hangs
#: reliably overrun it.  Fault-free guarded cells run under the default
#: ``GuardPolicy()`` every session serves with.
CHAOS_POLICY = GuardPolicy(deadline_seconds=0.15)

#: Injected hang length — comfortably past the chaos deadline.
HANG_SECONDS = 0.4

OK, NOT_REACHED, FAIL = "ok", "not reached", "FAIL"


# ------------------------------------------------------------------- cells


@dataclass(frozen=True)
class Cell:
    """One execution configuration; the default is the reference."""

    backend: str = "interp"
    executor: str = "thread"
    workers: int = 1
    guard: bool = False
    via: str = "direct"  # "direct" | "ladder" | "frontend"
    fault: Optional[str] = None  # a FAULT_CLASSES key
    seed: int = 0  # seeds the fault plan

    def options(self) -> LaunchOptions:
        # min_shard_threads=1 so even small grids actually shard — this is
        # about correctness, not about when sharding pays off.
        guard = None
        if self.guard:
            guard = CHAOS_POLICY if self.fault else GuardPolicy()
        return LaunchOptions(
            backend=self.backend,
            parallel=self.workers,
            executor=self.executor,
            min_shard_threads=1,
            guard=guard,
        )

    def plan(self) -> Optional[FaultPlan]:
        if self.fault is None:
            return None
        return random_plan(self.fault, self.seed, hang_seconds=HANG_SECONDS)

    def label(self) -> str:
        lane = "serial" if self.workers == 1 else f"{self.executor}x{self.workers}"
        parts = [self.backend, lane, self.via]
        if self.guard:
            parts.append("guard")
        if self.fault:
            parts.append(f"{self.fault}@{self.seed}")
        return "/".join(parts)


REFERENCE = Cell()

AXES = {
    "fault": (None, *sorted(FAULT_CLASSES)),  # first: fault-free cells run first
    "backend": ("interp", "codegen"),
    "executor": ("thread", "process"),
    "workers": (1, 2, 3, 4),
    "guard": (False, True),
    "via": ("direct", "ladder", "frontend"),
}


def excluded(cell: Cell) -> Optional[str]:
    """Why ``cell`` cannot occur (or only repeats another cell), or None."""
    if cell.backend == "interp" and (cell.workers > 1 or cell.executor != "thread"):
        return "the interpreter never shards: executor/workers collapse"
    if cell.workers == 1 and cell.executor != "thread":
        return "a serial launch has no executor"
    if cell.fault is None:
        return None
    if cell.via != "ladder" or not cell.guard or cell.backend != "codegen":
        return "faults are contained by the guarded ladder; nothing else promises it"
    if cell.workers != 2:
        return "one shard split is enough to visit the worker site"
    return None


def cells(seeds: Sequence[int] = (0, 1, 2)) -> List[Cell]:
    """The whole product of :data:`AXES` minus :func:`excluded`; a fault
    cell once per seed (the seed only seeds its plan)."""
    product = []
    for values in itertools.product(*AXES.values()):
        axes = dict(zip(AXES, values))
        product += [Cell(**axes, seed=seed) for seed in (seeds if axes["fault"] else (0,))]
    return [cell for cell in product if excluded(cell) is None]


_CODEGEN2 = Cell(backend="codegen", workers=2)

#: The lanes every generated variant is held to.
VARIANT_LANES = (
    Cell(backend="codegen"),
    _CODEGEN2,
    replace(_CODEGEN2, executor="process"),
    replace(_CODEGEN2, guard=True, via="ladder"),
)


# ---------------------------------------------------------------- subjects


@dataclass(frozen=True)
class Subject:
    """What is being checked: anything that yields output arrays under the
    ambient options.  ``app`` needs ``run_exact(inputs)`` and, with a
    ``variant``, ``run_variant(variant, inputs)``; both return
    ``(output, trace)``."""

    name: str
    app: object
    inputs: object
    variant: object = None

    def run(self, inputs):
        if self.variant is None:
            return self.app.run_exact(inputs)[0]
        return self.app.run_variant(self.variant, inputs)[0]

    # The session protocol ServeFrontend.submit_app serves.
    toq = 1.0

    def launch(self, inputs):
        return self.run(inputs)


def app_subject(app, variant=None) -> Subject:
    name = app.name if variant is None else f"{app.name}:{variant.name}"
    return Subject(name, app, app.generate_inputs(seed=app.seed), variant)


def kernel_subject(kernel, grid, args, module=None, bounds_check=True) -> Subject:
    """A bare kernel as a one-launch program; every array argument is an
    output, which covers scratch buffers the kernel writes."""
    def run_exact(fresh):
        trace = launch(kernel, grid, fresh, module=module, bounds_check=bounds_check)
        return tuple(a for a in fresh if isinstance(a, np.ndarray)), trace

    program = SimpleNamespace(run_exact=run_exact)
    return Subject(resolve_kernel(kernel).name, program, list(args))


# --------------------------------------------------------------- execution


def output_arrays(output) -> List[np.ndarray]:
    parts = output if isinstance(output, (tuple, list)) else [output]
    return [np.asarray(p) for p in parts if isinstance(p, np.ndarray)]


def compare(reference: List[np.ndarray], arrays: List[np.ndarray]) -> Optional[str]:
    """A readable mismatch description, or None when bit-identical."""
    if len(reference) != len(arrays):
        return f"output arity changed: {len(reference)} reference arrays vs {len(arrays)}"
    for i, (a, b) in enumerate(zip(reference, arrays)):
        if a.dtype != b.dtype or a.shape != b.shape:
            return f"output[{i}]: dtype/shape {a.dtype}{a.shape} vs {b.dtype}{b.shape}"
        if a.tobytes() != b.tobytes():
            diff = np.flatnonzero(
                a.reshape(-1).view(np.uint8) != b.reshape(-1).view(np.uint8)
            )
            first = int(diff[0]) // max(a.dtype.itemsize, 1)
            return (
                f"output[{i}]: {diff.size} differing bytes, first at element "
                f"{first} (reference={a.reshape(-1)[first]!r}, "
                f"got={b.reshape(-1)[first]!r})"
            )
    return None


@dataclass
class Outcome:
    """What one run of a subject in a cell produced."""

    arrays: Optional[List[np.ndarray]] = None
    error: str = ""  # an exception that escaped, or a broken promise
    fired: int = 0  # faults the plan actually injected
    served: str = ""  # ladder rung that served ("" off the ladder)
    depth: int = 0
    sharded: int = 0  # launches that actually sharded


def run_cell(subject: Subject, cell: Cell, session=None) -> Outcome:
    """Run ``subject`` in ``cell``; an exception is recorded, not raised —
    under a fault plan an escape *is* the failure being hunted.  A sweep
    passes one :func:`sampling_session` for all its ``quality`` cells."""
    outcome = Outcome()
    plan = cell.plan()
    if cell.fault == "compile":
        clear_cache()  # the compile site is only visited on a cold cache
    before = SHARD_STATS.sharded_launches
    try:
        if cell.fault == "cache_load":
            outcome.error = _faulted_cache_load(subject, plan)
        elif cell.fault == "quality":
            _faulted_quality_sample(subject, cell, plan, outcome, session)
        else:
            _run(subject, cell, plan, outcome)
    except Exception as exc:
        outcome.error = f"uncontained {type(exc).__name__}: {exc}"
    outcome.sharded = SHARD_STATS.sharded_launches - before
    outcome.fired = plan.total_fired() if plan is not None else 0
    return outcome


#: Launches of a fault-free codegen cell, serial or sharded on either
#: executor: one that does not plan, one that builds the kernels' address
#: plans (a shard's on its cached view, in the worker that runs it), one that
#: reads them.  Under the second-launch rule a single launch would never
#: execute a plan hit.  A launch on the calling thread (serial, not through a
#: front-end) starts over a scribbled workspace: a compiled kernel that read
#: a slot before writing it would answer differently from the interpreter.
#: Dispatcher threads, shard threads and worker processes have arenas of
#: their own, which nothing here scribbles: there a kernel runs over whatever
#: its own earlier launches left.  Every launch also starts over scribbled
#: idle staging (the process's one free list, whichever thread launches): a
#: guarded thread-sharded launch that read staged bytes it had not refilled
#: would answer with NaNs, not with its last launch's correct values.
PLANNED_LAUNCHES = 3


def _run(subject: Subject, cell: Cell, plan, outcome: Outcome) -> None:
    repeats = 1
    if cell.backend == "codegen" and cell.fault is None:
        repeats = PLANNED_LAUNCHES
    elif cell.backend == "codegen" and cell.fault != "compile":
        # The faulted launch runs on the launch plans a fault-free launch
        # built, whatever cells ran before this one (``compile`` clears
        # the cache on purpose: its seam is a cold compile).
        with options(cell.options()):
            run_ladder(subject.app, copy.deepcopy(subject.inputs), subject.variant)
    earlier: List[List[np.ndarray]] = []
    for _ in range(repeats):
        inputs = copy.deepcopy(subject.inputs)  # fresh outputs every launch
        scribble_workspace()  # this thread's arena only
        scribble_staging()
        if cell.via == "frontend":
            with ServeFrontend(options=cell.options()) as frontend:
                output = frontend.submit_app(subject, inputs).result(timeout=120)
        else:
            faults = use_faults(plan) if plan is not None else contextlib.nullcontext()
            with options(cell.options()), faults:
                if cell.via == "ladder":
                    output, report = run_ladder(subject.app, inputs, subject.variant)
                    outcome.served, outcome.depth = report.served, report.depth
                else:
                    output = subject.run(inputs)
        earlier.append(output_arrays(output))
    # The caller holds the last launch (the hit) to the interpreter; the
    # launches before it must be that same output, so each one is held.
    outcome.arrays = earlier.pop()
    for number, arrays in enumerate(earlier, 1):
        mismatch = compare(outcome.arrays, arrays)
        if mismatch is not None:
            outcome.error = f"launch {number} of {repeats} differs from the last: {mismatch}"
            return


def _faulted_cache_load(subject: Subject, plan: FaultPlan) -> str:
    """Injected disk-load failures must read as cache *misses*, and the
    same entry must load cleanly once the fault clears."""
    key = f"conformance-{subject.name.replace(' ', '-')}"
    with tempfile.TemporaryDirectory(prefix="repro-conformance-") as tmpdir:
        VariantCache(tmpdir).put(CacheEntry(key=key, variants={"stub": subject.name}))
        reader = VariantCache(tmpdir)  # cold memory level: must hit disk
        with use_faults(plan):
            faulted = reader.get(key)
        recovered = reader.get(key)
    if plan.total_fired() and faulted is not None:
        return "injected load failure did not read as a miss"
    if recovered is None or recovered.variants != {"stub": subject.name}:
        return "entry did not load once the fault cleared"
    return ""


def sampling_session(app):
    """A tuned session that pays a quality check on every launch."""
    session = ApproxSession(
        app, guard=CHAOS_POLICY, monitor=MonitorConfig(sample_every=1)
    )
    session.tune()
    return session


def _faulted_quality_sample(subject, cell: Cell, plan, outcome: Outcome, session) -> None:
    """A crash inside quality evaluation must be contained by the session
    (sample skipped, fault recorded) and must not corrupt the output."""
    with contextlib.ExitStack() as stack:
        if session is None:
            session = stack.enter_context(sampling_session(subject.app))
        with options(cell.options()), use_faults(plan):
            output = session.launch(copy.deepcopy(subject.inputs), variant="exact")
        record = session.metrics.records[-1]
    outcome.arrays = output_arrays(output)
    outcome.served, outcome.depth = record.served, record.fallback_depth
    if not record.sampled:
        outcome.error = "the launch was not sampled"
    elif plan.total_fired() and record.quality is not None:
        outcome.error = "faulted quality evaluation was not skipped"
    elif plan.total_fired() and not record.faults:
        outcome.error = "contained quality fault was not recorded"


# ----------------------------------------------------------------- results


@dataclass
class Result:
    """The verdict of one contract on one subject in one cell."""

    contract: str
    subject: str
    cell: Optional[Cell] = None
    status: str = OK
    detail: str = ""
    fired: int = 0

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def describe(self) -> str:
        where = f" in {self.cell.label()}" if self.cell is not None else ""
        note = f": {self.detail}" if self.detail else ""
        return f"[{self.status}] {self.contract} {self.subject}{where}{note}"


def check(
    subject: Subject,
    cell: Cell,
    reference: Optional[Outcome] = None,
    contract: str = "exact",
    outcome: Optional[Outcome] = None,
) -> Result:
    """Hold ``subject`` to ``contract`` in ``cell``.  The byte contracts
    compare against ``reference`` (default: the subject run in
    :data:`REFERENCE` under the ambient options)."""
    if outcome is None:
        outcome = run_cell(subject, cell)
    if reference is None:
        reference = run_cell(subject, REFERENCE)
    result = Result(contract, subject.name, cell, fired=outcome.fired)
    if outcome.error or reference.error:
        result.status = FAIL
        result.detail = outcome.error or f"reference: {reference.error}"
    elif contract != "contained" and outcome.arrays is not None:
        mismatch = compare(reference.arrays, outcome.arrays)
        if mismatch is not None:
            result.status, result.detail = FAIL, mismatch
        elif cell.fault is None and outcome.depth:
            # Fault-free, the ladder's first rung is the configuration
            # under test; a step down means containment hid a failure.
            result.status = FAIL
            result.detail = f"ladder fell to {outcome.served} with no fault injected"
    if result.status == OK and cell.fault is not None:
        if not outcome.fired:
            result.status = NOT_REACHED
        result.detail = (
            f"served={outcome.served or '-'} depth={outcome.depth} fired={outcome.fired}"
        )
    return result


# ------------------------------------------------------------------ sweeps


def sweep_pipeline(app, seeds: Sequence[int], contracts: Iterable[str]) -> Iterator[Result]:
    """``exact`` over every cell and ``contained`` over the fault cells of
    one app's exact pipeline — one run per cell serves both."""
    subject = app_subject(app)
    reference = run_cell(subject, REFERENCE)
    faulted: Dict[tuple, List[Outcome]] = {}  # (fault class, executor)
    with contextlib.ExitStack() as stack:
        session = None
        for cell in cells(seeds):
            # A cache load yields no output for ``exact`` to compare.
            applies = {"exact": cell.fault != "cache_load", "contained": cell.fault}
            wanted = [c for c in applies if c in contracts and applies[c]]
            if not wanted:
                continue
            if cell.fault == "quality" and session is None:
                session = stack.enter_context(sampling_session(app))
            outcome = run_cell(subject, cell, session)
            if cell.fault is not None:
                faulted.setdefault((cell.fault, cell.executor), []).append(outcome)
            for contract in wanted:
                yield check(subject, cell, reference, contract, outcome)
    if "contained" not in contracts:
        return  # the audit below belongs to that contract alone
    for (fault, executor), runs in faulted.items():
        # Per executor, so one lane's fires cannot hide the other's dead
        # seam.  Reachability is observed: the worker site is only visited
        # by a launch that shards, and some apps legitimately have none.
        visited = FAULT_CLASSES[fault][0] != SITE_WORKER or any(
            outcome.sharded for outcome in runs
        )
        if visited and not any(outcome.fired for outcome in runs):
            yield Result(
                "contained", f"{subject.name} / {fault}", None, FAIL,
                f"never fired across seeds {list(seeds)} on the {executor} executor",
            )


def sweep_variants(app) -> Iterator[Result]:
    """``variant``: every generated variant × :data:`VARIANT_LANES`."""
    for variant in Paraprox(target_quality=0.9).compile(app):
        subject = app_subject(app, variant)
        reference = run_cell(subject, REFERENCE)
        for lane in VARIANT_LANES:
            yield check(subject, lane, reference, "variant")


FLOORS = {"gold": 0.88, "silver": 0.5, "bronze": 0.0}


def check_floor(app, seed: int = 0) -> Result:
    """``floor``: ramp synthetic overload through a three-tenant brownout
    front-end serving ``app`` and hold it to degrade-before-drop."""
    problems: List[str] = []
    config = OverloadConfig(
        levels=3,
        high_water=0.75,
        low_water=0.25,
        cooldown_s=0.05,
        # A target well above a fault-free request's queue wait keeps
        # pressure under the low-water mark so recovery can actually
        # complete.
        queue_delay_target_s=0.2,
        deadline_s=10.0,  # generous: the contract is *zero* misses
        window=8,
    )
    served: List[tuple] = []
    sheds: List[str] = []

    with ApproxSession(app, target_quality=0.9) as session, ServeFrontend(
        overload=config
    ) as frontend:
        controller = frontend.overload
        frontend.register_tenant(
            "gold", toq_floor=FLOORS["gold"], priority=2, degradable=False
        )
        frontend.register_tenant("silver", toq_floor=FLOORS["silver"], priority=1)
        frontend.register_tenant("bronze", toq_floor=FLOORS["bronze"], priority=0)
        session.tune()
        inputs = app.generate_inputs(seed=app.seed)

        def round_once(tenants=tuple(FLOORS)) -> None:
            pending = []
            for tenant in tenants:
                try:
                    future = frontend.submit_app(
                        session, copy.deepcopy(inputs), tenant=tenant
                    )
                    pending.append((tenant, future))
                except BackpressureError:
                    sheds.append(tenant)
            for tenant, future in pending:
                out = future.result(timeout=120)
                served.append((tenant, app.evaluate(out, inputs)))

        # Ramp synthetic queue delay up through the seam: each pressure
        # observation consumes one spec firing, ascending toward 4x the
        # delay target, then the budget runs out and load subsides.
        target = config.queue_delay_target_s
        ramp = [
            FaultSpec(
                SITE_OVERLOAD, mode="hang", hang_seconds=target * scale,
                max_fires=fires,
            )
            for scale, fires in ((0.9, 2), (1.5, 2), (2.4, 2), (4.0, 12))
        ]
        with use_faults(FaultPlan(ramp, seed=seed)):
            rounds = 0
            while not controller.is_shedding and rounds < 40:
                round_once()
                rounds += 1
            shed_rounds = 0
            while controller.is_shedding and shed_rounds < 4:
                round_once()
                shed_rounds += 1
        recovery_rounds = 0
        while controller.level > 0 and recovery_rounds < 400:
            round_once(("gold",))
            time.sleep(0.01)
            recovery_rounds += 1

        for tenant, quality in served:
            if quality + 1e-9 < FLOORS[tenant]:
                problems.append(
                    f"served {tenant} below its floor: {quality:.4f} < {FLOORS[tenant]}"
                )
        for tenant in sheds:
            if tenant != "bronze":
                problems.append(f"shed non-lowest-priority tenant {tenant!r}")
        if not sheds:
            problems.append("SHED never rejected a bronze request")
        transitions = controller.transitions
        if not any(t.to_level >= controller.shed_level for t in transitions):
            problems.append("controller never reached SHED during the ramp")
        for t in transitions:
            if abs(t.to_level - t.from_level) != 1:
                problems.append(f"non-monotone transition {t.from_level} -> {t.to_level}")
        if controller.level != 0:
            problems.append(f"no recovery to NORMAL (stuck at {controller.state_name()})")
        gauge = get_registry().get("repro_brownout_level")
        if gauge.labels(frontend=controller.label).value != 0:
            problems.append("repro_brownout_level gauge did not return to 0")
        misses = frontend.deadline_misses()
        if misses:
            problems.append(f"deadline-miss cascade: {misses} miss(es)")
    return Result(
        "floor", f"{app.name} seed={seed}",
        status=FAIL if problems else OK, detail="; ".join(problems),
    )


def sweep_warm_start(apps) -> Iterator[Result]:
    """``warm_start``: tune cold into a fresh registry, then warm from it.

    A warm profile it did not re-measure must be the variant's stored
    point, unchanged.  A front-only ``gc`` then drops the dominated
    points, and a warm tune from what is left may only put variants on
    the recalibration ladder that the cold tune measured at the TOQ.
    """
    spec = spec_for(DeviceKind.GPU)
    toq = 0.90
    cold_total = warm_total = 0
    with tempfile.TemporaryDirectory(prefix="repro-conformance-") as root:
        for i, app in enumerate(apps):
            registry = VariantRegistry(f"{root}/{i}")
            variants = Paraprox(target_quality=toq).compile(app)
            inputs = app.generate_inputs(seed=app.seed)

            cold = GreedyTuner(spec, toq=toq, registry=registry)
            cold_result = cold.profile(app, variants, inputs)
            warm = GreedyTuner(spec, toq=toq, registry=registry)
            warm_result = warm.profile(app, variants, inputs)

            cold_total += cold.last_measured
            warm_total += warm.last_measured
            budget = max(1, cold.last_measured // 2)
            problems = []
            if warm.last_seed_mode != "warm":
                problems.append(f"seed_mode={warm.last_seed_mode}")
            if warm.last_measured > budget:
                problems.append(f"measured {warm.last_measured} > budget {budget}")
            if warm_result.chosen.quality < toq:
                problems.append(
                    f"warm choice quality {warm_result.chosen.quality:.4f} < {toq}"
                )
            if warm_result.chosen.name != cold_result.chosen.name:
                problems.append(
                    f"warm chose {warm_result.chosen.name}, "
                    f"cold chose {cold_result.chosen.name}"
                )
            stored = {
                p.variant: (p.quality, p.speedup)
                for p in registry.points(warm.last_registry_key)
            }
            for p in warm_result.profiles:
                if p.predicted and (p.quality, p.speedup) != stored.get(p.name):
                    problems.append(f"{p.name} predicted, not its stored point")

            registry.compact()
            pruned = GreedyTuner(spec, toq=toq, registry=registry)
            ladder = Recalibrator(pruned.profile(app, variants, inputs), toq).ladder
            cold_quality = {p.name: p.quality for p in cold_result.profiles}
            for p in ladder:
                if cold_quality[p.name] < toq:
                    problems.append(
                        f"after gc, rung {p.name} measured "
                        f"{cold_quality[p.name]:.4f} < {toq}"
                    )
            yield Result(
                "warm_start", app.name, status=FAIL if problems else OK,
                detail="; ".join(problems)
                or f"cold={cold.last_measured} warm={warm.last_measured} "
                f"chosen={warm_result.chosen.name}",
            )
    savings = 1.0 - warm_total / max(1, cold_total)
    yield Result(
        "warm_start", "aggregate", status=OK if savings >= 0.50 else FAIL,
        detail=f"measurements {cold_total} cold -> {warm_total} warm ({savings:.0%} saved)",
    )


# ------------------------------------------------------------------ runner


def run(
    names: Optional[Sequence[str]] = None,
    contracts: Sequence[str] = CONTRACTS,
    seeds: Sequence[int] = (0, 1, 2),
    out=print,
) -> List[Result]:
    """Run ``contracts`` over the named apps (default: all); prints one
    line per (contract, app), each failing cell, the totals and what the
    sweep cost."""
    started = time.perf_counter()
    names = list(names) if names else sorted(APP_CLASSES)
    results: List[Result] = []

    def collect(label: str, batch: Iterable[Result]) -> None:
        batch = list(batch)
        results.extend(batch)
        for contract in dict.fromkeys(r.contract for r in batch):
            rows = [r for r in batch if r.contract == contract]
            bad = [r for r in rows if not r.ok]
            out(f"[{FAIL if bad else 'ok '}] {contract} {label}: " + _counts(rows))
            for result in bad:
                out("  " + result.describe())

    for name in names:
        if {"exact", "contained"} & set(contracts):
            collect(name, sweep_pipeline(make_app(name, seed=0), seeds, contracts))
        if "variant" in contracts:
            collect(name, sweep_variants(make_app(name, seed=0)))
        if "floor" in contracts:
            collect(name, (check_floor(make_app(name, seed=s), s) for s in seeds))
    if "warm_start" in contracts:
        collect("all apps", sweep_warm_start([make_app(name) for name in names]))

    for contract in dict.fromkeys(r.contract for r in results):
        out(f"{contract}: " + _counts([r for r in results if r.contract == contract]))
    for executor in AXES["executor"]:
        fired = Counter(
            (r.cell.fault, r.fired > 0)
            for r in results
            if r.contract == "contained" and r.cell is not None
            and r.cell.executor == executor
        )
        if fired:
            out(
                f"fault cells fired / not reached on {executor}: "
                + ", ".join(
                    f"{fault} {fired[fault, True]}/{fired[fault, False]}"
                    for fault in sorted({fault for fault, _ in fired})
                )
            )
    out(f"{len(results)} cells run in {time.perf_counter() - started:.1f} s")
    return results


def _counts(rows: List[Result]) -> str:
    tally = {status: sum(r.status == status for r in rows) for status in (OK, NOT_REACHED, FAIL)}
    return (
        f"{len(rows)} cells run, {tally[OK]} ok, "
        f"{tally[NOT_REACHED]} not reached, {tally[FAIL]} failed"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance",
        description="Hold every application to the five conformance "
        "contracts over the whole enumerated cell product.",
    )
    parser.add_argument("apps", nargs="*", help="app names (default: all)")
    parser.add_argument(
        "--contract", nargs="+", choices=CONTRACTS, default=list(CONTRACTS),
        help="contracts to check (default: all)",
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=[0, 1, 2],
        help="fault-plan and overload-ramp seeds (default: 0 1 2)",
    )
    ns = parser.parse_args(argv)
    results = run(ns.apps, ns.contract, ns.seeds)
    return 0 if all(r.ok for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
