"""Guarded launches: exception containment, retries, deadlines, ladders.

Two layers of protection compose here:

* **Task level** — :func:`guarded_map` is ``parallel_map`` with the
  paranoia a production pool needs: failed tasks are retried with
  full-jitter exponential backoff, the whole batch carries a wall-clock
  deadline, and a dead or hung pool is replaced.  The sharded launch
  path (:func:`repro.parallel.shard.run_sharded`) maps its shard body
  through it whenever a guard is enabled, against launch-private copies
  of the written arrays — so an abandoned or hung worker can never
  scribble on the caller's buffers — and turns any unrecoverable outcome
  into a bit-exact serial re-execution.
* **Launch level** — :func:`run_ladder` walks the fallback ladder
  *approx variant → exact codegen → exact interpreter*.  Each rung's
  exceptions are contained, its output is validated (NaN/Inf guardrail)
  and a failure drops to the next rung; only the final rung — the plain
  interpreter on the exact program, the system's bedrock — is allowed to
  propagate, because an exception there is a genuine bug, not a fault to
  absorb.

The ambient :class:`GuardPolicy` is the ``guard`` field of the
:func:`repro.options` scope (sessions wrap every launch in one); plain
``launch`` calls outside any guard scope keep their original,
zero-overhead paths.
"""

from __future__ import annotations

import functools
import random
import time
from concurrent.futures import FIRST_COMPLETED, wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .._options import UNSET, LaunchOptions, current_options
from .._options import options as options_scope
from .._state import on_reset
from ..errors import ResilienceError, ShardTimeout, WorkerDeath
from ..obs import trace as obs_trace
from ..obs.registry import CounterGroup
from .faults import SITE_OUTPUT, active_plan
from .validate import corrupt_output, validate_output


@dataclass(frozen=True)
class GuardPolicy:
    """How paranoid one guarded launch is.

    Attributes:
        enabled: False restores the unguarded fast path everywhere.
        retries: re-submissions per failed shard (transient faults).
        backoff_seconds: base of the exponential retry backoff.
        deadline_seconds: wall-clock bound on one sharded launch; on
            expiry the pool is abandoned and the launch re-runs serially.
        validate_outputs: run the NaN/Inf guardrail on non-final rungs.
        value_limit: optional |x| bound for the out-of-range guardrail.
    """

    enabled: bool = True
    retries: int = 2
    backoff_seconds: float = 0.002
    deadline_seconds: float = 30.0
    validate_outputs: bool = True
    value_limit: Optional[float] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ResilienceError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_seconds < 0:
            raise ResilienceError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if self.deadline_seconds <= 0:
            raise ResilienceError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )


def current_policy() -> Optional[GuardPolicy]:
    """The guard of the ambient :func:`repro.options` scope on this
    thread (None = unguarded)."""
    guard = current_options().guard
    return None if guard is UNSET else guard


#: Jitter source outside any fault plan; unseeded on purpose — real
#: deployments *want* decorrelated retries across processes.
_JITTER_RNG = random.Random()


def _backoff_delay(cap: float) -> float:
    """Full-jitter retry backoff: uniform in ``[0, cap]``.

    A deterministic exponential schedule makes every shard that failed in
    the same round retry at the same instant — a synchronized thundering
    herd against the pool.  Full jitter (AWS-style) spreads the retries
    over the whole window while keeping the exponential cap.  Under an
    active :class:`~repro.resilience.faults.FaultPlan` the draw comes from
    the plan's dedicated ``backoff_rng``, so chaos-harness runs replay the
    exact same sleep sequence for a given seed.
    """
    if cap <= 0.0:
        return 0.0
    plan = active_plan()
    rng = plan.backoff_rng if plan is not None else _JITTER_RNG
    return rng.uniform(0.0, cap)


# ------------------------------------------------------------------- stats


#: Registry field -> help text; each becomes ``repro_guard_<field>``.
_FIELDS = {
    "guarded_launches": "fallback-ladder walks",
    "guarded_sharded": "sharded launches run under the guard",
    "shard_retries": "failed shards re-submitted",
    "shard_timeouts": "sharded launches that overran their deadline",
    "serial_reexecutions": "launches recomputed serially after containment",
    "pool_replacements": "pools replaced after worker death or timeout",
    "validation_trips": "outputs rejected by the NaN/Inf guardrail",
    "containments": "rung failures absorbed by the ladder",
    "corruptions_injected": "fault-injected output corruptions",
}


#: Process-wide guard counters (``repro_guard_*`` registry series).
STATS = CounterGroup("guard", _FIELDS)


def stats_snapshot() -> Dict[str, int]:
    return STATS.snapshot()


# ----------------------------------------------------- guarded parallel map


def guarded_map(
    kind: str, workers: int, fn, items, policy: GuardPolicy
) -> List:
    """``parallel_map`` with containment: retries, deadline, pool revival.

    Results return in item order.  A shard that raises is re-submitted up
    to ``policy.retries`` times with exponential backoff;
    :class:`~repro.errors.WorkerDeath` additionally replaces the pool
    (the worker is gone, not merely unlucky).  When the wall-clock
    deadline expires the pool is abandoned — hung workers keep running
    against buffers private to the abandoned launch, harmlessly — and
    :class:`~repro.errors.ShardTimeout` is raised for the caller's serial
    fallback.  Exhausted retries re-raise the shard's own exception.
    """
    from ..parallel import pool as pool_mod

    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    ambient = obs_trace.current_span()
    fn = obs_trace.carry(fn)
    deadline = time.monotonic() + policy.deadline_seconds
    executor = pool_mod.get_pool(kind, workers)
    pool_mod.pool_stats(kind).record(len(items), workers)
    results: List[object] = [None] * len(items)
    attempts = [0] * len(items)
    pending: Dict[object, int] = {}

    def submit(idx: int) -> None:
        pending[executor.submit(fn, items[idx])] = idx

    for i in range(len(items)):
        submit(i)
    while pending:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        done, _not_done = wait(
            pending, timeout=remaining, return_when=FIRST_COMPLETED
        )
        if not done:
            break  # deadline will trip on the next loop check
        for future in done:
            idx = pending.pop(future)
            exc = future.exception()
            if exc is None:
                results[idx] = future.result()
                continue
            if isinstance(exc, WorkerDeath):
                STATS.inc("pool_replacements")
                executor = pool_mod.replace_pool(kind, workers)
            if attempts[idx] >= policy.retries:
                for other in pending:
                    other.cancel()
                raise exc
            attempts[idx] += 1
            STATS.inc("shard_retries")
            if ambient is not None:
                ambient.event(
                    "shard_retry",
                    shard=idx,
                    attempt=attempts[idx],
                    error=type(exc).__name__,
                )
            if policy.backoff_seconds:
                time.sleep(
                    _backoff_delay(
                        min(
                            policy.backoff_seconds * (2 ** (attempts[idx] - 1)),
                            max(deadline - time.monotonic(), 0.0),
                        )
                    )
                )
            submit(idx)
    if pending:
        # Deadline expired with shards still out.  Abandon the pool: hung
        # workers only hold buffers of this launch, and a fresh pool keeps
        # later launches from queueing behind them.
        for future in pending:
            future.cancel()
        STATS.inc("shard_timeouts")
        STATS.inc("pool_replacements")
        if ambient is not None:
            ambient.event("shard_timeout", outstanding=len(pending))
        pool_mod.replace_pool(kind, workers)
        raise ShardTimeout(
            f"sharded launch overran its {policy.deadline_seconds:.3f}s "
            f"deadline with {len(pending)} shard(s) outstanding"
        )
    return results


# ---------------------------------------------------------- fallback ladder


@dataclass
class LadderAttempt:
    """What one rung of a guarded launch did."""

    rung: str  # "variant", "exact_codegen", "exact_interp", ...
    ok: bool
    error: str = ""  # exception or validation message when not ok
    site: str = ""  # "exception" or "output.validate"


@dataclass
class LadderReport:
    """Outcome of one :func:`run_ladder` walk."""

    served: str  # rung label that produced the returned output
    depth: int  # 0 = primary attempt succeeded
    attempts: List[LadderAttempt] = field(default_factory=list)

    @property
    def primary_ok(self) -> bool:
        return self.depth == 0

    @property
    def faults(self) -> List[LadderAttempt]:
        return [a for a in self.attempts if not a.ok]


@dataclass(frozen=True)
class Rung:
    """One rung of a resolved ladder."""

    label: str
    backend: str
    runs_variant: bool
    #: the fields in which the rung differs from the scope the ladder was
    #: planned in, scoped while it runs; None when it differs in none.
    options: Optional[LaunchOptions] = None


@dataclass(frozen=True)
class LadderPlan:
    """The rungs one ladder walks, resolved once for a scope: a session
    holds one per (scope, exact or variant) and walks it every launch."""

    rungs: Tuple[Rung, ...]
    #: the enabled guard; None is the unguarded one-rung ladder.
    policy: Optional[GuardPolicy]


# Every argument is a frozen record or a scalar and a plan is immutable, so
# equal arguments share one plan: a direct run_ladder in an unchanged scope
# resolves nothing again.
@functools.lru_cache(maxsize=256)
def plan_ladder(
    exact: bool,
    scope: LaunchOptions,
    backend: Optional[str] = None,
    workers: Optional[object] = None,
    policy: Optional[GuardPolicy] = None,
) -> LadderPlan:
    """The ladder :func:`run_ladder` walks when called in ``scope``.

    The canonical ladder is *approx variant → exact codegen → exact
    interpreter*; serving the exact program collapses the first rung
    into an exact launch under the scope's own backend.  Rungs whose
    execution signature repeats an earlier rung are dropped (re-running
    an identical configuration cannot recover anything).  Unguarded is
    the one-rung ladder: the first rung is also the final one, so
    nothing is contained or validated.
    """
    if backend is None:
        backend = scope.backend or "auto"
    if workers is None:
        workers = scope.parallel or 1
    if policy is None:
        policy = None if scope.guard is UNSET else scope.guard
    guarded = policy is not None and policy.enabled
    candidates = (
        ("exact" if exact else "variant", backend, workers, not exact),
        ("exact_codegen", "codegen", workers, False),
        ("exact_interp", "interp", 1, False),
    )
    rungs, seen = [], set()
    for label, be, w, runs_variant in candidates if guarded else candidates[:1]:
        if (runs_variant, be, w) in seen:
            continue
        seen.add((runs_variant, be, w))
        wanted = {"backend": be, "parallel": w}
        if guarded:  # an unguarded rung leaves the guard field as it found it
            wanted["guard"] = policy
        differs = {k: v for k, v in wanted.items() if getattr(scope, k) != v}
        rungs.append(
            Rung(label, be, runs_variant, LaunchOptions(**differs) if differs else None)
        )
    return LadderPlan(tuple(rungs), policy if guarded else None)


on_reset(plan_ladder.cache_clear)


def run_ladder(
    app,
    inputs,
    variant,
    backend: Optional[str] = None,
    workers: Optional[object] = None,
    policy: Optional[GuardPolicy] = None,
):
    """Serve one invocation through the fallback ladder.

    Returns ``(output, LadderReport)``.  The caller always receives an
    exact-or-better answer: every contained rung failure steps down, and
    the final rung (exact program, interpreter, serial) is the reference
    semantics itself.  Only a final-rung exception propagates.

    The first rung is the :func:`repro.options` scope the ladder is
    called in: ``backend``, ``workers`` and ``policy`` left unset mean
    what that scope says (``"auto"``, serial and unguarded where it says
    nothing), and everything else — executor, shard threshold — is only
    ever read from it.  A rung scopes just the fields in which
    it differs, so a healthy first rung pushes no scope at all.
    """
    plan = plan_ladder(variant is None, current_options(), backend, workers, policy)
    return walk_ladder(app, inputs, variant, plan)


def walk_ladder(app, inputs, variant, plan: LadderPlan):
    """Walk a resolved ladder (:func:`run_ladder` without the planning);
    call it in the scope the plan was made for."""
    policy = plan.policy
    guarded = policy is not None
    if guarded:
        STATS.inc("guarded_launches")
    rungs = plan.rungs
    report = LadderReport(served="", depth=0)
    for depth, rung in enumerate(rungs):
        label = rung.label
        final = depth == len(rungs) - 1
        rung_scope = (
            options_scope(rung.options) if rung.options is not None else nullcontext()
        )
        rung_span = obs_trace.span(
            "ladder.rung", rung=label, depth=depth, backend=rung.backend,
            guarded=guarded,
        )
        try:
            with rung_span, rung_scope:
                if rung.runs_variant:
                    out, _trace = app.run_variant(variant, inputs)
                else:
                    out, _trace = app.run_exact(inputs)
        except Exception as exc:
            if final:
                raise
            STATS.inc("containments")
            report.attempts.append(
                LadderAttempt(
                    label,
                    False,
                    error=f"{type(exc).__name__}: {exc}",
                    site="exception",
                )
            )
            continue
        if not final:
            faults = active_plan()
            if faults is not None:
                spec = faults.poll(SITE_OUTPUT, label)
                if spec is not None and corrupt_output(out, spec.mode):
                    STATS.inc("corruptions_injected")
            if policy.validate_outputs:
                violation = validate_output(out, policy.value_limit)
                if violation is not None:
                    STATS.inc("validation_trips")
                    ambient = obs_trace.current_span()
                    if ambient is not None:
                        ambient.event(
                            "validation_trip", rung=label, error=violation
                        )
                    report.attempts.append(
                        LadderAttempt(
                            label, False, error=violation, site="output.validate"
                        )
                    )
                    continue
        report.attempts.append(LadderAttempt(label, True))
        report.served = label
        report.depth = depth
        return out, report
    raise ResilienceError("ladder exhausted without serving")  # pragma: no cover
