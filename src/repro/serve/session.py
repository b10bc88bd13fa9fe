"""Long-lived approximation sessions: compile once, serve monitored launches.

``ApproxSession`` is the persistent-runtime counterpart of the one-shot
``Paraprox.optimize`` pipeline (paper Fig 2).  The lifecycle is

1. **compile** — generate the variant set, served from the two-level
   cache when the kernel IR, config, device and TOQ are unchanged;
2. **serve** — tune (resuming a persisted tuning result when the cache
   holds one) and start launching;
3. **monitor** — sample output quality on a cadence through a windowed
   estimator;
4. **recalibrate** — greedily step the variant ladder down on TOQ
   violations or drift and back up on sustained headroom (paper §3.5).

Every launch is recorded; :meth:`ApproxSession.metrics_snapshot` returns
the structured counters and the transition history.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from typing import Optional

from .._options import (
    UNSET,
    LaunchOptions,
    current_options,
    options as options_scope,
)
from .._state import Store
from ..approx.base import VariantSet
from ..approx.compiler import Paraprox, ParaproxConfig
from ..device import DeviceKind, spec_for
from ..engine.hooks import tally_launches
from ..errors import ConfigError, ServeError
from ..obs import trace as obs_trace
from ..obs.timeline import timeline as obs_timeline
from ..parallel import ProfileCache, resolve_workers
from ..resilience.breaker import BreakerConfig, VariantBreaker
from ..resilience.faults import SITE_QUALITY, maybe_inject
from ..resilience.guard import GuardPolicy, LadderPlan, plan_ladder, walk_ladder
from ..runtime.tuner import GreedyTuner, TuningResult
from .cache import CacheEntry, VariantCache, cache_key
from .metrics import LaunchRecord, SessionMetrics, Transition
from .monitor import DRIFT, HEADROOM, VIOLATION, MonitorConfig, QualityMonitor
from .recalibrate import Recalibrator

#: What a session serves with where its ``options=`` says nothing.
_DEFAULT_OPTIONS = LaunchOptions(backend="auto", parallel=1, executor="thread")

@dataclass(frozen=True)
class _ServingPlan:
    """What a launch under one enclosing scope resolves to, resolved once
    per (scope record, exact or variant): the record the launch enters
    and the ladder it walks in it."""

    effective: LaunchOptions
    ladder: LadderPlan


class ApproxSession:
    """One application served continuously on one device under one TOQ.

    Args:
        app: the application (any :class:`~repro.apps.base.Application`).
        target_quality: the TOQ in (0, 1].
        device: modelled device to serve on.
        config: knob ranges for variant generation.
        cache_dir: directory for the on-disk variant cache; None keeps the
            cache purely in-process.
        monitor: quality-monitor knobs (sampling cadence, window, drift).
        tuner_repeats: training input sets the tuner averages over.
        options: session-default :class:`~repro.LaunchOptions` — the
            third and last layer of the precedence chain.  At launch
            time an active :func:`repro.options` scope overrides these;
            a field left unset here is ``backend="auto"``, serial,
            ``executor="thread"``.  They govern every
            launch the session makes, the sampled quality check
            included; only tuning always interprets — its cost model
            needs instruction traces.  That is what a cold start pays
            for: profiling is ≈ 78 % of an empty-cache bring-up, which
            ``bench``'s ``cold_start`` reads at ≈ 58 ms for the typical
            app and ≈ 0.6 s for the slowest (docs/SERVING.md).
        guard: guarded-launch policy (deadline, output
            validation); defaults to ``options.guard`` when that is set,
            else ``GuardPolicy()``.  Pass ``GuardPolicy(enabled=False)``
            (or ``options=LaunchOptions(guard=None)``) for the raw
            unguarded path; saying two different guards is a
            :class:`~repro.errors.ConfigError`.
        breaker: circuit-breaker knobs for variant quarantine; defaults
            to ``BreakerConfig()``.
        registry: cross-session variant registry — a
            :class:`~repro.registry.VariantRegistry`, a directory path,
            ``"auto"`` (open ``REPRO_REGISTRY_DIR`` when set), or None
            (disabled).  With a registry, cold-start tuning seeds from
            the stored Pareto front's TOQ-feasible knee and every
            measurement is written back; :meth:`warm_restart` re-tunes
            the same way after drift.
    """

    def __init__(
        self,
        app,
        target_quality: float = 0.90,
        device: DeviceKind = DeviceKind.GPU,
        config: Optional[ParaproxConfig] = None,
        cache_dir: Optional[object] = None,
        monitor: Optional[MonitorConfig] = None,
        tuner_repeats: int = 1,
        guard: Optional[GuardPolicy] = None,
        breaker: Optional[BreakerConfig] = None,
        options: Optional[LaunchOptions] = None,
        registry: Optional[object] = None,
    ) -> None:
        from ..registry import resolve_registry

        self.app = app
        self.paraprox = Paraprox(
            target_quality=target_quality, device=device, config=config
        )
        merged = (
            options.merged_over(_DEFAULT_OPTIONS)
            if options is not None
            else _DEFAULT_OPTIONS
        )
        # ``options.guard`` is the other spelling of ``guard=``; ``None``
        # there is the explicitly unguarded session.
        said = GuardPolicy(enabled=False) if merged.guard is None else merged.guard
        if guard is None:
            guard = GuardPolicy() if said is UNSET else said
        elif said is not UNSET and said != guard:
            raise ConfigError(
                f"ApproxSession: guard={guard!r} and "
                f"options=LaunchOptions(guard={merged.guard!r}) disagree; "
                "say the guard in one of them"
            )
        self.guard = guard
        # The guard folded in, so one record says how a launch runs.
        self.options = replace(merged, guard=guard)
        self.backend = self.options.backend
        self.parallel_workers = resolve_workers(self.options.parallel)
        self.breaker = VariantBreaker(breaker)
        self.profile_cache = ProfileCache()
        self.device = device
        self.spec = spec_for(device)
        self.cache = VariantCache(cache_dir)
        self.monitor = QualityMonitor(self.toq, monitor)
        self.metrics = SessionMetrics()
        self.metrics.bind_session_sources(
            breaker=self.breaker,
            guard_policy=self.guard,
            profile_cache=self.profile_cache,
            workers=self.parallel_workers,
        )
        self.registry = resolve_registry(registry)
        self._registry_key: Optional[str] = None
        self._tuner_seed_mode = "off"
        self.tuner_repeats = tuner_repeats
        self._launch_ids = itertools.count()
        self._entry: Optional[CacheEntry] = None
        self._variants: Optional[VariantSet] = None
        self._tuning: Optional[TuningResult] = None
        self._recalibrator: Optional[Recalibrator] = None
        self._key: Optional[str] = None
        self._plans = Store(cap=64)
        self._closed = False

    # -- identity --------------------------------------------------------------

    @property
    def toq(self) -> float:
        return self.paraprox.toq

    @property
    def key(self) -> str:
        """The stable cache key of this session's compiled artifact.

        Computed once: a session serves one program on one device under
        one TOQ, so the fingerprint cannot change over its lifetime.
        """
        if self._key is None:
            self._key = cache_key(
                self.app, self.paraprox.config, self.spec, self.toq
            )
        return self._key

    # -- lifecycle: compile ----------------------------------------------------

    def compile(self, force: bool = False) -> VariantSet:
        """The variant set for this session, from cache when possible.

        Repeat calls on an unchanged kernel are an in-process hash lookup;
        a fresh process with the same ``cache_dir`` starts from the disk
        level.  ``force=True`` recompiles and overwrites both levels.
        """
        self._check_open()
        key = self.key
        started = time.perf_counter()
        with obs_trace.span(
            "serve.compile", app=self.app.name, session=self.metrics.label
        ) as compile_span:
            tier = "miss" if force else self.cache.tier(key)
            entry = None if force else self.cache.get(key)
            if entry is None:
                tier = "miss"
                variants = self.paraprox.compile(self.app, self.device)
                entry = CacheEntry(
                    key=key,
                    variants=variants,
                    meta={
                        "app": self.app.name,
                        "device": self.spec.kind.value,
                        "toq": self.toq,
                    },
                )
                self.cache.put(entry)
            elif (
                isinstance(entry.variants, VariantSet)
                and entry.variants.exact is None
            ):
                # The disk level drops the exact KernelFn; reattach the app's.
                entry.variants.exact = getattr(self.app, "kernel", None)
            compile_span.set(cache=tier)
        self.metrics.record_compile(tier, time.perf_counter() - started)
        self._entry = entry
        self._variants = entry.variants
        return self._variants

    # -- lifecycle: tune / serve ----------------------------------------------

    def tune(self, force: bool = False) -> TuningResult:
        """Profile the variants (or resume the persisted tuning result) and
        arm the monitor and recalibrator."""
        self._check_open()
        if self._tuning is not None and not force:
            return self._tuning
        variants = self._variants if self._variants is not None else self.compile()
        tuner = GreedyTuner(
            self.spec,
            toq=self.toq,
            workers=self.parallel_workers,
            profile_cache=self.profile_cache,
            registry=self.registry,
        )
        started = time.perf_counter()
        saved = self._entry.tuning if self._entry is not None else None
        quarantined = self.breaker.quarantined()
        with obs_trace.span(
            "serve.tune", app=self.app.name, session=self.metrics.label
        ) as tune_span:
            if saved is not None and not force:
                result = tuner.resume(
                    self.app, variants, saved, exclude=quarantined
                )
            else:
                result = tuner.profile(
                    self.app,
                    variants,
                    self.app.generate_inputs(seed=self.app.seed),
                    repeats=self.tuner_repeats,
                    exclude=quarantined,
                )
            cache_state = "resume" if getattr(result, "resumed", False) else "miss"
            tune_span.set(
                cache=cache_state,
                chosen=result.chosen.name,
                seed_mode=tuner.last_seed_mode,
                measured=tuner.last_measured,
            )
        self._tuner_seed_mode = tuner.last_seed_mode
        if tuner.last_registry_key is not None:
            self._registry_key = tuner.last_registry_key
        self.metrics.record_tune(cache_state, time.perf_counter() - started)
        self._tuning = result
        if self._entry is not None:
            self._entry.tuning = result.to_dict()
            self.cache.put(self._entry)
        self._recalibrator = Recalibrator(result, self.toq)
        self.monitor.reset()
        self.monitor.set_baseline(result.chosen.quality)
        return result

    def warm_restart(self) -> TuningResult:
        """Re-tune from registry knowledge instead of a full cold sweep.

        The drift-recovery counterpart of :meth:`tune`: the persisted
        tuning result and the in-memory ladder are discarded (they
        describe the drifted-away world), and tuning runs again seeded
        from the registry front — a lookup plus short local refinement
        when the registry knows this key, a cold sweep otherwise.
        """
        self._check_open()
        with obs_trace.span(
            "serve.warm_restart", app=self.app.name, session=self.metrics.label
        ):
            self._tuning = None
            if self._entry is not None:
                self._entry.tuning = None
            return self.tune(force=True)

    def attach_registry(self, registry) -> None:
        """Late-bind a registry (e.g. by a frontend adopting the session).

        Only takes effect before first tune unless :meth:`warm_restart`
        is called; a session that already has a registry keeps it.
        """
        from ..registry import resolve_registry

        if self.registry is None:
            self.registry = resolve_registry(registry)

    # -- lifecycle: monitored launches ----------------------------------------

    def launch(self, inputs, variant: Optional[str] = None) -> object:
        """Serve one invocation through the monitored execution loop.

        Runs the current variant through the guarded fallback ladder
        (*variant → exact codegen → exact interpreter*): any contained
        failure — a crash, a hang past the guard deadline, a NaN/Inf
        output — steps down a rung instead of propagating, so the caller
        always gets an answer.  Faults charge the variant's circuit
        breaker; a breaker that opens quarantines the variant (the
        recalibrator steps off it and the tuner won't re-choose it) until
        its probation window passes.  Quality is sampled on the monitor's
        cadence and recalibrates exactly as before.

        ``variant`` requests one launch at a specific ladder rung — a
        variant name from the tuned ladder, or ``"exact"`` — *without*
        disturbing the tuner's chosen configuration: the brownout
        controller serves degraded launches this way.  An overridden
        launch skips the monitor (its quality is intentionally below the
        session's own target; feeding it to the drift detector would
        trigger spurious recalibration) but still charges the breaker,
        and its sampled quality lands on the timeline with verdict
        ``"brownout"``.  An unresolvable name falls back to the normal
        monitored path.
        """
        self._check_open()
        if self._recalibrator is None:
            self.tune()
        recal = self._recalibrator
        override = self._resolve_override(variant) if variant is not None else None
        index = self.metrics.launches
        launch_id = next(self._launch_ids)
        started = time.perf_counter()
        # Precedence: an active repro.options scope overrides the session
        # defaults, which already fold in the config knobs and the guard.
        # The merged record is resolved once per scope (the serving plan)
        # and entered; the ladder and the quality check both read how to
        # run from it.
        scope = current_options()
        with obs_trace.span(
            "serve.launch",
            app=self.app.name,
            session=self.metrics.label,
            launch_id=launch_id,
        ) as root:
            self.metrics.begin_launch(launch_id, root.trace_id)
            if override is not None:
                serving_variant, serving_name, serving_speedup = override
                root.set(brownout=True)
            else:
                self._step_off_quarantined(index)
                serving_variant = recal.current
                serving_name = recal.current_name
                serving_speedup = recal.speedup_estimate
            root.set(variant=serving_name)
            record = LaunchRecord(
                index=index,
                variant=serving_name,
                knobs=dict(getattr(serving_variant, "knobs", {}) or {}),
                speedup_estimate=serving_speedup,
                launch_id=launch_id,
                trace_id=root.trace_id,
            )
            on_ladder = override is None
            plan = self._serving_plan(scope, serving_variant is None)
            with options_scope(plan.effective):
                out, report = self._serve(serving_variant, inputs, record, plan.ladder)
                if serving_variant is not None:
                    self._charge_breaker(record, report, on_ladder)
                if report.primary_ok and self.monitor.should_sample(index):
                    self._sample(out, inputs, serving_variant, record, on_ladder)
            for event in self.breaker.drain_events():
                self.metrics.record_breaker_event(event)
            record.duration = time.perf_counter() - started
            self.metrics.record_launch(record)
            root.set(
                served=record.served or "primary",
                fallback_depth=record.fallback_depth,
                sampled=record.sampled,
                quality=record.quality,
            )
        return out

    def _serving_plan(self, scope: LaunchOptions, exact: bool) -> _ServingPlan:
        """The serving plan for launches under ``scope``, built on first use."""
        key = (id(scope), exact)
        plan = self._plans.get(key)
        if plan is None:
            effective = scope.merged_over(self.options)
            # The session's guard governs its ladder even under a scope
            # that sets another.
            ladder = plan_ladder(exact, effective, policy=self.guard)
            plan = self._plans.put(key, _ServingPlan(effective, ladder), pins=scope)
        return plan

    def _serve(self, variant, inputs, record: LaunchRecord, ladder: LadderPlan) -> tuple:
        """Walk ``ladder`` for ``variant`` under the entered scope and note
        on ``record`` what served and what this thread launched; returns
        ``(output, report)``."""
        with tally_launches(record.backends):
            try:
                out, report = walk_ladder(self.app, inputs, variant, ladder)
            except BaseException:
                # The ladder exhausted every rung: the caller sees this
                # error, so it counts against availability.
                self.metrics.record_launch_error()
                raise
        record.kernel_launches = sum(record.backends.values())
        record.served = report.served
        record.fallback_depth = report.depth
        record.faults = [f"{a.rung}:{a.site}" for a in report.faults]
        return out, report

    def _charge_breaker(self, record: LaunchRecord, report, on_ladder: bool) -> None:
        """Credit or charge the served variant's circuit breaker."""
        if report.primary_ok:
            self.breaker.record_success(record.variant, record.index)
            return
        reason = report.faults[0].site if report.faults else "fault"
        if self.breaker.record_fault(record.variant, record.index, reason):
            # An overridden launch is off-ladder: the breaker opened (so
            # degradation skips this variant from now on) but the
            # recalibrator's rung — the tuner's choice — must not move.
            if on_ladder:
                self._quarantine(record)
            else:
                record.action = "quarantine"
                record.reason = "quarantine"

    def _sample(
        self, out, inputs, variant, record: LaunchRecord, on_ladder: bool
    ) -> None:
        """Check this launch's quality, put it on the timeline and — for
        a launch on the tuner's own ladder — let the monitor react."""
        record.sampled = True
        check_started = time.perf_counter()
        quality = self._evaluate_quality(out, inputs, variant, record)
        record.sample_seconds = time.perf_counter() - check_started
        if quality is None:
            return
        record.quality = quality
        # Overridden (browned-out) launches are *expected* to serve below
        # the session TOQ; their samples stay out of the drift window so
        # the monitor keeps describing the tuner's own configuration.
        verdict = self.monitor.observe(quality) if on_ladder else "brownout"
        ids = dict(
            session=self.metrics.label,
            launch_id=record.launch_id,
            trace_id=record.trace_id,
            variant=record.variant,
            quality=quality,
        )
        obs_timeline().quality_sample(
            **ids,
            estimate=self.monitor.estimate,
            toq=self.toq,
            speedup=record.speedup_estimate,
            verdict=verdict,
            registry_key=self._registry_key,
        )
        if verdict in (VIOLATION, DRIFT):
            obs_timeline().verdict(verdict, **ids)
        if on_ladder:
            self._react(verdict, record)

    def _resolve_override(self, name: str) -> Optional[tuple]:
        """Resolve a requested ladder rung to ``(variant, name, speedup)``.

        ``"exact"`` is always resolvable; other names resolve through the
        tuning profiles (carrying the calibrated speedup estimate) or,
        failing that, the compiled variant set.  None means the request
        cannot be honored and the launch proceeds on the normal path.
        """
        if name == "exact":
            return (None, "exact", 1.0)
        if self._tuning is not None:
            for profile in self._tuning.profiles:
                if profile.variant is not None and profile.name == name:
                    return (profile.variant, name, profile.speedup)
        if self._variants is not None:
            try:
                return (self._variants.by_name(name), name, 1.0)
            except KeyError:
                pass
        return None

    def _evaluate_quality(self, out, inputs, variant, record) -> Optional[float]:
        """Sampled-quality evaluation with fault containment.

        On a golden-cache miss the exact program runs under the scope
        :meth:`launch` entered — the options this launch served under,
        so a check costs what ``launch(variant="exact")`` costs — and,
        if that run raises, once more on the serial interpreter, the
        reference everywhere else in the stack.  A crash past that (or
        in the app's metric — real code that can really fail) must not
        take the serving path down; the sample is skipped and counted as
        a fault.
        """
        with obs_trace.span(
            "serve.quality_check",
            app=self.app.name,
            variant=record.variant,
            backend=current_options().backend,
            golden="hit",  # no exact run needed, unless run_exact says so
        ) as check_span:

            def run_exact(fresh):
                check_span.set(golden="miss")
                try:
                    return self.app.run_exact(fresh)
                except Exception as exc:
                    check_span.set(fallback=type(exc).__name__)
                    with options_scope(backend="interp", parallel=1):
                        return self.app.run_exact(fresh)

            try:
                maybe_inject(SITE_QUALITY, self.app.name)
                quality = 1.0  # serving the exact program: nothing to compare
                if variant is not None:
                    quality = self.app.evaluate(out, inputs, run_exact)
                check_span.set(quality=quality)
                return quality
            except Exception as exc:
                record.faults.append(f"quality:{type(exc).__name__}")
                check_span.set(fault=type(exc).__name__)
                return None

    def _step_below_blocked(self, index: int) -> None:
        """Step the recalibrator down until its rung is not quarantined."""
        recal = self._recalibrator
        while recal.current is not None and self.breaker.blocked(
            recal.current_name, index
        ):
            if not recal.step_down():
                break

    def _record_move(
        self, index: int, previous: str, reason: str, quality: Optional[float] = None
    ) -> None:
        """The recalibrator left ``previous``: restart the drift window
        (its samples describe the old variant) and log the transition."""
        self.monitor.reset()
        self.metrics.record_transition(
            Transition(
                launch=index,
                from_variant=previous,
                to_variant=self._recalibrator.current_name,
                reason=reason,
                quality=quality,
            )
        )

    def _step_off_quarantined(self, index: int) -> None:
        """Move the recalibrator below any quarantined rung before serving."""
        recal = self._recalibrator
        if recal.current is None or not self.breaker.blocked(
            recal.current_name, index
        ):
            return
        previous = recal.current_name
        self._step_below_blocked(index)
        self._record_move(index, previous, "quarantine")

    def _quarantine(self, record: LaunchRecord) -> None:
        """A breaker just opened on the serving variant: step off it now."""
        previous = self._recalibrator.current_name
        record.action = "quarantine"
        record.reason = "quarantine"
        self._step_below_blocked(record.index)
        self._record_move(record.index, previous, "quarantine", record.quality)

    def _react(self, verdict: str, record: LaunchRecord) -> None:
        """Apply the monitor's verdict: one greedy ladder step (§3.5)."""
        recal = self._recalibrator
        if verdict in (VIOLATION, DRIFT):
            record.reason = verdict
            # Served quality diverged from what tuning measured: that is
            # exactly the evidence the registry should hold, so fold the
            # observation into the variant's stored point before stepping.
            if (
                self.registry is not None
                and self._registry_key is not None
                and record.quality is not None
                and recal.current is not None
            ):
                self.registry.record_observation(
                    self._registry_key, recal.current_name, record.quality
                )
            previous = recal.current_name
            if recal.step_down():
                record.action = "recalibrate_down"
                self._record_move(record.index, previous, verdict, record.quality)
        elif verdict == HEADROOM and not recal.at_top:
            record.reason = "headroom"
            previous = recal.current_name
            previous_rung = recal.rung
            # Step up past quarantined rungs; if everything above is
            # quarantined, stay put rather than promote a known-bad variant.
            moved = False
            while recal.step_up():
                if not self.breaker.blocked(recal.current_name, record.index):
                    moved = True
                    break
            if moved:
                record.action = "recalibrate_up"
                self._record_move(record.index, previous, "headroom", record.quality)
            else:
                recal.rung = previous_rung

    # -- observability ---------------------------------------------------------

    @property
    def current_variant(self) -> str:
        """Name of the variant the next launch will run."""
        if self._recalibrator is None:
            return "untuned"
        return self._recalibrator.current_name

    @property
    def tuning(self) -> Optional[TuningResult]:
        """The armed tuning result (None before first tune) — the
        calibrated ladder brownout degradation selects from."""
        return self._tuning

    @property
    def registry_key(self) -> Optional[str]:
        """The variant-registry key tuning resolved for this session
        (None without a registry or before first tune)."""
        return self._registry_key

    @property
    def last_launch(self) -> Optional[LaunchRecord]:
        """The record of the most recent launch — correlation ids and
        outcome — or None before the first one."""
        records = self.metrics.records
        return records[-1] if records else None

    def metrics_snapshot(self) -> dict:
        """Counters, cache statistics, transition history and current state.

        The parallel and resilience sections (including breaker states and
        the guard policy) are assembled by :meth:`SessionMetrics.snapshot`
        from the sources bound at construction; this method only adds the
        session-identity block.
        """
        snapshot = self.metrics.snapshot()
        if self._variants is not None:
            # Per-variant lowering outcome: codegen / interpreter, with the
            # reason (specialization summary or fallback cause) — the
            # serving-side answer to "which code actually runs for each
            # variant?".
            snapshot["codegen"]["variants"] = self._variants.lowering_outcomes()
        snapshot["session"] = {
            "app": self.app.name,
            "device": self.spec.kind.value,
            "toq": self.toq,
            "backend": self.backend,
            "cache_key": self.key,
            "current_variant": self.current_variant,
            "quality_estimate": self.monitor.estimate,
            "ladder": [p.name for p in self._recalibrator.ladder]
            if self._recalibrator is not None
            else [],
        }
        snapshot["registry"] = (
            {
                **self.registry.stats(),
                "key": self._registry_key,
                "seed_mode": self._tuner_seed_mode,
            }
            if self.registry is not None
            else {"enabled": False}
        )
        return snapshot

    # -- teardown --------------------------------------------------------------

    def close(self) -> None:
        obs_trace.flush()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ServeError("session is closed")

    def __enter__(self) -> "ApproxSession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
