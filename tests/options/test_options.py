"""The launch-options surface: precedence, merging, and what is gone.

One ambient stack (:func:`repro.options`) decides how launches execute;
these tests pin the precedence chain and prove the spellings it replaced
(three scopes, two ``launch`` keywords, three session keywords) no
longer exist anywhere on the public surface.
"""

import ast
import functools
import inspect
import os
import pathlib
import threading

import numpy as np
import pytest

import kernel_zoo as zoo
import repro
from repro import LaunchOptions
from repro._options import UNSET, current_options
from repro.engine import Grid, launch
from repro.engine.trace import Trace
from repro.errors import ConfigError
from repro.resilience import GuardPolicy


def _square_args(n=64, seed=0):
    rng = np.random.default_rng(seed)
    return [
        np.zeros(n, dtype=np.float32),
        rng.random(n, dtype=np.float32),
        np.int32(n),
    ]


class TestLaunchOptions:
    def test_defaults_are_all_unset(self):
        opts = LaunchOptions()
        assert opts.backend is None
        assert opts.parallel is None
        assert opts.min_shard_threads is None
        assert opts.executor is None
        assert opts.guard is UNSET

    def test_validates_backend_and_executor(self):
        with pytest.raises(ConfigError):
            LaunchOptions(backend="bogus")
        with pytest.raises(ConfigError):
            LaunchOptions(executor="bogus")
        with pytest.raises(ConfigError):
            LaunchOptions(min_shard_threads=0)
        with pytest.raises(ConfigError):
            LaunchOptions(parallel="many")

    @pytest.mark.parametrize("bad", ["fork", "THREAD", "", 1, True, ["thread"]])
    def test_unknown_executor_rejected_at_construction(self, bad):
        with pytest.raises(ConfigError, match="executor"):
            LaunchOptions(executor=bad)

    @pytest.mark.parametrize("bad", [0, -1, "fast", 1.5, True])
    def test_bad_worker_counts_rejected_at_construction(self, bad):
        with pytest.raises(ConfigError, match="parallel="):
            LaunchOptions(parallel=bad)

    def test_a_resolved_policy_is_not_an_option_value(self):
        from repro.parallel import ParallelPolicy

        policy = ParallelPolicy(workers=2, min_shard_threads=1)
        for build in (LaunchOptions, repro.options):
            with pytest.raises(
                ConfigError, match="parallel=.*min_shard_threads=.*executor="
            ):
                build(parallel=policy)

    def test_merged_over_overrides_only_set_fields(self):
        base = LaunchOptions(backend="codegen", parallel=4)
        over = LaunchOptions(parallel=2, executor="process")
        merged = over.merged_over(base)
        assert merged.backend == "codegen"  # inherited
        assert merged.parallel == 2  # overridden
        assert merged.executor == "process"  # added

    def test_guard_none_is_an_explicit_value(self):
        """guard=None means 'explicitly unguarded', distinct from UNSET."""
        base = LaunchOptions(guard=GuardPolicy())
        cleared = LaunchOptions(guard=None).merged_over(base)
        assert cleared.guard is None
        untouched = LaunchOptions().merged_over(base)
        assert untouched.guard is not None and untouched.guard is not UNSET

    def test_describe_reports_set_fields_only(self):
        desc = LaunchOptions(backend="interp", guard=None).describe()
        assert desc == {"backend": "interp", "guard": "off"}


class TestScope:
    def test_scope_sets_and_restores(self):
        assert current_options().backend is None
        with repro.options(backend="codegen"):
            assert current_options().backend == "codegen"
        assert current_options().backend is None

    def test_nested_scopes_merge_field_by_field(self):
        with repro.options(backend="codegen", parallel=4):
            with repro.options(parallel=2):
                opts = current_options()
                assert opts.backend == "codegen"
                assert opts.parallel == 2
            assert current_options().parallel == 4

    def test_scope_accepts_a_ready_record(self):
        record = LaunchOptions(backend="interp")
        with repro.options(record) as merged:
            assert merged.backend == "interp"

    def test_record_and_kwargs_together_rejected(self):
        with pytest.raises(ConfigError):
            repro.options(LaunchOptions(), backend="interp")

    def test_scope_is_thread_local(self):
        seen = {}

        def probe():
            seen["backend"] = current_options().backend

        with repro.options(backend="codegen"):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen["backend"] is None, "worker threads start from defaults"

    def test_per_call_options_beat_the_scope(self):
        args = _square_args()
        with repro.options(backend="codegen"):
            trace = launch(
                zoo.square_map,
                Grid.for_elements(64),
                args,
                options=LaunchOptions(backend="interp"),
            )
        # Only the interpreter records per-op events.
        assert isinstance(trace, Trace) and trace.op_counts


class TestPrecedenceChain:
    def test_scope_beats_session_default(self):
        from repro.apps.gaussian import GaussianFilterApp
        from repro.serve import ApproxSession

        app = GaussianFilterApp(scale=0.05)
        session = ApproxSession(
            app, target_quality=0.9, options=LaunchOptions(backend="codegen")
        )
        assert session.options.backend == "codegen"
        assert session.backend == "codegen"
        # fields the options record leaves unset are the session constants
        session2 = ApproxSession(
            app, target_quality=0.9, options=LaunchOptions(parallel=2)
        )
        assert session2.options.backend == "auto"
        assert session2.options.executor == "thread"
        assert session2.parallel_workers == 2
        # an active scope overrides the session default at launch time
        with session, repro.options(backend="interp"):
            session.launch(app.generate_inputs(seed=1))
        assert set(session.metrics_snapshot()["backend_launches"]) == {"interp"}

    def test_a_bare_session_serves_auto_serial_on_threads(self):
        from repro.apps.gaussian import GaussianFilterApp
        from repro.resilience import GuardPolicy
        from repro.serve import ApproxSession

        with ApproxSession(GaussianFilterApp(scale=0.05), target_quality=0.9) as s:
            assert s.options == LaunchOptions(
                backend="auto", parallel=1, executor="thread", guard=GuardPolicy()
            )
            snapshot = s.metrics_snapshot()
        assert snapshot["session"]["backend"] == "auto"
        assert snapshot["parallel"]["workers"] == 1
        assert "profile_cache" not in snapshot["parallel"]


class TestCompileKnobs:
    """``ParaproxConfig`` holds what ``compile`` explores, nothing about
    how a launch runs — a run-time knob cannot come back unannounced."""

    def test_every_config_field_is_read_by_the_compiler(self):
        import dataclasses
        import re

        from repro import ParaproxConfig

        src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        # The compiler's own reads, and the apps' ``build_variants``.
        readers = "\n".join(
            path.read_text(encoding="utf-8")
            for folder in ("approx", "apps")
            for path in sorted((src / folder).glob("*.py"))
        )
        names = [f.name for f in dataclasses.fields(ParaproxConfig)]
        assert names == [
            "skipping_rates",
            "reaching_distances",
            "stencil_schemes",
            "scan_skip_fractions",
            "memo_modes",
            "memo_spaces",
            "memo_extra_tables",
            "memo_start_bits",
        ]
        unread = [
            n for n in names if not re.search(rf"\b(?:cfg|config)\.{n}\b", readers)
        ]
        assert not unread, f"no compile step reads {unread}"


class TestEnvironmentKnobs:
    """docs/API.md lists every ``REPRO_*`` variable ``src/`` reads."""

    def test_the_documented_table_is_what_the_source_reads(self):
        import re

        root = pathlib.Path(__file__).resolve().parents[2]
        # A read names its variable in a string literal: at the
        # ``environ`` call, or in a constant handed to it.
        literal = re.compile(r"""["'](REPRO_[A-Z0-9_]+)["']""")
        read = set()
        for path in (root / "src").rglob("*.py"):
            read.update(literal.findall(path.read_text(encoding="utf-8")))
        api = (root / "docs" / "API.md").read_text(encoding="utf-8")
        documented = set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", api, re.M))
        assert read == documented


@functools.lru_cache(maxsize=None)
def _shipped_imports():
    """``(path, names)`` for every ``.py`` file under ``src/``, ``bench/``,
    ``benchmarks/`` and ``examples/``: each module name one of its
    import statements, at any depth, can bind, relative ones resolved
    against the file's package."""
    root = pathlib.Path(__file__).resolve().parents[2]
    out = []
    for top in ("src", "bench", "benchmarks", "examples"):
        base = root / "src" if top == "src" else root
        for path in sorted((root / top).rglob("*.py")):
            package = path.relative_to(base).parent.parts
            names = set()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    parts = package[: len(package) - node.level + 1] if node.level else ()
                    module = ".".join((*parts, node.module) if node.module else parts)
                    names.add(module)
                    names.update(f"{module}.{alias.name}" for alias in node.names)
            out.append((path.relative_to(root), frozenset(names)))
    return tuple(out)


class TestRemovedSurface:
    """The replaced spellings are gone, not deprecated."""

    REMOVED = {
        "repro.engine": ("use_backend", "default_backend"),
        "repro.parallel": (
            "use_parallel",
            "default_policy",
            "resolve_policy",
            "ShardStats",
            "ProfileCache",
            "profile_key",
            "variant_identity",
            "pools_snapshot",
        ),
        "repro.parallel.pool": (
            "get_healthy_pool",
            "pools_snapshot",
            "_POOLS",
            "_POOL_SIZES",
            "_POOL_STATS",
        ),
        "repro.resilience": ("use_guard", "run_sharded_guarded", "GuardStats"),
        "repro.resilience.guard": ("_backoff_delay", "_JITTER_RNG"),
        "repro.parallel.procpool": ("MAX_RESPAWNS_PER_TASK",),
        "repro.serve": ("EventLog", "LaunchInfo"),
        "repro.serve.session": ("LaunchInfo",),
        "repro.codegen": (
            "v2_enabled",
            "DiffResult",
            "diff_kernel",
            "diff_app",
            "check_apps",
            "check_approx_apps",
            "lower_kernel_ex",
        ),
        "repro.codegen.lower": ("lower_kernel_ex",),
        "repro.codegen.cache": ("_lowering_mode",),
        "repro.codegen.runtime": ("load_table",),
        "repro.obs.http": ("server_from_env",),
        "repro.registry.store": ("_env_float", "_env_int"),
        "repro._options": ("deprecated",),
        "repro.serve.frontend": ("_differential_harness",),
        "repro.serve.overload": ("_drill", "_drill_app"),
        "repro.registry.__main__": ("_selfcheck", "_smoke", "_SMOKE_WRITER"),
        "repro.registry": ("Surrogate", "fit_surrogate"),
        "repro.obs.timeline": ("SLO",),
        "repro.obs": (
            "SamplingProfiler",
            "active_profiler",
            "load_collapsed",
            "render_flame",
            "render_top",
        ),
        "repro.obs.export": ("load_collapsed", "render_flame", "render_top"),
        "repro.obs.trace": ("thread_stacks", "_THREAD_STACKS"),
        "repro.runtime": ("CalibratedRuntime", "CalibrationStats"),
    }

    #: The six retired harness CLIs (``python -m repro.conformance``
    #: replaced them and no alias remains), the k-NN surrogate, the
    #: sampling profiler, the lowering's constant-folding pass, the
    #: fluent IR builder, pure-section outlining, the second §3.5
    #: sample-and-step loop, the division-guard pass and the concurrent
    #: profiler's measurement memo.
    REMOVED_MODULES = (
        "repro.codegen.check",
        "repro.codegen.__main__",
        "repro.parallel.check",
        "repro.parallel.__main__",
        "repro.resilience.check",
        "repro.resilience.__main__",
        "repro.registry.surrogate",
        "repro.obs.profile",
        "repro.codegen.fold",
        "repro.kernel.builder",
        "repro.approx.outline",
        "repro.runtime.calibration",
        "repro.approx.safety",
        "repro.parallel.profiler",
        "repro.obs.slo",
    )

    @pytest.mark.parametrize("module_name", sorted(REMOVED))
    def test_removed_names_are_absent(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        for name in self.REMOVED[module_name]:
            assert not hasattr(module, name), f"{module_name}.{name} is back"
            assert name not in getattr(module, "__all__", ())

    @pytest.mark.parametrize("module_name", REMOVED_MODULES)
    def test_removed_modules_are_absent(self, module_name):
        import importlib.util

        assert importlib.util.find_spec(module_name) is None

    @pytest.mark.parametrize("module_name", REMOVED_MODULES)
    def test_no_source_imports_a_removed_module(self, module_name):
        """``find_spec`` cannot see an import inside a function body,
        which only fails once its branch runs; every import statement
        in the shipped code, resolved to absolute names, can."""
        offenders = [
            str(path) for path, names in _shipped_imports() if module_name in names
        ]
        assert not offenders, f"{module_name} is imported by {offenders}"

    def test_config_refuses_the_outlining_key(self):
        with pytest.raises(ConfigError, match="enable_section_outlining"):
            repro.ParaproxConfig.from_dict({"enable_section_outlining": False})

    def test_config_refuses_the_division_guard_key(self):
        with pytest.raises(ConfigError, match="unknown keys.*guard_divisions"):
            repro.ParaproxConfig.from_dict({"guard_divisions": False})

    def test_guard_policy_has_no_retry_knobs(self):
        import dataclasses

        from repro.resilience import GuardPolicy

        assert [f.name for f in dataclasses.fields(GuardPolicy)] == [
            "deadline_seconds",
            "value_limit",
        ]

    @pytest.mark.parametrize("knob", ["enabled", "validate_outputs"])
    def test_guard_policy_has_one_spelling_of_unguarded(self, knob):
        """``LaunchOptions(guard=None)`` is the unguarded path; the output
        guardrail is part of every guard."""
        from repro.resilience import GuardPolicy

        with pytest.raises(TypeError, match=knob):
            GuardPolicy(**{knob: False})

    def test_tuning_has_no_workers_and_the_pool_no_kind(self):
        """Variants are profiled serially; the one thread pool is the
        shard pool."""
        from repro.device import DeviceKind, spec_for
        from repro.parallel.pool import get_pool
        from repro.runtime.tuner import GreedyTuner

        with pytest.raises(TypeError, match="workers"):
            GreedyTuner(spec_for(DeviceKind.GPU), toq=0.9, workers=2)
        with pytest.raises(TypeError, match="profile_cache"):
            GreedyTuner(spec_for(DeviceKind.GPU), toq=0.9, profile_cache=None)
        with pytest.raises(TypeError):
            get_pool("profile", 2)

    def test_fault_plan_has_no_backoff_rng(self):
        from repro.resilience.faults import FaultPlan

        assert not hasattr(FaultPlan([]), "backoff_rng")

    def test_no_profiler_route_or_slo_pressure_hint(self):
        """The profiler's endpoint hook and the SLO hint brownout read."""
        import dataclasses

        from repro.obs.http import ObsHTTPServer
        from repro.serve.overload import PressureSample

        assert not hasattr(ObsHTTPServer, "profile_stacks")
        fields = {f.name for f in dataclasses.fields(PressureSample)}
        assert fields == {"queue_delay_s", "miss_rate", "saturation"}

    def test_registry_has_no_knob_space_model(self):
        """Warm starts read stored points by name; nothing fits a model
        over them, and keys come from ``resolve_key`` only."""
        from repro.registry import VariantRegistry

        for name in ("fit", "key_for"):
            assert not hasattr(VariantRegistry, name), name

    def test_serving_modules_carry_no_harness_imports(self):
        import repro.serve.frontend
        import repro.serve.overload

        for module in (repro.serve.frontend, repro.serve.overload):
            source = inspect.getsource(module)
            for needle in ("argparse", "FaultPlan", "FaultSpec", "apps.registry"):
                assert needle not in source, f"{module.__name__} mentions {needle}"

    def test_importing_codegen_imports_no_harness(self):
        import subprocess
        import sys

        probe = (
            "import sys, repro.codegen; "
            "print([m for m in sys.modules if m.startswith('repro.') and "
            "m.rsplit('.', 1)[-1] in ('check', 'conformance')])"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert done.stdout.strip() == "[]", done.stdout + done.stderr

    def test_launch_and_session_take_options_only(self):
        from repro.serve import ApproxSession

        launch_params = inspect.signature(launch).parameters
        assert "options" in launch_params
        assert not {"backend", "parallel"} & set(launch_params)
        session_params = inspect.signature(ApproxSession.__init__).parameters
        assert "options" in session_params
        assert not {"backend", "parallel", "event_log"} & set(session_params)

    def test_codegen_has_one_lowering(self):
        import dataclasses

        from repro import codegen
        from repro.codegen.lower import _Emitter
        from repro.engine.launch import resolve_kernel, resolve_module

        for fn in (codegen.lower_kernel, codegen.get_compiled, _Emitter.__init__):
            assert "mode" not in inspect.signature(fn).parameters
        assert "lowering" not in {
            f.name for f in dataclasses.fields(codegen.CompiledKernel)
        }
        assert not [k for k in codegen.stats_snapshot() if k.startswith("v2_")]
        mode, detail = codegen.classify_lowering(
            resolve_kernel(zoo.square_map), resolve_module(zoo.square_map, None)
        )
        assert mode == "codegen" and detail

    @pytest.mark.parametrize(
        "knob",
        [
            {"backend": "codegen"},
            {"parallel_workers": 2},
            {"executor": "process"},
            {"profile_cache_entries": 16},
        ],
        ids=lambda knob: next(iter(knob)),
    )
    def test_execution_knobs_are_not_config_fields(self, knob):
        from repro import ParaproxConfig

        with pytest.raises(TypeError):
            ParaproxConfig(**knob)
        # A dict written by an older release reads as unknown keys.
        with pytest.raises(ConfigError, match="unknown keys"):
            ParaproxConfig.from_dict({**ParaproxConfig().to_dict(), **knob})

    def test_compile_and_variant_set_carry_no_execution_stamp(self):
        import dataclasses

        from repro import Paraprox
        from repro.approx.base import VariantSet

        assert list(inspect.signature(Paraprox.compile).parameters) == [
            "self",
            "app",
            "device",
        ]
        assert [f.name for f in dataclasses.fields(VariantSet)] == [
            "kernel",
            "variants",
            "exact",
            "skipped",
        ]
        with pytest.raises(TypeError):
            VariantSet(kernel="k", backend="codegen")
        source = inspect.getsource(inspect.getmodule(Paraprox))
        assert "_options" not in source and "engine.launch" not in source

    def test_launch_options_fields_are_the_same_five(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(LaunchOptions)] == [
            "backend",
            "parallel",
            "min_shard_threads",
            "executor",
            "guard",
        ]
        with pytest.raises(TypeError):
            LaunchOptions(fuse=True)
        with pytest.raises(TypeError):
            repro.options(fuse=True)

    def test_no_fusion_window_is_left_behind(self):
        import pkgutil

        from repro import engine
        from repro.engine import interpreter

        modules = {info.name for info in pkgutil.iter_modules(engine.__path__)}
        assert "interpreter" in modules and "fusion" not in modules
        assert not [name for name in dir(interpreter) if "fusion" in name]


class TestLaunchEquivalence:
    def test_all_spellings_produce_identical_output(self):
        grid = Grid.for_elements(256)
        outs = []
        for style in ("scope", "options"):
            args = _square_args(n=256, seed=3)
            if style == "scope":
                with repro.options(backend="codegen"):
                    launch(zoo.square_map, grid, args)
            else:
                launch(
                    zoo.square_map,
                    grid,
                    args,
                    options=LaunchOptions(backend="codegen"),
                )
            outs.append(args[0].copy())
        assert outs[0].any()
        assert np.array_equal(outs[0], outs[1])
