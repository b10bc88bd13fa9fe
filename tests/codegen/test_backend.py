"""Backend seam: selection, validation, fallback and observability."""

import numpy as np
import pytest

import kernel_zoo as zoo
from repro.codegen import CodegenError
from repro import LaunchOptions, current_options, options
from repro.codegen.cache import STATS
from repro.engine import (
    BACKENDS,
    Grid,
    Trace,
    launch,
    launch_hook,
    validate_backend,
)
from repro.errors import ConfigError, ExecutionError


def _square_args(n=256):
    x = np.random.default_rng(0).random(n, dtype=np.float32)
    return [np.zeros(n, np.float32), x, np.int32(n)]


def _events_for(backend=None, **launch_kwargs):
    events = []
    with launch_hook(events.append):
        launch(
            zoo.square_map,
            Grid.for_elements(256),
            _square_args(),
            options=LaunchOptions(backend=backend),
            **launch_kwargs,
        )
    assert len(events) == 1
    return events[0]


class TestValidation:
    def test_known_backends(self):
        assert BACKENDS == ("interp", "codegen", "auto")
        for name in BACKENDS:
            assert validate_backend(name) == name

    def test_unknown_backend_names_choices(self):
        with pytest.raises(ConfigError) as exc:
            validate_backend("jit")
        message = str(exc.value)
        assert "'jit'" in message
        for name in BACKENDS:
            assert repr(name) in message

    def test_launch_rejects_unknown_backend(self):
        with pytest.raises(ConfigError):
            launch(
                zoo.square_map,
                Grid.for_elements(8),
                _square_args(8),
                options=LaunchOptions(backend="llvm"),
            )


class TestSelection:
    def test_default_is_interp(self):
        assert current_options().backend is None
        assert _events_for().backend == "interp"

    def test_use_backend_nests_and_restores(self):
        with options(backend="codegen"):
            assert current_options().backend == "codegen"
            with options(backend="interp"):
                assert current_options().backend == "interp"
            assert current_options().backend == "codegen"
        assert current_options().backend is None

    def test_explicit_codegen_event(self):
        assert _events_for(backend="codegen").backend == "codegen"

    def test_auto_picks_codegen_without_trace(self):
        assert _events_for(backend="auto").backend == "codegen"

    def test_auto_picks_interp_with_trace(self):
        event = _events_for(backend="auto", trace=Trace())
        assert event.backend == "interp"

    def test_auto_picks_interp_with_call_observer(self):
        event = _events_for(backend="auto", call_observer=lambda *a: None)
        assert event.backend == "interp"

    def test_explicit_codegen_rejects_call_observer(self):
        with pytest.raises(ExecutionError, match="call_observer"):
            launch(
                zoo.square_map,
                Grid.for_elements(8),
                _square_args(8),
                options=LaunchOptions(backend="codegen"),
                call_observer=lambda *a: None,
            )

    def test_ambient_backend_applies_to_launch(self):
        with options(backend="codegen"):
            assert _events_for().backend == "codegen"


class TestFallback:
    def test_auto_falls_back_to_interp_on_codegen_error(self, monkeypatch):
        from repro.codegen import cache as cache_mod

        def boom(*args, **kwargs):
            raise CodegenError("synthetic lowering failure")

        # A lowering failure happens before the kernel ever compiled: no
        # launch plan may hold a compiled kernel yet.
        cache_mod.clear_cache()
        monkeypatch.setattr(cache_mod, "get_compiled", boom)
        before = STATS.fallbacks
        args = _square_args(64)
        event = []
        with launch_hook(event.append):
            launch(
                zoo.square_map,
                Grid.for_elements(64),
                args,
                options=LaunchOptions(backend="auto"),
            )
        assert STATS.fallbacks == before + 1
        assert event[0].backend == "interp"
        np.testing.assert_array_equal(args[0], args[1] * args[1])

    def test_explicit_codegen_propagates_codegen_error(self, monkeypatch):
        from repro.codegen import cache as cache_mod

        def boom(*args, **kwargs):
            raise CodegenError("synthetic lowering failure")

        # A lowering failure happens before the kernel ever compiled: no
        # launch plan may hold a compiled kernel yet.
        cache_mod.clear_cache()
        monkeypatch.setattr(cache_mod, "get_compiled", boom)
        with pytest.raises(CodegenError, match="synthetic"):
            launch(
                zoo.square_map,
                Grid.for_elements(8),
                _square_args(8),
                options=LaunchOptions(backend="codegen"),
            )


class TestErrorParity:
    """Runtime faults must carry the interpreter's exact message."""

    def _raise_oob(self, backend):
        n = 64
        # out/x hold only 10 elements but all 64 lanes pass the guard.
        args = [np.zeros(10, np.float32), np.zeros(10, np.float32), np.int32(n)]
        with pytest.raises(ExecutionError) as exc:
            launch(
                zoo.square_map,
                Grid.for_elements(n),
                args,
                options=LaunchOptions(backend=backend),
            )
        return str(exc.value)

    def test_out_of_bounds_message_matches(self):
        assert self._raise_oob("interp") == self._raise_oob("codegen")

    def test_bounds_check_off_clamps_identically(self):
        # With checks disabled both backends clamp indices into range; the
        # clamped results must still agree bit-for-bit.
        n = 64
        outs = {}
        for backend in ("interp", "codegen"):
            out = np.zeros(10, np.float32)
            x = np.arange(10, dtype=np.float32)
            launch(
                zoo.square_map,
                Grid.for_elements(n),
                [out, x, np.int32(n)],
                options=LaunchOptions(backend=backend),
                bounds_check=False,
            )
            outs[backend] = out
        assert outs["interp"].tobytes() == outs["codegen"].tobytes()
