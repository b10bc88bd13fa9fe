"""ApproxSession serving through the codegen backend."""

import pytest

from repro import LaunchOptions
from repro.apps.registry import make_app
from repro.errors import ConfigError
from repro.serve import ApproxSession


def _serve(backend=None, launches=4):
    app = make_app("meanfilter", seed=0)
    with ApproxSession(
        app, target_quality=0.5, options=LaunchOptions(backend=backend)
    ) as session:
        session.tune()
        for seed in range(launches):
            session.launch(app.generate_inputs(seed=seed))
        return session.metrics_snapshot()


def test_default_session_backend_serves_via_codegen():
    snapshot = _serve()
    assert snapshot["session"]["backend"] == "auto"
    # Served launches carry no trace/observer, so "auto" resolves to the
    # compiled path for every kernel launch.
    assert set(snapshot["backend_launches"]) == {"codegen"}
    assert snapshot["backend_launches"]["codegen"] == snapshot["kernel_launches"]
    assert snapshot["backend_launches"]["codegen"] > 0


def test_session_codegen_compile_stats_attributed():
    from repro.codegen import stats_snapshot

    before = stats_snapshot()
    snapshot = _serve(backend="codegen", launches=5)
    after = stats_snapshot()
    codegen = {key: after[key] - before[key] for key in ("compiles", "cache_hits", "fallbacks")}
    # Every served kernel launch either compiled a specialization or hit
    # the in-process compile cache (earlier tests may have warmed it).
    served = snapshot["backend_launches"]["codegen"]
    assert codegen["compiles"] + codegen["cache_hits"] == served
    assert codegen["cache_hits"] >= 1
    assert codegen["fallbacks"] == 0


def test_session_can_pin_the_interpreter():
    snapshot = _serve(backend="interp")
    assert snapshot["session"]["backend"] == "interp"
    assert set(snapshot["backend_launches"]) == {"interp"}


def test_session_rejects_unknown_backend():
    app = make_app("meanfilter", seed=0)
    with pytest.raises(ConfigError) as exc:
        ApproxSession(app, options=LaunchOptions(backend="tensorrt"))
    assert "'tensorrt'" in str(exc.value) and "'codegen'" in str(exc.value)


def test_per_launch_records_carry_backend_counts():
    app = make_app("meanfilter", seed=0)
    with ApproxSession(
        app, target_quality=0.5, options=LaunchOptions(backend="codegen")
    ) as session:
        session.tune()
        session.launch(app.generate_inputs(seed=1))
        snapshot = session.metrics_snapshot()
    record = snapshot["recent_launches"][-1]
    assert record["backends"].get("codegen", 0) == record["kernel_launches"]
