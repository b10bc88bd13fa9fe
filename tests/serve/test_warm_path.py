"""A warm served launch re-derives nothing its plans resolved.

Counts calls instead of timing them: from a session's third launch on, no
options record is built or validated, no shard policy resolved, no kernel
fingerprinted and no metric series looked up by label — while the compile
fault seam is still visited once per kernel launch.
"""

from collections import Counter

import pytest

from repro import ApproxSession, LaunchOptions, MonitorConfig
from repro.apps.registry import make_app
from repro.codegen import cache as codegen_cache
from repro.codegen import fingerprint as codegen_fingerprint
from repro.obs.registry import Metric
from repro.parallel import pool

#: The serving benchmark's smallest grids (its ``small_closed`` workload):
#: where the stack is the largest share of a request.
SMALL_SCALES = {"blackscholes": 0.0005, "gaussian": 0.01, "matmul": 0.02, "cumhist": 0.001}


@pytest.fixture(scope="module")
def sessions():
    out = {}
    for name, scale in SMALL_SCALES.items():
        session = ApproxSession(
            make_app(name, scale=scale),
            target_quality=0.9,
            options=LaunchOptions(backend="codegen"),
            monitor=MonitorConfig(sample_every=40),
        )
        session.tune()
        out[name] = session
    return out


def _counting(counts: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_warm_launches_resolve_nothing_again(sessions, monkeypatch):
    pools = {
        name: [s.app.generate_inputs(seed=seed) for seed in range(4)]
        for name, s in sessions.items()
    }
    for name, session in sessions.items():  # launches 1 and 2 build the plans
        for inputs in pools[name][:2]:
            session.launch(inputs)

    counts = Counter()
    for owner, attr in (
        (LaunchOptions, "__post_init__"),
        (pool, "policy_from_options"),
        (codegen_cache, "fingerprint_kernel"),
        (codegen_fingerprint, "fingerprint_kernel"),
        (Metric, "labels"),
        (codegen_cache, "maybe_inject"),
    ):
        monkeypatch.setattr(owner, attr, _counting(counts, attr, getattr(owner, attr)))

    kernel_launches = 0
    for name, session in sessions.items():
        for launch in range(3, 11):
            session.launch(pools[name][launch % 4])
            record = session.last_launch
            assert not record.sampled and record.fallback_depth == 0
            kernel_launches += record.kernel_launches
    assert kernel_launches >= 8 * 5  # cumhist launches four kernels a request
    assert counts["maybe_inject"] == kernel_launches
    del counts["maybe_inject"]
    assert counts == Counter()
