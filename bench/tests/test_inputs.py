"""Same seed, same inputs and arrivals; another seed, other ones."""

import numpy as np

from bench import serving, spec
from repro.apps.registry import make_app


def pool_bytes(name: str, seed: int) -> bytes:
    app = make_app(name, scale=spec.SMALL_SCALES[name])
    chunks = []
    for inputs in serving.make_pool(app, seed):
        for key in sorted(inputs):
            chunks.append(np.asarray(inputs[key]).tobytes())
    return b"".join(chunks)


def test_pools_depend_on_the_seed_alone():
    for name in spec.SERVING_APPS:
        assert pool_bytes(name, 3) == pool_bytes(name, 3)
        assert pool_bytes(name, 3) != pool_bytes(name, 4)


def test_pool_outlasts_the_golden_cache_under_the_sampling_cadence():
    from math import gcd

    from repro.apps.base import Application

    assert spec.POOL_SIZE >= 2 * Application.GOLDEN_CACHE_SIZE
    # Sampled launches walk the pool in steps of SAMPLE_EVERY: every input
    # must come up, or the golden cache would hold the few that do.
    assert gcd(spec.SAMPLE_EVERY, spec.POOL_SIZE) == 1


def test_arrival_schedule_depends_on_the_seed_alone():
    first = serving.arrival_schedule(5, 10.0)
    assert first == serving.arrival_schedule(5, 10.0)
    assert first != serving.arrival_schedule(6, 10.0)
    assert len(first) == len(spec.OPEN_SEGMENTS)
    for (rate, share), arrivals in zip(spec.OPEN_SEGMENTS, first):
        offsets = [offset for offset, _app, _tenant in arrivals]
        assert offsets == sorted(offsets) and offsets[-1] < share * 10.0
        assert len(arrivals) == round(rate * share * 10.0)  # whatever the seed
    reference = [
        len(arrivals)
        for (rate, _share), arrivals in zip(spec.OPEN_SEGMENTS, first)
        if rate == spec.OPEN_REFERENCE_RATE
    ]
    kept = max(1, (2 * len(reference) + 2) // 3)  # serving.quiet_segments
    assert sum(sorted(reference)[:kept]) >= spec.WORKLOADS["small_open"].min_requests, (
        "the reference rate's p99 is taken over the quiet segments and needs 1 000 requests"
    )
