"""Registry keys: kernel fingerprint x device fingerprint x input sketch.

Tuning knowledge transfers only between contexts that would measure the
same thing: the same kernel IR, the same modelled device, and inputs
drawn from the same distribution.  The first two reuse the fingerprints
the compiled-variant and profile caches already key on.  The third is the
new piece: a *distribution sketch* of the inputs.

Discretizing noisy sample statistics into buckets can never be stable —
whatever the bucket width, some distribution sits on a boundary and
splits keys between seeds.  So the sketch is kept **continuous**: per
input, a structural part that must match exactly (name, dtype, rank,
log2-bucketed size) plus smooth summary coordinates (log2 of the stddev,
a signed log-compressed mean-in-stddev-units).  The registry stores each
key's sketch vector and resolves lookups by *proximity*
(:func:`sketch_distance` under :data:`DEFAULT_TOLERANCE`): fresh draws
from one generator land within tolerance of the stored key, while a
0..255 image sits eight units from a 0..1 image and never matches.  The
byte-exact :func:`~repro.apps.base._input_fingerprint` the golden-output
store uses is the within-process counterpart; the sketch is its cross-session
generalization.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Tuple

import numpy as np

#: Bump when the sketch definition changes; old keys simply stop
#: matching (their structural strings embed the version) and their
#: fronts age out through garbage collection.
SKETCH_VERSION = 2

#: Largest :func:`sketch_distance` at which two sketches are considered
#: draws from the same distribution.  Coordinates are in log2-ish units,
#: so 1.0 means "within about a factor of two on every axis".
DEFAULT_TOLERANCE = 1.0

#: One sketch entry: (structural identity, smooth coordinates).
SketchEntry = Tuple[str, List[float]]
SketchVector = List[SketchEntry]


def _log_center(mean: float, std: float) -> float:
    """Signed log-compressed location: sign(mean) * log2(1 + |mean|/std).

    Expressing the mean in stddev units makes the coordinate scale-free;
    the log compression keeps narrow peaks far from zero (temperature
    fields at 300 +- 2) from amplifying seed noise into huge distances.
    """
    ratio = abs(mean) / std
    return math.copysign(math.log2(1.0 + ratio), mean)


def _array_entry(name: str, value: np.ndarray) -> SketchEntry:
    if value.size == 0:
        return (f"{name}:{value.dtype}:{value.ndim}d:empty", [])
    data = value.astype(np.float64, copy=False)
    mean = float(np.mean(data))
    std = float(np.std(data))
    size_bucket = int(math.log2(value.size))
    structural = f"{name}:{value.dtype}:{value.ndim}d:2^{size_bucket}"
    if not math.isfinite(std) or std <= 1e-12:
        # A constant array: its single value is the only coordinate.
        return (structural + ":const", [_scalar_coordinate(mean)])
    return (structural, [math.log2(std), _log_center(mean, std)])


def _scalar_coordinate(value: float) -> float:
    return math.copysign(math.log2(1.0 + abs(value)), value)


def input_sketch_vector(inputs: Dict[str, object]) -> SketchVector:
    """The comparable sketch: structural strings plus smooth coordinates."""
    entries: SketchVector = [(f"v{SKETCH_VERSION}", [])]
    for key in sorted(inputs):
        value = inputs[key]
        if isinstance(value, np.ndarray):
            entries.append(_array_entry(key, value))
        elif isinstance(value, float) and math.isfinite(value):
            entries.append((f"{key}:float", [_scalar_coordinate(value)]))
        else:
            entries.append((f"{key}={value!r}", []))
    return entries


def sketch_distance(a: SketchVector, b: SketchVector) -> float:
    """Chebyshev distance between two sketches; inf on structural mismatch."""
    if len(a) != len(b):
        return float("inf")
    worst = 0.0
    for (sa, ca), (sb, cb) in zip(a, b):
        if sa != sb or len(ca) != len(cb):
            return float("inf")
        for va, vb in zip(ca, cb):
            worst = max(worst, abs(va - vb))
    return worst


def sketch_to_json(vector: SketchVector) -> list:
    return [[s, list(c)] for s, c in vector]


def sketch_from_json(data) -> SketchVector:
    if not isinstance(data, list):
        raise ValueError(f"sketch must be a list, got {type(data).__name__}")
    out: SketchVector = []
    for item in data:
        structural, coords = item
        out.append((str(structural), [float(v) for v in coords]))
    return out


def input_sketch(inputs: Dict[str, object]) -> str:
    """A short digest naming a *new* key's sketch.

    Only the structural parts and coarsely rounded coordinates go into
    the digest — it is an identifier, not the matcher.  Proximity over
    the stored vectors (:func:`sketch_distance`) is what resolves
    lookups, so boundary wobble here costs nothing.
    """
    parts = []
    for structural, coords in input_sketch_vector(inputs):
        rounded = ",".join(f"{round(c)}" for c in coords)
        parts.append(f"{structural}[{rounded}]")
    payload = "|".join(parts).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=10).hexdigest()


def device_fingerprint(spec) -> str:
    """Human-readable device identity (kind plus model name)."""
    return f"{spec.kind.value}:{spec.name}".replace("/", "_").replace(" ", "_")


def kernel_digest(app) -> str:
    """Digest of the app's kernel identity (printed IR, or app shape for
    multi-kernel pipelines) — same source as the variant-cache key."""
    from ..serve.cache import app_fingerprint

    payload = app_fingerprint(app).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=10).hexdigest()


def key_prefix(app, spec) -> str:
    """Everything but the sketch: ``<app>:<kernel>/<device>``.

    The app name prefixes the kernel digest purely for human-readable
    CLI listings; the digest alone already pins the identity.
    """
    return (
        f"{getattr(app, 'name', type(app).__name__)}:{kernel_digest(app)}"
        f"/{device_fingerprint(spec)}"
    )


def registry_key(app, spec, inputs: Dict[str, object]) -> str:
    """The canonical key a fresh (app, device, input set) would create.

    Prefer :meth:`VariantRegistry.resolve_key`, which snaps to an
    existing key whose stored sketch is within tolerance before minting
    this one.
    """
    return f"{key_prefix(app, spec)}/{input_sketch(inputs)}"
