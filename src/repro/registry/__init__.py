"""Cross-session variant registry: tuning measurements that outlive a session.

The greedy tuner (paper §3.5) walks one path through the knob space per
session and forgets it at exit.  This package makes that knowledge
durable and shared, following autoAx: measurements are characterized
into per-(kernel, device, input-sketch) Pareto fronts, persisted in one
JSON document, replaced atomically, that any number of serving workers
can read and write concurrently.  Warm tuning then starts from the front's
TOQ-feasible knee and re-measures a few rungs below it; every rung it
does not re-measure reads that variant's stored measurement, and a
variant with none is left off the ladder — recalibration becomes a
lookup.

Public surface:

* :class:`VariantRegistry` — the store (``repro.registry.store``);
* :class:`ParetoPoint`, :func:`pareto_front`, :func:`knee` — front
  machinery (``repro.registry.pareto``);
* :func:`registry_key`, :func:`input_sketch` — key derivation
  (``repro.registry.sketch``);
* ``python -m repro.registry`` — inspect / merge / gc / ingest CLI
  (``repro.registry.__main__``).

See ``docs/REGISTRY.md`` for the file format, the locking model and the
environment variables.
"""

from .pareto import ParetoPoint, dominates, feasible, knee, pareto_front
from .sketch import device_fingerprint, input_sketch, kernel_digest, registry_key
from .store import VariantRegistry, resolve_registry

__all__ = [
    "VariantRegistry",
    "resolve_registry",
    "ParetoPoint",
    "pareto_front",
    "dominates",
    "feasible",
    "knee",
    "registry_key",
    "input_sketch",
    "device_fingerprint",
    "kernel_digest",
]
