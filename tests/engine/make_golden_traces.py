"""Generate ``golden_traces.json`` — run this on the PARENT of a change.

    PYTHONPATH=<parent checkout>/src python tests/engine/make_golden_traces.py

For every Table-1 app at its registry default scale, the exact program
and every compiled variant are executed once on the interpreter and the
trace is reduced to integers (op counts, per-stream counters, segment-set
size, saturation flag) plus ``CostModel.cycles`` for the GPU and CPU
specs as ``float.hex()``.  ``test_golden_traces.py`` recomputes the same
summary on the working tree and compares exactly, so an interpreter or
trace change that moves a single counter — and therefore a modelled
cycle, a speed-up or a tuning decision — fails tier-1.

The file is regenerated only when a PR *intends* to change what a launch
records; a performance PR must leave it byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).with_name("golden_traces.json")


def summarize_trace(trace) -> dict:
    """The integer content of a trace, insertion order preserved (the cost
    model sums floats in that order, so order is part of the contract)."""
    return {
        "launches": trace.launches,
        "threads_launched": trace.threads_launched,
        "op_counts": [
            [cls, dtype, int(n)] for (cls, dtype), n in trace.op_counts.items()
        ],
        "mem": [
            [
                space, kind, array,
                int(s.accesses), int(s.bytes), int(s.warps),
                int(s.transactions), int(s.atomic_chain),
                len(s.segments), bool(s.segments_saturated),
            ]
            for (space, kind, array), s in trace.mem.items()
        ],
    }


def data_fingerprint(inputs, variants) -> str:
    """Hash of the data that data-dependent addresses are computed from:
    the generated inputs and every host buffer a variant appends (lookup
    tables).  Table contents come from libm through NumPy and inputs from
    its generators — a platform where these differ records different
    traces for reasons that have nothing to do with the interpreter."""
    digest = hashlib.sha256()

    def feed(label, value):
        if isinstance(value, np.ndarray):
            digest.update(label.encode())
            digest.update(str(value.dtype).encode())
            digest.update(np.ascontiguousarray(value).tobytes())

    for key in sorted(inputs):
        feed(key, inputs[key])
    for variant in variants:
        for position, extra in enumerate(getattr(variant, "extra_args", ())):
            feed(f"{variant.name}#{position}", extra)
    return digest.hexdigest()


def app_summary(name: str) -> dict:
    from repro import DeviceKind, Paraprox
    from repro.apps.registry import make_app
    from repro.device import CostModel, spec_for

    app = make_app(name, seed=0)
    variants = list(Paraprox(target_quality=0.90).compile(app, DeviceKind.GPU))
    inputs = app.generate_inputs(seed=0)
    models = {
        kind.value: CostModel(spec_for(kind))
        for kind in (DeviceKind.GPU, DeviceKind.CPU)
    }

    def row(trace) -> dict:
        out = summarize_trace(trace)
        out["cycles"] = {
            device: float(model.cycles(trace)).hex()
            for device, model in models.items()
        }
        return out

    rows = {"exact": row(app.run_exact(inputs)[1])}
    for variant in variants:
        rows[variant.name] = row(app.run_variant(variant, inputs)[1])
    return {"data": data_fingerprint(inputs, variants), "runs": rows}


def build() -> dict:
    from repro.apps.registry import APP_CLASSES

    return {name: app_summary(name) for name in APP_CLASSES}


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_PATH
    target.write_text(json.dumps(build(), indent=1) + "\n")
    print(f"wrote {target}")
