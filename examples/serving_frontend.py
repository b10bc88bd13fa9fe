"""Multi-tenant serving: one front-end, many callers, one dispatcher.

A deployment rarely serves one caller.  This script stands up a
``ServeFrontend`` — the admission-controlled request queue above the
launch machinery — and drives it from three concurrent tenant threads:

* ``gold`` holds a large queue budget and a 90% target-quality floor;
  it streams launches of an approximation session and of a raw kernel,
* ``bronze`` holds a tiny budget, so its burst trips backpressure and
  sheds load instead of stalling everyone,
* ``probe`` tries to register a session below the gold floor and is
  refused at admission.

The dispatcher serves requests one at a time in arrival order; the
metrics at the end show how many were served and their median queue
wait.

    python examples/serving_frontend.py
"""

import threading

import numpy as np

from repro import ApproxSession, LaunchOptions, ServeFrontend
from repro.apps.gaussian import GaussianFilterApp
from repro.engine import Grid
from repro.errors import AdmissionError, BackpressureError
from repro.kernel import kernel
from repro.kernel.dsl import array_f32, f32, global_id, i32

N = 1 << 14
LAUNCHES_PER_TENANT = 6


@kernel
def scale_shift(out: array_f32, x: array_f32, a: f32, b: f32, n: i32):
    i = global_id()
    if i < n:
        out[i] = a * x[i] + b


def gold_traffic(frontend, session, app, report):
    futures = []
    rng = np.random.default_rng(7)
    for i in range(LAUNCHES_PER_TENANT):
        futures.append(
            frontend.submit_app(
                session, app.generate_inputs(seed=100 + i), tenant="gold"
            )
        )
        args = [
            np.zeros(N, np.float32),
            rng.random(N, dtype=np.float32),
            np.float32(1.5),
            np.float32(-0.25),
            np.int32(N),
        ]
        futures.append(
            frontend.submit(
                scale_shift, Grid.for_elements(N), args, tenant="gold"
            )
        )
    for future in futures:
        future.result(timeout=300)
    report["gold"] = len(futures)


def bronze_traffic(frontend, report):
    served = shed = 0
    rng = np.random.default_rng(13)
    futures = []
    for _ in range(4 * LAUNCHES_PER_TENANT):
        args = [
            np.zeros(N, np.float32),
            rng.random(N, dtype=np.float32),
            np.float32(0.5),
            np.float32(0.0),
            np.int32(N),
        ]
        try:
            futures.append(
                frontend.submit(
                    scale_shift, Grid.for_elements(N), args, tenant="bronze"
                )
            )
            served += 1
        except BackpressureError:
            shed += 1  # a real client would back off and retry
    for future in futures:
        future.result(timeout=300)
    report["bronze"] = (served, shed)


def main() -> None:
    app = GaussianFilterApp(scale=0.05)
    options = LaunchOptions(backend="codegen", parallel=2)
    with ApproxSession(app, target_quality=0.92) as session, ServeFrontend(
        options=options
    ) as frontend:
        frontend.register_tenant("gold", max_queue_depth=64, toq_floor=0.9)
        frontend.register_tenant("bronze", max_queue_depth=2)

        weak = ApproxSession(app, target_quality=0.8)
        try:
            frontend.submit_app(weak, app.generate_inputs(seed=1), tenant="gold")
        except AdmissionError as exc:
            print(f"probe refused : {exc}")
        finally:
            weak.close()

        report = {}
        threads = [
            threading.Thread(
                target=gold_traffic, args=(frontend, session, app, report)
            ),
            threading.Thread(target=bronze_traffic, args=(frontend, report)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        served, shed = report["bronze"]
        print(f"gold tenant   : {report['gold']} launches served")
        print(f"bronze tenant : {served} served, {shed} shed by backpressure")
        wait_p50 = frontend.metrics.wait_seconds.quantile(0.5) or 0.0
        print(
            f"dispatch      : {report['gold'] + served} requests served "
            f"in arrival order, queue wait p50 {1e3 * wait_p50:.2f} ms"
        )
        print(
            f"session       : {session.metrics_snapshot()['launches']} "
            f"monitored launches, serving {session.current_variant}"
        )


if __name__ == "__main__":
    main()
