"""Stack-budget benchmark: what a request costs from ``submit`` to resolved
future, and which layer owns it.

The benchmark only ever calls public functions of ``src/repro`` from the
outside; see ``bench/README.md`` for the workloads, the metrics and how to
read them.  ``python3 -m bench`` is the entry point.
"""
