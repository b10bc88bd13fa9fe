"""Every app's traces and modelled cycles against ``golden_traces.json``.

The golden file was written by ``make_golden_traces.py`` on the commit
*before* the one-pass trace recorder and the per-launch interpreter set-up
(PR 17): exact program and every variant of the 13 apps at registry
default scale, as integer trace summaries plus GPU/CPU cycles in
``float.hex()``.  The comparison is exact — one moved counter moves a
modelled cycle, a speed-up and possibly a tuning decision.
"""

import json

import pytest

from make_golden_traces import GOLDEN_PATH, app_summary
from repro.apps.registry import APP_CLASSES

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_app():
    assert list(GOLDEN) == list(APP_CLASSES)


@pytest.mark.parametrize("name", list(APP_CLASSES))
def test_traces_and_cycles_match_golden(name):
    got = json.loads(json.dumps(app_summary(name)))  # tuples -> lists
    want = GOLDEN[name]
    if got["data"] != want["data"]:
        pytest.skip(
            f"{name}: this platform's NumPy generates different inputs or "
            "lookup tables than the one the golden file was written on "
            "(data fingerprint differs), so data-dependent addresses — and "
            "the traces built from them — are not comparable; the "
            "reference-trace differential still covers the recorder"
        )
    assert list(got["runs"]) == list(want["runs"])
    for run, summary in want["runs"].items():
        assert got["runs"][run] == summary, f"{name}/{run}"
