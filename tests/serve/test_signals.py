"""Graceful SIGTERM drain, exercised end-to-end in a subprocess.

The child installs the handlers, parks a slow request on the front-end,
prints READY, and waits to be killed.  The parent sends SIGTERM and
asserts the in-flight Future resolved (the drain let it finish) and the
process still died with the SIGTERM status its supervisor expects.
"""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.serve import signals
from repro.serve.frontend import ServeFrontend

CHILD = textwrap.dedent(
    """
    import sys, time
    from repro.serve import ServeFrontend, install_signal_handlers

    install_signal_handlers(timeout=10.0)
    frontend = ServeFrontend(batch_window_s=0.001)

    def slow():
        time.sleep(0.5)
        return "finished"

    future = frontend._enqueue("default", ("slow",), slow)
    future.add_done_callback(
        lambda f: print("RESOLVED", f.result(), flush=True)
    )
    print("READY", flush=True)
    time.sleep(30)  # killed long before this returns
    print("NEVER", flush=True)
    """
)


class TestSigtermDrain:
    @pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
    def test_sigterm_drains_in_flight_requests_then_dies(self):
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        existing = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + existing if existing else ""),
        )
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            assert child.stdout.readline().strip() == "READY"
            child.send_signal(signal.SIGTERM)
            out, err = child.communicate(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()
        assert "RESOLVED finished" in out, (
            f"in-flight request lost on SIGTERM\nstdout: {out}\nstderr: {err}"
        )
        assert "NEVER" not in out, "process must still terminate"
        assert child.returncode == -signal.SIGTERM


class TestHandlerBookkeeping:
    def test_install_is_idempotent_and_uninstall_restores(self):
        previous = signal.getsignal(signal.SIGTERM)
        signals.install_signal_handlers()
        installed = signal.getsignal(signal.SIGTERM)
        assert installed is not previous
        signals.install_signal_handlers()  # second install keeps the first
        assert signal.getsignal(signal.SIGTERM) is installed
        signals.uninstall_signal_handlers()
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_drain_closes_tracked_frontends(self):
        frontend = ServeFrontend(batch_window_s=0.001)
        assert frontend in signals.live_frontends()
        try:
            signals.drain(timeout=5.0)
            assert frontend._closed
            # Draining a process with only closed front-ends is a no-op.
            signals.drain(timeout=5.0)
        finally:
            # The flag is process-global: /readyz of every later test
            # in this process reads it.
            signals.reset_draining()
