import gc
import sys
import time
import warnings

import pytest

from leadopt.lineproto import ProtocolError, ProtocolTimeout, open_transport

ECHO = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    sys.stdout.write('OK ' + line)\n"
    "    sys.stdout.flush()\n"
)

ONE_REPLY = (
    "import sys\n"
    "sys.stdin.readline()\n"
    "sys.stdout.write('OK bye\\n')\n"
)


@pytest.fixture
def unraisable(monkeypatch):
    """Warnings and errors raised where nothing can catch them, such as an
    unclosed file's finalizer, collected instead of printed."""
    seen = []
    monkeypatch.setattr(sys, "unraisablehook", seen.append)
    return seen


class TestProcTransportClose:
    @pytest.mark.parametrize(
        "script,reply", [(ECHO, "OK ping"), (ONE_REPLY, "OK bye")], ids=["running", "exited"]
    )
    def test_close_leaves_no_open_pipe(self, tmp_path, unraisable, script, reply):
        stub = tmp_path / "stub.py"
        stub.write_text(script)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error", ResourceWarning)
            transport = open_transport(f"proc:{sys.executable} {stub}")
            assert transport.request("ping") == reply
            if script == ONE_REPLY:
                transport._proc.wait(timeout=10)
            transport.close()
            proc = transport._proc
            assert proc.stdin.closed and proc.stdout.closed
            del transport, proc
            gc.collect()
        assert [str(w.message) for w in caught] == []
        assert [repr(u.exc_value) for u in unraisable] == []


SLOW_FIRST = (
    "import sys, time\n"
    "for n, line in enumerate(sys.stdin):\n"
    "    if n == 0:\n"
    "        time.sleep(0.6)\n"
    "    sys.stdout.write(f'OK reply {n}\\n')\n"
    "    sys.stdout.flush()\n"
)


class TestTimedOutConnection:
    def test_a_late_reply_never_answers_the_next_request(self, tmp_path):
        # the first reply arrives after its request timed out: read as the
        # reply to the second request, it would answer the wrong question
        stub = tmp_path / "stub.py"
        stub.write_text(SLOW_FIRST)
        with open_transport(f"proc:{sys.executable} {stub}", timeout=0.2) as transport:
            with pytest.raises(ProtocolTimeout):
                transport.request("first")
            time.sleep(0.6)
            with pytest.raises(ProtocolError, match="timed out"):
                transport.request("second")

