import gc
import os
import sys
import time
import warnings

import pytest

from leadopt.lineproto import ProtocolTimeout, connect

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
            transport = connect(f"proc:{sys.executable} {stub}")
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


STALLS_ONCE = (
    "import os, sys, time\n"
    "for line in sys.stdin:\n"
    "    if not os.path.exists(sys.argv[1]):\n"
    "        open(sys.argv[1], 'w').close()\n"
    "        time.sleep(0.6)\n"
    "    sys.stdout.write(f'OK {os.getpid()} {line}')\n"
    "    sys.stdout.flush()\n"
)


class TestTimedOutConnection:
    def test_a_late_reply_never_answers_the_next_request(self, tmp_path):
        # the first child answers its first request after that request timed
        # out: read as the reply to the second request, it would answer the
        # wrong question, so the timed-out link is dropped and the second
        # request reaches a fresh child
        stub = tmp_path / "stub.py"
        stub.write_text(STALLS_ONCE)
        endpoint = f"proc:{sys.executable} {stub} {tmp_path / 'stalled'}"
        with connect(endpoint, timeout=0.2) as transport:
            with pytest.raises(ProtocolTimeout):
                transport.request("first")
            first_pid = transport._proc.pid
            time.sleep(0.6)
            pid, question = transport.request("second").split()[1:]
            assert question == "second" and int(pid) == transport._proc.pid != first_pid
        with pytest.raises(ProcessLookupError):
            os.kill(first_pid, 0)
