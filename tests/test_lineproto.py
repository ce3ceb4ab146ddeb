import gc
import sys
import warnings

import pytest

from leadopt.lineproto import open_transport

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
