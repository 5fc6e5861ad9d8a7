"""tests/conftest.py: a hung test fails at its deadline, before the
faulthandler dump."""
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

CONFTEST = Path(__file__).resolve().parent / "conftest.py"


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                    reason="the deadline needs SIGALRM")
def test_a_sleeping_test_fails_at_its_deadline(tmp_path):
    # one child pytest with a 2 s faulthandler_timeout: the deadline fires
    # at 1.5 s, and the run reports one failure, not a signal or a dump
    shutil.copy(CONFTEST, tmp_path / "conftest.py")
    (tmp_path / "test_sleep.py").write_text(
        "import time\n\n\ndef test_sleeps():\n    time.sleep(20)\n\n\n"
        "def test_after():\n    pass\n")
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-o", "faulthandler_timeout=2", "test_sleep.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    took = time.perf_counter() - t0
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "1 failed, 1 passed" in out
    assert "still running after 1.5 s" in out
    assert "Timeout (" not in out  # faulthandler's dump never ran
    assert took < 15
