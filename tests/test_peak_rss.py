"""tools/peak_rss.py: a command's peak memory against a bound."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"
# a child that holds about 64 MB at its peak
ALLOCATE = [sys.executable, "-c", "b = bytearray(64 << 20); b[::4096] = b'x' * len(b[::4096])"]


def _run(max_mb, command):
    done = subprocess.run([sys.executable, str(SCRIPT), "--max-mb", str(max_mb), "--", *command],
                          capture_output=True, text=True, timeout=60)
    peak = float(done.stderr.split("peak_rss_mb=")[1].split()[0])
    return done.returncode, peak


@pytest.mark.parametrize("max_mb, code", ((4096, 0), (32, 1)))
def test_peak_is_bounded(max_mb, code):
    returncode, peak = _run(max_mb, ALLOCATE)
    assert returncode == code
    assert peak >= 64


def test_a_failing_command_keeps_its_code():
    returncode, _ = _run(4096, [sys.executable, "-c", "raise SystemExit(3)"])
    assert returncode == 3
