"""Smoke tests: every example script runs to completion.

Examples are user-facing documentation; a refactor that silently breaks
one is worse than a failing unit test.  Each is executed as a subprocess
exactly as a user would run it.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

pytestmark = pytest.mark.slow


def run_example(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "recovery: success=True" in result.stdout
        assert "no plaintext" in result.stdout

    def test_attack_lab(self):
        result = run_example("attack_lab.py")
        assert result.returncode == 0, result.stderr
        assert "IntegrityError" in result.stdout
        assert "data_tampering at 0x1000" in result.stdout
        assert "potential replay detected: True" in result.stdout
        assert "all attacks detected" in result.stdout

    def test_secure_kv_store(self):
        result = run_example("secure_kv_store.py")
        assert result.returncode == 0, result.stderr
        assert "(not committed)" in result.stdout
        assert "balance=41" in result.stdout

    def test_crash_injection_campaign(self):
        result = run_example("crash_injection_campaign.py")
        assert result.returncode == 0, result.stderr
        assert "PASS" in result.stdout
        assert "every outcome matched its design's contract" in result.stdout
        # The sweep must exercise the replay-vs-crash window (SC
        # false alarm) and cc-NVM's full recovery, plus the media phase.
        assert "FALSE_ALARM" in result.stdout
        assert "detected_by_hmac" in result.stdout

    def test_evaluate_designs_small(self):
        # --no-cache keeps the checkout free of a .repro-cache directory
        result = run_example("evaluate_designs.py", "--length", "500",
                             "--jobs", "2", "--no-cache")
        assert result.returncode == 0, result.stderr
        assert "Figure 5(a)" in result.stdout
        assert "headline numbers" in result.stdout
