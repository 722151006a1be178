"""tools/csv_delta.py runs shipped configs in two trees and compares them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_repository_matches_itself():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "csv_delta.py"), str(ROOT),
         str(ROOT), "--only", "dephasing", "anneal_weak"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == [
        "anneal_weak/populations.csv: identical",
        "anneal_weak/preflight: identical",
        "dephasing/rho_t.csv: identical",
        "dephasing/preflight: identical"]
