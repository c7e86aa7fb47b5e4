import subprocess
import sys
from pathlib import Path


def test_bench_selftest():
    """``bench/selftest.py`` passes.  Its traced pass wraps every function
    ``bench/traced.py`` names, so renaming one of them fails here."""
    script = Path(__file__).resolve().parents[1] / "bench" / "selftest.py"
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
