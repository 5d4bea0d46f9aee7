"""What ``import oevsim.cli`` loads, checked in fresh interpreters.

Every command pays for the modules that importing the CLI loads, so the
modules that only some commands use are imported where they are used:
``yaml`` by the commands that read a scenario, ``hashlib`` and ``json`` by
``verify``.  ``cli.ProcessPoolExecutor`` is a placeholder class that loads
nothing when read.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from test_golden import CSV_SHA256

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports oevsim from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_loads_no_module_that_only_some_commands_use():
    loaded = set(run_fresh("import sys, oevsim.cli; print(*sys.modules)").stdout.split())
    assert not loaded & {"yaml", "concurrent.futures", "hashlib", "json"}
    # oevsim/__init__.py re-exports the oracles, so importing any submodule
    # loads them; the benchmark's tracer (perfbench/tracing.py) relies on that.
    assert "oevsim.oracles" in loaded


def test_process_pool_executor_placeholder_loads_nothing():
    run_fresh(
        "import sys\n"
        "import oevsim.cli as cli\n"
        "base = cli.ProcessPoolExecutor\n"
        "assert not {'concurrent.futures', 'multiprocessing'} & set(sys.modules)\n"
        "# The benchmark harness subclasses it and assigns the subclass back.\n"
        "class Counted(base):\n"
        "    pass\n"
        "cli.ProcessPoolExecutor = Counted\n"
        "assert cli.ProcessPoolExecutor is Counted\n"
        "try:\n"
        "    cli.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('cli.no_such_name did not raise')\n"
    )


def test_reproduce_and_verify_run_without_yaml(tmp_path):
    out = tmp_path / "ex1.csv"
    proc = run_fresh(
        "import sys\n"
        "sys.modules['yaml'] = None  # any import of yaml raises ImportError\n"
        "from oevsim.cli import main\n"
        "assert main(['reproduce', 'ex1', '--out', sys.argv[1]]) == 0\n"
        "assert main(['verify', '--instances', '1']) == 0\n",
        str(out),
    )
    assert "verification passed" in proc.stdout
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_SHA256["reproduce", "ex1"]
