"""What ``import oevsim.cli`` loads, checked in fresh interpreters.

Every command pays for the modules that importing the CLI loads, so the
modules that only some commands use are imported where they are used:
``yaml`` by the commands that read a scenario, ``hashlib`` and ``json`` by
``verify``.  ``cli.ProcessPoolExecutor`` is a placeholder class that loads
nothing when read.  The benchmark's tracer (``perfbench/tracing.py``), which
rewires the package's functions by name, is installed in one too.  Last,
the set arithmetic of the line tracer ``tools/line_set.py``.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import BUNDLED_ATTACK, load_file
from test_golden import CSV_SHA256

SRC = Path(__file__).resolve().parent.parent / "src"
PERFBENCH = SRC.parent / "perfbench"


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


def test_the_benchmark_tracer_counts_every_layer_of_the_chain(tmp_path):
    # A traced name that is renamed fails the install; one that is bypassed
    # leaves its count at 0 or breaks an equality.
    proc = run_fresh(
        "import json, math, sys\n"
        "from pathlib import Path\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import tracing\n"
        "tracer = tracing.Tracer(Path(sys.argv[2]))\n"
        "tracer.install()\n"
        "from oevsim import LoanPosition, PoolState, RiskParams, best_strategy, load_config\n"
        "from oevsim import optimize_attack\n"
        "# conftest's STD and pool_at(1850.0): the marginal phase ends on the recovery bound.\n"
        "pool = PoolState(math.sqrt(2e9 / 1850.0), math.sqrt(2e9 * 1850.0), 0.0)\n"
        "best_strategy(LoanPosition(6.0, 1e4), pool, RiskParams(0.85, 0.05, 0.8, 0.5))\n"
        "cfg = load_config(sys.argv[3])\n"
        "optimize_attack(*cfg.state_at(), cfg.risk)\n"
        "print(json.dumps(tracing.layer_metrics(*tracer.collect(), tracer.names)))\n",
        str(PERFBENCH), str(tmp_path), str(BUNDLED_ATTACK),
    )
    m = json.loads(proc.stdout)
    # Each best_strategy runs both threshold pairs through the public chain by name.
    assert (m["engine.run_liquidation.calls"] == 2 * m["engine.best_strategy.calls"]
            == m["lending.compute_bounds.calls"] > 0)
    # The chain solves recovery roots and sizes closing trades through the traced leaves.
    assert m["lending.bound_closing.branch.quadratic"] > 0 and m["engine.final_tranche.calls"] > 0
    # The search compares floats; only each returned size is an attack_profit call.
    assert m["attack.attack_profit.calls"] == m["attack.optimize_attack.calls"] > 0


def test_line_set_compares_runs_over_the_lines_a_diff_leaves_unchanged(tmp_path):
    line_set = load_file(SRC.parent / "tools" / "line_set.py")
    old = ["def f(x):", "    if x:", "        return 1", "    return 2"]
    new = ["def f(x):", "    y = x", "    if y:", "            return 1", "    return 2"]
    (tmp_path / "f.py").write_text("\n".join(old))
    assert line_set.executable_lines(tmp_path / "f.py") == {1, 2, 3, 4}
    # An edited line is its own side's; an unchanged one pairs up, reindented or not.
    got = line_set.diff({"mode": "a", "files": {"f.py": {"run": [1, 2, 3], "source": old}}},
                        {"mode": "b", "files": {"f.py": {"run": [1, 2, 3, 4, 5], "source": new}}})
    assert got["counts"] == {"only_a": 1, "only_b": 3} and got["only_a"] == {"f.py": {"2": "if x:"}}
    assert got["only_b"] == {"f.py": {"2": "y = x", "3": "if y:", "5": "return 2"}}
