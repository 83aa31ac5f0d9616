"""The repo's own lint gates, run as tests so they cannot rot.

``tools/check_construction.py`` enforces these boundaries (among others):

* concrete scheme classes (TdmNetwork, CircuitNetwork, WormholeNetwork)
  may only be constructed inside ``src/repro/networks/`` and ``tests/``
  — everything else resolves through
  ``repro.networks.registry.build_network``;
* ``multiprocessing`` / ``ProcessPoolExecutor`` may only appear inside
  ``src/repro/exec/`` and ``tests/`` — all process fan-out goes through
  ``repro.exec.map_cells``;
* the VOQs' private ``_queues`` / ``_starts`` may only be touched inside
  ``src/repro/nic/`` and ``tests/`` — schemes drain through ``repro.nic``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHECKER = REPO / "tools" / "check_construction.py"


def _run(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(CHECKER), *args], capture_output=True, text=True
    )


def test_repo_has_no_direct_scheme_construction():
    proc = _run()
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_checker_flags_a_direct_construction(tmp_path):
    bad = tmp_path / "rogue.py"
    bad.write_text(
        "from repro.networks.tdm import TdmNetwork\n"
        "net = TdmNetwork(params, k=4, mode='dynamic')\n"
    )
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert "rogue.py:2" in proc.stdout
    assert "TdmNetwork" in proc.stdout


def test_checker_flags_attribute_construction(tmp_path):
    bad = tmp_path / "rogue.py"
    bad.write_text(
        "import repro.networks.circuit as c\nnet = c.CircuitNetwork(params)\n"
    )
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert "CircuitNetwork" in proc.stdout


def test_checker_ignores_registry_style_code(tmp_path):
    ok = tmp_path / "fine.py"
    ok.write_text(
        "from repro.networks.registry import RunSpec, build_network\n"
        "net = build_network(RunSpec('dynamic-tdm', params))\n"
    )
    proc = _run(str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_checker_flags_multiprocessing_import(tmp_path):
    bad = tmp_path / "rogue.py"
    bad.write_text("import multiprocessing\npool = multiprocessing.Pool(4)\n")
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert "rogue.py:1" in proc.stdout
    assert "multiprocessing" in proc.stdout
    assert "repro.exec.map_cells" in proc.stdout


def test_checker_flags_from_multiprocessing_import(tmp_path):
    bad = tmp_path / "rogue.py"
    bad.write_text("from multiprocessing import Pool\n")
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert "rogue.py:1" in proc.stdout


def test_checker_flags_process_pool_executor(tmp_path):
    bad = tmp_path / "rogue.py"
    bad.write_text(
        "from concurrent.futures import ProcessPoolExecutor\n"
        "with ProcessPoolExecutor() as pool:\n    pass\n"
    )
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert "ProcessPoolExecutor" in proc.stdout


def test_checker_allows_thread_pool_executor(tmp_path):
    # the boundary is about *process* fan-out; thread pools carry no
    # seed/reset determinism hazard and stay legal everywhere
    ok = tmp_path / "fine.py"
    ok.write_text(
        "from concurrent.futures import ThreadPoolExecutor\n"
        "with ThreadPoolExecutor() as pool:\n    pass\n"
    )
    proc = _run(str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_repro_exec_is_exempt_from_the_pool_rule():
    # the engine itself obviously uses ProcessPoolExecutor; the default
    # run (exercised above) must not flag it
    engine = REPO / "src" / "repro" / "exec" / "engine.py"
    assert "ProcessPoolExecutor" in engine.read_text()


def test_checker_flags_private_voq_access(tmp_path):
    bad = tmp_path / "rogue.py"
    bad.write_text(
        "head = nic.voqs._queues[v][0]\n"
        "if id(head) not in nic.voqs._starts:\n"
        "    nic.voqs._starts[id(head)] = t\n"
    )
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert "rogue.py:1" in proc.stdout and "._queues" in proc.stdout
    assert "rogue.py:2" in proc.stdout and "._starts" in proc.stdout
    assert "repro.nic" in proc.stdout


def test_repro_nic_is_exempt_from_the_voq_rule():
    # the queues and the slot drain own that state; the default run
    # (exercised above) must not flag them
    nic = REPO / "src" / "repro" / "nic"
    assert "._starts" in (nic / "nic.py").read_text()
    assert "._queues" in (nic / "queues.py").read_text()
