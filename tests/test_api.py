"""The package's public surface."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

import arlabel
from arlabel.check import Labeling, save_labeling
from arlabel.graphs import path, save_graph


def test_every_exported_name_resolves():
    # An export that outlives the deletion of its object fails here, not at
    # a user's `from arlabel import *`.
    missing = [name for name in arlabel.__all__ if not hasattr(arlabel, name)]
    assert missing == []
    assert len(set(arlabel.__all__)) == len(arlabel.__all__)


def test_public_names_shadow_submodules_of_the_same_name():
    # Importing a submodule must not bind it over the public name: the
    # package's ``es`` is the function, whatever imported arlabel.es first.
    importlib.import_module("arlabel.es")
    import arlabel.es  # noqa: F401
    from arlabel import es, solver

    assert isinstance(es, types.FunctionType)
    assert es(3).value == 4
    assert isinstance(solver, types.ModuleType) and solver.__name__ == "arlabel.solver"


# Runs a statement in a fresh interpreter and prints, as its last line, the
# arlabel modules whose code ran: the "exec" audit event fires once per
# module body the import system executes.
_PROBE = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
bodies = []
sys.addaudithook(lambda event, args: event == "exec" and bodies.append(args[0]))
{statement}
pkg = Path(sys.argv[1]) / "arlabel"
ran = [c.co_filename for c in bodies if c.co_name == "<module>"]
print(json.dumps(sorted(Path(f).stem for f in ran if Path(f).parent == pkg)))
"""


def _modules_run(statement: str) -> set[str]:
    root = Path(arlabel.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", _PROBE.format(statement=statement), str(root)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


class TestModulesRunOnFirstUse:
    def test_import_runs_no_submodule(self):
        # dir() lists the public names without loading their modules.
        statement = "import arlabel; assert set(arlabel.__all__) <= set(dir(arlabel))"
        assert _modules_run(statement) == {"__init__"}

    def test_dss_check_runs_only_what_it_calls(self):
        ran = _modules_run('import arlabel.cli; arlabel.cli.main(["dss", "check", "1", "2", "4"])')
        assert "dss" in ran
        assert ran.isdisjoint({"solver", "reproduce", "es", "check"})

    def test_verify_runs_only_what_it_calls(self, tmp_path):
        save_graph(path(4), tmp_path / "g.json")
        save_labeling(Labeling((1, 2, 3)), tmp_path / "l.json")
        argv = ["verify", str(tmp_path / "g.json"), str(tmp_path / "l.json")]
        ran = _modules_run(f"import arlabel.cli; arlabel.cli.main({argv!r})")
        assert {"check", "dss"} <= ran
        assert ran.isdisjoint({"solver", "reproduce", "es", "orbits"})
