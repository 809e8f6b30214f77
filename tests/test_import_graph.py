"""The package's import graph: lazy namespaces and cheap set-up paths.

Every package ``__init__`` but two resolves its re-exports on first
attribute access (``repro.lazy_namespace``), so a process imports only
the submodules it uses.  These checks hold that in place:

- ``import repro`` loads no ``repro`` submodule;
- the benchmark's set-up paths and ``python -m repro --help`` load none
  of the heavy modules (SQLite, the process pool, the learner, the
  kernel);
- every name in every package ``__all__`` resolves to its defining
  submodule's object, and each package's lazy map, ``TYPE_CHECKING``
  block and ``__all__`` list the same names;
- a serial sweep task imports nothing new: pool workers fork from the
  parent on every sweep, so a module first imported inside a task would
  be imported again by every worker of every sweep.

Whatever reads ``sys.modules`` runs in a fresh interpreter, since this
test process has imported everything already.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in SRC.joinpath("repro").rglob("__init__.py")
)
assert "repro.sim" in PACKAGES, PACKAGES

#: modules no set-up path may load
HEAVY = (
    "sqlite3",
    "multiprocessing",
    "concurrent.futures",
    "xml.etree",
    "repro.core",
    "repro.sim.kernel",
    "repro.runner",
)


def run_fresh(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter on this checkout; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def modules_loaded_by(code: str) -> set:
    """The modules ``code`` adds to a fresh interpreter's ``sys.modules``."""
    probe = (
        "import sys\nbefore = set(sys.modules)\n" + code
        + "\nimport json\nprint(json.dumps(sorted(set(sys.modules) - before)))"
    )
    return set(json.loads(run_fresh(probe).splitlines()[-1]))


def heavy_in(modules: set) -> list:
    return sorted(
        m for m in modules for heavy in HEAVY
        if m == heavy or m.startswith(heavy + ".")
    )


class TestColdImports:
    def test_import_repro_loads_no_submodule(self):
        loaded = modules_loaded_by("import repro")
        assert sorted(m for m in loaded if m.startswith("repro.")) == []

    def test_serve_stream_setup_path(self):
        loaded = modules_loaded_by(
            "from repro.experiments.environments import fleet_for\n"
            "from repro.service.arrivals import TraceArrivals\n"
            "from repro.service.jobs import Job\n"
            "TraceArrivals([Job(job_id=0, tenant='a', workflow='montage',\n"
            "                   size=20, arrival_time=0.0, workflow_seed=0)])\n"
            "fleet_for(16)\n"
        )
        assert heavy_in(loaded) == []

    def test_paper_grid_setup_path(self):
        loaded = modules_loaded_by(
            "from repro.workflows.registry import make_workflow\n"
            "make_workflow('montage', 50, seed=0)\n"
        )
        assert heavy_in(loaded) == []

    def test_cli_help(self):
        # what ``python -m repro --help`` runs
        loaded = modules_loaded_by(
            "import runpy, sys\nsys.argv = ['repro', '--help']\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
            "except SystemExit:\n    pass\n"
        )
        assert "repro.cli" in loaded
        for module in ("sqlite3", "multiprocessing", "repro.core", "repro.sim.kernel"):
            assert module not in loaded

    def test_sweep_task_imports_nothing_new(self):
        out = run_fresh(
            "import sys\n"
            "import repro.experiments.sweeps\n"
            "from repro.core.sweep import sweep_tasks\n"
            "from repro.experiments.environments import fleet_for\n"
            "from repro.runner import ParallelRunner\n"
            "from repro.workflows.montage import montage\n"
            "tasks = sweep_tasks(montage(25, seed=0), fleet_for(16), alphas=[0.5],\n"
            "                    gammas=[1.0], epsilons=[0.1], episodes=2)\n"
            "before = set(sys.modules)\n"
            "ParallelRunner(workers=1).run(tasks[:1])\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             if m == 'repro' or m.startswith('repro.')))\n"
        )
        assert out.splitlines()[-1] == "[]"


# -- the lazy namespaces --------------------------------------------------------


def _is_type_checking(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"


def namespace_facts(package: str):
    """What a package ``__init__`` declares, read from its source.

    Returns ``(lazy, typed, eager, origin)``: the names in its
    ``lazy_namespace`` call, the names its ``TYPE_CHECKING`` block
    imports, the names bound eagerly at module level, and the module
    each imported name comes from.
    """
    path = SRC.joinpath(*package.split("."), "__init__.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lazy, typed, eager, origin = set(), set(), set(), {}
    for node in tree.body:
        if _is_type_checking(node):
            for stmt in node.body:
                assert isinstance(stmt, ast.ImportFrom), ast.unparse(stmt)
                for alias in stmt.names:
                    typed.add(alias.asname or alias.name)
                    origin[alias.asname or alias.name] = stmt.module
            continue
        if isinstance(node, ast.ImportFrom) and node.module.startswith("repro"):
            for alias in node.names:
                eager.add(alias.asname or alias.name)
                origin[alias.asname or alias.name] = node.module
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            eager.add(node.name)
        elif isinstance(node, ast.Assign):
            call = node.value
            if isinstance(call, ast.Call) and ast.unparse(call.func) == "lazy_namespace":
                for names in ast.literal_eval(call.args[1]).values():
                    lazy.update(names)
                for keyword in call.keywords:
                    assert keyword.arg == "submodules"
                    lazy.update(ast.literal_eval(keyword.value))
                continue
            for target in node.targets:
                eager.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return lazy, typed, eager, origin


class TestLazyNamespaces:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_lazy_map_type_checking_block_and_all_agree(self, package):
        names = importlib.import_module(package).__all__
        lazy, typed, eager, _origin = namespace_facts(package)
        assert len(names) == len(set(names)), "duplicate name in __all__"
        assert lazy == typed
        assert lazy <= set(names)
        assert not lazy & eager, "a name is both lazy and eager"
        assert set(names) - lazy <= eager, "an __all__ name is never bound"

    def test_only_workflows_and_analysis_stay_eager(self):
        eager_exports = {}
        for package in PACKAGES:
            _lazy, _typed, eager, origin = namespace_facts(package)
            names = set(importlib.import_module(package).__all__)
            imported = {n for n in names & eager if n in origin}
            if imported:
                eager_exports[package] = imported
        assert sorted(eager_exports) == ["repro.analysis", "repro.workflows"]
        assert eager_exports["repro.workflows"] == {
            "MontageRecipe", "montage", "CyberShakeRecipe", "cybershake",
            "EpigenomicsRecipe", "epigenomics", "InspiralRecipe", "inspiral",
            "SiphtRecipe", "sipht",
        }

    @pytest.mark.parametrize("submodules_first", [False, True],
                             ids=["names-first", "submodules-first"])
    def test_every_name_resolves_to_its_definition(self, submodules_first):
        # the expected object is the defining module's binding; importing
        # every submodule first is the order in which a package attribute
        # named like a submodule would be shadowed by the module
        expected = {}
        for package in PACKAGES:
            _lazy, _typed, _eager, origin = namespace_facts(package)
            expected[package] = origin
        out = run_fresh(
            "import importlib, json, pkgutil, sys, types\n"
            "expected = json.loads(sys.argv[1])\n"
            "if sys.argv[2] == 'yes':\n"
            "    import repro\n"
            "    for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "        if not info.name.endswith('__main__'):\n"
            "            importlib.import_module(info.name)\n"
            "bad = []\n"
            "for package, origin in expected.items():\n"
            "    module = importlib.import_module(package)\n"
            "    for name in module.__all__:\n"
            "        got = getattr(module, name)\n"
            "        source = origin.get(name)\n"
            "        if source is None:\n"
            "            continue\n"
            "        if source == package:\n"
            "            want = importlib.import_module(f'{package}.{name}')\n"
            "        else:\n"
            "            want = getattr(importlib.import_module(source), name)\n"
            "        if got is not want:\n"
            "            bad.append(f'{package}.{name}')\n"
            "    assert set(module.__all__) <= set(dir(module)), package\n"
            "import repro.workflows\n"
            "assert isinstance(repro.workflows.montage, types.FunctionType)\n"
            "print(json.dumps(bad))\n",
            json.dumps(expected), "yes" if submodules_first else "no",
        )
        assert json.loads(out.splitlines()[-1]) == []

    def test_unknown_name_is_an_attribute_error(self):
        import repro.sim

        with pytest.raises(AttributeError, match="'repro.sim' has no attribute 'nope'"):
            repro.sim.nope
        assert not hasattr(repro.sim, "nope")
