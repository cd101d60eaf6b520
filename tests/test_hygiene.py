"""Source hygiene: no dead helpers, no unused imports, no stale README names.

Stdlib-only stand-in for a linter.  Names are collected from the syntax
tree, so a mention in a comment or a string does not count as a use.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import multilat

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "multilat"
SEARCHED = ("src", "tests", "demos", "perfbench")
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced_names(tree, skip=None):
    """Every identifier the tree reads, imports or reaches as an attribute,
    leaving out the subtree of ``skip``."""
    skipped = {id(node) for node in ast.walk(skip)} if skip else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _private_definitions(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def test_private_helpers_are_referenced():
    referenced = set()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            referenced |= _referenced_names(_tree(path))
    dead = [f"{path.name}:{name}" for path in MODULES
            for name in _private_definitions(_tree(path))
            if name not in referenced]
    assert not dead, f"private helpers named nowhere: {dead}"


def test_unexported_definitions_are_named_elsewhere():
    # a module-level function or class outside the public API must be
    # named by something other than its own definition; a name only the
    # tests use belongs in the tests
    trees = {path: _tree(path) for top in SEARCHED
             for path in (ROOT / top).rglob("*.py")}
    names = {path: _referenced_names(tree) for path, tree in trees.items()
             if not path.is_relative_to(ROOT / "tests")}
    dead = []
    for path in MODULES:
        elsewhere = set().union(*(found for other, found in names.items()
                                  if other != path))
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name not in multilat.__all__ \
                    and node.name not in elsewhere \
                    and node.name not in _referenced_names(trees[path],
                                                           skip=node):
                dead.append(f"{path.name}:{node.name}")
    assert not dead, f"definitions named nowhere else: {dead}"


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_imports_are_used(path):
    tree = _tree(path)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname
                                or alias.name.partition(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported if name not in used]
    assert not unused, f"{path.name} imports unused names: {unused}"


def _library_tour_rows():
    """(module, backticked identifiers) per row of the README's tour table."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Library tour")[1].split("\n\n")[1]
    for row in table.splitlines()[2:]:
        module, contents = row.strip("|").split("|")
        yield module.strip(" `"), re.findall(r"`([A-Za-z_]\w*)`", contents)


def test_readme_library_tour_names_exist():
    rows = list(_library_tour_rows())
    assert len(rows) == 6
    missing = [f"{module}.{name}" for module, names in rows for name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"README library tour names missing code: {missing}"


def _estimator_reasons():
    """The reason literals of ``estimators.py`` and ``geometry.py`` (whose
    ``ResultStack.put`` names non-finite rows): ``reason=`` keywords and
    ``info["reason"] =`` assignments."""
    values = []
    for node in (node for module in ("estimators.py", "geometry.py")
                 for node in ast.walk(_tree(PACKAGE / module))):
        if isinstance(node, ast.keyword) and node.arg == "reason":
            values.append(node.value)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Subscript)
                and isinstance(target.slice, ast.Constant)
                and target.slice.value == "reason"
                for target in node.targets):
            values.append(node.value)
    assert all(isinstance(value, ast.Constant) for value in values)
    return {value.value for value in values}


def test_readme_status_table_lists_the_estimators_reasons():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("| estimator | status | reason |")[1].split("\n\n")[0]
    documented = set()
    for row in table.splitlines()[2:]:
        _, status, reason = row.strip("|").split("|")[:3]
        if status.strip() == "`degenerate`":
            documented.update(re.findall(r'`"([^"]+)"`', reason))
    assert documented and documented == _estimator_reasons()


def test_readme_states_the_default_step_stop():
    # the README and the hyperbolic_ls docstring give the default tol
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"default `tol` = `([^`]+)`", readme)
    assert len(stated) == 1
    assert float(stated[0]) == multilat.estimators.STEP_TOL
    docstring = " ".join(multilat.hyperbolic_ls.__doc__.split())
    assert f"``STEP_TOL`` = {stated[0]} is" in docstring


def _python_floor():
    """requires-python's >= X.Y floor as (X, Y); tomllib is 3.11+, so it
    is read with a pattern."""
    floor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text(encoding="utf-8"),
                      re.MULTILINE)
    assert floor, "requires-python has no >= X.Y floor"
    return int(floor[1]), int(floor[2])


def test_sources_parse_at_the_python_floor():
    # the oldest interpreter requires-python admits must read every
    # source
    version = _python_floor()
    paths = [path for top in ("src", "tests", "demos")
             for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(paths) >= 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=version)


def test_ci_workflow_runs_both_suites_from_the_python_floor():
    # the workflow is read, not run: its lowest Python is the floor, and
    # its steps run ROADMAP's tier-1 command and the perfbench self-test
    import yaml

    workflow = yaml.safe_load(
        (ROOT / ".github" / "workflows" / "tier1.yml").read_text(
            encoding="utf-8"))
    assert {"push", "pull_request"} <= set(workflow[True])  # YAML 1.1 "on"
    (job,) = workflow["jobs"].values()
    versions = [tuple(map(int, str(v).split(".")))
                for v in job["strategy"]["matrix"]["python-version"]]
    assert min(versions) == _python_floor()
    runs = [step["run"].split() for step in job["steps"] if "run" in step]
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap)[1].split()

    def runs_tier1(words):
        # every word of the command, in order; reporting flags may be added
        rest = iter(words)
        return all(word in rest for word in tier1)

    assert any(runs_tier1(words) for words in runs)
    assert any("pytest" in words and words[-1] == "perfbench"
               for words in runs)


def test_runs_load_only_the_modules_they_use():
    # scipy.linalg serves only the weighted LM, yaml only YAML files,
    # and no run needs scipy.fft (GCC-PHAT picks its own FFT lengths);
    # a fresh interpreter is needed, as this one has imported them
    code = """
import sys
import numpy as np
from multilat import NoiseCovariance, hyperbolic_ls, true_rd_ref
from multilat.bench import (METHOD_NAMES, config_from_dict,
                            paper_table1_scenes, run_benchmark)
base = {"methods": list(METHOD_NAMES), "trials": 1, "seed": 3,
        "scene": {"kind": "paper_table1", "position": 1}}
grid = run_benchmark(config_from_dict({
    **base, "features": ["vad_on:raw", "vad_on:denoised"],
    "subsets": {"mode": "all_k_of_m", "k": 5},
    "noise": {"domain": "rd", "levels": [0.01]}}))
signal = run_benchmark(config_from_dict({
    **base, "features": ["vad_on:raw", "vad_off:denoised"],
    "subsets": {"mode": "full"},
    "noise": {"domain": "signal", "levels": [20.0], "duration_s": 0.5}}))
assert len(grid) == 2 * 56 * len(METHOD_NAMES), len(grid)
assert len(signal) == 2 * len(METHOD_NAMES), len(signal)
print(" ".join(name for name in ("scipy.linalg", "yaml", "scipy.fft")
               if name in sys.modules))
# the weighted LM loads scipy.linalg on first use
scene = paper_table1_scenes(1)[0]
rd = true_rd_ref(scene, 0)
weights = NoiseCovariance(np.diag(np.arange(1.0, rd.values.size + 1)))
result = hyperbolic_ls(rd, scene.mics, weights=weights)
assert result.status == "converged", result
assert np.linalg.norm(result.position - scene.source) < 1e-6
assert "scipy.linalg" in sys.modules
"""
    done = _fresh_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_import_starts_no_thread_machinery():
    # concurrent.futures, and the logging it loads, come with the two
    # calls that start threads, not with an import of the package
    done = _fresh_python("import sys, multilat\n"
                         "print(*(name for name in ('concurrent.futures',"
                         " 'logging') if name in sys.modules))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_blas_threads_do_not_change_the_records(tmp_path):
    # the stacked kernels' LAPACK and BLAS calls on one thread and on two:
    # all five methods on random 8-mic scenes, every 6-mic subset
    raw = {"methods": ["usrd-ls", "srd-ls", "conic", "conic-norm",
                       "hyperbolic"],
           "features": ["vad_on:raw", "vad_on:denoised"], "trials": 2,
           "seed": 11, "scene": {"kind": "random", "count": 2,
                                 "mic_count": 8, "bounds": 3.0},
           "subsets": {"mode": "all_k_of_m", "k": 6},
           "noise": {"domain": "rd", "kind": "outlier_mixture",
                     "levels": [0.02, 0.1]}}
    outputs = []
    for threads in ("1", "2"):
        path = tmp_path / f"records-{threads}.csv"
        done = _fresh_python(
            "from multilat.bench import (config_from_dict, run_benchmark,"
            " write_records_csv)\n"
            f"write_records_csv(run_benchmark(config_from_dict({raw!r})),"
            f" {str(path)!r})",
            env={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads})
        assert done.returncode == 0, done.stderr
        outputs.append(path.read_bytes())
    assert outputs[0].count(b"\n") == 1 + 5 * 2 * 28 * 2 * 2
    assert outputs[0] == outputs[1]


def _fresh_python(code, env=None):
    """Run ``code`` in a new interpreter that imports this checkout, with
    the variables ``env`` set on top of this process's environment."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
