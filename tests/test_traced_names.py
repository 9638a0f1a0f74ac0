"""Every callable that the benchmark's traced run wraps exists in lenswrt.

perfbench/tracing.py names its targets as "module:function" or
"module:Class.method" and looks each one up when it installs its spans; a
name deleted from lenswrt would fail only there.  The file is read, not
imported: its LAYERS literal is evaluated on its own.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import lenswrt

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_targets():
    tree = ast.parse(TRACING.read_text())
    node = next(
        stmt.value for stmt in tree.body
        if isinstance(stmt, ast.Assign) and [t.id for t in stmt.targets if isinstance(t, ast.Name)] == ["LAYERS"]
    )
    layers = eval(compile(ast.Expression(node), str(TRACING), "eval"), {"__builtins__": {}})
    return [target for targets in layers.values() for target in targets]


def test_every_traced_name_resolves():
    targets = traced_targets()
    assert targets
    missing = []
    for target in targets:
        module_name, attr = target.split(":")
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = isinstance(cls, type) and meth in cls.__dict__
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(target)
    assert not missing, missing


def test_cli_and_selftest_load_every_traced_module():
    # tracing.install looks each module up in sys.modules, after the
    # benchmark's CLI and worker processes have imported only lenswrt.cli
    # and lenswrt.selftest: a traced module that those imports leave
    # unloaded raises KeyError in every traced run
    modules = sorted({target.split(":")[0] for target in traced_targets()})
    script = "import json, sys; import lenswrt.cli, lenswrt.selftest; print(json.dumps(sorted(sys.modules)))"
    src = str(pathlib.Path(lenswrt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    loaded = set(json.loads(out.stdout))
    missing = [name for name in modules if name not in loaded]
    assert modules and not missing, missing
