import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path
from unittest.mock import MagicMock

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _section_code(title: str) -> str:
    """The first ```python block after the ``## title`` heading."""
    text = README.read_text()
    section = text[text.index(f"## {title}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs(capsys):
    # the documented API, field names included, must match the code
    exec(compile(_section_code("Library sketch"), str(README), "exec"), {})
    steps, dt, split_error = capsys.readouterr().out.splitlines()[0].split()
    assert int(steps) == 146
    assert float(dt) == pytest.approx(14.0 / 146)
    assert 5e-6 <= float(split_error) <= 2e-5


def test_layer_tool_names_only_existing_attributes():
    # tools/bench_layers.py reaches into the package by attribute; a rename
    # in src/ would otherwise break it silently
    tree = ast.parse((ROOT / "tools" / "bench_layers.py").read_text())
    modules = ("wavepacket", "ion_emulator", "spin_algebra", "sweep_integrator",
               "cli")
    named = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id in modules}
    assert {module for module, _ in named} == set(modules)
    for module, attribute in sorted(named):
        package = importlib.import_module(f"maxwellsim.{module}")
        assert hasattr(package, attribute), f"{module}.{attribute}"


def _bench_tracing():
    """``bench/tracing.py``, which imports the standard library alone and
    so loads by path."""
    path = ROOT / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_bench_traced_names_resolve():
    # bench/tracing.py wraps these lookups for `bench/run.py --trace 1`; a
    # rename in the package would otherwise surface only there
    tracing = _bench_tracing()
    for module, attribute in tracing.TRACED + tracing.PARSE:
        target = getattr(importlib.import_module(module), attribute, None)
        assert callable(target), f"{module}.{attribute}"


def test_bench_traced_arguments_are_parameters():
    # the work counts read a traced call's arguments by name, through
    # signature.bind; a renamed parameter would otherwise surface only as a
    # KeyError in a `--trace 1` run
    for name, counts in _bench_tracing()._COUNTS.items():
        module, _, attribute = name.partition(".")
        fn = getattr(importlib.import_module(f"maxwellsim.{module}"), attribute)
        arguments = MagicMock()
        counts(arguments)
        read = {call.args[0] for call in arguments.__getitem__.call_args_list}
        assert read, name
        assert read <= set(inspect.signature(fn).parameters), name
