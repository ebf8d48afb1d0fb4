"""What the scripts, the benchmark, the acceptance suite and the README
use of the package exists: every name they import from ``loadlaw`` or
reach as ``loadlaw.<name>`` is exported, every attribute the benchmark's
tracer wraps resolves, and the README's Library section runs and names
only attributes that exist. Without this, deleting a name that only they
use passes every other test."""

import ast
import importlib
import importlib.util
import pathlib
import re

import loadlaw
from loadlaw import report

from .conftest import capped_pool_series, three_stage_profile

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLERS = sorted([*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
                  ROOT / "tests" / "test_acceptance.py"])


def used_names(path: pathlib.Path) -> set[tuple[str, str]]:
    """(module, name) of each ``from loadlaw... import name`` and each
    ``loadlaw.name`` attribute in the file at ``path``."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "loadlaw":
            used.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "loadlaw":
            used.add(("loadlaw", node.attr))
    return used


def is_submodule(name: str) -> bool:
    return importlib.util.find_spec(f"loadlaw.{name}") is not None


def test_every_name_the_callers_use_is_public():
    assert ("loadlaw", "solve_oracle") in used_names(ROOT / "perfbench" / "check.py")
    missing = []
    for path in CALLERS:
        for module, name in sorted(used_names(path)):
            if module == "loadlaw":
                if name not in loadlaw.__all__ and not is_submodule(name):
                    missing.append(f"{path.name}: loadlaw.{name}")
            elif not hasattr(importlib.import_module(module), name):
                missing.append(f"{path.name}: {module}.{name}")
    assert not missing, f"names the package does not export: {missing}"


def test_every_wrap_point_of_the_benchmark_tracer_resolves():
    # perfbench/tracing.py imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = []
    for module, attr, _ in tracing.WRAP_POINTS:
        target = importlib.import_module(module)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            unresolved.append(f"{module}.{attr}")
    assert not unresolved, f"wrap points whose spans would go missing: {unresolved}"


def readme_library_section() -> str:
    text = (ROOT / "README.md").read_text()
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_the_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", readme_library_section(), re.M | re.S)
    assert blocks, "the Library section has no python example"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_every_public_attribute_the_readme_library_names_resolves():
    prose = re.sub(r"^```.*?^```", "", readme_library_section(), flags=re.M | re.S)
    named = {(name, attr) for span in re.findall(r"`([^`]+)`", prose)
             for name, attr in re.findall(r"\b([A-Za-z_]\w*)\.([A-Za-z_]\w*)", span)
             if name in loadlaw.__all__}
    assert ("Report", "to_dict") in named
    missing = sorted(f"{name}.{attr}" for name, attr in named
                     if not hasattr(getattr(loadlaw, name), attr))
    assert not missing, f"README names attributes that do not exist: {missing}"


def test_report_calls_every_wrapped_function_through_its_module_name(monkeypatch):
    """The tracer replaces ``loadlaw.report.<name>``; a report that kept its
    own reference to one of these functions would bypass it, and the
    benchmark would lose that layer's spans."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    calls = {}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for module, attr, _ in tracing.WRAP_POINTS:
        if module == "loadlaw.report" and "." not in attr:
            calls[attr] = 0
            monkeypatch.setattr(report, attr, counting(attr, getattr(report, attr)))
    assert len(calls) == 9
    series = capped_pool_series(configured_think_time=1.0)
    report.diagnose_series(series, three_stage_profile(think_time=0.0))
    report.diagnose_series(series)
    report.audit_series(series)
    assert [name for name, count in calls.items() if not count] == []
