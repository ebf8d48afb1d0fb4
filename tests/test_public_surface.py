"""What the scripts, the benchmark and the acceptance suite use of the
package exists: every name they import from ``loadlaw`` or reach as
``loadlaw.<name>`` is exported, and every attribute the benchmark's
tracer wraps resolves. Without this, deleting a name that only they use
passes every other test."""

import ast
import importlib
import importlib.util
import pathlib

import loadlaw

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
