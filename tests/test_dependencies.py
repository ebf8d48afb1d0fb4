"""The runtime dependencies declared in pyproject.toml and README are the
third-party modules the package imports, no more and no fewer; the
version is written once, in the package; no function in it calls
dataclasses.fields(); only curves._recursion compiles code; only ingest
imports orjson, and reads CSV numbers at one orjson.loads site without
cutting a whole input into lines; and the installed orjson reads numbers
as float() does."""

import ast
import decimal
import math
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "loadlaw"


def imported_third_party() -> set[str]:
    """Top-level names of the absolute imports in the package, stdlib dropped."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__"}


def declared() -> set[str]:
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in project["dependencies"]}


def test_pyproject_declares_exactly_the_imported_packages():
    assert imported_third_party() == declared() == {"numpy", "orjson"}


def test_version_is_stated_once_in_the_package():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert pyproject["project"]["dynamic"] == ["version"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "loadlaw._version.__version__"}


def test_readme_names_the_declared_packages():
    sentence = re.search(r"the runtime dependencies are ([^.;]+)", (ROOT / "README.md").read_text())
    assert sentence, "README has no 'the runtime dependencies are ...' sentence"
    assert set(re.split(r",\s*|\s+and\s+", sentence.group(1).strip())) == declared()


def test_no_function_in_the_package_calls_dataclasses_fields():
    """dataclasses.fields() builds a tuple on every call, and the columnar
    types are built and compared per call: a function reads the class's
    ``__dataclass_fields__`` instead. A module-level table may call it once."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # the names `from dataclasses import fields [as name]` binds
        names = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                 for alias in node.names if alias.name == "fields"}
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                calls += [f"{path.name}:{node.lineno}" for node in ast.walk(function)
                          if isinstance(node, ast.Call) and ast.unparse(node.func) in {"dataclasses.fields", *names}]
    assert calls == []


def test_only_the_recursion_builder_compiles_code():
    """exec and compile are called only in curves._recursion, which builds
    source from a stage grouping's integers; eval is called nowhere."""
    names = {"exec", "compile", "eval"}
    calls = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Call) and ast.unparse(node.func) in names | {f"builtins.{n}" for n in names}:
            calls.append((scope, ast.unparse(node.func)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    assert sorted(calls) == [("curves._recursion", "compile"), ("curves._recursion", "exec")]


def test_only_ingest_imports_orjson():
    """Every number text loadlaw reads or writes goes through ingest's
    readers and its one float encoder, _float_texts."""
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(module.split(".")[0] == "orjson" for module in modules):
                importers.add(path.stem)
    assert importers == {"ingest"}


def test_ingest_has_one_bulk_reader_and_cuts_no_whole_input_into_lines():
    """CSV numbers are read by one orjson.loads site, in _json_columns. And no
    line list of a whole input is made: str.splitlines runs only on one block
    the bulk reader refused (in _convert) and on one b"\\n"-ended piece (in
    _lines, which reads up to the header, and past it only to find the line
    of a row the value checks refused)."""
    calls = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in {"loads", "splitlines"} and ast.unparse(node.func) != "json.loads"):
            calls.append((scope, ast.unparse(node.func.value), node.func.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse((PACKAGE / "ingest.py").read_text()), "ingest")
    assert sorted(calls) == [("_convert", "block.decode('utf-8', 'surrogatepass')", "splitlines"),
                             ("_json_columns", "orjson", "loads"),
                             ("_lines", "text", "splitlines"), ("_lines", "text", "splitlines")]


def test_cli_reaches_only_the_pinned_argparse_internals():
    """The underscore attributes cli.py reads, dunders aside, are exactly the
    argparse internals it is known to need: a new one is a reviewed decision,
    as pyproject admits every Python from 3.10 and argparse's private names move."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    reached = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and node.attr.startswith("_") and not node.attr.endswith("__")}
    assert reached == {"_StoreAction", "_StoreTrueAction", "_actions", "_defaults",
                       "_negative_number_matcher", "_print_message"}


def _halfway_texts() -> list[str]:
    """The exact decimal halfway point between each anchor and the next
    double up, and decimals a hair below and above it (the last of 30 and
    of 60 significant digits), all of which a correctly rounding reader
    must round to the right side."""
    anchors = [0.0, 5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-5, 0.1,
               1.0, 123.456, 9007199254740992.0, 1e16, 1e23, 2.0 ** 64, 1.7976931348623155e308]
    texts = []
    with decimal.localcontext() as context:
        context.prec = 1200  # every double's exact decimal fits
        for anchor in anchors:
            low, high = decimal.Decimal(anchor), decimal.Decimal(math.nextafter(anchor, math.inf))
            middle = (low + high) / 2
            texts.append(format(middle, "e"))
            for digits in (30, 60):
                hair = decimal.Decimal(10) ** (middle.adjusted() - digits)
                texts += [format(middle - hair, "e"), format(middle + hair, "e")]
    return texts


# decimals on which readers are known to go wrong
HARD_DECIMALS = _halfway_texts() + [
    "2.2250738585072011e-308",  # hung Java's and PHP's readers
    "2.4703282292062327e-324", "2.4703282292062328e-324",  # either side of half the smallest subnormal
    "7.4109846876186981e-324", "7.4109846876186982e-324",  # either side of 1.5 times it
    "5e-324", "4.9406564584124654e-324",
    "9007199254740993.0", "9007199254740993e0", "9.007199254740993e15",  # 2**53 + 1
    "1.234567890123456789012345", "9.999999999999999999999999e22",  # 25 digits
    "1.234567890123456789012345678901234567890e-100", "0.9999999999999999999999999999999999999999",  # 40
    "0.1000000000000000055511151231257827021181583404541015625",  # 0.1 exactly
    "1.7976931348623157e308", "1.7976931348623158e308",  # rounds down to the largest finite value
    "1e-400", "18446744073709551616", str(10 ** 30),  # underflow to 0; integers orjson reads as floats
]


def test_installed_orjson_reads_hard_decimals_as_float_does():
    """pyproject admits any orjson>=3.8; ingest reads number columns with it,
    so one whose reader rounds differently must fail here rather than
    change parsed bits."""
    from loadlaw import ingest

    texts = HARD_DECIMALS + ["-" + text for text in HARD_DECIMALS]
    read = ingest._json_columns("\n".join(texts).encode(), (0,), (float,))
    assert read is not None, "orjson refused or retyped a hard decimal"
    assert [v.hex() for v in read[0].tolist()] == [float(text).hex() for text in texts]


def test_installed_orjson_reads_hard_decimals_in_a_plain_trace_as_float_does(monkeypatch):
    """A plain CSV block is read by one orjson call on its lines, not cut
    line by line: the corpus, as x_inst, must come through it as float() reads it."""
    from loadlaw import ingest

    cells, cut = ingest._cells, []
    monkeypatch.setattr(ingest, "_cells", lambda line: cut.append(line) or cells(line))
    trace = ingest.parse_trace("t,x_inst\n" + "".join(f"{t}.5,{text}\n" for t, text in enumerate(HARD_DECIMALS)))
    assert cut == ["t,x_inst"], "a body line was cut line by line, not read by one orjson call"
    assert [v.hex() for v in trace.x.tolist()] == [float(text).hex() for text in HARD_DECIMALS]
