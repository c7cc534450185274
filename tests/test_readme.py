"""The README's user contract against the code: the CSV headers it shows,
the commands it lists, the package names and source paths it cites, and
the names the package root exports."""
import ast
import importlib
import re
from pathlib import Path

import bachet_lottery
from bachet_lottery import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = ROOT / "src" / "bachet_lottery"
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
HEADERS = {
    "values.csv": cli.VALUES_HEADER,
    "simulation.csv": cli.SIM_HEADER,
    "sweep.csv": cli.SWEEP_HEADER,
}


def csv_headers(text: str) -> dict[str, str]:
    """Each ``<name>.csv  <header>`` line of the text's code blocks."""
    return dict(re.findall(r"^(\w+\.csv) +(\S+)$", text, re.M))


def commands(text: str) -> tuple[str, ...]:
    """The backticked names on the text's ``Commands:`` line."""
    (line,) = re.findall(r"^Commands: (.*)$", text, re.M)
    return tuple(re.findall(r"`([^`]+)`", line))


def package_names(text: str) -> list[str]:
    """Every backticked ``module.name`` (or longer chain) whose module is
    one of the package's."""
    found = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text)
    return [name for name in found if name.split(".")[0] in MODULES]


def unresolved(names: list[str]) -> list[str]:
    """The names that ``getattr`` does not resolve from their module."""
    absent, missing = object(), []
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"bachet_lottery.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, absent)
        if obj is absent:
            missing.append(name)
    return missing


def test_csv_headers_are_the_writers():
    assert csv_headers(README) == {name: h.rstrip("\n") for name, h in HEADERS.items()}


def test_commands_are_the_clis():
    assert commands(README) == cli.COMMANDS


def test_package_names_resolve():
    names = package_names(README)
    assert names
    assert unresolved(names) == []


def test_source_paths_exist():
    paths = set(re.findall(r"src/bachet_lottery/\w+\.py", README))
    assert {f"src/bachet_lottery/{m}.py" for m in MODULES} <= paths
    assert [p for p in paths if not (ROOT / p).is_file()] == []


def module_line(text: str, module: str) -> str:
    """The ``Modules`` entry of ``src/bachet_lottery/<module>.py``, up to
    the next entry."""
    (entry,) = re.findall(rf"^- `src/bachet_lottery/{module}\.py` — .*?(?=^- )", text, re.M | re.S)
    return entry


def root_names(text: str) -> list[str]:
    """The backticked names that the ``Modules`` entry of the package root
    says it exports, in order."""
    (entry,) = re.findall(r"^- `bachet_lottery`, the package root, exports (.*?)(?=^- )",
                          text, re.M | re.S)
    return re.findall(r"`(\w+)`", entry)


def root_imports(source: str) -> set[str]:
    """The names that ``from bachet_lottery import ...`` takes in the source."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "bachet_lottery"
            and node.level == 0 for alias in node.names}


def test_root_names_are_the_exports():
    assert root_names(README) == bachet_lottery.__all__


def test_exports_are_bound():
    assert [name for name in bachet_lottery.__all__ if not hasattr(bachet_lottery, name)] == []


def test_demos_import_exports_only():
    assert DEMOS
    for demo in DEMOS:
        assert root_imports(demo.read_text()) <= set(bachet_lottery.__all__), demo.name


def test_engine_entry_names_the_sweeps_read_path():
    assert "`engine.values_at`" in module_line(README, "engine")


def test_checks_catch_a_perturbed_readme():
    # one wrong header cell, one misspelled name
    wrong_cell = README.replace("p_hat,std_err", "p_hat,stderr", 1)
    assert wrong_cell != README
    assert csv_headers(wrong_cell)["simulation.csv"] != cli.SIM_HEADER.rstrip("\n")
    misspelled = README.replace("`engine.fold`", "`engine.fould`", 1)
    assert misspelled != README
    assert unresolved(package_names(misspelled)) == ["engine.fould"]
    renamed = README.replace("`engine.values_at`", "`engine.values`", 1)
    assert "`engine.values_at`" not in module_line(renamed, "engine")
    # one export dropped from the root's entry, one added
    dropped = README.replace("`run_checks`, ", "", 1)
    assert dropped != README
    assert root_names(dropped) != bachet_lottery.__all__
    added = README.replace("`solve` and", "`solve`, `fold` and", 1)
    assert added != README
    assert root_names(added) != bachet_lottery.__all__
    # a demo that imports a name the root does not export
    demo = DEMOS[0].read_text().replace("    GameSpec,\n", "    GameSpec,\n    ValueTable,\n", 1)
    assert not root_imports(demo) <= set(bachet_lottery.__all__)
