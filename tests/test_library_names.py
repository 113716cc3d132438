"""No orphaned names in the library.

Every module-level private name and every ALL_CAPS constant under
`src/semicert` must be read somewhere in the library outside the statement
that defines it: as a name, an attribute or an imported name.  A deletion
that leaves a helper or a tuning constant behind fails here.

Every name the package exports must be read by something other than the
tests that pin it: the library, `bench/`, the README's code, or the
acceptance criteria.  A function only its own unit tests call belongs in
`tests/helpers.py`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semicert"
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def defined_names(statement: ast.stmt) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def read_names(statement: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def checked(name: str) -> bool:
    if name.startswith("__") and name.endswith("__"):
        return False
    return name.startswith("_") or CONSTANT.fullmatch(name) is not None


def test_every_private_name_and_constant_is_read():
    statements = [
        (path.name, statement)
        for path in sorted(SRC.glob("*.py"))
        for statement in ast.parse(path.read_text()).body
    ]
    reads = [read_names(statement) for _, statement in statements]
    orphans = []
    for k, (module, statement) in enumerate(statements):
        for name in filter(checked, defined_names(statement)):
            if not any(name in names for m, names in enumerate(reads) if m != k):
                orphans.append(f"{module}: {name}")
    assert not orphans


def test_every_export_is_read_outside_the_unit_tests():
    exports = [
        alias.asname or alias.name
        for statement in ast.parse((SRC / "__init__.py").read_text()).body
        if isinstance(statement, ast.ImportFrom)
        for alias in statement.names
    ]
    reads = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            for statement in ast.parse(path.read_text()).body:
                reads |= read_names(statement) - set(defined_names(statement))
    for path in (ROOT / "bench").glob("*.py"):
        reads |= read_names(ast.parse(path.read_text()))
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    reads |= {
        alias.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    readme_code = " ".join(re.findall(r"`[^`\n]+`", (ROOT / "README.md").read_text()))
    reads |= set(re.findall(r"\w+", readme_code))
    assert [name for name in exports if name not in reads] == []


def test_every_public_method_is_read_outside_the_unit_tests():
    # A method or property that only unit tests read belongs in
    # `tests/helpers.py` as a function of the instance.
    methods = [
        f"{path.name}: {cls.name}.{item.name}"
        for path in sorted(SRC.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    ]
    sources = [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    reads = {
        node.attr
        for path in sources
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    readme = (ROOT / "README.md").read_text()
    readme_code = re.findall(r"```[^\n]*\n(.*?)```", readme, re.S) + re.findall(r"`[^`\n]+`", readme)
    reads |= set(re.findall(r"\.(\w+)", " ".join(readme_code)))
    assert [m for m in methods if m.rsplit(".", 1)[1] not in reads] == []
