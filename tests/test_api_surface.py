"""The program is the API: every definition in ``src/`` is reached by the program.

The program is every ``.py`` file under ``src/``, ``benchmarks/`` and
``examples/`` except files named ``test_*.py``.  A definition in ``src/`` (a
module-level function, class or constant, or a method) is reachable when its
name is used somewhere in the program outside its own lines.  A use is an
``ast.Name`` id, an ``ast.Attribute`` attr, or a string constant passed as the
second argument to ``getattr`` / ``hasattr`` / ``setattr``.  Import statements
and ``__all__`` hold neither, so an ``__init__`` re-export keeps nothing
alive.  A use inside a definition already found unreachable does not count
either, so the scan iterates until a dead chain (``a`` only called by ``b``,
``b`` only by tests) is gone whole.  Catalog builders registered with
``@_entry(...)``, dunder names and the ``ALLOWED`` names are roots.

The scan reads the AST rather than tokens: an f-string's expressions are
ordinary AST nodes on every supported Python, while the token stream of an
f-string changed in 3.12 (PEP 701).

A second scan finds write-only state: an attribute the program assigns
(``x.a = …``, ``x.a += …``) but never reads by name.  A read is an
``ast.Attribute`` or ``ast.Name`` load, or a string constant outside a
``__slots__`` assignment (``getattr`` names, column-name lists read through
``getattr``).  A ``__slots__`` entry and a class-body annotation (a dataclass
field) only declare an attribute, so a counter kept in either is flagged
too; dunders are exempt.

A third scan finds never-set configuration: a field of a ``@dataclass`` in
``src/`` whose class name ends in ``Config`` or ``Policy`` that no call in the
program sets.  A field is set when some call passes it by keyword, or by
position to its own class, or when it is a string key of a dict literal
splatted into a call (``f(**{"name": …})``).  A keyword whose value is an
attribute of the same name (``grace_period=self.grace_period``) only forwards
a value, so it sets nothing.  Such a field has one value in every run the
program can make: fold it into a module constant.  ``CALIBRATION`` exempts the
calibration surface (a class, or one ``Class.field``), with one reason each.

Run ``python tests/test_api_surface.py`` to print the unreachable names, the
write-only attributes and the never-set fields.
"""

from __future__ import annotations

import ast
import itertools
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "benchmarks", "examples")

#: name -> one-line reason it is kept though only tests reach it
ALLOWED: dict[str, str] = {}

#: ``Class`` or ``Class.field`` -> why the program need not set it
CALIBRATION: dict[str, str] = {
    "NetworkConfig": "fabric constants fitted to the paper's numbers (ROADMAP item 4)",
    "BehaviorConfig": "meta-data timing fitted to Tables III and IV (ROADMAP item 4)",
    "PopulationConfig": "population shares fitted to the paper's P4 data set (ROADMAP item 4)",
    "ScenarioConfig.network": "carries NetworkConfig, the calibration block",
    "ScenarioConfig.behaviors": "carries BehaviorConfig, the calibration block",
}


@dataclass(frozen=True)
class Definition:
    name: str
    path: Path
    start: int
    end: int

    def covers(self, path: Path, line: int) -> bool:
        return path == self.path and self.start <= line <= self.end

    def __str__(self) -> str:
        return f"{self.path.relative_to(ROOT)}:{self.start}: {self.name}"


def program_files() -> list[Path]:
    return sorted(
        path
        for folder in PROGRAM_DIRS
        for path in (ROOT / folder).rglob("*.py")
        if not path.name.startswith("test_")
    )


def _is_root(name: str, node: ast.stmt) -> bool:
    registered = any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_entry"
        for d in getattr(node, "decorator_list", ())
    )
    return registered or name in ALLOWED or (name.startswith("__") and name.endswith("__"))


def _definitions(path: Path, tree: ast.Module) -> list[Definition]:
    named: list[tuple[str, ast.stmt]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            named.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            named.append((node.name, node))
            named.extend(
                (member.name, member)
                for member in node.body
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            named.extend((t.id, node) for t in targets if isinstance(t, ast.Name))
    return [
        Definition(name, path, node.lineno, node.end_lineno)
        for name, node in named
        if not _is_root(name, node)
    ]


def _uses(tree: ast.Module) -> list[tuple[str, int]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr", "setattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            found.append((node.args[1].value, node.lineno))
    return found


def unreachable_definitions() -> list[Definition]:
    definitions: list[Definition] = []
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path in program_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        if (ROOT / "src") in path.parents:
            definitions.extend(_definitions(path, tree))
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((path, line))

    dead: list[Definition] = []
    alive = definitions
    while True:
        newly = [
            d
            for d in alive
            if not any(
                not d.covers(where, line) and not any(x.covers(where, line) for x in dead)
                for where, line in uses.get(d.name, ())
            )
        ]
        if not newly:
            return sorted(dead, key=lambda d: (str(d.path), d.start))
        dead.extend(newly)
        alive = [d for d in alive if d not in newly]


def write_only_attributes() -> dict[str, list[str]]:
    """Attribute name -> the ``path:line`` places the program assigns it,
    for every attribute the program never reads."""
    stores: dict[str, list[str]] = {}
    reads: set[str] = set()
    for path in program_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        declared = {
            id(constant)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
            for constant in ast.walk(node.value)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    where = f"{path.relative_to(ROOT)}:{node.lineno}"
                    stores.setdefault(node.attr, []).append(where)
                elif isinstance(node.ctx, ast.Load):
                    reads.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in declared
            ):
                reads.add(node.value)
    return {
        name: places
        for name, places in sorted(stores.items())
        if name not in reads and not (name.startswith("__") and name.endswith("__"))
    }


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def config_fields() -> dict[str, list[tuple[str, str]]]:
    """Class name -> its ``(field, "path:line")`` list in declaration order,
    for every ``*Config`` / ``*Policy`` dataclass in ``src/``."""
    fields: dict[str, list[tuple[str, str]]] = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith(("Config", "Policy"))
                and _is_dataclass(node)
            ):
                fields[node.name] = [
                    (member.target.id, f"{path.relative_to(ROOT)}:{member.lineno}")
                    for member in node.body
                    if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)
                ]
    return fields


def never_set_fields() -> list[str]:
    """``path:line: Class.field`` for every config field no call in the
    program sets (see the module docstring), the calibration surface aside."""
    keywords: set[str] = set()
    #: callee name -> most leading positional arguments any call passes it
    positional: dict[str, int] = {}
    for path in program_files():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            leading = itertools.takewhile(lambda arg: not isinstance(arg, ast.Starred), node.args)
            positional[callee] = max(positional.get(callee, 0), len(list(leading)))
            for keyword in node.keywords:
                value = keyword.value
                if keyword.arg is None and isinstance(value, ast.Dict):
                    keywords.update(
                        key.value
                        for key in value.keys
                        if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    )
                elif keyword.arg is not None and not (
                    isinstance(value, ast.Attribute) and value.attr == keyword.arg
                ):
                    keywords.add(keyword.arg)
    return [
        f"{where}: {cls}.{name}"
        for cls, fields in config_fields().items()
        if cls not in CALIBRATION
        for index, (name, where) in enumerate(fields)
        if f"{cls}.{name}" not in CALIBRATION
        and name not in keywords
        and index >= positional.get(cls, 0)
    ]


def test_every_src_definition_is_reached_by_the_program():
    unreached = "\n".join(map(str, unreachable_definitions()))
    assert not unreached, f"reached only from tests (delete, or allow with a reason):\n{unreached}"


def test_no_attribute_is_written_and_never_read():
    unread = "\n".join(
        f"{name}: {', '.join(places)}" for name, places in write_only_attributes().items()
    )
    assert not unread, f"assigned but never read (delete the state):\n{unread}"


def test_every_config_field_is_set_by_the_program():
    unset = "\n".join(never_set_fields())
    assert not unset, f"no program call sets these (fold each into a constant):\n{unset}"


def test_every_calibration_entry_names_a_config_field():
    fields = config_fields()
    names = set(fields)
    names.update(f"{cls}.{name}" for cls, members in fields.items() for name, _ in members)
    stale = sorted(set(CALIBRATION) - names)
    assert not stale, f"CALIBRATION names no *Config/*Policy class or field: {stale}"


if __name__ == "__main__":
    for definition in unreachable_definitions():
        print(definition)
    for name, places in write_only_attributes().items():
        print(f"write-only {name}: {', '.join(places)}")
    for place in never_set_fields():
        print(f"never-set {place}")
