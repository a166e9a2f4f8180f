"""The library's public surface: every public top-level name, and every public
member of a public class, has a reader in the library.

A public function, class, method, property or field that only tests reach is
either given a job by an experiment or deleted; a test oracle lives in the
test that uses it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rf_lab"

# Public names allowed to go without a reference in the library.  Keep empty.
ALLOWED_UNREFERENCED = frozenset()


def _public_definitions(trees: dict):
    """(module, name, node) of each public top-level def or class and, as
    "Class.member", of each public method, property and annotated field
    (dataclass or NamedTuple) of a public class."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield module, node.name, node
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield module, f"{node.name}.{name}", member


def unreferenced_names(sources: dict) -> list:
    """(module, name) of each public definition that no code refers to outside
    its own definition, in any of ``sources`` ({module: source text}).

    A top-level def or class is referenced by a loaded name (``f(...)``) or an
    attribute (``mod.f``); an import alone does not count.  A class member is
    referenced by an attribute read (``obj.member``) of its name anywhere else,
    its own class's other methods included.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    missing = []
    for module, qualname, definition in _public_definitions(trees):
        name = qualname.rpartition(".")[2]
        is_member = "." in qualname
        inside = {id(node) for node in ast.walk(definition)}
        referenced = any(
            id(node) not in inside
            and ((isinstance(node, ast.Attribute) and node.attr == name
                  and (not is_member or isinstance(node.ctx, ast.Load)))
                 or (not is_member and isinstance(node, ast.Name) and node.id == name))
            for node in nodes
        )
        if not referenced:
            missing.append((module, qualname))
    return missing


def test_every_public_name_has_a_library_caller():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert "features.py" in sources and "cli.py" in sources
    missing = [entry for entry in unreferenced_names(sources) if entry[1] not in ALLOWED_UNREFERENCED]
    assert missing == []


def test_guard_sees_imports_self_reference_and_attributes():
    sources = {
        "a.py": (
            "def used():\n    return 1\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "class Self:\n    def copy(self):\n        return Self()\n"
            "def only_imported():\n    pass\n"
            "def _private():\n    pass\n"
            "class Record:\n"
            "    read: int\n"
            "    unread: int\n"
            "    def method(self):\n        return 0\n"
            "class _Hidden:\n    field: int\n    def method(self):\n        pass\n"
        ),
        "b.py": (
            "import a\nfrom a import only_imported\nx = a.used()\n"
            "def _show(record: a.Record):\n    record.unread = 0  # a write is not a read\n    return record.read\n"
        ),
    }
    assert unreferenced_names(sources) == [
        ("a.py", "recursive"), ("a.py", "Self"), ("a.py", "Self.copy"), ("a.py", "only_imported"),
        ("a.py", "Record.unread"), ("a.py", "Record.method"),
    ]
