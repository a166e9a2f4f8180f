"""The library's public surface: every public top-level name has a caller in the library.

A public function or class that only tests reach is either given a job by an
experiment or deleted; a test oracle lives in the test that uses it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rf_lab"

# Public names allowed to go without a reference in the library.  Keep empty.
ALLOWED_UNREFERENCED = frozenset()


def unreferenced_names(sources: dict) -> list:
    """(module, name) of each public top-level def or class that no code refers to
    outside its own definition, in any of ``sources`` ({module: source text}).

    A reference is a loaded name (``f(...)``) or an attribute (``mod.f``);
    an import alone does not count.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    public = [
        (module, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]
    missing = []
    for module, definition in public:
        inside = {id(node) for node in ast.walk(definition)}
        referenced = any(
            id(node) not in inside
            and ((isinstance(node, ast.Name) and node.id == definition.name)
                 or (isinstance(node, ast.Attribute) and node.attr == definition.name))
            for tree in trees.values()
            for node in ast.walk(tree)
        )
        if not referenced:
            missing.append((module, definition.name))
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
        ),
        "b.py": "import a\nfrom a import only_imported\nx = a.used()\n",
    }
    assert unreferenced_names(sources) == [
        ("a.py", "recursive"), ("a.py", "Self"), ("a.py", "only_imported"),
    ]
