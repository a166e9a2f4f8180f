"""The library's public surface: every public top-level name, and every public
member of a public class, has a reader in the library, and every default of a
public parameter or field is one the library both sets and leaves.

A public function, class, method, property or field that only tests reach is
either given a job by an experiment or deleted; a test oracle lives in the
test that uses it.  A default that every library call overrides is dead, and
one that no library call overrides is a constant: either way it goes.  And
every parameter a CLI command declares is one its command function reads.
"""

import ast
import math
from pathlib import Path

from rf_lab.cli import COMMANDS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rf_lab"

# Public names allowed to go without a reference in the library.  Keep empty.
ALLOWED_UNREFERENCED = frozenset()
# Defaults allowed to go unset or always set, as (module, name, parameter).
# kernel_backend's act_name is passed only by the benchmark harness, which
# reads the function; both go with the harness's next revision.
ALLOWED_DEFAULTS = frozenset({("trainer.py", "kernel_backend", "act_name")})


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


def _is_record_class(node) -> bool:
    """A dataclass (``@dataclass`` or ``@dataclass(...)``) or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(n, ast.Name) and n.id in ("dataclass", "NamedTuple") for n in decorators + node.bases)


def _parameters(node, is_member: bool):
    """(positional names, defaulted names) of a def, without a method's self or
    cls, or of a record class's constructor, from its annotated fields."""
    if isinstance(node, ast.ClassDef):
        fields = [m for m in node.body if isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name)]
        return [f.target.id for f in fields], [f.target.id for f in fields if f.value is not None]
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    if is_member and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list):
        positional = positional[1:]
    return positional, defaulted


def _callee(node):
    """The name a call target or a value refers to: ``f`` or ``obj.f``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def unset_defaults(sources: dict) -> list:
    """(module, name, parameter, problem) of each default of a public function,
    method or record-class field that no call in ``sources`` passes ("never
    set") or that every call passes ("never left out").

    A call names its callee as ``f(...)`` or ``obj.f(...)``, or hands it to
    ``functools.partial`` with arguments that count as passed; only direct calls
    count as leaving a value out.  A positional, keyword, ``*args`` or
    ``**kwargs`` argument passes a parameter it can reach.  A function the
    library uses as a value, such as an activation stored in a feature sample,
    is called where its caller cannot be read, so it is exempt.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    calls, callees = {}, set()
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        target, args, direct = node.func, node.args, True
        if _callee(target) == "partial" and args:
            callees.add(id(target))
            target, args, direct = args[0], args[1:], False
        callees.add(id(target))
        calls.setdefault(_callee(target), []).append((args, node.keywords, direct))
    values = {
        _callee(node) for node in nodes
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load) and id(node) not in callees
    }
    problems = []
    for module, qualname, definition in _public_definitions(trees):
        name = qualname.rpartition(".")[2]
        if isinstance(definition, ast.ClassDef):
            if not _is_record_class(definition):
                continue
        elif not isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef)) or name in values:
            continue
        positional, defaulted = _parameters(definition, "." in qualname)
        for parameter in defaulted:
            index = positional.index(parameter) if parameter in positional else math.inf  # keyword-only
            passed = [
                any(isinstance(a, ast.Starred) for a in args) or index < len(args)
                or any(k.arg in (parameter, None) for k in keywords)
                for args, keywords, _ in calls.get(name, [])
            ]
            left_out = [not p for p, (_, _, direct) in zip(passed, calls.get(name, [])) if direct]
            if not any(passed):
                problems.append((module, qualname, parameter, "never set"))
            elif not any(left_out):
                problems.append((module, qualname, parameter, "never left out"))
    return problems


def test_every_default_is_set_by_one_library_call_and_left_by_another():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    problems = unset_defaults(sources)
    assert [p for p in problems if p[:3] not in ALLOWED_DEFAULTS] == []
    # the allowance is still needed
    assert {p[:3] for p in problems} >= ALLOWED_DEFAULTS


def test_defaults_guard_sees_positions_keywords_partial_records_and_values():
    sources = {
        "a.py": (
            "from dataclasses import dataclass\n"
            "def mixed(x, y=1, *, z=2):\n    pass\n"
            "def unset(x, y=1):\n    pass\n"
            "def always(x, y=1):\n    pass\n"
            "def by_partial(x, y=1):\n    pass\n"
            "def activation(z, out=None):\n    pass\n"
            "def _private(x=1):\n    pass\n"
            "class Tool:\n    def run(self, n=1):\n        pass\n"
            "@dataclass\nclass Record:\n    a: int\n    b: int = 0\n    c: int = 1\n    d: int = 2\n"
            "class Plain:\n    a: int = 0\n"
        ),
        "b.py": (
            "import a\nfrom functools import partial\n"
            "a.mixed(0)\na.mixed(0, 5)\na.mixed(0, **{})\n"
            "a.unset(0)\n"
            "a.always(0, 1)\na.always(0, y=1)\n"
            "partial(a.by_partial, 0, 2)(); a.by_partial(0)\n"
            "store = [a.activation]\n"
            "a.Tool().run(*[3])\n"
            "a.Record(1, 2)\na.Record(a=1, c=3)\n"
        ),
    }
    assert unset_defaults(sources) == [
        ("a.py", "unset", "y", "never set"),
        ("a.py", "always", "y", "never left out"),
        ("a.py", "Tool.run", "n", "never left out"),
        ("a.py", "Record", "d", "never set"),
    ]


def _reads_a_param(node) -> bool:
    """``p["key"]`` or ``cfg.params["key"]``: a string subscript of a command's parameters."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)):
        return False
    value = node.value
    if isinstance(value, ast.Name):
        return value.id == "p"
    return (isinstance(value, ast.Attribute) and value.attr == "params"
            and isinstance(value.value, ast.Name) and value.value.id == "cfg")


def command_params(source: str) -> dict:
    """{command: {key: read}} for each key of each ``COMMANDS[command]["params"]``
    in a CLI source, ``read`` telling whether the command's ``run`` function
    reads it as ``p["key"]`` or ``cfg.params["key"]``."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    commands = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "COMMANDS" for t in node.targets)
        or isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) and node.target.id == "COMMANDS"
    )
    table = {}
    for name, spec in zip(commands.keys, commands.values):
        fields = {key.value: value for key, value in zip(spec.keys, spec.values)}
        run = functions[fields["run"].id]
        read = {node.slice.value for node in ast.walk(run) if _reads_a_param(node)}
        table[name.value] = {key.value: key.value in read for key in fields["params"].keys}
    return table


def test_every_command_reads_each_of_its_params():
    table = command_params((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert set(table) == set(COMMANDS)
    assert {name: set(params) for name, params in table.items()} == {
        name: set(spec["params"]) for name, spec in COMMANDS.items()
    }
    assert [(name, key) for name, params in table.items() for key, read in params.items() if not read] == []


def test_params_guard_catches_an_unread_key():
    source = (
        "def _one(cfg):\n    p = cfg.params\n    return p['a'], cfg.params['b']\n"
        "def _two(cfg):\n    other = {}\n    return other['c'], cfg.params['d'], _three(cfg)\n"
        "def _three(cfg):\n    return cfg.params['e']\n"
        "COMMANDS: dict = {\n"
        "    'one': {'run': _one, 'params': {'a': 1, 'b': 2}},\n"
        "    'two': {'help': 'x', 'run': _two, 'params': {'c': 3, 'd': 4, 'e': 5}},\n"
        "}\n"
    )
    # another dict's subscript and a read in another function do not count
    assert command_params(source) == {"one": {"a": True, "b": True}, "two": {"c": False, "d": True, "e": False}}
