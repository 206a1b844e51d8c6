"""Every public function, class, method and property of the library has
a caller in it.

A name that only tests read belongs in `tests/util.py`, not in `src/`.
The guard parses the modules of `src/cga` with `ast`: a public top-level
`def` or `class` counts as called when some module reads it, as a name
(`ast.Name` in `Load` context) or as an attribute of a module alias
(`bounds_mod.m_star`).  A public method or property of a class counts as
called when some module reads an attribute of that name (`g.edge_count`),
on any object; dunder methods are exempt.  Assignments and imports do not
count.  The entry point `cli.main` is exempt, and so are the names in the
benchmark's `TRACED` table, which the benchmark patches by name.

A private top-level function, class or constant (`_BLOCK_CHUNK`) has a
reader too, in its own module: the guard reads each module of `src/cga`
for its own private names, so a helper kept only for the tests, or one
left behind by a rewrite, fails it.

In the same spirit, every field of a `@dataclass` of the library is read
as an attribute somewhere in it (`rep.dense`); a field that is written
and never read is dead weight.  An `InitVar` is an argument of
`__post_init__`, not a field.  `NamedTuple` rows are exempt: the CSV
reads them by iteration.  And every option a `cga` subcommand declares
is read as `args.<dest>` somewhere in `cli.py`.
"""

import argparse
import ast
from pathlib import Path

from cga.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cga"


def _traced() -> set[tuple[str, str]]:
    """(module, qualified name) of each entry of the benchmark's TRACED table."""
    tree = ast.parse((ROOT / "bench" / "cgabench" / "metrics.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    return {(module.removeprefix("cga."), qualname)
            for module, qualname, _ in ast.literal_eval(table)}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}


def _public_definitions(modules) -> set[tuple[str, str]]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {(name, node.name) for name, tree in modules.items() for node in tree.body
            if isinstance(node, kinds) and not node.name.startswith("_")}


def _public_members(modules) -> set[tuple[str, str, str]]:
    """(module, class, member) of each public method and property of a
    top-level class; dunder methods are private here."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    return {(name, node.name, member.name) for name, tree in modules.items()
            for node in tree.body if isinstance(node, ast.ClassDef)
            for member in node.body
            if isinstance(member, kinds) and not member.name.startswith("_")}


def _private_definitions(tree: ast.Module) -> set[str]:
    """The private names a module defines at top level: functions,
    classes and assigned names, dunder names aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _dataclass_fields(modules) -> set[tuple[str, str, str]]:
    """(module, class, field) of each field of a top-level `@dataclass`."""

    def is_dataclass(decorator) -> bool:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return isinstance(target, ast.Name) and target.id == "dataclass"

    return {(name, node.name, stmt.target.id) for name, tree in modules.items()
            for node in tree.body if isinstance(node, ast.ClassDef)
            and any(is_dataclass(d) for d in node.decorator_list)
            for stmt in node.body if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and not ast.unparse(stmt.annotation).startswith(("InitVar", "ClassVar"))}


def _reads(modules) -> tuple[set[str], set[tuple[str, str]], set[str]]:
    """The names read anywhere, the (module, attribute) pairs read through
    an alias of a sibling module (`from . import bounds as bounds_mod`), and
    the attribute names read on any object."""
    names: set[str] = set()
    attributes: set[tuple[str, str]] = set()
    read_attrs: set[str] = set()
    for tree in modules.values():
        aliases = {alias.asname or alias.name: alias.name
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
                   for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read_attrs.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    attributes.add((aliases[node.value.id], node.attr))
    return names, attributes, read_attrs


def test_every_public_definition_has_a_caller():
    modules = _modules()
    names, attributes, _ = _reads(modules)
    exempt = {("cli", "main")} | {(module, name.split(".")[0]) for module, name in _traced()}
    # the guard sees both kinds of read, and the table it exempts
    assert ("bounds", "m_star") in attributes and "event_report" in names
    assert ("clusters", "internal_edge_count") in exempt
    uncalled = sorted(
        f"{module}.{name}" for module, name in _public_definitions(modules) - exempt
        if name not in names and (module, name) not in attributes
    )
    assert uncalled == [], f"public definitions that no module of src/cga reads: {uncalled}"


def test_every_public_member_has_a_caller():
    modules = _modules()
    _, _, read_attrs = _reads(modules)
    exempt = _traced()
    members = _public_members(modules)
    # the guard sees methods and properties, and reads on any object
    assert ("generator", "Graph", "from_edges") in members and "edge_count" in read_attrs
    assert ("rng", "SubstreamSampler.reset") in exempt
    uncalled = sorted(
        f"{module}.{cls}.{member}" for module, cls, member in members
        if member not in read_attrs and (module, f"{cls}.{member}") not in exempt
    )
    assert uncalled == [], f"public members that no module of src/cga reads: {uncalled}"


def test_every_private_definition_is_read_in_its_module():
    unread = []
    for module, tree in _modules().items():
        private = _private_definitions(tree)
        if module == "generator":  # the guard sees functions, constants and tuple targets
            assert {"_sample_blocks", "_BLOCK_CHUNK", "_MINUS"} <= private
        reads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{module}.{name}" for name in sorted(private - reads)]
    assert unread == [], f"private definitions that their own module never reads: {unread}"


def test_every_dataclass_field_has_a_reader():
    modules = _modules()
    _, _, read_attrs = _reads(modules)
    fields = _dataclass_fields(modules)
    # the guard sees the fields of every dataclass, and no InitVar
    assert {("clusters", "EventReport", "dense"), ("tree", "TreeParams", "b")} <= fields
    assert ("clusters", "ClusterSpec", "mode") not in fields
    unread = sorted(f"{module}.{cls}.{field}" for module, cls, field in fields
                    if field not in read_attrs)
    assert unread == [], f"dataclass fields that no module of src/cga reads: {unread}"


def _subcommand_options():
    """(subcommand, dest) of each option and positional that `cli.build_parser()`
    declares on a subcommand, help aside."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {(name, action.dest) for name, sub in subparsers.choices.items()
            for action in sub._actions if not isinstance(action, argparse._HelpAction)}


def test_every_cli_option_is_read():
    """An option that `cli.py` never reads as `args.<dest>` changes nothing;
    the parser declares none."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    options = _subcommand_options()
    # the guard sees flags, renamed dests and positionals
    assert {("bounds", "family_size"), ("oracle", "max_size"), ("experiment", "kind")} <= options
    unread = sorted(f"{name} {dest}" for name, dest in options if dest not in read)
    assert unread == [], f"options that cli.py never reads as args.<dest>: {unread}"
