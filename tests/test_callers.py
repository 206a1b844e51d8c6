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
"""

import ast
from pathlib import Path

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
