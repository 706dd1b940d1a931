"""Every module-level function and class of the package has a use outside
the tests.

A name counts as used when the benchmark (bench/), the scripts
(scripts/), the package's module-level code other than the __init__
exports, or the body of a used definition mention it: as a name, an
attribute, an imported name, or a string that is exactly the name
(bench/tracing.PATCHES names what it wraps that way).  Code that only the
tests call belongs in the tests, where it can stay the reference route it
is; the few reference routes kept in the package on purpose are listed in
REFERENCE_ROUTES with the reason they stay.  The names that only a
tracer string keeps in use are listed in TRACER_ONLY, so that the count
of such names is seen and kept.  And every name that a package module
imports is read there, or its line says "# noqa: F401" and it is one of
NOQA_IMPORTS (pyflakes' unused-import check, on ast alone).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "leonardz"

# Kept in the package though nothing there calls them: analysis's interior
# identity and its cross-ratio, as the tests' reference for verify_pi2, and
# the parray transforms, which wait for a use in the analysis (ROADMAP
# item 10).
REFERENCE_ROUTES = {
    "pi2_delta", "q_expression",
    "affine_transform", "dualize", "reverse_dual", "reverse_primal",
}

# Used by nothing but bench/tracing.PATCHES, which wraps them by name: no
# code outside the tests calls them.  They leave with their spans in the
# next change to the benchmark.  (primitive_idempotents has a span too, but
# the boundary example calls it.)
TRACER_ONLY = {"solve_matrix", "has_zero_diagonal"}

# Imported but not read in their module, each on a line marked
# "# noqa: F401": bench/tracing.PATCHES wraps the first two in the module
# that imports them, and campaign and cli import ALL_TYPES from parray.
NOQA_IMPORTS = {"analysis.primitive_idempotents", "campaign.build_parameter_array",
                "parray.ALL_TYPES"}


def _names(nodes, strings=True):
    """Every name that the syntax trees nodes use.  With strings false, an
    identifier string or an import is not a use: only a name or an
    attribute is."""
    out = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif not strings:
            continue
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out.add(node.value)
    return out


def _is_definition(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def definitions(strings=True):
    """module.name -> (name, the names its body uses), for each module-level
    function and class; and the names that the package's other module-level
    code uses, __init__ aside."""
    defs, top = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        body = ast.parse(path.read_text()).body
        for node in filter(_is_definition, body):
            defs[f"{path.stem}.{node.name}"] = node.name, _names([node], strings)
        if path.name != "__init__.py":
            top += [node for node in body if not _is_definition(node)]
    return defs, _names(top, strings)


def unused_definitions(strings=True, roots=()):
    """module.name of each definition that no use reaches from bench/,
    scripts/, the package's module-level code or the names roots.  A
    definition that only unused ones call is unused too.  strings is
    passed to _names."""
    defs, used = definitions(strings)
    used |= set(roots)
    paths = sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    used |= _names((ast.parse(path.read_text()) for path in paths), strings)
    pending = dict(defs)
    while True:
        reached = [key for key, (name, _) in pending.items() if name in used]
        if not reached:
            return sorted(pending)
        for key in reached:
            used |= pending.pop(key)[1]


def test_every_package_definition_has_a_use_outside_the_tests():
    assert [key for key in unused_definitions()
            if key.rpartition(".")[2] not in REFERENCE_ROUTES] == []


def test_reference_routes_are_still_defined_and_unused():
    """The list names only what exists and still has no use, so an entry
    cannot outlive a definition that was removed or put to work."""
    assert REFERENCE_ROUTES <= {key.rpartition(".")[2] for key in unused_definitions()}


def test_only_the_listed_names_live_on_tracer_strings():
    """Were identifier strings and imports no use, the reference routes and
    TRACER_ONLY would be all the roots it takes to reach every definition,
    and each name of TRACER_ONLY would be unused without them: so a new
    name kept alive by a string alone fails here, and so does a listed one
    that gains a caller."""
    unused = {key.rpartition(".")[2]
              for key in unused_definitions(strings=False, roots=REFERENCE_ROUTES)}
    assert TRACER_ONLY <= unused
    assert unused_definitions(strings=False, roots=REFERENCE_ROUTES | TRACER_ONLY) == []


def unread_imports():
    """module.name of each name that a package module other than __init__
    imports and never reads, split by whether its alias line is marked
    "# noqa: F401"; the __future__ import is no name."""
    marked, unmarked = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    noqa = "# noqa: F401" in lines[alias.lineno - 1]
                    (marked if noqa else unmarked).add(f"{path.stem}.{name}")
    return marked, unmarked


def test_every_package_import_is_read():
    """An import that its module never reads is dead, unless its line says
    why it stays with "# noqa: F401"; and the marked ones are exactly
    NOQA_IMPORTS, so a mark cannot outlive its reason or hide a new one."""
    marked, unmarked = unread_imports()
    assert unmarked == set()
    assert marked == NOQA_IMPORTS
