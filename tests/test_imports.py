"""Layering guard: capt's modules import each other only at the top, and
those top-level imports form no cycle."""

import ast
from pathlib import Path

import capt

SRC = Path(capt.__file__).parent
MODULES = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def nested_imports(tree):
    """(line, name) of each import statement inside a function or class body."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append((inner.lineno, node.name))
    return sorted(set(found))


def capt_imports(tree):
    """The capt modules a module imports at its top level."""
    deps = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            deps |= {a.name.split(".")[1] for a in node.names if a.name.startswith("capt.")}
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level == 0 and mod != "capt" and not mod.startswith("capt."):
                continue
            if node.level == 0:
                mod = mod[len("capt"):].lstrip(".")
            if mod:
                deps.add(mod.split(".")[0])
            else:  # from . import a, b
                deps |= {a.name for a in node.names}
    return deps & MODULES.keys()


def find_cycle(graph):
    """One import cycle as a list of modules, or None."""
    state = {}  # module -> "open" while on the DFS stack, "done" after

    def visit(mod, path):
        state[mod] = "open"
        for dep in sorted(graph[mod]):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep, path + [dep])
                if cycle:
                    return cycle
        state[mod] = "done"
        return None

    for mod in sorted(graph):
        if mod not in state:
            cycle = visit(mod, [mod])
            if cycle:
                return cycle
    return None


def test_no_import_inside_a_function_or_class():
    nested = {f"{mod}.py:{line} (in {owner})"
              for mod, tree in MODULES.items() for line, owner in nested_imports(tree)}
    assert not nested, f"imports inside a function or class: {sorted(nested)}"


def test_top_level_capt_imports_form_no_cycle():
    graph = {mod: capt_imports(tree) for mod, tree in MODULES.items()}
    assert graph["cli"] >= {"data", "gradsuite", "training"}  # the parser sees imports
    cycle = find_cycle(graph)
    assert cycle is None, f"import cycle: {' -> '.join(cycle)}"


def test_the_guard_sees_what_it_forbids():
    tree = ast.parse("import os\n"
                     "def f():\n    from . import data\n"
                     "class C:\n    def g(self):\n        import json\n")
    assert nested_imports(tree) == [(3, "f"), (6, "C"), (6, "g")]
    assert capt_imports(ast.parse("from . import data, model\nfrom .scan import x\n"
                                  "import capt.metrics\nfrom capt import errors\n"
                                  "import numpy\n")) == {"data", "model", "scan",
                                                          "metrics", "errors"}
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None
