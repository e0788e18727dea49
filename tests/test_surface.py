"""The library's surface is what the library uses. Every public
module-level function and public method in `src/pregma` is referred to by
some identifier there, and every defaulted parameter of one is passed by
some call there. One that only `tests/` uses belongs in
`tests/reference.py`."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pregma"
# the console script's entry point: only a caller outside the library passes argv
ENTRY_POINTS = {("cli.main", "argv")}


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _public(trees):
    """(dotted name, def node, whether it is a method) of every public
    module-level function and public method."""
    found = [(f"{module}.{node.name}", node, False) for module, tree in trees.items()
             for node in tree.body if isinstance(node, ast.FunctionDef)]
    found += [(f"{module}.{cls.name}.{node.name}", node, True) for module, tree in trees.items()
              for cls in tree.body if isinstance(cls, ast.ClassDef)
              for node in cls.body if isinstance(node, ast.FunctionDef)]
    return [entry for entry in found if not entry[1].name.startswith("_")]


def test_every_public_function_and_method_is_used_in_the_library():
    trees = _trees()
    referred = {node.id if isinstance(node, ast.Name) else node.attr
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [name for name, node, _ in _public(trees) if node.name not in referred]
    assert not unused, f"public but used nowhere in src/pregma: {unused}"


def test_every_defaulted_parameter_is_passed_in_the_library():
    trees = _trees()
    # per called name: the most positional arguments of any call there
    # (a call with *args passes them all) and the keywords passed ("**"
    # for a call with **kwargs, which may pass any)
    most: dict[str, float] = {}
    keywords: dict[str, set[str]] = {}
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            spread = any(isinstance(a, ast.Starred) for a in call.args)
            most[name] = max(most.get(name, 0), float("inf") if spread else len(call.args))
            keywords.setdefault(name, set()).update(kw.arg or "**" for kw in call.keywords)
    unpassed = []
    for name, node, is_method in _public(trees):
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        first = len(positional) - len(args.defaults)
        # a method's calls do not pass self
        defaulted = [(i - (is_method and not static), positional[i].arg)
                     for i in range(first, len(positional))]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        passed = keywords.get(node.name, set())
        for index, arg in defaulted:
            if ((name, arg) in ENTRY_POINTS or arg in passed or "**" in passed
                    or index is not None and most.get(node.name, 0) > index):
                continue
            unpassed.append(f"{name}({arg})")
    assert not unpassed, f"defaulted but never passed in src/pregma: {unpassed}"
