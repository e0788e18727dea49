"""The library's surface is what the library uses. Every public
module-level function and public method in `src/pregma` is referred to by
some identifier there. Every default of a public function, method,
`__init__` or NamedTuple field is passed by some call there, and left in
place by some call there: a default that no call passes is a constant, and
one that every call replaces is a required parameter. One that only
`tests/` uses belongs in `tests/reference.py`."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pregma"
# defaults that only callers outside the library exercise: the console
# script's entry point, whose argv only the script's caller passes, and the
# full truncation, which the tests compare the early stops of every query
# against
EXEMPT = {("cli.main", "argv"), ("oracle.truncate", "query")}


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


def _defaults(trees):
    """(dotted name, the name calls use, [(position in a call or None for
    keyword-only, parameter)]) of the defaulted parameters of every public
    function and method, every public class's `__init__` and every public
    NamedTuple's fields."""
    out = []
    for name, node, is_method in _public(trees):
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        out.append((name, node.name, _defaulted(node.args, is_method and not static)))
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            name = f"{module}.{cls.name}"
            if any(getattr(b, "id", None) == "NamedTuple" for b in cls.bases):
                fields = [f for f in cls.body if isinstance(f, ast.AnnAssign)]
                out.append((name, cls.name, [(i, f.target.id) for i, f in enumerate(fields)
                                             if f.value is not None]))
            out += [(name, cls.name, _defaulted(node.args, True)) for node in cls.body
                    if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    return out


def _defaulted(args, bound):
    """(position in a call, name) of each defaulted positional parameter,
    and (None, name) of each defaulted keyword-only one; a bound method's
    calls do not pass self."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(i - bound, positional[i].arg) for i in range(first, len(positional))]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _calls(trees):
    """Per called name, each call's positional count (None for a call with
    *args, which may pass any number) and keywords ("**" for a call with
    **kwargs, which may pass any)."""
    calls: dict[str, list[tuple[int | None, set[str]]]] = {}
    for tree in trees.values():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                spread = any(isinstance(a, ast.Starred) for a in call.args)
                calls.setdefault(name, []).append(
                    (None if spread else len(call.args), {kw.arg or "**" for kw in call.keywords}))
    return calls


def _passes(call, index, arg):
    count, keywords = call
    return (arg in keywords or "**" in keywords or count is None
            or index is not None and count > index)


def _leaves(call, index, arg):
    count, keywords = call
    return arg not in keywords and (index is None or count is None or count <= index
                                    or "**" in keywords)


def test_every_public_function_and_method_is_used_in_the_library():
    trees = _trees()
    referred = {node.id if isinstance(node, ast.Name) else node.attr
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [name for name, node, _ in _public(trees) if node.name not in referred]
    assert not unused, f"public but used nowhere in src/pregma: {unused}"


def test_every_defaulted_parameter_is_passed_in_the_library():
    trees = _trees()
    calls = _calls(trees)
    unpassed = [f"{name}({arg})" for name, called, params in _defaults(trees)
                for index, arg in params if (name, arg) not in EXEMPT
                and not any(_passes(call, index, arg) for call in calls.get(called, ()))]
    assert not unpassed, f"defaulted but never passed in src/pregma: {unpassed}"


def test_every_default_is_left_in_place_in_the_library():
    trees = _trees()
    calls = _calls(trees)
    replaced = [f"{name}({arg})" for name, called, params in _defaults(trees)
                for index, arg in params if (name, arg) not in EXEMPT
                and not any(_leaves(call, index, arg) for call in calls.get(called, ()))]
    assert not replaced, f"defaulted but passed by every call in src/pregma: {replaced}"
