"""Every public module-level function and public method in `src/pregma`
is referred to by some identifier there. One that only `tests/` uses
belongs in `tests/reference.py`."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pregma"


def test_every_public_function_and_method_is_used_in_the_library():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    referred = {node.id if isinstance(node, ast.Name) else node.attr
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute))}
    public = [(f"{module}.{node.name}", node) for module, tree in trees.items()
              for node in tree.body if isinstance(node, ast.FunctionDef)]
    public += [(f"{module}.{cls.name}.{node.name}", node) for module, tree in trees.items()
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)]
    unused = [name for name, node in public
              if not node.name.startswith("_") and node.name not in referred]
    assert not unused, f"public but used nowhere in src/pregma: {unused}"
