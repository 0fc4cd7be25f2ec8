"""`src/diecert` holds what runs: every function, class and method in it is
read by the package itself, by `perfbench/` or by the README's examples.

A definition is used when its name is read (a name or an attribute) in
`src/`, in `perfbench/`, whose tracer also names the attributes it wraps in
strings, or in one of the README's python blocks. Imports do not count, so
neither do `diecert/__init__`'s re-exports, and neither does a name's own
definition. A read inside a definition that is itself unused does not count
either, so the scan repeats until no further name drops out. Dunder methods
run implicitly and are always used.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# the independent oracle that the Born tables are property-tested against
ALLOWED = {"chsh_value"}


def _scan(tree, where, defs, reads, strings=False):
    """Append each definition in `tree` to `defs` as (where, name, enclosing
    definitions) and each read to `reads` as (name, enclosing definitions);
    with `strings`, an identifier in a string constant is a read too."""

    def visit(node, stack):
        if isinstance(node, _DEFS):
            defs.append((where, node.name, stack))
            stack = (*stack, len(defs) - 1)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.append((node.id, stack))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, stack))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            reads.append((node.value, stack))
        for child in ast.iter_child_nodes(node):
            visit(child, stack)

    visit(tree, ())


def unused_definitions(root=ROOT) -> list[str]:
    """`module.qualname` of every definition in `src/diecert` that nothing
    that runs reads, besides `ALLOWED`."""
    defs, reads, other = [], [], []
    for path in sorted((root / "src" / "diecert").glob("*.py")):
        _scan(ast.parse(path.read_text()), path.stem, defs, reads)
    for path in sorted((root / "perfbench").rglob("*.py")):
        _scan(ast.parse(path.read_text()), None, [], other, strings=True)
    readme = (root / "README.md").read_text()
    for block in re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S):
        _scan(ast.parse(block), None, [], other)
    always = {i for i, (_, name, _) in enumerate(defs)
              if name.startswith("__") and name.endswith("__")}
    live = set(range(len(defs)))
    while True:
        # a read counts if every definition around it is live and none is
        # the definition of the name it reads
        names = {name for name, stack in reads
                 if all(i in live and defs[i][1] != name for i in stack)}
        names |= {name for name, _ in other}
        now = always | {i for i, (_, name, _) in enumerate(defs) if name in names}
        if now == live:
            break
        live = now
    return sorted(
        ".".join((where, *(defs[i][1] for i in stack), name))
        for k, (where, name, stack) in enumerate(defs)
        if k not in live and name not in ALLOWED
    )


def test_every_definition_in_src_is_used():
    unused = unused_definitions()
    assert not unused, "reached by nothing that runs: " + ", ".join(unused)
