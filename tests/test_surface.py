"""`src/diecert` holds what runs: every function, class, method and module
constant in it is read by the package itself, by `perfbench/` or by the
README's examples, and every name `diecert/__init__` re-exports is read
through the package there, so no name has a second import path for nothing.

A definition is used when its name is read (a name or an attribute) in
`src/`, in `perfbench/`, whose tracer also names the attributes it wraps in
strings, or in one of the README's python blocks. Imports do not count, so
neither do `diecert/__init__`'s re-exports, and neither does a name's own
definition. A read inside a definition that is itself unused does not count
either, so the scan repeats until no further name drops out. Dunder methods
run implicitly and are always used.
"""

import ast
import importlib.util
import json
import pathlib
import re
import shlex

import pytest

import diecert.simulate
from diecert.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _assigned(node, stack):
    """The names a module-level assignment binds; none for any other node."""
    if stack or not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _scan(tree, where, defs, reads, strings=False):
    """Append each definition in `tree` to `defs` as (where, name, enclosing
    definitions) and each read to `reads` as (name, enclosing definitions);
    with `strings`, an identifier in a string constant is a read too. A
    module-level assignment defines the names it binds, and the reads in it
    are enclosed by all of them."""

    def visit(node, stack):
        if isinstance(node, _DEFS):
            defs.append((where, node.name, stack))
            stack = (*stack, len(defs) - 1)
        elif names := _assigned(node, stack):
            defs.extend((where, name, stack) for name in names)
            stack = (*stack, *range(len(defs) - len(names), len(defs)))
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


def readme_blocks(root=ROOT) -> list[tuple[str, str]]:
    """The source of each of the README's python blocks, in order, with the
    "This prints `...`" claim that follows the block, or '' where none does."""
    readme = (root / "README.md").read_text()
    return re.findall(r"^```python\n(.*?)^```\n\s*(?:This prints `([^`]*)`)?", readme, re.M | re.S)


def readme_commands(root=ROOT) -> list[list[str]]:
    """The arguments of each `diecert ...` line in the README's sh blocks,
    with continuation lines joined."""
    readme = (root / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("diecert ")]


def unused_definitions(root=ROOT) -> list[str]:
    """`module.qualname` of every definition and module constant in
    `src/diecert` that nothing that runs reads."""
    defs, reads, other = [], [], []
    for path in sorted((root / "src" / "diecert").glob("*.py")):
        _scan(ast.parse(path.read_text()), path.stem, defs, reads)
    for path in sorted((root / "perfbench").rglob("*.py")):
        _scan(ast.parse(path.read_text()), None, [], other, strings=True)
    for block, _ in readme_blocks(root):
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
        if k not in live
    )


def unread_exports(root=ROOT) -> list[str]:
    """Each name `diecert/__init__` imports that the README, `src/` and
    `perfbench/` never read as `diecert.<name>` or `from diecert import <name>`."""
    init = ast.parse((root / "src" / "diecert" / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    texts = [(root / "README.md").read_text()]
    texts += [path.read_text() for where in ("src", "perfbench")
              for path in sorted((root / where).rglob("*.py"))]
    read = set()
    for text in texts:
        read.update(re.findall(r"\bdiecert\.(\w+)", text))
        for names in re.findall(r"\bfrom diecert import (\([^)]*\)|[^\n]*)", text):
            read.update(name.split()[0] for name in names.strip("()").split(",") if name.strip())
    return sorted(exported - read)


def test_every_definition_in_src_is_used():
    unused = unused_definitions()
    assert not unused, "reached by nothing that runs: " + ", ".join(unused)


def test_every_export_is_read_through_the_package():
    # a name read only from its module needs no second path through diecert
    unread = unread_exports()
    assert not unread, "re-exported but read only from its module: " + ", ".join(unread)


def test_every_name_the_tracer_swaps_is_bound():
    # the traced benchmark run swaps these module attributes; one that a
    # change unbinds would otherwise fail only there
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    swapped = [*tracing._SPANS, *tracing._COUNTS, *tracing._TIMED_COUNTS,
               (diecert.simulate, "run_protocol", None)]
    unbound = [f"{module.__name__}.{attr}" for module, attr, _ in swapped
               if not hasattr(module, attr)]
    assert not unbound, "the tracer swaps unbound names: " + ", ".join(unbound)


def _run_readme_block(index, capsys) -> str:
    """What the README's python block `index` prints, run as a script."""
    source, _ = readme_blocks()[index]
    exec(compile(source, f"README block {index}", "exec"), {"__name__": "__main__"})
    return capsys.readouterr().out


def test_readme_library_example_prints_a_rate_and_a_gamma(capsys):
    # the search's certificate: the README states no figure, so a range
    rate, gamma = map(float, _run_readme_block(0, capsys).split())
    assert 0 <= rate <= 1 and 0 < gamma <= 1


# every later block prints exactly what the README says that it prints
@pytest.mark.parametrize("index, printed", [
    (index, claim) for index, (_, claim) in enumerate(readme_blocks()) if index > 0
])
def test_readme_example_prints_what_the_readme_says(index, printed, capsys):
    assert printed, f"README block {index} is followed by no \"This prints `...`.\""
    assert _run_readme_block(index, capsys) == printed + "\n"


_README_COMMANDS = readme_commands()


def test_the_readme_shows_diecert_commands():
    assert _README_COMMANDS, "no diecert command in the README's sh blocks"


# every `diecert ...` command in the README succeeds where it writes its
# files, with RuntimeWarnings as errors (pyproject.toml's filterwarnings),
# and a simulate summary's abort estimate lies within its interval
@pytest.mark.parametrize("argv", _README_COMMANDS,
                         ids=[f"{i}-{argv[0]}" for i, argv in enumerate(_README_COMMANDS)])
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    if argv[0] == "simulate":
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        low, high = summary["interval"]
        assert low <= summary["abort_estimate"] <= high
