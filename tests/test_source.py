"""Checks over the library's source text. The library keeps no helper it
never calls: each function and class that src/bigatid defines is named
again somewhere in src/bigatid or perfbench, the library and its benchmark.
Test-only helpers live with the tests. Arrays become float64 only at the
doors where they enter the library, so nothing inside re-casts them. And
the CLI writes every report file: the library opens a file for writing only
for the two formats it reads back. One CLI function fits every model: it
alone balances a training split and trains. And one clock times the
library: a CLI stage times itself, and every timed eval pass runs in the
inference bench."""

import ast
import collections
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_library_definition_is_named_elsewhere():
    library = sorted((ROOT / "src" / "bigatid").rglob("*.py"))
    named, defined = collections.Counter(), collections.Counter()
    for path in library + sorted((ROOT / "perfbench").rglob("*.py")):
        with tokenize.open(path) as fh:
            words = [tok.string for tok in tokenize.generate_tokens(fh.readline)
                     if tok.type == tokenize.NAME]
        named.update(words)
        if path in library:
            defined.update(b for a, b in zip(words, words[1:]) if a in ("def", "class"))
    unused = sorted(name for name, n in defined.items() if named[name] == n
                    and not (name.startswith("__") and name.endswith("__")))
    assert unused == [], f"defined in src/bigatid and named nowhere else: {unused}"


# The functions through which arrays enter the library: the model's forward
# and backward and the checkpoint loader, the CSV parse, scaler JSON, the
# focal alpha of a config, and what a caller hands the Shapley estimator,
# with what its value function returns.
DTYPE_DOORS = {
    "numerics.as_f64", "model.forward", "model.backward", "model.load",
    "data._parse_column", "data.encode", "data.ScalerParams.from_dict",
    "training.loss_fn_for", "explain._as_2d", "explain.shapley_permutation",
    "explain.background_mean_of",
}


def _owners(tree: ast.Module, module: str) -> tuple[dict[int, str], set[int]]:
    """The innermost function or class that holds each line, by qualified
    name, and the lines of import statements."""
    owner, imports = {}, set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            lines = range(child.lineno, child.end_lineno + 1) if hasattr(child, "lineno") else ()
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                imports.update(lines)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                owner.update(dict.fromkeys(lines, name))
                visit(child, name)
            else:
                visit(child, prefix)

    visit(tree, module)
    return owner, imports


def test_float64_is_named_only_at_the_doors():
    named = set()
    for path in sorted((ROOT / "src" / "bigatid").rglob("*.py")):
        owner, imports = _owners(ast.parse(path.read_text()), path.stem)
        with tokenize.open(path) as fh:
            named.update(owner.get(tok.start[0], f"{path.stem}.<module>")
                         for tok in tokenize.generate_tokens(fh.readline)
                         if tok.type == tokenize.NAME and tok.string in ("float64", "as_f64")
                         and tok.start[0] not in imports)
    strays, idle = sorted(named - DTYPE_DOORS), sorted(DTYPE_DOORS - named)
    assert strays == [], f"float64 or as_f64 named outside the doors, in {strays}"
    assert idle == [], f"doors that name no float64, to drop from DTYPE_DOORS: {idle}"


# The functions that open a file for writing: the CLI's two report writers,
# and the dataset CSV and checkpoint, which the library reads back.
FILE_WRITERS = {"cli._write_json", "cli._write_csv", "data.save_dataset_csv", "model.save"}


def _writes(call: ast.Call) -> bool:
    """Whether `call` is a builtin open(...) whose mode writes, appends or
    creates; a mode that is not a string literal counts as one that does."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[1] if len(call.args) > 1 else ast.Constant("r"))
    return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax"))


def test_only_the_writers_open_files_for_writing():
    opened = set()
    for path in sorted((ROOT / "src" / "bigatid").rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner, _ = _owners(tree, path.stem)
        opened.update(owner.get(node.lineno, f"{path.stem}.<module>") for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and _writes(node))
    strays, idle = sorted(opened - FILE_WRITERS), sorted(FILE_WRITERS - opened)
    assert strays == [], f"a file opened for writing outside FILE_WRITERS, in {strays}"
    assert idle == [], f"writers that open no file for writing, to drop: {idle}"


# The fit routine of train, ablate and loao: the one place a model is trained.
FIT_STEPS = ("T.train", "balance_train")


def test_only_fit_balances_and_trains():
    tree = ast.parse((ROOT / "src" / "bigatid" / "cli.py").read_text())
    owner, _ = _owners(tree, "cli")
    callers = {owner.get(node.lineno, "cli.<module>") for node in ast.walk(tree)
               if isinstance(node, ast.Call) and ast.unparse(node.func) in FIT_STEPS}
    strays = sorted(callers - {"cli.fit"})
    assert strays == [], f"{' or '.join(FIT_STEPS)} called outside cli.fit, in {strays}"
    assert "cli.fit" in callers, "cli.fit no longer balances and trains"


# The two places that read the clock: a CLI stage, which times itself, and
# the inference bench, through which every timed eval pass runs.
CLOCKS = {"cli._Stage", "metrics.inference_bench"}


def test_only_the_stage_and_the_bench_read_the_clock():
    readers = set()
    for path in sorted((ROOT / "src" / "bigatid").rglob("*.py")):
        owner, imports = _owners(ast.parse(path.read_text()), path.stem)
        with tokenize.open(path) as fh:
            # a method reads the clock for its class
            readers.update(".".join(owner.get(tok.start[0], f"{path.stem}.<module>")
                                    .split(".")[:2])
                           for tok in tokenize.generate_tokens(fh.readline)
                           if tok.type == tokenize.NAME and tok.string == "perf_counter"
                           and tok.start[0] not in imports)
    strays, idle = sorted(readers - CLOCKS), sorted(CLOCKS - readers)
    assert strays == [], f"perf_counter named outside {sorted(CLOCKS)}, in {strays}"
    assert idle == [], f"clocks that read no perf_counter, to drop from CLOCKS: {idle}"
