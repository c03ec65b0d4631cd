"""The library keeps no helper it never calls: each function and class that
src/bigatid defines is named again somewhere in src/bigatid or perfbench,
the library and its benchmark. Test-only helpers live with the tests."""

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
