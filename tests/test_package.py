import ast
from pathlib import Path

import gsda


def test_all_lists_every_public_import():
    tree = ast.parse(Path(gsda.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(gsda.__all__) == sorted(public)
    assert len(set(gsda.__all__)) == len(gsda.__all__)
