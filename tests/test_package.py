import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import gsda

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_every_public_import():
    tree = ast.parse(Path(gsda.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(gsda.__all__) == sorted(public)
    assert len(set(gsda.__all__)) == len(gsda.__all__)


def _references(node, inside=frozenset()):
    """Names used under node, and ``module.name`` for each attribute of a
    name, less each def's uses of itself."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    if isinstance(node, ast.Name):
        found = {node.id}
    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        found = {f"{node.value.id}.{node.attr}"}
    else:
        found = set()
    found -= inside
    for child in ast.iter_child_nodes(node):
        found |= _references(child, inside)
    return found


def test_every_export_is_used_or_documented():
    # an export only tests call is a second implementation to keep in step;
    # a same-named attribute of another object (_kernels.pinball_loss for
    # quantile.pinball_loss) is no use of it
    used = set()
    for path in (ROOT / "src" / "gsda").glob("*.py"):
        if path.name != "__init__.py":
            used |= _references(ast.parse(path.read_text()))
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library entry points", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"\w+", section))
    unused = [name for name in gsda.__all__ if name not in used
              and f"{getattr(gsda, name).__module__.rsplit('.', 1)[1]}.{name}" not in used]
    assert sorted(set(unused) - documented) == []


def test_import_and_projector_build_leave_scipy_unloaded():
    # importing scipy alone costs more memory than a whole additive fit
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import gsda\n"
        "w = np.linspace(0.0, 1.0, 200)\n"
        "W = np.column_stack([w, np.sin(6.0 * w)])\n"
        "gsda.AdditiveProjector(W, [gsda.SmootherSpec('local_linear', 0),\n"
        "                           gsda.SmootherSpec('local_linear', 1)])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    src = str(Path(gsda.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
