"""The import graph: what ``import moyalcalc`` and ``import moyalcalc.cli`` load.

Each check runs in a fresh interpreter, because this test process has already
imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_package_import_loads_no_scipy():
    loaded = _run(
        "import json, sys, moyalcalc\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'moyalcalc'))))"
    )
    assert "moyalcalc.elements" in loaded
    assert "moyalcalc.oneloop" not in loaded
    assert not [m for m in loaded if m.startswith("scipy")]


def test_lazy_names_are_the_oneloop_objects():
    result = _run(
        "import json, moyalcalc\n"
        "names = sorted(moyalcalc._ONELOOP)\n"
        "listed = set(dir(moyalcalc)) & set(moyalcalc.__all__)\n"
        "ns = {}\n"
        "exec('from moyalcalc import *', ns)\n"
        "import moyalcalc.oneloop as o\n"
        "print(json.dumps({\n"
        "    'names': names,\n"
        "    'same': [getattr(moyalcalc, n) is getattr(o, n) is ns[n] for n in names],\n"
        "    'listed': [n in listed for n in names],\n"
        "}))"
    )
    assert len(result["names"]) == 20
    assert all(result["same"]) and all(result["listed"])


def test_unknown_attribute_raises_attribute_error():
    result = _run(
        "import json, moyalcalc\n"
        "try:\n"
        "    moyalcalc.no_such_name\n"
        "except AttributeError as e:\n"
        "    print(json.dumps(str(e)))"
    )
    assert result == "module 'moyalcalc' has no attribute 'no_such_name'"


def test_cli_import_loads_oneloop():
    # the benchmark tracer wraps moyalcalc.oneloop.integrate, which it finds
    # in sys.modules after importing moyalcalc.cli
    loaded = _run("import json, sys, moyalcalc.cli\nprint(json.dumps('moyalcalc.oneloop' in sys.modules))")
    assert loaded is True
