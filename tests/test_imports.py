"""What importing the package and running each command loads.

Applying a finished rule must not pay for numpy: `import mofn` and the
commands that only read and apply a model load none of the modules that
need it.  Nor do they load `dataclasses`, `inspect`, `json` or `typing`,
which cost more to import than a small classification costs to run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mofn

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
HEAVY = ("numpy", "mofn.network", "mofn.data", "mofn.tables", "mofn.oracle")

# Runs the command line as `python -m mofn.cli ARGS` does, then prints the
# modules it loaded beyond those the interpreter started with.  Diffing
# against the start keeps the set the same where `site` loads modules of
# its own, such as `typing` for a `.pth` file.
PROBE = """
import sys
started = set(sys.modules)
import runpy
try:
    runpy.run_module("mofn.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(",".join(sorted(set(sys.modules) - started)))
"""

# The modules that reading and applying a rule loads.
SERVING = {"mofn", "mofn.config", "mofn.encoding", "mofn.errors", "mofn.logic",
           "mofn.record", "mofn.rules"}
# What those commands may load of the standard library, on Python 3.10 to
# 3.13, leaving out the C modules behind them (`_csv` and the like).
STDLIB = {
    # `python -m` itself
    "runpy", "importlib", "importlib._abc", "importlib._bootstrap",
    "importlib._bootstrap_external", "importlib.machinery", "importlib.util",
    # argparse, with gettext and the shutil its help formatter imports
    "argparse", "gettext", "locale", "shutil", "bz2", "lzma", "zlib", "fnmatch",
    "grp", "pwd",
    # re, pathlib and the modules they build on
    "re", "re._casefix", "re._compiler", "re._constants", "re._parser",
    "sre_compile", "sre_constants", "sre_parse", "pathlib", "pathlib._abc",
    "pathlib._local", "glob", "ntpath", "urllib", "urllib.parse", "ipaddress",
    "collections", "collections.abc", "contextlib", "copyreg", "enum", "errno",
    "functools", "itertools", "keyword", "operator", "reprlib", "types", "warnings",
    # mofn's own needs
    "array", "csv", "math", "shlex",
}
NEVER = {"dataclasses", "inspect", "json", "typing", "numpy"}


def loaded(code: str, *args: str) -> list[str]:
    """The modules that a fresh interpreter running `code` with argv
    `args` names on the last line of its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return list(filter(None, proc.stdout.splitlines()[-1].split(",")))


@pytest.mark.parametrize("argv", [
    ["classify", "{fixtures}/ie_srl.rules", "{cases}", "-o", "{out}"],
    ["import", "{fixtures}/postop.rules", "-o", "{out}"],
    ["export", "--format", "text", "{fixtures}/ie_ar.rules", "-o", "{out}"],
    ["--version"],
])
def test_rule_commands_load_no_numpy(argv, tmp_path, fixtures_dir):
    cases = tmp_path / "cases.csv"
    cases.write_text(
        "leucocytes,circulating_immune_complex,articular_syndrome,anhelation,"
        "erythema,heart_noises,hepatomegaly,myocarditis\n5.0,100.0,0,0,0,0,0,0\n")
    out = tmp_path / "out.txt"
    args = [a.format(fixtures=fixtures_dir, cases=cases, out=out) for a in argv]
    assert [m for m in loaded(PROBE, *args) if m in HEAVY] == []
    assert argv == ["--version"] or out.read_text()


@pytest.mark.parametrize("argv, needs_shlex", [
    # a model with no quote, backslash or comment is split without shlex
    (["classify", "{golden}/p24x35_s3.rules", "{cases}", "-o", "{out}"], False),
    # ie_srl.rules holds comments
    (["classify", "{fixtures}/ie_srl.rules", "{cases}", "-o", "{out}"], True),
    # writing a model quotes its names with shlex.quote
    (["import", "{golden}/p24x35_s3.rules", "-o", "{out}"], True),
    (["export", "--format", "text", "{fixtures}/ie_ar.rules", "-o", "{out}"], True),
], ids=["classify-plain", "classify-comments", "import", "export"])
def test_rule_commands_load_only_what_they_use(argv, needs_shlex, tmp_path, fixtures_dir):
    from mofn.rules import parse_formula_table

    model = Path(next(a for a in argv if a.endswith(".rules")).format(
        golden=GOLDEN, fixtures=fixtures_dir))
    names = [enc.feature for enc in parse_formula_table(model.read_text()).features.values()]
    cases = tmp_path / "cases.csv"
    cases.write_text(",".join(names) + "\n" + ",".join(["0"] * len(names)) + "\n")
    out = tmp_path / "out.txt"
    args = [a.format(golden=GOLDEN, fixtures=fixtures_dir, cases=cases, out=out)
            for a in argv]
    added = {m for m in loaded(PROBE, *args) if not m.startswith("_")}
    assert out.read_text()
    assert added & NEVER == set()
    assert ("shlex" in added) == needs_shlex
    assert {m for m in added if m.startswith("mofn")} == SERVING
    assert added - SERVING - STDLIB == set()


def test_import_mofn_loads_no_numpy():
    code = f"import sys, mofn; print(','.join(m for m in {HEAVY!r} if m in sys.modules))"
    assert loaded(code) == []


def test_every_exported_name_resolves():
    for name in mofn.__all__:
        assert getattr(mofn, name) is not None
    with pytest.raises(AttributeError):
        mofn.no_such_name
    from mofn import TrainConfig, train
    from mofn.network import TrainConfig as network_config
    assert TrainConfig is network_config and train is mofn.network.train
