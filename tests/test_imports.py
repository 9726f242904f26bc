"""What importing the package and running each command loads.

Applying a finished rule must not pay for numpy: `import mofn` and the
commands that only read and apply a model load none of the modules that
need it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mofn

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("numpy", "mofn.network", "mofn.data", "mofn.tables", "mofn.oracle")

# Runs the command line as `python -m mofn.cli ARGS` does, then prints
# which of HEAVY it loaded.
PROBE = f"""
import runpy, sys
try:
    runpy.run_module("mofn.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(",".join(m for m in {HEAVY!r} if m in sys.modules))
"""


def loaded(code: str, *args: str) -> list[str]:
    """The modules of HEAVY that a fresh interpreter running `code` with
    argv `args` has loaded, read from the last line of its stdout."""
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
    assert loaded(PROBE, *args) == []
    assert argv == ["--version"] or out.read_text()


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
