"""What loads when: a command loads its modules with the collector off and
freezes them (the collector is on again after the run), the stabilizer and
path-sum commands and a bare ``import rwsim`` never load NumPy, the
stabilizer and path-sum commands never import ``dataclasses``, no dense
command loads ``numpy.ma`` (NumPy imports it on first use of a plain
``np.unique``), a one-job command never loads the worker pool's
``concurrent.futures`` or ``multiprocessing``, the package's lazily
resolved exports are the objects their modules define, and the benchmark's
tracer reaches every name bound to a traced function."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys

import pytest

import rwsim
from conftest import REPO, cli_env
from test_parity import COMMANDS, GOLDEN, differences

# Runs ``python -m rwsim`` with the given arguments, then reports on stderr
# the collector's state after the run, as ``gc=<enabled>,<frozen objects>``,
# and which of the watched modules were ever imported, as ``loaded=a,b``.
WATCHED = ("numpy", "numpy.ma", "dataclasses", "concurrent.futures", "multiprocessing")
WRAPPER = f"""
import gc, runpy, sys
sys.argv = ["rwsim", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("rwsim", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    code = exit.code
print(f"gc={{int(gc.isenabled())}},{{gc.get_freeze_count()}}", file=sys.stderr)
print("loaded=" + ",".join(m for m in {WATCHED!r} if m in sys.modules), file=sys.stderr)
sys.exit(code)
"""


def _child(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=REPO, env=cli_env(), capture_output=True, text=True,
        timeout=120,
    )


def _loaded(proc: subprocess.CompletedProcess) -> set[str]:
    """The watched modules that ``WRAPPER``'s run imported."""
    line = proc.stderr.splitlines()[-1]
    assert line.startswith("loaded="), proc.stderr
    return set(filter(None, line[len("loaded="):].split(",")))


@pytest.mark.parametrize("name", ["retry-stab", "postselect-stab", "bell-pathsum"])
def test_stab_and_pathsum_commands_never_load_numpy(name):
    proc = _child("-c", WRAPPER, *COMMANDS[name])
    assert proc.returncode == 0, proc.stderr
    assert _loaded(proc) == set()  # nor dataclasses nor the worker pool
    assert differences((GOLDEN / f"{name}.txt").read_text(), _body(proc)) == []


def _body(proc: subprocess.CompletedProcess) -> str:
    """The report ``proc`` printed, minus its ``duration_s`` line."""
    return "".join(
        line for line in proc.stdout.splitlines(keepends=True)
        if not line.startswith("duration_s=")
    )


@pytest.mark.parametrize("name", ["retry-stab", "collision-toy"])
def test_a_command_freezes_its_loaded_heap_and_leaves_the_collector_on(name):
    proc = _child("-c", WRAPPER, *COMMANDS[name])
    assert proc.returncode == 0, proc.stderr
    line = proc.stderr.splitlines()[-2]
    assert line.startswith("gc="), proc.stderr
    enabled, frozen = map(int, line[len("gc="):].split(","))
    assert enabled == 1 and frozen > 0
    assert differences((GOLDEN / f"{name}.txt").read_text(), _body(proc)) == []


def test_the_dense_command_loads_numpy():
    proc = _child("-c", WRAPPER, *COMMANDS["bell-sv"])
    assert proc.returncode == 0, proc.stderr
    assert "numpy" in _loaded(proc)


# the commands that run on NumPy: every pinned one but the stab and path-sum runs
DENSE = sorted(name for name in COMMANDS if not name.endswith(("-stab", "-pathsum")))


def test_the_dense_commands_include_every_collision_demo():
    assert {"collision-toy", "collision-toy-norewind", "collision-lwe"} <= set(DENSE)


@pytest.mark.parametrize("name", DENSE)
def test_no_dense_command_loads_numpy_ma(name):
    proc = _child("-c", WRAPPER, *COMMANDS[name])
    assert proc.returncode == 0, proc.stderr
    loaded = _loaded(proc)
    assert "numpy" in loaded and "numpy.ma" not in loaded


@pytest.mark.parametrize("name", ["bell-sv", "retry-stab", "bell-pathsum", "collision-toy"])
def test_a_one_job_command_never_loads_the_worker_pool(name):
    proc = _child("-c", WRAPPER, *COMMANDS[name], "--jobs", "1")
    assert proc.returncode == 0, proc.stderr
    assert _loaded(proc).isdisjoint({"concurrent.futures", "multiprocessing"})


def test_bare_import_never_loads_numpy():
    proc = _child("-c", "import rwsim, sys; print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


@pytest.mark.parametrize("name", sorted(set(rwsim.__all__) - {"__version__"}))
def test_every_export_is_its_defining_modules_object(name):
    obj = getattr(rwsim, name)
    assert obj.__module__.startswith("rwsim.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert name in dir(rwsim)


# Installs ``bench/tracer.py`` in a fresh process (it rebinds module globals
# for good), runs one statistical-difference trial and prints what it saw.
TRACER = """
import json, sys
sys.path.insert(0, "bench")
import tracer
from rwsim import applications, statevector
from rwsim.rng import SplitMix64
trace = tracer.Trace()
originals = tracer.install(trace)
c0 = applications.BooleanFunction(2, (0, 0, 1, 1))
c1 = applications.BooleanFunction(2, (0, 1, 1, 1))
applications.sd_trial(applications.sd_image_reading(c0, c1), SplitMix64(1))
calls = trace.summary()["functions"]
print(json.dumps({
    "left": tracer.unwrapped_aliases(originals),
    "wrapped": [hasattr(f, "__wrapped__") for f in (statevector.rewind, statevector.measure)],
    "calls": [calls[name]["calls"] for name in ("statevector.rewind", "statevector.measure")],
}))
"""


def test_the_bench_tracer_wraps_rewind_and_measure_everywhere():
    proc = _child("-c", TRACER)
    assert proc.returncode == 0, proc.stderr
    # one trial reads the branch bit twice from one Reading and rewinds once
    # between the reads, so it makes no one-shot measure call
    assert json.loads(proc.stdout) == {"left": [], "wrapped": [True, True], "calls": [1, 0]}


def test_unknown_names_are_attribute_errors():
    assert rwsim.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        rwsim.nothing
