"""What `import forcelink` and each command load, and the package's public names."""
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import forcelink
from forcelink import cli, default_config_dict

SRC = os.path.dirname(os.path.dirname(forcelink.__file__))
HEAVY = {"forcelink.calib", "forcelink.sweeps"}

# run in a fresh interpreter; prints, last, the forcelink modules it loaded
# and hashlib, if it did
REPORT = ("\nprint(json.dumps(sorted(m for m in sys.modules "
          "if m.startswith('forcelink') or m == 'hashlib')))")


def loaded(code: str, *args: str) -> set[str]:
    """The forcelink modules (and hashlib) a fresh interpreter holds after
    running code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", "import json, sys\n" + code + REPORT,
                          *args], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout
    return set(json.loads(out.splitlines()[-1]))


def loaded_by_command(*argv: str) -> set[str]:
    return loaded("from forcelink import cli\n"
                  "assert cli.main(sys.argv[1:]) == 0", *argv)


def test_parsing_a_config_loads_no_io_calibration_sweep_or_cli():
    mods = loaded("import forcelink\nforcelink.parse_config({})")
    assert "forcelink.config" in mods
    assert not mods & {"forcelink.calib", "forcelink.traceio", "forcelink.sweeps",
                       "forcelink.cli", "hashlib"}


def test_commands_load_calib_and_sweeps_only_where_they_use_them(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(default_config_dict()))
    trace, model = str(tmp_path / "run.trace"), str(tmp_path / "model.json")
    assert not loaded_by_command("--help") & HEAVY
    assert not loaded_by_command("simulate", "--config", str(cfg),
                                 "--out", trace) & HEAVY
    # only simulate digests its inputs: decode never loads hashlib
    assert not loaded_by_command("decode", "--trace", trace, "--out",
                                 str(tmp_path / "phases.csv")) & {*HEAVY, "hashlib"}
    assert cli.main(["calibrate", "--config", str(cfg), "--out", model]) == 0
    mods = loaded_by_command("decode", "--trace", trace, "--model", model,
                             "--out", str(tmp_path / "presses.csv"))
    assert "forcelink.calib" in mods and "forcelink.sweeps" not in mods


def test_sweeps_make_no_digest():
    # only simulate digests its inputs: a sweep's trial traces carry no
    # digest, in the projection domain and on the 10-bit full path alike.
    # hashlib itself loads with numpy.random (secrets imports hmac), so the
    # check is that no digest is made, not that the module stays unloaded
    assert "hashlib" in loaded("import numpy.random")
    mods = loaded("import hashlib\n"
                  "def refuse(*args, **kwargs):\n"
                  "    raise AssertionError('a sweep made a digest')\n"
                  "hashlib.new = hashlib.sha256 = refuse\n"
                  "from forcelink import config, sweeps\n"
                  "for bits in (None, 10):\n"
                  "    cfg = config.parse_config({'noise': {'quantize_bits': bits}})\n"
                  "    sweeps.run_force_sweep(cfg, trials=2, seed=1)\n"
                  "    sweeps.run_snr_sweep(cfg, trials=2, seed=1)")
    assert "forcelink.sweeps" in mods


def test_every_public_name_is_its_owning_modules_object():
    for name in forcelink.__all__:
        if name == "__version__":
            continue
        value = getattr(forcelink, name)
        assert value is getattr(sys.modules[value.__module__], name), name
        assert value.__module__ == f"forcelink.{forcelink._OWNER[name]}", name
    assert set(forcelink.__all__) <= set(dir(forcelink))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        forcelink.no_such_name  # noqa: B018


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from forcelink import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(forcelink.__all__)


def test_from_import_of_a_submodule_imports_it():
    mods = loaded("import forcelink\n"
                  "assert 'forcelink.cli' not in sys.modules\n"
                  "from forcelink import cli\n"
                  "assert cli is sys.modules['forcelink.cli']")
    assert "forcelink.cli" in mods


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # benchmarks/tracer.py wraps forcelink functions by name; a rename or
    # deletion there would break the traced benchmark run
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "benchmarks", "tracer.py")
    spec = importlib.util.spec_from_file_location("forcelink_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, module, attr, *_ in tracer.FUNCTIONS:
        owner, leaf = tracer._resolve(module, attr)
        assert callable(getattr(owner, leaf)), f"{module}.{attr}"
