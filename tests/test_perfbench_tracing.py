"""The traced benchmark run (``perfbench/tracing.py``) wraps named callables
of every layer, such as ``IndexRun.search``, ``IndexRun.decode_block`` and
``CacheManager.read_block``. Installing its wrappers fails if a refactor
removes one of them; removing them must restore the program unmodified."""
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls_every_layer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install_layers()
    try:
        patched = [(owner, attr, raw) for owner, attr, raw in tracer._patches]
        assert patched
        assert all(owner.__dict__[attr] is not raw for owner, attr, raw in patched)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in patched)
