import pathlib


def test_traced_benchmark_finds_every_library_name(monkeypatch):
    # the --trace 1 benchmark looks up the functions and methods it wraps
    # when its tracer is built; a renamed or deleted one fails only there
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    originals = [(owner, attr, original) for owner, attr, original, _ in tracer._patches]
    tracer.install()
    tracer.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)
