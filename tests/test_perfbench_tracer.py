"""perfbench's span tracer still finds every binding it wraps."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_installs_on_every_target_and_uninstalls():
    """A traced benchmark round (`perfbench/run.py --trace 1`) wraps each
    `module.attr` in spans.TARGETS and refuses to run when one is not bound,
    such as a kernel that `emitterclf.model` no longer imports by that name.
    Installing the tracer here shows that before a traced round does; once
    uninstalled, every binding is the original function again."""
    spans = _load_spans()
    owners = [(spans._resolve(path), attr) for path, attr, _, _ in spans.TARGETS]
    before = [owner.__dict__.get(attr) for owner, attr in owners]
    tracer = spans.Tracer()
    try:
        tracer.install()
        wrapped = [owner.__dict__[attr] for owner, attr in owners]
    finally:
        tracer.uninstall()
    assert all(w is not b for w, b in zip(wrapped, before))
    assert [owner.__dict__.get(attr) for owner, attr in owners] == before
