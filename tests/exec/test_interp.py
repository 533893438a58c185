"""The shared effect interpreter, unit-tested against a fake backend."""

from pathlib import Path

from repro.exec.interp import EffectInterpreter
from repro.kernel.scheduler import StdRuntime
from repro.model.effects import Compute, Spawn
from repro.model.future import ThrowValue
from repro.model.work import Work
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class _FakeTask:
    def __init__(self, body):
        self.fn = body
        self.args = ()
        self.description = body.__name__
        self.gen = None
        self.pending_send = "stale"
        self.future = None


class _FakeBackend:
    """Records every interpreter callback; gates via ``alive``."""

    def __init__(self):
        self.alive = True
        self.calls = []

    def begin_step(self, worker, task):
        return self.alive

    def __getattr__(self, name):
        if name.startswith("do_") or name in ("complete", "fail"):
            return lambda *args, _n=name: self.calls.append((_n, args))
        raise AttributeError(name)


def test_dispatch_by_effect_class():
    backend = _FakeBackend()
    interp = EffectInterpreter(backend)

    def body(ctx):
        yield Compute(work=Work(cpu_ns=10))
        yield Spawn(fn=body, args=(), policy="async")

    task = _FakeTask(body)
    interp.step("w", task, None)
    assert task.pending_send is None  # consumed before the resume
    interp.step("w", task, None)
    kinds = [name for name, _ in backend.calls]
    assert kinds == ["do_compute", "do_spawn"]


def test_return_completes_and_raise_fails():
    backend = _FakeBackend()
    interp = EffectInterpreter(backend)

    def returns(ctx):
        return 42
        yield

    def raises(ctx):
        raise ValueError("boom")
        yield

    interp.step("w", _FakeTask(returns), None)
    interp.step("w", _FakeTask(raises), None)
    (c_name, c_args), (f_name, f_args) = backend.calls
    assert (c_name, c_args[2]) == ("complete", 42)
    assert f_name == "fail" and str(f_args[2]) == "boom"


def test_throw_value_propagates_into_the_body():
    backend = _FakeBackend()
    interp = EffectInterpreter(backend)
    seen = []

    def body(ctx):
        try:
            yield Compute(work=Work(cpu_ns=1))
        except KeyError as exc:
            seen.append(exc)
        return "recovered"

    task = _FakeTask(body)
    interp.step("w", task, None)
    interp.step("w", task, ThrowValue(KeyError("lost")))
    assert len(seen) == 1
    assert backend.calls[-1][0] == "complete"
    assert backend.calls[-1][1][2] == "recovered"


def test_non_effect_yield_fails_the_task():
    backend = _FakeBackend()
    interp = EffectInterpreter(backend)

    def body(ctx):
        yield "not an effect"

    interp.step("w", _FakeTask(body), None)
    name, args = backend.calls[0]
    assert name == "fail"
    assert "non-effect" in str(args[2])


def test_begin_step_gates_everything():
    backend = _FakeBackend()
    backend.alive = False
    interp = EffectInterpreter(backend)
    task = _FakeTask(lambda ctx: iter(()))
    interp.step("w", task, None)
    assert backend.calls == []
    assert task.gen is None  # never even bound


def test_both_runtimes_share_the_interpreter():
    engine, machine = Engine(), Machine()
    hpx = HpxRuntime(engine, machine, num_workers=2)
    std = StdRuntime(Engine(), Machine(), num_workers=2)
    assert type(hpx._interp) is type(std._interp) is EffectInterpreter
    assert hpx._step.__func__ is std._step.__func__ is EffectInterpreter.step


def test_generator_resume_exists_only_in_the_interpreter():
    """Acceptance: the effect-interpretation loop lives in one module."""
    offenders = []
    for path in SRC.rglob("*.py"):
        if path.relative_to(SRC).as_posix() == "exec/interp.py":
            continue
        text = path.read_text()
        if "gen.send(" in text or "gen.throw(" in text:
            offenders.append(str(path))
    assert offenders == []
