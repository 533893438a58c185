"""Execution failure modes shared by every scheduler backend.

Both runtimes fail the same three ways: the event queue drains while
tasks are still waiting (deadlock), the simulated process exhausts a
resource budget (the kernel model's committed-memory abort), or a task
body raises and nothing catches it before the root task.  The errors
live here so callers can catch one hierarchy regardless of backend,
and the diagnostics name the tasks involved — count plus the first few
task labels — instead of a bare message.
"""

from __future__ import annotations

from typing import Any, Sequence


class ExecutionError(RuntimeError):
    """Base class for simulated execution failures."""


class DeadlockError(ExecutionError):
    """The event queue drained with unfinished tasks."""


class ResourceExhausted(ExecutionError):
    """The process ran out of memory for thread stacks (paper: 'Abort')."""


class TaskFailed(ExecutionError):
    """A task body raised; the message names the task, ``__cause__`` is
    the body's exception."""


def describe_tasks(
    tasks: Sequence[Any], *, noun: str = "task", limit: int = 10
) -> list[str]:
    """Indented one-per-task description lines (first *limit* tasks).

    Works for both task kinds: anything with ``tid``, ``description``
    and a ``state`` whose ``value`` is a short string.
    """
    lines = [
        f"  {noun} {task.tid} {task.description} state={task.state.value}"
        for task in tasks[:limit]
    ]
    if len(tasks) > limit:
        lines.append(f"  ... and {len(tasks) - limit} more")
    return lines


def format_stall(
    tasks: Sequence[Any],
    *,
    now_ns: int,
    kind: str = "deadlock",
    noun: str = "task",
    limit: int = 10,
) -> str:
    """Multi-line diagnostic: headline plus the stuck tasks by name."""
    lines = [f"{kind}: {len(tasks)} unfinished {noun}s at t={now_ns}ns"]
    lines.extend(describe_tasks(tasks, noun=noun, limit=limit))
    return "\n".join(lines)
