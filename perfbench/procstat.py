"""CPU time and peak memory of this process and everything it started,
read from ``/proc`` (Linux only)."""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, Iterable, List, Optional, Tuple

_TICK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> Optional[Tuple[int, float, int]]:
    """(ppid, user+system CPU seconds, start time in ticks) or None if the
    process is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            raw = f.read().decode("ascii", "replace")
    except OSError:
        return None
    # the command name may hold spaces and parentheses: split after the
    # last ')'
    fields = raw[raw.rfind(")") + 2 :].split()
    return int(fields[1]), (int(fields[11]) + int(fields[12])) / _TICK, int(fields[19])


def descendants(root: int) -> List[int]:
    """Every live process below ``root`` in the process tree."""
    children: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None:
                children.setdefault(st[0], []).append(int(name))
    out: List[int] = []
    todo = [root]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def tree_cpu_s(root: int) -> float:
    """CPU seconds used so far by ``root`` and its live descendants."""
    total = 0.0
    for pid in [root, *descendants(root)]:
        st = _stat(pid)
        if st is not None:
            total += st[1]
    return total


def pin_tree(root: int, cpu: int) -> None:
    """Restrict every thread of ``root`` and of its live descendants to
    ``cpu``. Threads and processes they start later inherit it."""
    for pid in [root, *descendants(root)]:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), {cpu})
            except OSError:
                pass  # the thread has ended


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode("utf-8", "replace")
    except OSError:
        return ""


def hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of one process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def snapshot(pids: Iterable[int]) -> Dict[int, int]:
    """pid -> start time, to recognise the same processes later."""
    out = {}
    for pid in pids:
        st = _stat(pid)
        if st is not None:
            out[pid] = st[2]
    return out


def reap(procs: Dict[int, int], timeout_s: float = 20.0) -> List[int]:
    """Wait until every process in ``procs`` (a :func:`snapshot`) has
    ended; terminate, then kill, the ones still alive after ``timeout_s``.
    Returns the pids that had to be signalled."""

    def alive() -> List[int]:
        out = []
        for pid, start in procs.items():
            st = _stat(pid)
            # a zombie's parent reaps it; a reused pid is another process
            if st is not None and st[2] == start and not _is_zombie(pid):
                out.append(pid)
        return out

    deadline = time.monotonic() + timeout_s
    while alive() and time.monotonic() < deadline:
        time.sleep(0.1)
    signalled = alive()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in alive():
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        end = time.monotonic() + 5.0
        while alive() and time.monotonic() < end:
            time.sleep(0.1)
    return signalled


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            raw = f.read()
    except OSError:
        return True
    return raw[raw.rfind(b")") + 2 :].startswith(b"Z")
