"""Work dealt to forked processes, one per CPU.

This is the one rule for work split across processes: the sweeps deal their
families by it, and ``serialize.write_artifacts`` the row blocks of a run's
files.  ``dealt(jobs, run)`` deals jobs 0, 1, ... to W = ``stripes(jobs)``
processes, job i to process i % W.  This process is process 0, and forked
child k runs ``run(deal)`` with its own ``Deal``; the caller runs the same
code on the ``Deal`` the block yields.  ``Deal.value(i, make)`` is
``make(i)`` where this process makes job i, and, in the caller, otherwise
the value job i's child sent on its pipe, read in job order.  A child sends
each value as it makes it, and a child that raises sends the exception in
place of its next value.  So the caller stops at the first failing job it
reaches and raises what a one-process run raises there, and the children
are then sent SIGTERM.

A child leaves through ``os._exit``, so it runs none of the parent's exit
handlers and flushes none of its buffers, and a SIGTERM ends it at once: it
writes no file, so it has nothing to undo.  Only ``os.fork``, a pipe and
``pickle`` are used: forking through ``multiprocessing`` adds 0.9 MB to the
process's resident memory (0.3 MB for the import alone, on CPython 3.11 /
x86-64 Linux).
"""
from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
from contextlib import contextmanager


#: what a child's pipe holds, where the system allows it (``_widen``)
PIPE_BYTES = 1 << 20


def stripes(jobs: int) -> int:
    """How many processes to deal this many jobs to (``dealt``).

    One per CPU of the affinity mask, but one where a child cannot be forked
    safely: without fork or an affinity mask, in a daemonic
    ``multiprocessing`` worker (which may not have children) and while other
    threads run (a fork copies only the calling thread, and locks the others
    hold stay held).
    """
    if jobs < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    # a multiprocessing worker has it loaded; looked up, so nothing is imported
    process = sys.modules.get("multiprocessing.process")
    if (process is not None and process.current_process().daemon
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), jobs)


def _flush_stdio():
    # so that text buffered before the fork is not written twice
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):   # None, or closed
            pass


def _send(pipe, value):
    """Send ``value`` on a child's pipe, at once: the caller may be waiting for it."""
    pickle.dump(value, pipe, pickle.HIGHEST_PROTOCOL)
    pipe.flush()


class Deal:
    """One process's part in ``dealt``: job i is made by process i % ``width``.

    This one is ``rank``; the caller (rank 0) reads its ``children``, ranks
    1, 2, ..., and a child sends on its ``pipe``.  The default is the whole
    work in one process.
    """

    def __init__(self, width: int = 1, rank: int = 0, children=(), pipe=None):
        self.width = width
        self.rank = rank
        self.children = children
        self.pipe = pipe

    def value(self, i: int, make):
        """Job i's value: ``make(i)`` where this process makes it, else, in the
        caller, the next value job i's child sent (raised, where that is an
        exception) and None in a child."""
        maker = i % self.width
        if maker != self.rank:
            return None if self.rank else self.children[maker - 1].receive()
        value = make(i)
        if self.rank:
            _send(self.pipe, value)
        return value


class Child:
    """A forked child: its pid and the read end of its pipe, a binary file."""

    def __init__(self, pid: int, read: int):
        self.pid = pid
        self.pipe = open(read, "rb")
        self.reaped = False

    def receive(self):
        """The next value the child sent; raised, where the value is an exception.

        A child that exits before sending it raises RuntimeError with its
        exit code.
        """
        try:
            value = pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):
            self.wait()
            raise
        if isinstance(value, BaseException):
            raise value
        return value

    def wait(self):
        """Reap the child; RuntimeError when it exited with a nonzero code."""
        status = os.waitpid(self.pid, 0)[1]
        self.reaped = True
        code = os.waitstatus_to_exitcode(status)
        if code:
            raise RuntimeError(f"a stripe exited with code {code} "
                               "before sending its values")


def _widen(pipe: int):
    """Let a pipe hold PIPE_BYTES where the system allows it, so that a child
    streaming blocks of text runs that far ahead of its reader.

    A default Linux pipe holds 16 pages: a child that has sent one 36 kB
    block of CSV rows waits for the reader before its second, and the two
    processes end up taking turns.
    """
    try:
        import fcntl
        fcntl.fcntl(pipe, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    except (ImportError, AttributeError, OSError):   # not Linux, or above the system's limit
        pass


def _fork(run, width: int, k: int, children: list):
    """Fork child k, which runs ``run`` on its ``Deal`` and exits; append its
    ``Child`` to ``children``."""
    _flush_stdio()
    read, write = os.pipe()
    # SIGTERM stays blocked until the child has reset it to SIG_DFL, so one
    # that reaches the child as fork returns ends it, as any later one does:
    # no handler of the caller's runs in a child
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        _widen(write)
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        raise
    if pid == 0:
        code = 1
        try:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(read)
            with open(write, "wb") as pipe:
                try:
                    run(Deal(width, k, pipe=pipe))
                except Exception as exc:   # raised where the caller reaches it
                    _send(pipe, exc)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    children.append(Child(pid, read))
    # after the append: a caller's handler that raises here leaves the
    # child to ``dealt``, which ends it
    signal.pthread_sigmask(signal.SIG_SETMASK, mask)


@contextmanager
def dealt(jobs: int, run):
    """Deal ``jobs`` jobs to W = ``stripes(jobs)`` processes; yield this one's ``Deal``.

    Children k = 1, ..., W - 1 are forked, each running ``run`` on its own
    ``Deal``.  Leaving the block waits for each child and raises
    RuntimeError for one that exited with a nonzero code.  No child outlives
    the block: when it raises (at the first failing job the caller reaches,
    or on an interrupt), each child not yet reaped is sent SIGTERM and waited
    for.
    """
    width = stripes(jobs)
    children = []
    try:
        for k in range(1, width):
            _fork(run, width, k, children)
        yield Deal(width, children=children)
        for child in children:
            child.wait()
    finally:
        left = []
        for child in children:
            if not child.reaped:
                try:
                    os.kill(child.pid, signal.SIGTERM)
                    left.append(child)
                except ProcessLookupError:   # reaped just before the flag was set
                    pass
        for child in left:
            os.waitpid(child.pid, 0)
        for child in children:
            child.pipe.close()
