"""Work dealt to forked processes, one per CPU.

``forked(width, body)`` runs ``body(k, pipe)`` in forked children k = 1, ...,
width - 1, each sending values (``send``) on its own pipe, which this process
reads in order (``Child.receive``).  A child leaves through ``os._exit``, so
it runs none of the parent's exit handlers and flushes none of its buffers,
and a SIGTERM ends it at once: it writes no file, so it has nothing to undo.

``striped(fn, count)`` gives ``[fn(i) for i in range(count)]``, with the
indices dealt to W = ``stripes(count)`` stripes i, i + W, ...: this process
runs the first stripe and child k the k-th, which sends its values back in
one piece.  The sweeps run their families this way.
``serialize.write_artifacts`` deals the row blocks of a run's files through
``forked``, a child streaming the text of each block it makes.

Only ``os.fork``, a pipe and ``pickle`` are used: forking through
``multiprocessing`` adds 0.9 MB to the process's resident memory (0.3 MB
for the import alone, on CPython 3.11 / x86-64 Linux).
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
    """How many processes to run this many jobs in (``striped``, ``forked``).

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


def _stripe(fn, indices):
    """([fn(i) for the indices in order], first error).

    The values stop at the first index whose call raises; the error is (that
    index, its exception), or None when every call returned.
    """
    done = []
    for i in indices:
        try:
            done.append(fn(i))
        except Exception as exc:
            return done, (i, exc)
    return done, None


def _flush_stdio():
    # so that text buffered before the fork is not written twice
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):   # None, or closed
            pass


def send(pipe, value):
    """Send ``value`` on a child's pipe, at once: the parent may be waiting for it."""
    pickle.dump(value, pipe, pickle.HIGHEST_PROTOCOL)
    pipe.flush()


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


def _fork(body, k: int, children: list):
    """Fork child k, which runs ``body(k, pipe)`` on the write end of a new
    pipe and exits; append its ``Child`` to ``children``."""
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
                body(k, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    children.append(Child(pid, read))
    # after the append: a caller's handler that raises here leaves the
    # child to ``forked``, which ends it
    signal.pthread_sigmask(signal.SIG_SETMASK, mask)


@contextmanager
def forked(width: int, body):
    """Fork children k = 1, ..., width - 1 that run ``body(k, pipe)``; yield
    their ``Child``s, in k order.

    ``pipe`` is the write end of the child's own pipe, a binary file.  Leaving
    the block waits for each child and raises RuntimeError for one that
    exited with a nonzero code.  No child outlives the block: when it raises,
    an interrupt included, each child not yet reaped is sent SIGTERM and
    waited for.
    """
    children = []
    try:
        for k in range(1, width):
            _fork(body, k, children)
        yield children
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


def striped(fn, count: int) -> list:
    """[fn(i) for i in range(count)], run in ``stripes(count)`` processes.

    The values are those of one process, in index order.  When calls raise,
    the exception of the lowest index is raised, with its type, message and
    attributes: the one the one-process run meets first.  A stripe's values
    stop at its first error while the other stripes run on.  No child
    outlives the call (``forked``).
    """
    width = stripes(count)
    with forked(width, lambda k, pipe: send(pipe, _stripe(fn, range(k, count, width)))) \
            as children:
        results = [_stripe(fn, range(0, count, width))]
        results += [child.receive() for child in children]
    errors = [err for _, err in results if err is not None]
    if errors:
        raise min(errors, key=lambda err: err[0])[1]
    values = [None] * count
    for k, (done, _) in enumerate(results):
        values[k::width] = done
    return values
