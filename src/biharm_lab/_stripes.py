"""Independent jobs run in forked stripes, one per CPU.

``striped(fn, count)`` gives ``[fn(i) for i in range(count)]``, with the
indices dealt to W = ``stripes(count)`` stripes i, i + W, ...: this process
runs the first stripe and a forked child each other one.  A child pickles
its values to a pipe and leaves through ``os._exit``, so it runs none of
the parent's exit handlers and flushes none of its buffers.  The sweeps run
their families this way and ``serialize.write_artifacts`` its files.

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


def stripes(jobs: int) -> int:
    """How many processes ``striped`` runs this many jobs in.

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


def _unwind(signum, frame):
    """SIGTERM in a child: unwind its stack as an interrupt unwinds the parent's,
    so that its ``finally`` clauses run (a half-written file is removed)."""
    signal.signal(signum, signal.SIG_DFL)   # a second one ends the child at once
    raise SystemExit(1)


def _flush_stdio():
    # so that text buffered before the fork is not written twice
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):   # None, or closed
            pass


def _fork(fn, indices, children: list):
    """Fork a child that runs the stripe and pickles it to a pipe; append
    its (pid, read end of the pipe) to ``children``."""
    _flush_stdio()
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            try:
                signal.signal(signal.SIGTERM, _unwind)
                os.close(read)
                data = pickle.dumps(_stripe(fn, indices), pickle.HIGHEST_PROTOCOL)
                with open(write, "wb") as pipe:
                    pipe.write(data)
                code = 0
            finally:
                os._exit(code)
        finally:
            # reached only when a SIGTERM unwinds the clause above before its exit
            os._exit(1)
    children.append((pid, read))
    os.close(write)


def striped(fn, count: int) -> list:
    """[fn(i) for i in range(count)], run in ``stripes(count)`` processes.

    The values are those of one process, in index order.  When calls raise,
    the exception of the lowest index is raised, with its type, message and
    attributes: the one the one-process run meets first.  A stripe's values
    stop at its first error while the other stripes run on.  No child
    outlives the call: when this process raises, an interrupt included,
    each child not yet reaped is sent SIGTERM and waited for.
    """
    width = stripes(count)
    children = []      # (pid, read end of its pipe) of each forked stripe
    reaped = 0         # the children before this one have been waited for
    try:
        for k in range(1, width):
            _fork(fn, range(k, count, width), children)
        results = [_stripe(fn, range(0, count, width))]
        for pid, read in children:
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped += 1
            code = os.waitstatus_to_exitcode(status)
            if code:
                raise RuntimeError(f"a stripe exited with code {code} "
                                   "before sending its values")
            results.append(pickle.loads(data))
    finally:
        left = []
        for pid, _ in children[reaped:]:
            try:
                os.kill(pid, signal.SIGTERM)
                left.append(pid)
            except ProcessLookupError:   # reaped just before the count was kept
                pass
        for pid in left:
            os.waitpid(pid, 0)
        for _, read in children:
            os.close(read)
    errors = [err for _, err in results if err is not None]
    if errors:
        raise min(errors, key=lambda err: err[0])[1]
    values = [None] * count
    for k, (done, _) in enumerate(results):
        values[k::width] = done
    return values
