"""A fork pool for independent cells of work, with results that do not depend
on how many processes ran them.

A cell is one call ``run(k)``: a bench cell of ``experiment`` or a chained
segment of ``inference.geweke_joint_test``. Each cell must be a function of
its index alone (its random stream included), so gathering the results by
index gives the same value at any process count. The calling process runs
cells too; the others run in children made by ``os.fork``, each on its own
copy of the caller's memory. So the caller's ``RUSAGE_SELF`` does not count
them, and a patch made before the call reaches every child, but whatever
state it keeps changes only in the process that ran the cell.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import traceback

_RECORD = struct.Struct("=I")  # one hand-out: a position in the hand-out order


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_cells(order: list, workers: int, run) -> list:
    """``[run(k) for k in range(len(order))]``, on ``workers`` processes.

    ``order`` is a permutation of the cell indices: the order in which cells
    are handed out. The parent forks ``workers - 1`` children, then a feeder
    thread writes the positions ``0 .. len(order) - 1`` into a pipe, one
    record per write (so no record is ever split), and closes it. Every
    process, the parent included, takes one record at a time until end of
    file, runs that cell and keeps its result. A child then pickles its
    results, or the exceptions that stopped it, into its own pipe and leaves
    by ``os._exit``. A process whose cell raises empties the queue, so every
    process stops after its current cell. The parent reaps every child before
    it returns or raises, and re-raises the failure earliest in ``order``: the
    one a single process running ``order`` would have met. A child that ends
    without sending its results is an error.
    """
    queue_r, queue_w = os.pipe()
    feeder = threading.Thread(target=_feed, args=(queue_w, len(order)))
    children = {}  # pid -> read end of the child's result pipe
    sent, status = {}, {}
    results, failures = {}, []
    try:
        for _ in range(workers - 1):
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(queue_w)  # else the queue never reaches end of file here
                _child(queue_r, result_w, order, run)
            os.close(result_w)
            children[pid] = open(result_r, "rb")
        feeder.start()  # after the last fork: no child inherits a running thread
        _take_cells(queue_r, order, run, results, failures)
        for pid, fh in children.items():
            sent[pid] = fh.read()
    finally:
        if feeder.ident is None:
            os.close(queue_w)
        _drain(queue_r)
        if feeder.ident is not None:
            feeder.join()
        os.close(queue_r)
        for pid, fh in children.items():
            fh.close()  # before the wait: a child still writing then stops
            status[pid] = os.waitpid(pid, 0)[1]
    for pid in children:
        try:
            child_results, child_failures = pickle.loads(sent[pid])
        except (EOFError, pickle.UnpicklingError):
            failures.append((len(order), RuntimeError(
                f"worker {pid} ended (wait status {status[pid]}) "
                "without sending its cells")))
            continue
        results.update(child_results)
        failures.extend(child_failures)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [results[k] for k in range(len(order))]


def _feed(queue_w: int, count: int) -> None:
    """Write the hand-out positions into the queue, then close it."""
    try:
        for pos in range(count):
            os.write(queue_w, _RECORD.pack(pos))
    finally:
        os.close(queue_w)


def _drain(queue_r: int) -> None:
    """Empty the queue up to end of file, running nothing."""
    while os.read(queue_r, 1024 * _RECORD.size):
        pass


def _take_cells(queue_r: int, order: list, run, results: dict, failures: list) -> None:
    """Run the cells the queue hands out until it is empty or a cell raises."""
    while record := os.read(queue_r, _RECORD.size):
        (pos,) = _RECORD.unpack(record)
        try:
            results[order[pos]] = run(order[pos])
        except BaseException as exc:  # sent to the parent, or re-raised by it
            failures.append((pos, exc))
            _drain(queue_r)
            return


def _child(queue_r: int, result_w: int, order: list, run) -> None:
    """Body of a forked worker: run cells from the queue, send them back, exit."""
    status = 1
    try:
        results, failures = {}, []
        _take_cells(queue_r, order, run, results, failures)
        for _, exc in failures:
            if hasattr(exc, "add_note"):  # the parent's traceback cannot show this one
                exc.add_note(f"raised in worker {os.getpid()}:\n"
                             + "".join(traceback.format_exception(exc)))
        with open(result_w, "wb") as fh:
            fh.write(pickle.dumps((results, failures)))
        status = 0
    finally:
        os._exit(status)
