"""Ordered parts of one job on every CPU this process may run on.

``_map_parts`` runs ``part(lo, hi, send)`` for the first part in this
process, where ``send`` hands each piece on, and for each other one in a
plain ``os.fork`` child (no ``multiprocessing``), which sends its pieces
through a pipe as an 8-byte total length and then the pieces. The parent
hands the bytes on in part order, so the result cannot depend on how
many parts there are. Callers split their work into one part per worker.
"""

from __future__ import annotations

import os
import signal
from collections.abc import Callable, Sequence

# None is one worker per CPU this process may run on, fewer when the work
# is too little to pay for the forks. A count forces that many (tests);
# fork-less platforms always use one.
_WORKERS: int | None = None
# Bytes copied from a child's pipe at a time.
_CHUNK_BYTES = 1 << 16
_LENGTH_BYTES = 8


def _worker_count(parts: int, work: int, per_worker: int) -> int:
    """Workers for ``parts`` parts holding ``work`` units in all, with at
    least ``per_worker`` units each."""
    if not hasattr(os, "fork"):
        return 1
    if _WORKERS is not None:
        return max(1, min(_WORKERS, parts))
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, parts, work // per_worker))


def _fork_part(part: Callable[..., object], lo: int, hi: int, what: str) -> tuple[int, int]:
    """Start a child that runs part(lo, hi, send) and writes its pieces'
    total length and the pieces to a pipe; return its pid and the read end."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        # the child never returns into the caller, runs no atexit handler
        # and flushes no buffer it inherited
        status = 1
        try:
            os.close(read_end)
            pieces: list[bytes] = []
            part(lo, hi, pieces.append)
            with open(write_end, "wb") as pipe:
                pipe.write(sum(map(len, pieces)).to_bytes(_LENGTH_BYTES, "little"))
                pipe.writelines(pieces)
            status = 0
        except BaseException as exc:
            os.write(2, f"worker for {what} {lo}..{hi - 1}: {exc!r}\n".encode())
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _copy(fd: int, out: Callable[[bytes], object]) -> tuple[int, int | None]:
    """Pass a child's bytes from pipe ``fd`` to ``out`` in bounded chunks;
    return the bytes received and the length the child announced (None if
    it sent none)."""
    with open(fd, "rb", closefd=False) as pipe:
        head = pipe.read(_LENGTH_BYTES)
        if len(head) < _LENGTH_BYTES:
            return 0, None
        size = int.from_bytes(head, "little")
        got = 0
        while got < size:
            chunk = pipe.read(min(_CHUNK_BYTES, size - got))
            if not chunk:
                break
            out(chunk)
            got += len(chunk)
    return got, size


def _map_parts(
    part: Callable[[int, int, Callable[[bytes], object]], object],
    out: Callable[[bytes], object],
    bounds: Sequence[int],
    what: str,
) -> None:
    """Deliver the pieces that ``part(lo, hi, send)`` sends (bytes, or
    buffers whose ``len`` counts bytes) for each part of consecutive
    ``bounds`` to ``out``, in order: the first part runs here with ``out``
    as ``send``, each other one in a forked child, whose bytes reach
    ``out`` in chunks of at most ``_CHUNK_BYTES``. Every child is reaped
    before this returns or raises; if this process raises, the children
    are killed first. A child that raised (exit status 1) has its part run
    again here, sending nothing, to raise its error; one that passes here,
    or exits non-zero otherwise or sends fewer bytes than it announced,
    raises ChildProcessError naming its ``what``
    ("rows", say) lo..hi-1, its exit status and the bytes received.
    """
    parts = list(zip(bounds[:-1], bounds[1:]))
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    received = []  # (bytes, length announced) of each child
    try:
        for lo, hi in parts[1:]:
            children.append(_fork_part(part, lo, hi, what))
        part(*parts[0], out)
        for _, fd in children:
            received.append(_copy(fd, out))
    except BaseException:
        _reap(children, kill=True)
        raise
    statuses = _reap(children, kill=False)
    for (lo, hi), status, (got, size) in zip(parts[1:], statuses, received):
        if status or size is None or got < size:
            if status == 1:
                part(lo, hi, lambda piece: None)
            of = "" if size is None else f" of {size}"
            raise ChildProcessError(f"worker for {what} {lo}..{hi - 1} exited with "
                                    f"status {status} after {got}{of} bytes")


def _reap(children: list[tuple[int, int]], kill: bool) -> list[int]:
    """Close each child's pipe, kill it first if ``kill``, and wait for it;
    return the exit codes."""
    statuses = []
    for pid, fd in children:
        if kill:
            os.kill(pid, signal.SIGKILL)
        os.close(fd)
        statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    return statuses
