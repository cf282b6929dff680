"""Ordered parts of one job on every CPU this process may run on.

``_map_parts`` runs ``part(lo, hi, *sends)`` for each part of a job, with
one ``send`` per output stream. The first part runs in this process, whose
``send``s hand each piece straight to its stream. Each other part runs in
a plain ``os.fork`` child (no ``multiprocessing``), which keeps one list of
pieces per stream and, when its part ends, sends through a pipe one 8-byte
length per stream and then each stream's pieces. The parent hands the
bytes on in part order, so the result cannot depend on how many parts
there are. A child whose part raises sends its message instead: the
parent runs that part again, to raise the error as a serial run would,
and prints the child's message only if it does not. Every caller relies
on this rerun for its errors (the grid reader's byte ranges, the grid
writer's strips, the permutation spans): a part raises, and never marks
a failure by what it sends. At most one child per worker is alive at
once, so a job may have more parts than workers (the grid writer's
strips, which bound the text a child holds).
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
# Sent in place of the first length by a child whose part raised; its
# message follows.
_FAILED = (1 << 64) - 1


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


def _fork_part(part: Callable[..., object], lo: int, hi: int, streams: int,
               what: str) -> tuple[int, int]:
    """Start a child that runs part(lo, hi, *sends) with ``streams`` sends
    and writes to a pipe what ``_send_part`` writes; return its pid and the
    read end."""
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
            status = _send_part(part, lo, hi, streams, what, write_end)
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _send_part(part: Callable[..., object], lo: int, hi: int, streams: int, what: str,
               fd: int) -> int:
    """Run part(lo, hi, *sends) and write to pipe ``fd`` the total length of
    each stream's pieces and then the pieces, stream by stream; or, if the
    part raises, ``_FAILED`` and a line naming the part and the error.
    Return the exit status: 0, or 1 if the part raised."""
    pieces: list[list[bytes]] = [[] for _ in range(streams)]
    status = 0
    try:
        part(lo, hi, *(p.append for p in pieces))
        lengths = [sum(map(len, p)) for p in pieces]
    except BaseException as exc:
        status, lengths = 1, [_FAILED]
        pieces = [[f"worker for {what} {lo}..{hi - 1}: {exc!r}\n".encode()]]
    with open(fd, "wb") as pipe:
        pipe.writelines(n.to_bytes(_LENGTH_BYTES, "little") for n in lengths)
        for stream in pieces:
            pipe.writelines(stream)
    return status


def _copy(fd: int, outs: Sequence[Callable[[bytes], object]]) -> tuple[int, int | None, bytes]:
    """Pass a child's bytes from pipe ``fd`` to ``outs``, stream by stream
    in bounded chunks; return the bytes received, the total the child
    announced (None if it announced none) and its message (empty unless
    its part raised)."""
    with open(fd, "rb", closefd=False) as pipe:
        head = pipe.read(_LENGTH_BYTES * len(outs))
        lengths = [int.from_bytes(head[k : k + _LENGTH_BYTES], "little")
                   for k in range(0, len(head) - _LENGTH_BYTES + 1, _LENGTH_BYTES)]
        if lengths[:1] == [_FAILED]:
            return 0, None, head[_LENGTH_BYTES:] + pipe.read()
        if len(lengths) < len(outs):
            return 0, None, b""
        got = 0
        for out, size in zip(outs, lengths):
            end = got + size
            while got < end and (chunk := pipe.read(min(_CHUNK_BYTES, end - got))):
                out(chunk)
                got += len(chunk)
    return got, sum(lengths), b""


def _map_parts(
    part: Callable[..., object],
    outs: Sequence[Callable[[bytes], object]],
    bounds: Sequence[int],
    workers: int,
    what: str,
) -> None:
    """Deliver the pieces that ``part(lo, hi, *sends)`` sends to each of its
    streams (bytes, or buffers whose ``len`` counts bytes) for each part of
    consecutive ``bounds`` to that stream's ``outs`` entry, in part order.
    The first part runs here with ``outs`` as its ``sends`` while the next
    ``workers - 1`` run in forked children; each later part is forked once
    a child's bytes have reached ``outs`` (in chunks of at most
    ``_CHUNK_BYTES``) and it is reaped, so at most ``workers`` are alive.
    One worker runs every part here. If this process raises, the children
    are killed and reaped first. A child that raised (exit status 1) has its
    part run again here, sending nothing, to raise its error; if that
    passes, the child's message goes to stderr. Such a child, and one that
    exits non-zero otherwise or sends fewer bytes than it announced, raises
    ChildProcessError naming its ``what`` ("rows", say) lo..hi-1, its exit
    status and the bytes received.
    """
    parts = list(zip(bounds[:-1], bounds[1:]))
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe) in part order
    forked = 1  # the next part to fork
    try:
        for k, (lo, hi) in enumerate(parts):
            # while part k runs here or is copied from its child, the parts
            # after it up to part k + workers - 1 run in children
            for a, b in parts[max(forked, k + 1) : k + workers]:
                children.append(_fork_part(part, a, b, len(outs), what))
            forked = max(forked, k + workers)
            if k == 0 or workers < 2:
                part(lo, hi, *outs)
                continue
            got, size, message = _copy(children[0][1], outs)
            status = _reap(*children.pop(0), kill=False)
            if status or size is None or got < size:
                if status == 1:
                    part(lo, hi, *[lambda piece: None] * len(outs))
                    os.write(2, message)
                of = "" if size is None else f" of {size}"
                raise ChildProcessError(f"worker for {what} {lo}..{hi - 1} exited with "
                                        f"status {status} after {got}{of} bytes")
    except BaseException:
        for pid, fd in children:
            _reap(pid, fd, kill=True)
        raise


def _reap(pid: int, fd: int, kill: bool) -> int:
    """Close a child's pipe, kill the child first if ``kill``, and wait for
    it; return its exit code."""
    if kill:
        os.kill(pid, signal.SIGKILL)
    os.close(fd)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
