"""Child processes with wall time and the kernel's max RSS.

Every child runs under the small `spawn` helper (perfbench/_layers/
spawn.c), which forks the program, reaps it with wait4 and reports its
max RSS and fork-to-reap wall time on file descriptor 3. Reaping the
program from Python instead would report Python's own resident size:
a child's ru_maxrss includes the size of the process it was forked
from.
"""

import fcntl
import os
import select
import signal
import time

# A child that runs longer than this is killed and counted as failed, so
# a hung program cannot hold the run past its time limit.
CHILD_TIMEOUT_S = 60.0

SPAWN = None  # path of the built helper; set by run.py


class Outcome:
    __slots__ = ("code", "out", "wall", "maxrss_kb")

    def __init__(self, code, out, wall, maxrss_kb):
        self.code = code
        self.out = out
        self.wall = wall
        self.maxrss_kb = maxrss_kb


def _pipe():
    """A pipe whose ends sit above the descriptors a child is given, so
    no dup2 in the spawn actions maps a descriptor onto itself."""
    ends = []
    for fd in os.pipe():
        ends.append(fcntl.fcntl(fd, fcntl.F_DUPFD_CLOEXEC, 10))
        os.close(fd)
    return ends


def _read_all(fd, deadline):
    """Everything until EOF; None if the deadline passes first."""
    chunks = []
    while True:
        left = deadline - time.perf_counter()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return None
        b = os.read(fd, 65536)
        if not b:
            return b"".join(chunks)
        chunks.append(b)


class _Child:
    """The spawn helper running argv, with its report pipe on fd 3. The
    helper leads its own process group, so a kill reaches the program
    too."""

    def __init__(self, argv, env, actions):
        rep_r, rep_w = _pipe()
        self.pid = os.posix_spawn(
            SPAWN, [SPAWN] + argv, env, setpgroup=0,
            file_actions=actions + [(os.POSIX_SPAWN_DUP2, rep_w, 3)])
        os.close(rep_w)
        self._rep = rep_r

    def kill(self):
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def reap(self):
        """Wait for the helper; returns (exit code, maxrss_kb, wall_s).
        A killed run reports no size or time."""
        _, status, _ = os.wait4(self.pid, 0)
        rep = _read_all(self._rep, time.perf_counter() + 1.0) or b""
        os.close(self._rep)
        code = os.waitstatus_to_exitcode(status)
        try:
            rss, ns = (int(x) for x in rep.split())
            return code, rss, ns * 1e-9
        except ValueError:
            return (code if code < 0 else -signal.SIGKILL), 0, 0.0


def run(argv, env):
    """Run argv to completion; stdout and stderr are captured together."""
    r, w = _pipe()
    c = _Child(argv, env, [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, w, 1),
        (os.POSIX_SPAWN_DUP2, w, 2),
    ])
    os.close(w)
    try:
        out = _read_all(r, time.perf_counter() + CHILD_TIMEOUT_S)
        if out is None:
            c.kill()
            out = b""
    finally:
        os.close(r)
        code, rss, wall = c.reap()
    return Outcome(code, out, wall, rss)


class Piped:
    """A long-lived child fed through a stdin pipe and read line by line
    from stdout; stderr goes to ``err_path``."""

    def __init__(self, argv, env, err_path):
        in_r, in_w = _pipe()
        out_r, out_w = _pipe()
        self.t_spawn = time.perf_counter()
        self._c = _Child(argv, env, [
            (os.POSIX_SPAWN_DUP2, in_r, 0),
            (os.POSIX_SPAWN_DUP2, out_w, 1),
            (os.POSIX_SPAWN_OPEN, 2, err_path,
             os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ])
        os.close(in_r)
        os.close(out_w)
        self._in = in_w
        self._out = out_r
        self._buf = b""
        self.code = None
        self.maxrss_kb = None

    def send(self, line):
        os.write(self._in, line.encode() + b"\n")

    def readline(self, timeout=CHILD_TIMEOUT_S):
        """One stdout line (without the newline), or None at EOF or on
        timeout."""
        deadline = time.perf_counter() + timeout
        while b"\n" not in self._buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([self._out], [], [], left)[0]:
                return None
            b = os.read(self._out, 65536)
            if not b:
                return None
            self._buf += b
        line, self._buf = self._buf.split(b"\n", 1)
        return line

    def _finish(self):
        for fd in (self._in, self._out):
            if fd is not None:
                os.close(fd)
        self._in = self._out = None
        self.code, self.maxrss_kb, _ = self._c.reap()

    def close(self):
        """Close stdin, collect whatever stdout still holds, reap."""
        os.close(self._in)
        self._in = None
        try:
            rest = _read_all(self._out, time.perf_counter() + CHILD_TIMEOUT_S)
            if rest is None:
                self._c.kill()
                rest = b""
        finally:
            self._finish()
        return self._buf + rest

    def kill(self):
        self._c.kill()
        self._finish()
