"""Ray session lifecycle and process accounting for one benchmark run.

Every process the benchmark starts inherits ``MARKER=<token>`` in its
environment (the raylet and GCS are started by the benchmark process,
workers by the raylet), so survivors can be found in ``/proc`` after
shutdown even once they have been re-parented.
"""

from __future__ import annotations

import os
import signal
import sys
import tempfile
import threading
import time
import uuid

MARKER = "PERFBENCH_RUN"
# AF_UNIX paths are capped at 107 bytes; Ray appends
# "/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store" to its temp dir
_RAY_SUFFIX_LEN = 66
_SOCKET_MAX = 107
_RAY_DAEMONS = ("raylet", "gcs_server")


def _pids() -> list[int]:
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return b""


def _stat_fields(pid: int) -> list[bytes]:
    """Fields of /proc/<pid>/stat from the state (field 3) on; [] once the
    pid is gone."""
    stat = _read(f"/proc/{pid}/stat")
    return stat[stat.rfind(b")") + 2:].split()


def _state(pid: int) -> bytes:
    """Process state letter; b"" once the pid is gone."""
    fields = _stat_fields(pid)
    return fields[0] if fields else b""


def _identity(pid: int) -> tuple[int, bytes] | None:
    """(pid, start time): tells a process from a later one that reuses its
    pid; None once the pid is gone."""
    fields = _stat_fields(pid)
    return (pid, fields[19]) if len(fields) > 19 else None


def _alive(pid: int) -> bool:
    # a zombie has exited; only its parent's wait() is outstanding
    return _state(pid) not in (b"", b"Z", b"X")


def _is_ray_zombie(pid: int) -> bool:
    comm = _read(f"/proc/{pid}/comm").strip()
    return _state(pid) == b"Z" and (
        comm.startswith(b"ray::") or comm.decode(errors="replace") in _RAY_DAEMONS)


def running_ray_daemons() -> list[int]:
    """Pids of any raylet / gcs_server on this host, whoever started them."""
    return [p for p in _pids()
            if _read(f"/proc/{p}/comm").strip().decode(errors="replace")
            in _RAY_DAEMONS and _alive(p)]


def describe(pid: int) -> str:
    """Name, state and command line of a process, for logs."""
    cmd = _read(f"/proc/{pid}/cmdline").replace(b"\0", b" ").strip()
    return (f"{_read(f'/proc/{pid}/comm').strip().decode(errors='replace')} "
            f"[{_state(pid).decode()}] {cmd[:200].decode(errors='replace')}")


class ProcessGroup:
    """The set of processes carrying one run's marker token."""

    def __init__(self):
        self.token = uuid.uuid4().hex
        self._tag = f"{MARKER}={self.token}".encode()
        # verdicts per (pid, start time), so a reused pid is looked at anew
        self._known: dict[tuple[int, bytes], bool] = {}
        # processes that a stop() could not end, even with SIGKILL
        self.left_running: list[int] = []

    def _marked(self, pid: int) -> bool:
        ident = _identity(pid)
        if ident is None:
            return False
        if ident not in self._known:
            env = _read(f"/proc/{pid}/environ")
            if not env:
                # unreadable or not yet exec'd: decide on a later look
                return False
            self._known[ident] = self._tag in env.split(b"\0")
        return self._known[ident]

    def members(self) -> list[int]:
        me = os.getpid()
        return [p for p in _pids() if p != me and self._marked(p) and _alive(p)]

    def pss_mb(self) -> float:
        """Anonymous and shared-memory proportional set size of this process
        plus every marked process.  A page mapped by k of them (the object
        store's shared memory) counts 1/k in each, so it is counted once in
        the sum.  File-backed pages (shared libraries) are left out: how
        many of them are resident, and how many unrelated processes share
        them, depends on the host, not on the run."""
        total_kb = 0
        for p in [os.getpid(), *self.members()]:
            for line in _read(f"/proc/{p}/smaps_rollup").splitlines():
                if line.startswith((b"Pss_Anon:", b"Pss_Shmem:")):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def _lingering(self) -> list[int]:
        """Marked or Ray-named processes still in the process table,
        zombies included."""
        return [p for p in _pids()
                if self._known.get(_identity(p)) or _is_ray_zombie(p)]

    def _collect(self) -> None:
        """Collect exited children of this process (the Ray daemons)."""
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass

    def _wait_gone(self, timeout_s: float) -> list[int]:
        """Marked processes still running after up to ``timeout_s``."""
        deadline = time.monotonic() + timeout_s
        while (left := self.members()) and time.monotonic() < deadline:
            self._collect()
            time.sleep(0.1)
        return left

    def stop(self, grace_s: float = 5.0, term_s: float = 5.0) -> None:
        """Stop every marked process and wait until each has ended.

        After ``ray.shutdown`` the workers and agents the raylet started
        exit on their own once they see it gone; each gets ``grace_s``
        for that, then SIGTERM, then after ``term_s`` SIGKILL.  Processes
        that had to be signalled are logged; those still running after
        SIGKILL are kept in ``left_running``.  Zombies are waited for until
        they have left the process table: those of this process are
        collected here, those re-parented to init by init."""
        left = self._wait_gone(grace_s)
        for sig, wait_s in ((signal.SIGTERM, term_s), (signal.SIGKILL, 10.0)):
            if not left:
                break
            print(f"{sig.name} to processes that outlived ray.shutdown: "
                  + "; ".join(f"{p} {describe(p)}" for p in left),
                  file=sys.stderr, flush=True)
            for p in left:
                try:
                    os.kill(p, sig)
                except ProcessLookupError:
                    pass
            left = self._wait_gone(wait_s)
        self.left_running += left
        deadline = time.monotonic() + 10.0
        while self._lingering() and time.monotonic() < deadline:
            self._collect()
            time.sleep(0.1)


class PssSampler:
    """Background sampler of the group's peak summed Pss, active only
    inside ``with``."""

    def __init__(self, group: ProcessGroup, period_s: float = 1.0):
        self.group = group
        self.period_s = period_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _loop(self):
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, self.group.pss_mb())
            self._stop.wait(self.period_s)

    def __enter__(self):
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak_mb = max(self.peak_mb, self.group.pss_mb())


def ray_temp_dir(work_dir: str) -> str:
    """Temp dir for Ray, which the caller removes.  Ray's socket paths must
    fit AF_UNIX, so a checkout at a long path falls back to a short private
    directory."""
    path = os.path.join(work_dir, "ray")
    if len(path.encode()) + _RAY_SUFFIX_LEN <= _SOCKET_MAX:
        return path
    return tempfile.mkdtemp(prefix="pb")


class RaySession:
    """``ray.init`` on ``num_cpus`` CPUs with workers that can import the
    program from ``src_root``; on exit ``ray.shutdown`` and a stop of every
    process of the group, so that none outlives its session."""

    def __init__(self, group: ProcessGroup, src_root: str, temp_dir: str,
                 num_cpus: int):
        self.group = group
        self.src_root = src_root
        self.temp_dir = temp_dir
        self.num_cpus = num_cpus

    def __enter__(self):
        import ray
        import ray.data

        # children inherit the marker; the raylet forwards the job's
        # runtime_env to every worker
        os.environ[MARKER] = self.group.token
        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=512 * 1024 * 1024,
            _temp_dir=self.temp_dir,
            runtime_env={"env_vars": {
                "PYTHONPATH": self.src_root,
                MARKER: self.group.token,
            }},
        )
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        return self

    def __exit__(self, *exc):
        import ray

        try:
            ray.shutdown()
        finally:
            self.group.stop()
