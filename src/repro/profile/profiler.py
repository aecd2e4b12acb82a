"""The instrumenting host-time profiler (``sys.setprofile`` based).

One :class:`HostProfiler` instance owns all state for one profiling
window: per-phase self/cumulative nanoseconds and call counts, the
collapsed call-stack weights the flamegraph export renders.  Nothing
is module-level and mutable, so the statecheck shardability gate stays
clean.

Attribution model: every Python frame maps to a **phase** through the
site table (:mod:`repro.profile.sites`); unmatched frames inherit their
caller's phase.  Self time is the wall time a frame spends on top of
the stack; cumulative time is wall time from a phase's outermost entry
to its matching return (recursion into the same phase does not double
count).  The profiler reads the wall clock — host time is the thing
being measured — which is exactly why its output lives in ``PROF_*``
sidecars and never inside a golden-diffed document.

The simulation contract is absolute: the profiler installs no
simulator hook, never charges the ledger and never touches a registry.
With it enabled the *virtual* results are byte-identical — only host
wall time changes (``san-profile-zero-cycles``).
"""

import sys
import time

from repro.profile.sites import phase_for_code

#: Collapsed stacks deeper than this reuse their parent's stack key;
#: phases still attribute exactly, only the flamegraph flattens.
MAX_STACK_DEPTH = 64


class PhaseStat:
    """Host-time accounting for one phase."""

    __slots__ = ("calls", "self_ns", "cum_ns", "active")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.cum_ns = 0
        self.active = 0  # live frames of this phase (recursion guard)


class _Frame:
    """One live Python frame the profiler is tracking."""

    __slots__ = ("phase", "mapped", "cum_root", "enter_ns", "stack_key")

    def __init__(self, phase, mapped, cum_root, enter_ns, stack_key):
        self.phase = phase
        self.mapped = mapped
        self.cum_root = cum_root  # outermost frame of this phase
        self.enter_ns = enter_ns
        self.stack_key = stack_key


class HostProfiler:
    """Attribute host wall time to the simulator's phase taxonomy.

    Use as a context manager around the scenario::

        profiler = HostProfiler()
        with profiler:
            ... run the scenario ...
        document = profile_document(profiler, scenario="...")

    Entering the context installs the ``sys.setprofile`` callback and
    leaving it removes the callback; nothing on the machine changes.
    """

    def __init__(self, collect_stacks=True, clock_ns=None):
        # Host wall time is the measurand; PROF_* sidecars are excluded
        # from every golden byte-diff for exactly this reason.
        self._clock = (clock_ns if clock_ns is not None
                       else time.perf_counter_ns)  # lint: allow(sim-nondeterminism)
        self.collect_stacks = collect_stacks
        self.phases = {}  # phase -> PhaseStat
        self.stacks = {}  # tuple of frame labels -> self ns
        self.wall_ns = 0
        self._code_info = {}  # code object -> (phase or None, label)
        self._frames = []
        self._last_ns = 0
        self._active = False

    # -- the profiling window -------------------------------------------

    def start(self):
        if self._active:
            raise RuntimeError("profiler already started")
        self._active = True
        self._frames = []
        self._last_ns = self._clock()
        sys.setprofile(self._callback)

    def stop(self):
        if not self._active:
            return
        sys.setprofile(None)
        now = self._clock()
        self._flush_slice(now)
        # Close out frames still live at stop (the scenario returned
        # through them before the window closed).
        while self._frames:
            frame = self._frames.pop()
            self._leave(frame, now)
        self._active = False

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    # -- callback machinery ---------------------------------------------

    def _info_for(self, code):
        info = self._code_info.get(code)
        if info is None:
            filename = code.co_filename.replace("\\", "/")
            funcname = code.co_name
            phase = phase_for_code(filename, funcname)
            # co_qualname is 3.11+; fall back for the 3.10 CI lane.
            qualname = getattr(code, "co_qualname", funcname)
            stem = filename.rsplit("/", 1)[-1]
            if stem.endswith(".py"):
                stem = stem[:-3]
            info = (phase, "%s:%s" % (stem, qualname))
            self._code_info[code] = info
        return info

    def _current(self):
        return self._frames[-1] if self._frames else None

    def _flush_slice(self, now):
        """Credit the wall time since the last event to whatever frame
        is on top of the stack right now."""
        elapsed = now - self._last_ns
        self._last_ns = now
        if elapsed <= 0:
            return
        self.wall_ns += elapsed
        top = self._current()
        if top is None:
            return
        stat = self.phases.get(top.phase)
        if stat is not None:
            stat.self_ns += elapsed
        if self.collect_stacks and top.stack_key is not None:
            self.stacks[top.stack_key] = \
                self.stacks.get(top.stack_key, 0) + elapsed

    def _leave(self, frame, now):
        if frame.mapped:
            stat = self.phases[frame.phase]
            stat.active -= 1
            if frame.cum_root:
                stat.cum_ns += now - frame.enter_ns

    def _callback(self, frame, event, arg):
        if event == "call":
            now = self._clock()
            self._flush_slice(now)
            phase, label = self._info_for(frame.f_code)
            parent = self._current()
            mapped = phase is not None
            if not mapped:
                phase = parent.phase if parent is not None else "other"
            stat = self.phases.get(phase)
            if stat is None:
                stat = self.phases[phase] = PhaseStat()
            cum_root = False
            if mapped:
                stat.calls += 1
                cum_root = stat.active == 0
                stat.active += 1
            stack_key = None
            if self.collect_stacks:
                if parent is None:
                    stack_key = (label,)
                elif parent.stack_key is None \
                        or len(parent.stack_key) >= MAX_STACK_DEPTH:
                    stack_key = parent.stack_key
                else:
                    stack_key = parent.stack_key + (label,)
            self._frames.append(_Frame(phase, mapped, cum_root, now,
                                       stack_key))
        elif event == "return":
            now = self._clock()
            self._flush_slice(now)
            if self._frames:
                self._leave(self._frames.pop(), now)
            # else: returning through a frame entered before start();
            # nothing of ours to close.
        # c_call/c_return/c_exception: C time accrues to the calling
        # frame's phase via the next _flush_slice, which is where it
        # belongs.
