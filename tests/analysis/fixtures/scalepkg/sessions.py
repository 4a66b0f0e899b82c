"""Population-dimensioned state: R22/R23/R24/R26 cases."""

_RESULTS = []


def publish(result):
    """Process generator: module-level per-event accumulation."""
    _RESULTS.append(result)
    yield result


class Frontend:
    """Grows per-session state inside simulation processes."""

    def __init__(self):
        self.sessions = []
        self.outcomes = []  # simlint: disable=R23  experiment artifact kept for the final report
        self.finished = []
        self.batch = []
        self.window = []
        self._by_name = {}
        self._cache = None
        self._rates_cache = {}

    def submit(self, session):
        """Process generator: one per arrival."""
        self.sessions.append(session)
        self.outcomes.append(session)
        self.finished.append(session)
        self.batch.append(session)
        self._by_name[session.name] = session
        yield session

    def reap(self, session):
        self.finished.remove(session)
        self._by_name.pop(session.name, None)

    def lookup(self, name):
        """Hot through the name-based closure: drive() calls it."""
        for session in self.sessions:
            if session.name == name:
                return session
        return None

    def snapshot(self):
        """Hot: a comprehension scan counts too."""
        return [session for session in self.sessions]

    def audit(self):
        """Cold: never reached from a generator."""
        for session in self.sessions:
            session.ping()

    def drive(self):
        """Process generator: makes lookup/snapshot per-event."""
        yield self.lookup("s-1")
        yield self.snapshot()

    def admit(self, session):
        """Process generator: linear membership probe."""
        if session in self.sessions:
            return
        if session.name in self._by_name:
            return
        yield session

    def sweep(self):
        for session in list(self.finished):
            if session in self.sessions:  # simlint: disable=R24  teardown pass, runs once per scenario
                self.finished.remove(session)

    def progress(self):
        """Process generator: full ordered pass per iteration."""
        for _ in range(3):
            ranked = sorted(self.sessions)
            yield ranked

    def rotate(self):
        """Process generator: the swap-drain re-init is an eviction."""
        drained, self.batch = self.batch, []
        yield drained

    def compact(self):
        self.finished[:] = list(self.finished)

    def refresh(self):
        """Process generator: cache rebuilds, guarded and not."""
        self._rates_cache = sorted(self.window)
        if self._cache is None:
            self._cache = sorted(self.window)
        self._memo = sorted(self.window)  # simlint: disable=R26  rebuilt once per epoch by the caller
        yield self._cache


#: Negative: only a function's own local of the same name grows.
_ARCHIVE = []


def archive(session):
    """Process generator: its ``_ARCHIVE`` is a fresh local list."""
    _ARCHIVE = []
    _ARCHIVE.append(session)
    yield _ARCHIVE
