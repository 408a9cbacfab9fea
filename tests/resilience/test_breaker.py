"""Circuit breaker state machine, driven by a fake clock (no sleeping)."""

from repro.resilience import BreakerBoard, BreakerConfig, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_breaker(threshold=3, recovery_s=10.0, enabled=True):
    clock = FakeClock()
    config = BreakerConfig(
        enabled=enabled, failure_threshold=threshold, recovery_s=recovery_s
    )
    return CircuitBreaker(config, clock=clock), clock


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker, _ = make_breaker()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = make_breaker(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.opens == 1

    def test_success_resets_consecutive_count(self):
        breaker, _ = make_breaker(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_open_refuses_until_recovery_window(self):
        breaker, clock = make_breaker(threshold=1, recovery_s=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(9.9)
        assert not breaker.allow()
        assert breaker.refusals == 2
        clock.advance(0.2)
        assert breaker.allow()  # half-open probe admitted
        assert breaker.state == "half-open"

    def test_half_open_admits_single_probe(self):
        breaker, clock = make_breaker(threshold=1, recovery_s=1.0)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        assert not breaker.allow()  # probe outstanding: concurrent caller refused

    def test_probe_success_closes(self):
        breaker, clock = make_breaker(threshold=1, recovery_s=1.0)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_for_full_window(self):
        breaker, clock = make_breaker(threshold=5, recovery_s=10.0)
        for _ in range(5):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()  # one probe failure re-opens below threshold
        assert breaker.state == "open"
        assert breaker.opens == 2
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.allow()

    def test_disabled_breaker_always_allows(self):
        breaker, _ = make_breaker(threshold=1, enabled=False)
        for _ in range(10):
            breaker.record_failure()
        assert breaker.allow()
        assert breaker.refusals == 0

    def test_snapshot_shape(self):
        breaker, _ = make_breaker(threshold=1)
        breaker.record_failure()
        breaker.allow()
        snap = breaker.snapshot()
        assert snap == {
            "state": "open",
            "consecutive_failures": 1,
            "opens": 1,
            "failures": 1,
            "successes": 0,
            "refusals": 1,
        }


class TestHalfOpenRace:
    """Concurrent callers hitting the recovery boundary: one probe, exactly.

    The sharded tier consults per-shard breakers from many concurrent
    requests; if the half-open transition admitted more than one trial, a
    sick worker would be hammered by a thundering herd the moment its
    recovery window elapsed.  Driven by real threads on a fake clock so the
    race is exercised without wall-clock sleeps deciding the outcome.
    """

    def _race_allow(self, breaker, thread_count):
        import threading

        barrier = threading.Barrier(thread_count)
        admitted = []
        lock = threading.Lock()

        def probe():
            barrier.wait()
            if breaker.allow():
                with lock:
                    admitted.append(threading.get_ident())

        threads = [threading.Thread(target=probe) for _ in range(thread_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return admitted

    def test_concurrent_probes_admit_exactly_one(self):
        breaker, clock = make_breaker(threshold=1, recovery_s=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        admitted = self._race_allow(breaker, thread_count=8)
        assert len(admitted) == 1
        assert breaker.state == "half-open"
        assert breaker.refusals == 7

    def test_failed_probe_reopens_and_blocks_the_herd_deterministically(self):
        breaker, clock = make_breaker(threshold=1, recovery_s=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        assert len(self._race_allow(breaker, thread_count=6)) == 1
        breaker.record_failure()  # the single probe fails
        assert breaker.state == "open"
        assert breaker.opens == 2
        # The full recovery window applies again: nobody gets in early...
        clock.advance(9.99)
        assert self._race_allow(breaker, thread_count=6) == []
        # ...and after it elapses, again exactly one probe.
        clock.advance(0.02)
        assert len(self._race_allow(breaker, thread_count=6)) == 1

    def test_successful_probe_reopens_the_floodgates(self):
        breaker, clock = make_breaker(threshold=1, recovery_s=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert len(self._race_allow(breaker, thread_count=4)) == 1
        breaker.record_success()
        assert breaker.state == "closed"
        assert len(self._race_allow(breaker, thread_count=4)) == 4


class TestBoard:
    def test_get_is_lazy_and_stable(self):
        board = BreakerBoard(BreakerConfig(failure_threshold=2))
        first = board.get("solve:fused")
        assert board.get("solve:fused") is first
        assert board.get("solve:object") is not first

    def test_snapshot_sorted_by_name(self):
        board = BreakerBoard()
        board.get("solve:object")
        board.get("solve:fused")
        assert list(board.snapshot()) == ["solve:fused", "solve:object"]

    def test_breakers_share_config(self):
        board = BreakerBoard(BreakerConfig(failure_threshold=1))
        breaker = board.get("solve:object")
        breaker.record_failure()
        assert breaker.state == "open"
