"""The result store's disk layer and single-flight compute (repro.runner.cache).

The planner service answers from this store, so its load-bearing
properties are checked here: N racing threads never compute the same
key twice (single-flight), a bit-flipped or edited entry is detected
and moved aside instead of served, writes are atomic, and a crashed
computer hands its flight to a waiter instead of stranding the key.
"""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

from repro.runner import ResultCache
from repro.runner.cache import DISK, MEMORY


@pytest.fixture
def root(tmp_path):
    return tmp_path / "cache"


@pytest.fixture
def cache(root):
    return ResultCache(disk_dir=root)


def reopen(cache):
    """A second cache over the same directory: every read goes to disk."""
    return ResultCache(disk_dir=cache.disk_dir)


def entry_path(root, key):
    return root / key[:2] / f"{key}.json"


PAYLOAD = {"type": "outcome", "value": {"feasible": True, "metrics": {"iteration_time": 12.5}}}


class TestGetPut:
    def test_round_trip(self, cache):
        cache.put("abc123", PAYLOAD, PAYLOAD)
        assert cache.get("abc123") == (MEMORY, PAYLOAD)
        other = reopen(cache)
        assert other.get("abc123") == (DISK, PAYLOAD)
        assert (other.stats.hits, other.stats.disk_hits) == (1, 1)

    def test_miss_on_absent_key(self, cache):
        assert cache.get("nope") is None
        assert cache.stats.misses == 1

    def test_put_overwrites_atomically(self, cache, root):
        cache.put("k", {"v": 1}, {"v": 1})
        cache.put("k", {"v": 2}, {"v": 2})
        assert reopen(cache).get("k") == (DISK, {"v": 2})
        # No temp droppings left behind by the atomic replace.
        leftovers = [path for path in root.rglob("*") if ".tmp." in path.name]
        assert leftovers == []

    def test_keys_are_sanitised_to_safe_filenames(self, cache, tmp_path):
        cache.put("../../etc/passwd", {"v": 1}, {"v": 1})
        written = [
            path.relative_to(tmp_path).as_posix()
            for path in tmp_path.rglob("*")
            if path.is_file()
        ]
        assert written == ["cache/et/etcpasswd.json"]
        assert reopen(cache).get("../../etc/passwd") == (DISK, {"v": 1})


class TestCorruption:
    def _flip_byte(self, path):
        with open(path, "r+b") as handle:
            offset = os.path.getsize(path) // 2
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0xFF]))

    def test_flipped_byte_is_a_miss_not_an_answer(self, cache, root):
        cache.put("deadbeef", PAYLOAD, PAYLOAD)
        self._flip_byte(entry_path(root, "deadbeef"))
        other = reopen(cache)
        assert other.get("deadbeef") is None
        assert other.stats.corrupt == 1
        # Moved aside, so the next get is a clean miss.
        assert entry_path(root, "deadbeef").with_suffix(".json.corrupt").exists()
        assert other.get("deadbeef") is None
        assert (other.stats.corrupt, other.stats.misses) == (1, 2)

    def test_checksum_mismatch_detected(self, cache, root):
        cache.put("k", PAYLOAD, PAYLOAD)
        path = entry_path(root, "k")
        envelope = json.loads(path.read_text())
        envelope["payload"]["value"]["metrics"]["iteration_time"] = 1.0  # tampered
        path.write_text(json.dumps(envelope))
        other = reopen(cache)
        assert other.get("k") is None
        assert other.stats.corrupt == 1

    def test_non_envelope_json_detected(self, cache, root):
        path = entry_path(root, "k")
        path.parent.mkdir(parents=True)
        path.write_text('{"just": "json"}')
        assert cache.get("k") is None
        assert cache.stats.corrupt == 1

    def test_older_version_is_a_plain_miss(self, cache, root):
        # The version-1 runner format: the payload inlined, no checksum.
        path = entry_path(root, "k")
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({**PAYLOAD, "version": 1, "key": "k"}))
        assert cache.get("k") is None
        assert (cache.stats.misses, cache.stats.corrupt) == (1, 0)


class TestSingleFlight:
    def test_n_threads_compute_each_key_exactly_once(self, cache):
        n_threads, keys = 16, ("key-a", "key-b", "key-c")
        barrier = threading.Barrier(n_threads)
        computed = []
        lock = threading.Lock()
        results = []

        def compute_for(key):
            def compute():
                with lock:
                    computed.append(key)
                return {"key": key}

            return compute

        def worker(index):
            key = keys[index % len(keys)]
            barrier.wait()
            payload = cache.get_or_compute(key, compute_for(key), wait_timeout_s=10.0)
            with lock:
                results.append((key, payload["key"]))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the check-then-claim as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == n_threads
        assert all(key == answered for key, answered in results)
        assert sorted(computed) == sorted(keys), (
            f"single-flight violated: {computed}"
        )
        assert cache.stats.stores == len(keys)
        # Only a caller's get counts: the flight's own lookups do not.
        assert cache.stats.lookups == 0

    def test_waiters_join_the_computers_result(self, cache):
        release = threading.Event()
        entered = threading.Event()

        def slow_compute():
            entered.set()
            release.wait(5.0)
            return dict(PAYLOAD)

        results = []

        def leader():
            results.append(cache.get_or_compute("k", slow_compute))

        thread = threading.Thread(target=leader)
        thread.start()
        assert entered.wait(5.0)

        def follower_compute():
            raise AssertionError("follower must never compute")

        follower = threading.Thread(
            target=lambda: results.append(
                cache.get_or_compute("k", follower_compute, wait_timeout_s=5.0)
            )
        )
        follower.start()
        release.set()
        thread.join(timeout=10.0)
        follower.join(timeout=10.0)
        assert not (thread.is_alive() or follower.is_alive())
        assert results == [PAYLOAD, PAYLOAD]
        assert cache.stats.stores == 1

    def test_crashed_computer_hands_over_the_flight(self, cache):
        attempts = []

        def crash_then_succeed():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("computer died")
            return dict(PAYLOAD)

        with pytest.raises(RuntimeError):
            cache.get_or_compute("k", crash_then_succeed)
        assert cache.stats.stores == 0  # a failed compute stores nothing
        assert cache.get_or_compute("k", crash_then_succeed) == PAYLOAD
        assert cache.stats.stores == 1
        assert len(attempts) == 2

    def test_wait_timeout_raises_instead_of_hanging(self, cache):
        release = threading.Event()
        entered = threading.Event()

        def wedged():
            entered.set()
            release.wait(10.0)
            return dict(PAYLOAD)

        thread = threading.Thread(
            target=lambda: cache.get_or_compute("k", wedged)
        )
        thread.start()
        assert entered.wait(5.0)
        with pytest.raises(TimeoutError):
            cache.get_or_compute("k", wedged, wait_timeout_s=0.05)
        release.set()
        thread.join()
