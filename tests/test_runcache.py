"""Tests for the persistent run cache: keys, round trips, and robustness.

The fuzz section pins the hard guarantee of docs/PARALLEL.md: a cache
entry that is truncated, corrupted, bit-flipped, or written by another
code/format version is quarantined and recomputed — it can never crash a
sweep or silently poison its results.
"""

import dataclasses
import hashlib
import json
import random
import shutil
import sys
import typing

import pytest

from repro.config import fbdimm_amb_prefetch, fbdimm_baseline
from repro.experiments.runcache import (
    CACHE_FORMAT,
    RunCache,
    code_salt,
    run_key,
)
from repro.experiments.runner import ExperimentContext
from repro.serialize import canonical_dumps
from repro.system import run_system

INSTS = 1500
PROGRAMS = ("swim",)


def _config():
    return dataclasses.replace(
        fbdimm_baseline(num_cores=1), instructions_per_core=INSTS
    )


@pytest.fixture(scope="module")
def small_result():
    return run_system(_config(), PROGRAMS)


class TestRunKey:
    def test_key_is_pinned_to_field_values(self):
        rebuilt = dataclasses.replace(_config(), seed=_config().seed)
        assert _config() is not rebuilt
        assert run_key(_config(), PROGRAMS) == run_key(rebuilt, PROGRAMS)

    def test_key_sees_every_config_field(self):
        changed = dataclasses.replace(_config(), seed=999)
        assert run_key(_config(), PROGRAMS) != run_key(changed, PROGRAMS)

    def test_key_sees_programs_and_their_order(self):
        key = run_key(_config(), ("swim", "vpr"))
        assert key != run_key(_config(), ("vpr", "swim"))
        assert key != run_key(_config(), ("swim",))

    def test_key_includes_the_code_salt(self):
        assert run_key(_config(), PROGRAMS, salt="aaaa") != run_key(
            _config(), PROGRAMS, salt="bbbb"
        )

    def test_salt_is_stable_within_a_process(self):
        assert code_salt() == code_salt()
        assert len(code_salt()) == 16


class TestStoreLoad:
    def test_round_trip(self, tmp_path, small_result):
        cache = RunCache(tmp_path)
        key = run_key(_config(), PROGRAMS)
        cache.store(key, small_result)
        loaded = cache.load(key)
        assert loaded == small_result
        assert loaded.canonical_json() == small_result.canonical_json()
        assert cache.stats.stores == 1 and cache.stats.hits == 1

    def test_miss_on_unknown_key(self, tmp_path):
        cache = RunCache(tmp_path)
        assert cache.load("0" * 64) is None
        assert cache.stats.misses == 1

    def test_store_leaves_no_temp_files(self, tmp_path, small_result):
        cache = RunCache(tmp_path)
        cache.store(run_key(_config(), PROGRAMS), small_result)
        assert not list(tmp_path.rglob("*.tmp*"))

    def test_store_is_idempotent(self, tmp_path, small_result):
        cache = RunCache(tmp_path)
        key = run_key(_config(), PROGRAMS)
        path = cache.store(key, small_result)
        body = path.read_text()
        cache.store(key, small_result)
        assert path.read_text() == body

    def test_purge_and_summary(self, tmp_path, small_result):
        cache = RunCache(tmp_path)
        for seed in (1, 2, 3):
            config = dataclasses.replace(_config(), seed=seed)
            cache.store(run_key(config, PROGRAMS), small_result)
        summary = cache.summary()
        assert summary["entries"] == 3
        assert summary["bytes"] > 0
        assert summary["format"] == CACHE_FORMAT
        assert cache.purge() == 3
        assert cache.summary()["entries"] == 0


class TestCorruptionFuzz:
    """Defective entries must quarantine and miss — never raise, never lie."""

    @pytest.fixture()
    def entry(self, tmp_path, small_result):
        cache = RunCache(tmp_path)
        key = run_key(_config(), PROGRAMS)
        path = cache.store(key, small_result)
        return cache, key, path

    def _assert_quarantined(self, cache, key, path):
        assert cache.load(key) is None
        assert not path.exists()
        assert len(list(cache.quarantined())) == 1
        assert cache.stats.quarantined == 1

    def test_truncated_entry(self, entry):
        cache, key, path = entry
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\n")  # payload line lost
        self._assert_quarantined(cache, key, path)

    def test_partially_written_payload(self, entry):
        cache, key, path = entry
        body = path.read_text()
        path.write_text(body[: len(body) // 2])
        self._assert_quarantined(cache, key, path)

    def test_garbage_bytes(self, entry):
        cache, key, path = entry
        path.write_bytes(b"\x00\xffnot json at all\n{{{\n")
        self._assert_quarantined(cache, key, path)

    def test_format_version_mismatch(self, entry):
        cache, key, path = entry
        header, payload = path.read_text().splitlines()
        header = header.replace(f'"format":{CACHE_FORMAT}', '"format":999')
        path.write_text(header + "\n" + payload + "\n")
        self._assert_quarantined(cache, key, path)

    def test_salt_mismatch(self, entry):
        cache, key, path = entry
        header, payload = path.read_text().splitlines()
        header = header.replace(code_salt(), "f" * 16)
        path.write_text(header + "\n" + payload + "\n")
        self._assert_quarantined(cache, key, path)

    def test_entry_under_wrong_key(self, entry):
        cache, key, path = entry
        # A different two-hex-digit prefix: "ab" + key[2:] is the key
        # itself whenever the key already starts with "ab".
        other = ("cd" if key.startswith("ab") else "ab") + key[2:]
        wrong = cache.path_for(other)
        wrong.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(path, wrong)
        assert cache.load(other) is None
        assert cache.stats.quarantined == 1
        assert cache.load(key) is not None  # the honest copy still serves

    def test_random_single_byte_flips_never_poison(self, entry):
        """The payload checksum turns any bit rot into a clean miss."""
        cache, key, path = entry
        pristine = path.read_bytes()
        rng = random.Random(20260805)
        for _ in range(40):
            corrupt = bytearray(pristine)
            offset = rng.randrange(len(corrupt))
            flip = rng.randrange(1, 256)
            corrupt[offset] ^= flip
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(bytes(corrupt))
            assert cache.load(key) is None  # and never raises

    def test_quarantined_entry_is_recomputed(self, tmp_path):
        ctx = ExperimentContext(instructions=INSTS, cache=tmp_path)
        first = ctx.run(fbdimm_baseline(num_cores=1), PROGRAMS)
        assert ctx.fresh_runs == 1
        [path] = list(ctx.cache.entries())
        path.write_text("corrupted\n")

        again = ExperimentContext(instructions=INSTS, cache=tmp_path)
        second = again.run(fbdimm_baseline(num_cores=1), PROGRAMS)
        assert again.fresh_runs == 1 and again.disk_hits == 0
        assert again.cache.stats.quarantined == 1
        assert second.canonical_json() == first.canonical_json()
        # the recomputed entry is stored back and serves the next context
        third = ExperimentContext(instructions=INSTS, cache=tmp_path)
        assert third.run(fbdimm_baseline(num_cores=1), PROGRAMS) == first
        assert third.fresh_runs == 0 and third.disk_hits == 1


def _drop_elapsed(raw):
    del raw["elapsed_ps"]
    return raw


def _unknown_enum(raw):
    raw["config"]["memory"]["kind"] = "SDRAM"
    return raw


def _non_numeric_core_key(raw):
    raw["mem"]["per_core_reads"] = {"core0": [1, 2, 3]}
    return raw


def _unknown_config_key(raw):
    raw["config"]["nonsense"] = 1
    return raw


def _mem_as_list(raw):
    raw["mem"] = [raw["mem"]]
    return raw


class TestPayloadBoundaryFuzz:
    """Well-formed entries (valid header, matching checksum) whose payload
    does not decode: the decoder's error paths must surface as a clean
    quarantined miss, never an exception and never a result."""

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda raw: [],
            _mem_as_list,
            _drop_elapsed,
            _unknown_enum,
            _non_numeric_core_key,
            _unknown_config_key,
        ],
        ids=["payload-list", "mem-list", "missing-elapsed", "unknown-enum",
             "non-numeric-key", "unknown-config-key"],
    )
    def test_undecodable_payload_quarantines(self, tmp_path, small_result, rewrite):
        cache = RunCache(tmp_path)
        key = run_key(_config(), PROGRAMS)
        path = cache.store(key, small_result)
        raw = json.loads(path.read_text().splitlines()[1])
        payload = canonical_dumps(rewrite(raw))
        header = {
            "format": CACHE_FORMAT,
            "key": key,
            "salt": code_salt(),
            "payload_sha256": hashlib.sha256(payload.encode()).hexdigest(),
        }
        path.write_text(canonical_dumps(header) + "\n" + payload + "\n")

        assert cache.load(key) is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        assert cache.stats.quarantined == 1
        assert not path.exists()
        assert [p.name for p in cache.quarantined()] == [path.name]


    @staticmethod
    def _assert_recomputed(tmp_path, rewrite):
        """Re-sign a stored entry after ``rewrite`` of its payload; the next
        context must quarantine it and recompute the same result."""
        ctx = ExperimentContext(instructions=INSTS, cache=tmp_path)
        first = ctx.run(fbdimm_baseline(num_cores=1), PROGRAMS)
        [path] = list(ctx.cache.entries())
        header, payload = path.read_text().splitlines()
        payload = canonical_dumps(rewrite(json.loads(payload)))
        header = json.loads(header)
        header["payload_sha256"] = hashlib.sha256(payload.encode()).hexdigest()
        path.write_text(canonical_dumps(header) + "\n" + payload + "\n")

        again = ExperimentContext(instructions=INSTS, cache=tmp_path)
        second = again.run(fbdimm_baseline(num_cores=1), PROGRAMS)
        assert again.fresh_runs == 1 and again.disk_hits == 0
        assert again.cache.stats.quarantined == 1
        assert second.canonical_json() == first.canonical_json()

    def test_unknown_key_entry_is_recomputed(self, tmp_path):
        """A checksummed entry naming a field no dataclass has is not
        served with the key dropped."""
        self._assert_recomputed(tmp_path, _unknown_config_key)

    def test_invalid_config_entry_is_recomputed(self, tmp_path):
        """A checksummed entry whose stored config no constructor accepts
        (a row closed before its burst drains) is not served."""

        def short_tras(raw):
            raw["config"]["memory"]["timings"]["tRAS"] = 20.0
            return raw

        self._assert_recomputed(tmp_path, short_tras)


class TestWarmDecodeCost:
    """Deterministic cost guard for the codec plans: once a type's plan is
    built, loading and keying never re-resolve type hints or re-walk
    dataclass fields.  Counts calls, so machine noise cannot move it."""

    def test_warm_load_and_key_skip_typing_and_dataclasses(
        self, tmp_path, small_result
    ):
        cache = RunCache(tmp_path)
        config = _config()
        key = run_key(config, PROGRAMS)
        cache.store(key, small_result)
        assert cache.load(key) is not None  # warm-up: builds every plan

        calls = []

        def profile(frame, event, arg):
            if event == "call":
                code = frame.f_code
                calls.append((code.co_filename, code.co_name))

        sys.setprofile(profile)
        try:
            loaded = cache.load(key)
            again = run_key(config, PROGRAMS)
        finally:
            sys.setprofile(None)

        assert loaded == small_result and again == key
        assert any(name.endswith("serialize.py") for name, _ in calls)
        assert [c for c in calls if c[0] == typing.__file__] == []
        assert [
            c for c in calls
            if c[0] == dataclasses.__file__ and c[1] in ("fields", "is_dataclass")
        ] == []


class TestContextIntegration:
    def test_disk_hits_serve_without_simulation(self, tmp_path):
        config = fbdimm_amb_prefetch(num_cores=1)
        warm = ExperimentContext(instructions=INSTS, cache=tmp_path)
        result = warm.run(config, PROGRAMS)
        cold = ExperimentContext(instructions=INSTS, cache=tmp_path)
        assert cold.run(config, PROGRAMS) == result
        assert cold.fresh_runs == 0 and cold.disk_hits == 1

    def test_different_instruction_budget_misses(self, tmp_path):
        config = fbdimm_baseline(num_cores=1)
        a = ExperimentContext(instructions=INSTS, cache=tmp_path)
        a.run(config, PROGRAMS)
        b = ExperimentContext(instructions=INSTS * 2, cache=tmp_path)
        b.run(config, PROGRAMS)
        assert b.fresh_runs == 1 and b.disk_hits == 0

    @pytest.mark.parametrize("entry", ["run", "prefetch"])
    def test_a_fresh_run_builds_its_key_once(self, tmp_path, monkeypatch, entry):
        from repro.experiments import runcache

        built = []
        real = runcache.run_key
        monkeypatch.setattr(runcache, "run_key",
                            lambda *args: built.append(args) or real(*args))
        ctx = ExperimentContext(instructions=INSTS, cache=tmp_path)
        pairs = [(fbdimm_baseline(num_cores=1), PROGRAMS),
                 (fbdimm_amb_prefetch(num_cores=1), PROGRAMS)]
        if entry == "run":
            for config, programs in pairs:
                ctx.run(config, programs)
        else:
            ctx.prefetch(pairs)
        assert ctx.fresh_runs == 2 and ctx.cache.stats.stores == 2
        assert len(built) == 2
