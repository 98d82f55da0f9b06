"""Certification service: protocol, cache, façade, and HTTP front.

The chaos-flavored counterparts (injected worker kills, stalls, torn
cache writes, forced shedding) live in ``test_service_chaos.py``; this
file pins the sunny-day contracts and every *parent-side* failure path
that needs no subprocess.
"""

from __future__ import annotations

import io
import json
import sys
import threading

import pytest

from repro.api import verify
from repro.dsl import parse_program, parse_property
from repro.semantics.sparse.checkpoint import program_digest
from repro.service import (
    CertificationService,
    ServiceClient,
    ServiceConfig,
    start_server,
)
from repro.service import worker as worker_mod
from repro.service.cache import SCHEMA, ServiceCache
from repro.service.core import DIGEST_MEMO_SIZE
from repro.service.protocol import (
    ERROR_CODES,
    FrameError,
    normalize_request,
    read_frame,
    request_key,
    write_frame,
)
from repro.service.server import http_status_of
from repro.util.faultinject import flip_byte, inject

COUNTER = """
program counter
declare
  local c : int[0..3]
initially
  c = 0
assign
  fair step: c < 3 -> c := c + 1
end
"""

STUCK = """
program stuck
declare
  local c : int[0..3]
initially
  c = 0
assign
  fair step: c < 2 -> c := c + 1
end
"""

UNREACHABLE_TAIL = """
program P
declare
  shared x : int[0..4]
initially
  x = 0
assign
  fair up: x < 2 -> x := x + 1
end
"""

#: ``transient x = 0`` holds under strong fairness only.
TOGGLE_INC = """
program Gap
declare
  shared x : int[0..3];
  shared b : bool
initially
  x = 0
assign
  fair toggle: b := ~b;
  fair inc: b /\\ x < 3 -> x := x + 1
end
"""

REQ = {"program": COUNTER, "property": "true ~> c = 3"}

#: A program that parses and elaborates to a 600-term ``Add`` chain,
#: deeper than a per-level recursive printer can go at the default
#: recursion limit (``Expr`` printing is iterative, so it has a digest).
LONG_SUM = (
    "program Sum\ndeclare shared x : int[0..2]\n"
    f"initially x = 0{' + 0' * (sys.getrecursionlimit() * 3 // 5)}\n"
    "assign\n  fair up: x < 2 -> x := x + 1\nend\n"
)


@pytest.fixture()
def service(tmp_path):
    svc = CertificationService(
        ServiceConfig(workers=2, cache_dir=str(tmp_path / "cache"), max_pending=4)
    )
    with svc:
        yield svc


@pytest.fixture()
def parses(monkeypatch):
    """Counts the parent's parses of request text."""
    calls = []
    real = worker_mod._parse_request_program

    def counting(request):
        calls.append(request["program"])
        return real(request)

    monkeypatch.setattr(worker_mod, "_parse_request_program", counting)
    return calls


# ---------------------------------------------------------------------------
# Protocol: framing and request identity
# ---------------------------------------------------------------------------


class TestFraming:
    def test_roundtrip(self):
        buf = io.BytesIO()
        doc = {"seq": 7, "request": {"program": "p", "nested": [1, 2, {"a": None}]}}
        write_frame(buf, doc)
        buf.seek(0)
        assert read_frame(buf) == doc
        assert read_frame(buf) is None  # clean EOF

    def test_torn_frame_is_eof_not_garbage(self):
        buf = io.BytesIO()
        write_frame(buf, {"x": "y" * 100})
        torn = io.BytesIO(buf.getvalue()[:-40])  # peer died mid-write
        assert read_frame(torn) is None

    def test_implausible_length_is_frame_error(self):
        buf = io.BytesIO((1 << 62).to_bytes(8, "little") + b"junk")
        with pytest.raises(FrameError):
            read_frame(buf)

    def test_non_object_frame_is_frame_error(self):
        buf = io.BytesIO()
        blob = json.dumps([1, 2, 3]).encode()
        buf.write(len(blob).to_bytes(8, "little") + blob)
        buf.seek(0)
        with pytest.raises(FrameError):
            read_frame(buf)


class TestNormalize:
    def test_defaults_filled(self):
        req = normalize_request(dict(REQ))
        assert req["fairness"] == "weak"
        assert req["tier"] == "auto"
        assert req["prove"] is False

    @pytest.mark.parametrize(
        "patch",
        [
            {"program": ""},
            {"property": None},
            {"fairness": "eventual"},
            {"tier": "compositional"},
            {"prove": "yes"},
            {"deadline": "soon"},
            {"node_budget": 0},
            {"deadline": -1},
        ],
    )
    def test_malformed_fields_refused(self, patch):
        with pytest.raises(ValueError):
            normalize_request({**REQ, **patch})

    def test_key_tracks_answer_inputs_only(self):
        base = normalize_request(dict(REQ))
        digest = "d" * 64
        k0 = request_key(digest, base)
        # Budgets bound effort, not truth: same key.
        assert request_key(digest, normalize_request({**REQ, "deadline": 5})) == k0
        # Property, fairness, prove each change the answer: new keys.
        variants = [
            {**REQ, "property": "invariant c <= 3"},
            {**REQ, "fairness": "strong"},
            {**REQ, "prove": True},
            {**REQ, "tier": "sparse"},
        ]
        keys = {request_key(digest, normalize_request(v)) for v in variants}
        assert k0 not in keys and len(keys) == 4
        assert request_key("e" * 64, base) != k0


# ---------------------------------------------------------------------------
# Cache: fail-closed verdicts and subspace snapshots
# ---------------------------------------------------------------------------


class TestServiceCache:
    def test_verdict_roundtrip(self, tmp_path):
        cache = ServiceCache(tmp_path)
        payload = {"status": "ok", "holds": True, "tier": "dense"}
        cache.put_verdict("a" * 64, payload)
        assert cache.get_verdict("a" * 64) == payload
        assert cache.stats()["hits"] == 1

    def test_miss_is_none(self, tmp_path):
        assert ServiceCache(tmp_path).get_verdict("b" * 64) is None

    def test_undecided_payloads_are_uncacheable(self, tmp_path):
        cache = ServiceCache(tmp_path)
        with pytest.raises(ValueError):
            cache.put_verdict("a" * 64, {"status": "unknown", "reason": "deadline"})
        with pytest.raises(ValueError):
            cache.put_verdict("a" * 64, {"status": "ok", "holds": None})

    def test_corrupt_entry_evicted_never_served(self, tmp_path):
        cache = ServiceCache(tmp_path)
        key = "c" * 64
        cache.put_verdict(key, {"status": "ok", "holds": False, "tier": "dense"})
        path = cache._verdict_path(key)
        flip_byte(path, -15)  # lands inside the payload document
        assert cache.get_verdict(key) is None
        assert cache.stats()["evictions"] == 1
        import os

        assert not os.path.exists(path)  # evicted, so the next write rebuilds

    def test_key_mismatch_evicted(self, tmp_path):
        cache = ServiceCache(tmp_path)
        payload = {"status": "ok", "holds": True}
        cache.put_verdict("d" * 64, payload)
        import os

        os.replace(cache._verdict_path("d" * 64), cache._verdict_path("e" * 64))
        assert cache.get_verdict("e" * 64) is None

    def test_wrong_schema_evicted(self, tmp_path):
        cache = ServiceCache(tmp_path)
        path = cache._verdict_path("f" * 64)
        with open(path, "w") as f:
            json.dump({"schema": SCHEMA + "-not", "payload": {}}, f)
        assert cache.get_verdict("f" * 64) is None

    def test_schema_one_entries_are_not_served(self, tmp_path):
        """Schema 1 stored the weak verdict of strong ``transient``
        requests, so its entries read as never written."""
        cache = ServiceCache(tmp_path)
        key = "9" * 64
        cache.put_verdict(key, {"status": "ok", "holds": False, "tier": "dense"})
        path = cache._verdict_path(key)
        with open(path) as f:
            doc = json.load(f)
        doc["schema"] = "repro.service-cache/1"
        with open(path, "w") as f:
            json.dump(doc, f)
        assert cache.get_verdict(key) is None

    def test_subspace_roundtrip_and_corruption(self, tmp_path):
        """The cache's snapshot policy reads back what it writes; a
        damaged snapshot is never served, it counts as absent and the
        next exploration replaces it."""
        from repro.errors import CheckpointError
        from repro.semantics.sparse.checkpoint import load_checkpoint
        from repro.semantics.sparse.explorer import explore, reachable_subspace

        cache = ServiceCache(tmp_path)
        program = parse_program(COUNTER)
        sub = explore(program, checkpoint=cache.checkpoint_policy(program))
        path = cache.checkpoint_policy(program).path
        again = parse_program(COUNTER)
        loaded = reachable_subspace(again, checkpoint=cache.checkpoint_policy(again))
        assert loaded.global_ids.tolist() == sub.global_ids.tolist()
        flip_byte(path, -3)
        third = parse_program(COUNTER)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, third)
        fresh = reachable_subspace(third, checkpoint=cache.checkpoint_policy(third))
        assert fresh.global_ids.tolist() == sub.global_ids.tolist()
        assert load_checkpoint(path, third)["header"]["complete"] is True


# ---------------------------------------------------------------------------
# Service façade
# ---------------------------------------------------------------------------


class TestSubmit:
    def test_decided_verdict(self, service):
        r = service.submit(dict(REQ))
        assert r["status"] == "ok"
        assert r["holds"] is True
        assert r["cached"] is False
        assert r["digest"] == program_digest(parse_program(COUNTER))

    def test_failing_property_is_decided_false(self, service):
        r = service.submit({"program": STUCK, "property": "true ~> c = 3"})
        assert r["status"] == "ok" and r["holds"] is False

    def test_second_request_is_cache_hit(self, service):
        first = service.submit(dict(REQ))
        second = service.submit(dict(REQ))
        assert second["cached"] is True
        assert second["holds"] is first["holds"]
        assert service.cache.stats()["hits"] >= 1

    def test_sparse_verdict_never_answers_auto(self, service):
        """The reachable-restricted verdict of a ``tier="sparse"`` request
        must not be served to a later ``tier="auto"`` one: here the
        unreachable states x=3 and x=4 never reach x=2, so only the
        sparse tier says HOLDS."""
        req = {"program": UNREACHABLE_TAIL, "property": "true ~> x = 2"}
        sparse = service.submit({**req, "tier": "sparse"})
        assert sparse["status"] == "ok" and sparse["holds"] is True
        auto = service.submit(dict(req))
        program = parse_program(UNREACHABLE_TAIL)
        expected = verify(program, parse_property(req["property"], program))
        assert auto["status"] == "ok" and auto["cached"] is False
        assert auto["holds"] is expected.holds is False

    def test_cache_survives_service_restart(self, tmp_path, parses):
        cfg = ServiceConfig(workers=1, cache_dir=str(tmp_path), max_pending=2)
        with CertificationService(cfg) as svc:
            assert svc.submit(dict(REQ))["cached"] is False
        with CertificationService(cfg) as svc:
            r = svc.submit(dict(REQ))
            assert r["cached"] is True and r["holds"] is True
        # The digest memo belongs to one service: the new one parses.
        assert len(parses) == 2

    def test_parse_error_never_burns_a_worker(self, service):
        r = service.submit({"program": "garbage", "property": "x = 1"})
        assert r["status"] == "error"
        assert r["error"]["code"] == "parse-error"
        assert service.pool.stats()["crashes"] == 0

    def test_bad_request(self, service):
        r = service.submit({"program": COUNTER})
        assert r["status"] == "error" and r["error"]["code"] == "bad-request"

    def test_unknown_program_name(self, service):
        r = service.submit({**REQ, "program_name": "nonexistent"})
        assert r["status"] == "error" and r["error"]["code"] == "parse-error"

    def test_prove_attaches_certificate(self, service):
        r = service.submit({**REQ, "prove": True})
        assert r["status"] == "ok" and r["holds"] is True
        assert r["certified"] is True

    def test_deadline_zero_is_structured_unknown(self, service):
        # tier=sparse + zero deadline: exploration exhausts immediately.
        # The degradation contract: UNKNOWN with resume statistics —
        # never a verdict, never a hang.
        r = service.submit({**REQ, "tier": "sparse", "deadline": 0})
        assert r["status"] == "unknown"
        assert r["reason"] == "deadline"
        assert "holds" not in r
        assert r["checkpoint_path"]  # resumable

    def test_unknowns_are_never_cached(self, service):
        service.submit({**REQ, "tier": "sparse", "deadline": 0})
        # Same key as an undeadlined request; must recompute, not serve
        # the UNKNOWN.
        r = service.submit({**REQ, "tier": "sparse"})
        assert r["status"] == "ok" and r["holds"] is True

    def test_coalescing_single_flight(self, service):
        barrier = threading.Barrier(4)
        results = []

        def call():
            barrier.wait()
            results.append(service.submit({**REQ, "property": "true ~> c >= 2"}))

        threads = [threading.Thread(target=call) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r["status"] == "ok" and r["holds"] is True for r in results)
        followers = [r for r in results if r.get("coalesced")]
        assert service.coalesced == len(followers)
        # Exactly one computation published, however the race resolved:
        # followers coalesced onto the leader, stragglers hit the cache.
        assert service.cache.stats()["writes"] == 1

    def test_shed_when_admission_fault_armed(self, service):
        with inject("service.queue.admit"):
            r = service.submit(dict(REQ))
        assert r["status"] == "shed"
        assert r["error"]["code"] == "overloaded"
        assert r["retry_after"] > 0
        assert service.shed == 1

    def test_health_snapshot(self, service):
        service.submit(dict(REQ))
        h = service.health()
        assert h["status"] == "ok"
        assert h["counters"]["requests"] == 1
        assert h["pool"]["size"] == 2
        assert h["cache"]["writes"] >= 1

    def test_config_refuses_starvable_pool(self):
        with pytest.raises(ValueError):
            ServiceConfig(workers=4, max_pending=2)


class TestDigestMemo:
    """The parent parses each distinct request text once per service."""

    def test_identical_submits_parse_once(self, service, parses):
        answers = [service.submit(dict(REQ)) for _ in range(3)]
        assert len(parses) == 1
        assert [a.pop("cached") for a in answers] == [False, True, True]
        assert answers[0] == answers[1] == answers[2]
        assert answers[0]["status"] == "ok" and answers[0]["holds"] is True

    def test_answer_fields_reuse_the_digest_but_not_the_key(
        self, service, parses
    ):
        base = service.submit(dict(REQ))
        variants = [
            service.submit({**REQ, "tier": "sparse"}),
            service.submit({**REQ, "fairness": "strong"}),
            service.submit({**REQ, "prove": True}),
        ]
        assert len(parses) == 1
        keys = {base["key"]} | {v["key"] for v in variants}
        assert len(keys) == 4
        assert all(v["status"] == "ok" for v in variants)
        assert {v["digest"] for v in variants} == {base["digest"]}

    def test_parse_errors_are_parsed_every_time(
        self, service, parses, monkeypatch
    ):
        dispatched = []
        monkeypatch.setattr(
            service.pool, "submit", lambda *a, **k: dispatched.append(a)
        )
        bad = {"program": "garbage", "property": "x = 1"}
        for _ in range(3):
            r = service.submit(dict(bad))
            assert r["error"]["code"] == "parse-error"
        assert len(parses) == 3
        assert dispatched == []

    def test_oldest_text_is_forgotten_past_the_bound(self, service, parses):
        # Comments make distinct texts of one program, so every request
        # after the first is a verdict cache hit.
        texts = [f"{COUNTER}# copy {i}\n" for i in range(DIGEST_MEMO_SIZE + 1)]
        for text in texts:
            r = service.submit({**REQ, "program": text})
            assert r["status"] == "ok" and r["holds"] is True
        assert len(parses) == DIGEST_MEMO_SIZE + 1
        service.submit({**REQ, "program": texts[-1]})
        assert len(parses) == DIGEST_MEMO_SIZE + 1
        service.submit({**REQ, "program": texts[0]})
        assert parses[-1] == texts[0]
        assert len(parses) == DIGEST_MEMO_SIZE + 2

    def test_concurrent_submits_of_a_fresh_document_agree(self, tmp_path):
        cfg = ServiceConfig(workers=2, cache_dir=str(tmp_path), max_pending=8)
        doc = {"program": COUNTER, "property": "c = 1 ~> c = 3"}
        barrier = threading.Barrier(8)
        results = []

        def call():
            barrier.wait()
            results.append(svc.submit(dict(doc)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with CertificationService(cfg) as svc:
                threads = [threading.Thread(target=call) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 8
        assert {r["status"] for r in results} == {"ok"}
        assert len({r["key"] for r in results}) == 1
        assert {r["holds"] for r in results} == {True}


class TestDeepInput:
    """Input too deep for the interpreter's stack still gets an answer."""

    def test_long_sum_is_answered(self, service, parses):
        for _ in range(2):
            r = service.submit({"program": LONG_SUM, "property": "true ~> x = 2"})
            assert r["status"] == "ok" and r["holds"] is True
        assert len(parses) == 1  # the digest is remembered
        assert service.pool.stats()["crashes"] == 0
        ok = service.submit(dict(REQ))
        assert ok["status"] == "ok" and ok["holds"] is True

    def test_deep_property_is_a_parse_error(self, service):
        deep = "(" * 400 + "c = 0" + ")" * 400 + " ~> c = 3"
        r = service.submit({"program": COUNTER, "property": deep})
        assert r["status"] == "error" and r["error"]["code"] == "parse-error"
        assert "nested too deeply" in r["error"]["message"]

    def test_worker_answers_a_long_sum(self):
        from repro.service.worker import handle_request

        req = normalize_request({"program": LONG_SUM, "property": "true ~> x = 2"})
        payload = handle_request(req, None)
        assert payload["status"] == "ok" and payload["holds"] is True

    def test_nested_json_body_is_a_bad_request(self, service):
        import urllib.error
        import urllib.request

        server, url = start_server(service)
        try:
            body = b"[" * 100_000 + b"]" * 100_000
            req = urllib.request.Request(
                url + "/v1/verify", data=body, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(req, timeout=30)
            assert exc_info.value.code == 400
            doc = json.loads(exc_info.value.read().decode("utf-8"))
            assert doc["error"]["code"] == "bad-request"
            r = ServiceClient(url).verify(dict(REQ))
            assert r["status"] == "ok" and r["holds"] is True
        finally:
            server.shutdown()
            server.server_close()


# ---------------------------------------------------------------------------
# HTTP front
# ---------------------------------------------------------------------------


class TestHttp:
    def test_status_mapping(self):
        assert http_status_of({"status": "ok"}) == 200
        assert http_status_of({"status": "unknown"}) == 200
        assert http_status_of({"status": "shed"}) == 429
        for code, expected in ERROR_CODES.items():
            assert (
                http_status_of({"status": "error", "error": {"code": code}})
                == expected
            )

    def test_round_trip(self, service):
        server, url = start_server(service)
        try:
            client = ServiceClient(url)
            r = client.verify(dict(REQ))
            assert r["status"] == "ok" and r["holds"] is True
            r2 = client.verify(dict(REQ))
            assert r2["cached"] is True
            bad = client.verify({"program": "junk", "property": "x = 1"})
            assert bad["error"]["code"] == "parse-error"
            health = client.health()
            assert health["counters"]["requests"] == 3
        finally:
            server.shutdown()
            server.server_close()

    def test_unroutable_paths_and_bodies(self, service):
        import urllib.error
        import urllib.request

        server, url = start_server(service)
        try:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(url + "/nope", timeout=10)
            assert exc_info.value.code == 404
            req = urllib.request.Request(
                url + "/v1/verify", data=b"not json", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(req, timeout=10)
            assert exc_info.value.code == 400
        finally:
            server.shutdown()
            server.server_close()


# ---------------------------------------------------------------------------
# Worker-side request handling (in-process, no subprocess needed)
# ---------------------------------------------------------------------------


class TestHandleRequest:
    def test_decides_in_process(self, tmp_path):
        from repro.service.worker import handle_request

        req = normalize_request(dict(REQ))
        payload = handle_request(req, None)
        assert payload["status"] == "ok" and payload["holds"] is True

    def test_sparse_verdict_publishes_subspace(self, tmp_path):
        from repro.service.worker import handle_request

        cache = ServiceCache(tmp_path)
        req = normalize_request({**REQ, "tier": "sparse"})
        payload = handle_request(req, cache)
        assert payload["status"] == "ok" and payload["tier"] == "sparse"
        import os

        assert os.path.exists(cache.checkpoint_policy(parse_program(COUNTER)).path)

    def test_strong_transient_is_answered_strong(self):
        from repro.service.worker import handle_request

        doc = {"program": TOGGLE_INC, "property": "transient x = 0"}
        weak = handle_request(normalize_request(dict(doc)), None)
        strong = handle_request(
            normalize_request({**doc, "fairness": "strong"}), None
        )
        assert weak["status"] == "ok" and weak["holds"] is False
        assert strong["status"] == "ok" and strong["holds"] is True
        assert strong["subject"] == "transient[strong] x = 0"

    def test_dense_refusal_is_engine_error(self):
        from repro.semantics import sparse as sparse_mod
        from repro.service.worker import handle_request

        old = sparse_mod.SPARSE_THRESHOLD
        sparse_mod.SPARSE_THRESHOLD = 1  # force "routes sparse"
        try:
            req = normalize_request({**REQ, "tier": "dense"})
            payload = handle_request(req, None)
        finally:
            sparse_mod.SPARSE_THRESHOLD = old
        assert payload["status"] == "error"
        assert payload["error"]["code"] == "engine-error"


class TestSnapshotPath:
    """A request routed sparse answers what ``verify()`` answers, whether
    it explores, loads the complete snapshot an earlier request of the
    same program left in the cache, or carries ``deadline: 0``; loading
    never rewrites the snapshot."""

    @pytest.mark.parametrize("seed", range(6))
    def test_service_path_answers_what_verify_answers(
        self, tmp_path, monkeypatch, seed
    ):
        import repro.semantics.sparse as sparse_pkg
        from repro.gen.fuzz import fuzz_case
        from repro.service.worker import handle_request

        monkeypatch.setattr(sparse_pkg, "SPARSE_THRESHOLD", 0)
        case = fuzz_case(seed)
        source = case.source
        p = " /\\ ".join(case.p_conjuncts)
        q = " /\\ ".join(case.q_conjuncts)
        cache = ServiceCache(tmp_path)
        path = cache.checkpoint_policy(case.program).path
        requests = [
            {"program": source, "property": f"{p} ~> {q}"},
            {"program": source, "property": f"true ~> {q}"},
            {"program": source, "property": f"{p} ~> {q}", "deadline": 0},
            {"program": source, "property": f"true ~> {p}", "tier": "sparse",
             "deadline": 0},
        ]
        snapshot = None
        for doc in requests:
            program = parse_program(source)
            expected = verify(
                program,
                parse_property(doc["property"], program),
                tier=doc.get("tier", "auto"),
            )
            payload = handle_request(normalize_request(doc), cache)
            assert payload["status"] == "ok", payload
            assert (payload["holds"], payload["tier"]) == (
                expected.holds,
                expected.tier,
            )
            with open(path, "rb") as f:
                data = f.read()
            snapshot = data if snapshot is None else snapshot
            assert data == snapshot

    def test_exhausted_request_leaves_a_snapshot_the_next_resumes(
        self, tmp_path, monkeypatch
    ):
        import repro.semantics.sparse as sparse_pkg
        from repro.semantics.sparse.checkpoint import load_checkpoint
        from repro.service.worker import handle_request

        monkeypatch.setattr(sparse_pkg, "SPARSE_THRESHOLD", 0)
        cache = ServiceCache(tmp_path)
        program = parse_program(COUNTER)
        path = cache.checkpoint_policy(program).path
        payload = handle_request(
            normalize_request({**REQ, "max_levels": 2}), cache
        )
        assert payload["status"] == "unknown"
        assert payload["checkpoint_path"] == path
        assert load_checkpoint(path, program)["header"]["complete"] is False
        payload = handle_request(normalize_request(dict(REQ)), cache)
        assert payload["status"] == "ok" and payload["holds"] is True
        header = load_checkpoint(path, program)["header"]
        assert header["complete"] is True and header["levels"] == 4


def test_property_objects_parse_against_programs():
    # Sanity for the request shapes used throughout this file.
    program = parse_program(COUNTER)
    prop = parse_property("true ~> c = 3", program)
    assert prop.describe()
