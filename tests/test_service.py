"""Campaign service: crash-safe queue, leases, drain, and the socket API.

Three layers of coverage:

* queue layer -- journal round-trip and torn-line repair, typed
  admission control, tenant fairness, stale-attempt outcome dropping,
  the advisory append lock;
* scheduler layer -- stub executors exercising the supervision
  machinery (lease-expiry reclaim of a wedged worker, graceful drain
  requeueing at shard boundaries, stale completions dropped);
* process layer -- a real ``repro-characterize serve`` subprocess:
  SIGTERM mid-campaign exits 0 and ``--resume`` finishes with results
  bit-identical to an uninterrupted run; SIGKILL chaos with three
  concurrent tenants never loses or duplicates a job.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import (
    CampaignInterruptedError,
    CheckpointBusyError,
    JobNotFoundError,
    ServiceDrainingError,
    ServiceOverloadError,
    ServiceProtocolError,
)
from repro.service.jobs import execute_job, job_dir, validate_spec
from repro.service.queue import JobQueue, JobRecord, QueueJournal
from repro.service.scheduler import CampaignScheduler

pytestmark = pytest.mark.service

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: A sub-second characterize sweep for scheduler-level tests.
FAST_SPEC = {
    "modules": ["S0"],
    "points": 3,
    "t_max": 1_000.0,
    "trials": 1,
    "rows": 1024,
    "cols": 64,
    "locations_per_region": 4,
    "n_regions": 2,
    "stride": 8,
    "validate": True,
}

#: A multi-second, many-shard sweep the chaos tests can kill mid-flight,
#: run against the fault-injecting noisy backend: the service must
#: survive its own kills *and* the device chaos underneath, and still
#: produce digests bit-identical to a clean uninterrupted run.
CHAOS_SPEC = {
    "modules": ["S0", "S1"],
    "points": 9,
    "t_max": 70_200.0,
    "trials": 6,
    "rows": 2048,
    "cols": 64,
    "locations_per_region": 10,
    "n_regions": 3,
    "stride": 8,
    "backend": "noisy",
    "fault_seed": 7,
    "validate": True,
}


def _queue(tmp_path, **kwargs) -> JobQueue:
    queue = JobQueue(QueueJournal(tmp_path / "queue.jsonl"), **kwargs)
    queue.open()
    return queue


def _wait_for(predicate, timeout=30.0, interval=0.02, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {what}")


# ----------------------------------------------------------- queue layer


def test_queue_journal_round_trip(tmp_path):
    queue = _queue(tmp_path)
    record = queue.submit("alice", "characterize", dict(FAST_SPEC))
    leased = queue.next_job("w0", timeout=1.0)
    assert leased.job_id == record.job_id
    assert queue.complete(record.job_id, leased.attempt, {"digest": "d"})
    queue.seal()

    journal = QueueJournal(tmp_path / "queue.jsonl")
    jobs, sealed = journal.load()
    journal.release()
    assert sealed
    replayed = jobs[record.job_id]
    assert replayed.state == "complete"
    assert replayed.tenant == "alice"
    assert replayed.result == {"digest": "d"}


def test_queue_journal_torn_trailing_line(tmp_path, caplog):
    queue = _queue(tmp_path)
    queue.submit("alice", "characterize", dict(FAST_SPEC))
    queue.submit("alice", "characterize", dict(FAST_SPEC))
    queue._journal.release()
    path = tmp_path / "queue.jsonl"
    with open(path, "ab") as handle:
        handle.write(b'{"op": "lease", "job"')  # SIGKILL mid-append

    journal = QueueJournal(path)
    with caplog.at_level("WARNING", logger="repro.service"):
        jobs, sealed = journal.load()
    journal.release()
    assert not sealed
    assert len(jobs) == 2
    assert all(r.state == "queued" for r in jobs.values())
    assert any("torn trailing line" in m for m in caplog.messages)
    # The torn bytes were truncated away: a second load is warning-free.
    journal = QueueJournal(path)
    jobs2, _ = journal.load()
    journal.release()
    assert sorted(jobs2) == sorted(jobs)


def test_queue_journal_mid_file_corruption_rejected(tmp_path):
    queue = _queue(tmp_path)
    queue.submit("alice", "characterize", dict(FAST_SPEC))
    queue._journal.release()
    path = tmp_path / "queue.jsonl"
    lines = path.read_bytes().split(b"\n")
    lines.insert(1, b"not json at all")
    path.write_bytes(b"\n".join(lines))
    (path.parent / (path.name + ".sha256")).unlink()

    from repro.errors import CheckpointError

    journal = QueueJournal(path)
    with pytest.raises(CheckpointError, match="malformed"):
        journal.load()
    journal.release()


def _event(op, job="job-0001", t=1.0):
    event = {"op": op, "t": t, "job": job}
    if op == "submit":
        event.update(tenant="alice", kind="characterize", spec={})
    return event


@pytest.mark.parametrize(
    "history",
    [
        pytest.param(
            [_event("submit"), _event("submit")], id="duplicate-submit"
        ),
        pytest.param(
            [_event("submit"), _event("lease", "job-0002")],
            id="never-submitted",
        ),
        pytest.param(
            [_event("submit"), _event("cancel"), _event("lease")],
            id="after-terminal",
        ),
        pytest.param(
            [_event("submit"), {"op": "seal", "t": 2.0}, _event("lease")],
            id="after-seal",
        ),
        pytest.param(
            [_event("submit"), _event("frobnicate")], id="unknown-op"
        ),
    ],
)
def test_queue_state_machine_rejections(tmp_path, history):
    """The loader and the validator replay through one state machine:
    both reject an inconsistent history, naming its final line."""
    from repro.errors import ArtifactInvalidError, CheckpointError
    from repro.validate import validate_artifact
    from repro.validate.schema import QUEUE_FORMAT

    path = tmp_path / "queue.jsonl"
    lines = [{"format": QUEUE_FORMAT}] + history
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    where = f"line {len(lines)}: "
    journal = QueueJournal(path)
    with pytest.raises(CheckpointError, match=where):
        journal.load()
    journal.release()
    with pytest.raises(ArtifactInvalidError, match=where):
        validate_artifact(path)


def test_queue_second_writer_gets_typed_busy(tmp_path):
    queue = _queue(tmp_path)
    with pytest.raises(CheckpointBusyError, match="live writer"):
        QueueJournal(tmp_path / "queue.jsonl").start()
    queue.seal()  # releases the lock
    journal = QueueJournal(tmp_path / "queue.jsonl")
    journal.start()  # now free
    journal.release()


def test_queue_resume_readopts_open_jobs(tmp_path):
    queue = _queue(tmp_path)
    a = queue.submit("alice", "characterize", dict(FAST_SPEC))
    b = queue.submit("bob", "mitigate", {"chips": ["E0"]})
    c = queue.submit("alice", "export", dict(FAST_SPEC))
    # Leave one complete, one running, one queued -- the shapes a
    # SIGKILL can leave behind.
    leased = queue.next_job("w0", timeout=1.0)
    assert queue.complete(leased.job_id, leased.attempt, {"digest": "d"})
    second = queue.next_job("w0", timeout=1.0)
    queue._journal.release()  # simulate process death (lock freed)

    resumed = JobQueue(QueueJournal(tmp_path / "queue.jsonl"))
    adopted = resumed.open(resume=True)
    assert adopted == 2  # the running job and the still-queued job
    states = {j.job_id: j.state for j in resumed.jobs()}
    assert states[leased.job_id] == "complete"  # terminal jobs survive
    assert states[second.job_id] == "queued"  # running re-adopted
    open_ids = {j.job_id for j in resumed.jobs() if j.state == "queued"}
    assert open_ids == {a.job_id, b.job_id, c.job_id} - {leased.job_id}
    # Fresh ids continue past the old sequence: no id reuse after resume.
    fresh = resumed.submit("carol", "characterize", dict(FAST_SPEC))
    assert fresh.job_id not in states
    resumed.seal()


def test_queue_overload_and_draining_are_typed(tmp_path):
    queue = _queue(tmp_path, max_queued=3, max_queued_per_tenant=2)
    queue.submit("alice", "characterize", dict(FAST_SPEC))
    queue.submit("alice", "characterize", dict(FAST_SPEC))
    with pytest.raises(ServiceOverloadError, match="tenant 'alice'"):
        queue.submit("alice", "characterize", dict(FAST_SPEC))
    queue.submit("bob", "characterize", dict(FAST_SPEC))
    with pytest.raises(ServiceOverloadError, match="queue is full"):
        queue.submit("carol", "characterize", dict(FAST_SPEC))
    queue.drain()
    with pytest.raises(ServiceDrainingError):
        queue.submit("dave", "characterize", dict(FAST_SPEC))
    queue.seal()


def test_queue_rejects_malformed_submissions(tmp_path):
    queue = _queue(tmp_path)
    for tenant in ("", "a/b", "../up", ".", "a" * 65, "-lead"):
        with pytest.raises(ServiceProtocolError, match="tenant"):
            queue.submit(tenant, "characterize", dict(FAST_SPEC))
    with pytest.raises(ServiceProtocolError, match="kind"):
        queue.submit("alice", "destroy", {})
    with pytest.raises(ServiceProtocolError, match="object"):
        queue.submit("alice", "characterize", "not-a-dict")
    queue.seal()


def test_queue_fair_round_robin_across_tenants(tmp_path):
    queue = _queue(tmp_path, max_queued=16, max_queued_per_tenant=8)
    for _ in range(3):
        queue.submit("alice", "characterize", dict(FAST_SPEC))
    queue.submit("bob", "characterize", dict(FAST_SPEC))
    queue.submit("carol", "characterize", dict(FAST_SPEC))
    order = []
    for _ in range(5):
        order.append(queue.next_job("w0", timeout=1.0).tenant)
    # One job per tenant before anyone is served twice: a tenant with a
    # deep backlog cannot starve the others.
    assert set(order[:3]) == {"alice", "bob", "carol"}
    assert order.count("alice") == 3
    queue.seal()


def test_stale_attempt_outcomes_are_dropped(tmp_path):
    queue = _queue(tmp_path)
    record = queue.submit("alice", "characterize", dict(FAST_SPEC))
    # Capture attempts at lease time: next_job returns the live record,
    # whose attempt the next lease bumps.
    first_attempt = queue.next_job("w0", timeout=1.0).attempt
    assert queue.requeue(record.job_id, first_attempt, reason="test")
    second_attempt = queue.next_job("w1", timeout=1.0).attempt
    assert second_attempt == first_attempt + 1
    # The displaced worker's late outcome carries a stale attempt.
    assert not queue.complete(record.job_id, first_attempt, {"d": 1})
    assert not queue.fail(record.job_id, first_attempt, "boom")
    assert not queue.heartbeat(record.job_id, first_attempt)
    assert queue.get(record.job_id).state == "running"
    assert queue.complete(record.job_id, second_attempt, {"d": 2})
    assert queue.get(record.job_id).result == {"d": 2}
    queue.seal()


def test_cancel_queued_job_and_unknown_job(tmp_path):
    queue = _queue(tmp_path)
    record = queue.submit("alice", "characterize", dict(FAST_SPEC))
    assert queue.cancel(record.job_id).state == "cancel"
    assert queue.next_job("w0", timeout=0.05) is None
    with pytest.raises(JobNotFoundError):
        queue.cancel("job-9999")
    queue.seal()


# ------------------------------------------------------- spec validation


def test_validate_spec_typed_errors():
    with pytest.raises(ServiceProtocolError, match="unknown job kind"):
        validate_spec("nuke", {})
    with pytest.raises(ServiceProtocolError, match="not a characterize"):
        validate_spec("characterize", {"chips": ["E0"]})
    with pytest.raises(ServiceProtocolError, match="must be an integer"):
        validate_spec("characterize", {"points": "three"})
    with pytest.raises(ServiceProtocolError, match="backend"):
        validate_spec("characterize", {"backend": "hardware"})
    spec = dict(FAST_SPEC)
    assert validate_spec("characterize", spec) is spec


# --------------------------------------------------------- scheduler layer


def _stub_scheduler(tmp_path, executor, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("poll_interval", 0.02)
    scheduler = CampaignScheduler(
        tmp_path / "svc", executor=executor, **kwargs
    )
    scheduler.start()
    return scheduler


def test_scheduler_completes_jobs_with_stub_executor(tmp_path):
    def executor(record, root, stop_check=None, heartbeat=None,
                 resume=False):
        return {"digest": f"d-{record.job_id}", "resumed": resume}

    scheduler = _stub_scheduler(tmp_path, executor)
    try:
        a = scheduler.submit("alice", "characterize", dict(FAST_SPEC))
        b = scheduler.submit("bob", "mitigate", {"chips": ["E0"]})
        _wait_for(
            lambda: all(
                scheduler.status(j.job_id)["state"] == "complete"
                for j in (a, b)
            ),
            what="both stub jobs to complete",
        )
        assert scheduler.status(a.job_id)["result"]["digest"] == f"d-{a.job_id}"
        assert scheduler.status(a.job_id)["result"]["resumed"] is False
        assert scheduler.stats()["supervision"]["completed"] == 2
    finally:
        scheduler.stop()


def test_scheduler_reclaims_expired_lease_and_drops_stale_result(tmp_path):
    release_hang = threading.Event()
    attempts = []

    def executor(record, root, stop_check=None, heartbeat=None,
                 resume=False):
        attempts.append(resume)
        if len(attempts) == 1:
            # A wedged worker: never heartbeats, hangs mid-shard, and
            # eventually reports a completion long after its lease was
            # reclaimed.
            release_hang.wait(timeout=30.0)
            return {"digest": "stale-first-attempt"}
        if heartbeat is not None:
            heartbeat()
        return {"digest": "resumed-second-attempt"}

    scheduler = _stub_scheduler(
        tmp_path, executor, workers=2, lease_ttl=0.3
    )
    try:
        record = scheduler.submit("alice", "characterize", dict(FAST_SPEC))
        _wait_for(
            lambda: scheduler.stats()["supervision"]["reclaimed"] >= 1,
            what="the lease monitor to reclaim the wedged worker",
        )
        _wait_for(
            lambda: scheduler.status(record.job_id)["state"] == "complete",
            what="the reclaimed job to complete",
        )
        # The wedged first attempt wakes up and reports -- too late.
        release_hang.set()
        _wait_for(
            lambda: scheduler.stats()["supervision"]["stale_dropped"] >= 1,
            what="the stale completion to be dropped",
        )
        status = scheduler.status(record.job_id)
        assert status["result"]["digest"] == "resumed-second-attempt"
        assert status["requeues"] == 1
        assert attempts == [False, True]  # the reclaim resumed the job
    finally:
        release_hang.set()
        scheduler.stop()


def test_scheduler_drain_requeues_at_shard_boundary(tmp_path):
    started = threading.Event()

    def interruptible(record, root, stop_check=None, heartbeat=None,
                      resume=False):
        started.set()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if stop_check is not None and stop_check():
                raise CampaignInterruptedError(
                    "stopped at a shard boundary"
                )
            time.sleep(0.01)
        raise AssertionError("drain never tripped stop_check")

    scheduler = _stub_scheduler(tmp_path, interruptible, workers=1)
    record = scheduler.submit("alice", "characterize", dict(FAST_SPEC))
    assert started.wait(timeout=10.0)
    scheduler.stop(graceful=True)  # drain -> requeue -> seal
    assert scheduler.status(record.job_id)["state"] == "queued"
    assert scheduler.stats()["supervision"]["requeued"] == 1

    # A restarted scheduler re-adopts and finishes the job.
    def finisher(record, root, stop_check=None, heartbeat=None,
                 resume=False):
        return {"digest": "finished-after-restart", "resumed": resume}

    restarted = CampaignScheduler(
        tmp_path / "svc", executor=finisher, workers=1, poll_interval=0.02
    )
    assert restarted.start(resume=True) == 1
    try:
        _wait_for(
            lambda: restarted.status(record.job_id)["state"] == "complete",
            what="the re-adopted job to complete",
        )
        result = restarted.status(record.job_id)["result"]
        assert result["digest"] == "finished-after-restart"
        assert result["resumed"] is True  # attempt > 1 resumes
    finally:
        restarted.stop()


def test_scheduler_rejects_bad_specs_at_admission(tmp_path):
    def executor(record, root, **kwargs):  # pragma: no cover - unreachable
        raise AssertionError("a rejected job must never run")

    scheduler = _stub_scheduler(tmp_path, executor)
    try:
        with pytest.raises(ServiceProtocolError, match="not a mitigate"):
            scheduler.submit("alice", "mitigate", {"modules": ["S0"]})
        assert scheduler.list_jobs() == []
    finally:
        scheduler.stop()


# ------------------------------------------------- real campaign execution


def test_execute_job_characterize_resumes_bit_identically(tmp_path):
    record = JobRecord(
        job_id="job-0001",
        tenant="alice",
        kind="characterize",
        spec=dict(FAST_SPEC),
    )
    reference = execute_job(record, tmp_path / "ref")

    # Interrupt after the second shard, then resume the same namespace.
    seen = [0]

    def stop_after_two():
        return seen[0] >= 2

    def count_beat():
        seen[0] += 1

    with pytest.raises(CampaignInterruptedError):
        execute_job(
            record,
            tmp_path / "chaos",
            stop_check=stop_after_two,
            heartbeat=count_beat,
        )
    resumed = execute_job(record, tmp_path / "chaos", resume=True)
    assert resumed["digest"] == reference["digest"]
    assert resumed["n_measurements"] == reference["n_measurements"]
    # Tagged trace: every event carries this job's campaign id.
    trace = job_dir(tmp_path / "chaos", "alice", "job-0001") / "trace.jsonl"
    events = [json.loads(l) for l in trace.read_text().splitlines()]
    assert events and all(
        e["campaign_id"] == "job-0001" for e in events
    )


def test_execute_job_mitigate_and_export(tmp_path):
    mitigate = JobRecord(
        job_id="job-0001",
        tenant="alice",
        kind="mitigate",
        spec={
            "chips": ["E0"],
            "mitigations": ["para"],
            "t_values": [36.0, 636.0],
            "validate": True,
        },
    )
    out = execute_job(mitigate, tmp_path)
    assert out["digest"] and out["n_measurements"] > 0

    export = JobRecord(
        job_id="job-0002",
        tenant="alice",
        kind="export",
        spec=dict(FAST_SPEC),
    )
    out = execute_job(export, tmp_path)
    assert out["n_shards"] == 1
    manifest = Path(out["manifest"])
    assert manifest.exists()
    assert json.loads(manifest.read_text())["results_digest"] == out["digest"]


# ----------------------------------------------------- queue validate mode


def test_validate_cli_accepts_queue_journal(tmp_path, capsys):
    from repro.cli import main

    queue = _queue(tmp_path)
    record = queue.submit("alice", "characterize", dict(FAST_SPEC))
    leased = queue.next_job("w0", timeout=1.0)
    queue.complete(record.job_id, leased.attempt, {"digest": "d"})
    queue.seal()
    assert main(["validate", str(tmp_path / "queue.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "queue" in out


def test_validate_cli_flags_unsealed_queue_journal(tmp_path, capsys):
    queue = _queue(tmp_path)
    queue.submit("alice", "characterize", dict(FAST_SPEC))
    queue._journal.release()  # simulated SIGKILL: no seal event

    from repro.cli import main

    assert main(["validate", str(tmp_path / "queue.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "not sealed" in out


# -------------------------------------------------------- process layer


def _serve(root, *extra, resume=False):
    argv = [
        sys.executable, "-m", "repro.cli", "serve",
        "--root", str(root), "--service-workers", "1",
        "--lease-ttl", "30", *extra,
    ]
    if resume:
        argv.append("--resume")
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.Popen(
        argv, env=env, stderr=subprocess.PIPE, text=True
    )


def _client(root, timeout=5.0):
    from repro.service.client import ServiceClient

    return ServiceClient(Path(root) / "service.sock", timeout=timeout)


def _wait_for_server(client, proc, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"server died during startup:\n{proc.stderr.read()}"
            )
        try:
            client.ping()
            return
        except Exception:
            time.sleep(0.05)
    proc.kill()
    raise AssertionError("server never became reachable")


def test_server_sigterm_then_resume_is_bit_identical(tmp_path):
    # Reference digest from an uninterrupted in-process run.
    reference = execute_job(
        JobRecord(
            job_id="ref", tenant="ref", kind="characterize",
            spec=dict(CHAOS_SPEC),
        ),
        tmp_path / "ref",
    )

    root = tmp_path / "svc"
    proc = _serve(root)
    client = _client(root)
    _wait_for_server(client, proc)
    job = client.submit("alice", "characterize", dict(CHAOS_SPEC))

    # SIGTERM as soon as the campaign has journaled its first shard --
    # guaranteed mid-flight, with most shards still to run.
    checkpoint = job_dir(root, "alice", job) / "checkpoint.jsonl"
    _wait_for(
        lambda: checkpoint.exists() and checkpoint.stat().st_size > 0,
        what="the first shard to be journaled",
    )
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) == 0, proc.stderr.read()
    proc.stderr.close()

    resumed = _serve(root, resume=True)
    client = _client(root)
    _wait_for_server(client, resumed)
    try:
        status = client.wait(job, timeout=120)
        assert status["state"] == "complete"
        assert status["result"]["digest"] == reference["digest"]
        assert (
            status["result"]["n_measurements"]
            == reference["n_measurements"]
        )
    finally:
        resumed.send_signal(signal.SIGTERM)
        assert resumed.wait(timeout=60) == 0
        resumed.stderr.close()


def test_server_sigkill_chaos_loses_and_duplicates_nothing(tmp_path):
    root = tmp_path / "svc"
    proc = _serve(root, "--service-workers", "2")
    client = _client(root)
    _wait_for_server(client, proc)
    jobs = {}
    for tenant in ("alice", "bob", "carol"):
        jobs[tenant] = client.submit(
            tenant, "characterize", dict(CHAOS_SPEC)
        )

    # SIGKILL once at least one campaign is demonstrably mid-flight:
    # no drain, no seal, torn bytes allowed.
    def any_checkpoint():
        return any(
            (job_dir(root, t, j) / "checkpoint.jsonl").exists()
            for t, j in jobs.items()
        )

    _wait_for(any_checkpoint, what="some campaign to journal a shard")
    proc.kill()
    proc.wait(timeout=30)
    proc.stderr.close()

    resumed = _serve(root, "--service-workers", "2", resume=True)
    client = _client(root)
    _wait_for_server(client, resumed)
    try:
        for tenant, job in jobs.items():
            status = client.wait(job, timeout=180)
            assert status["state"] == "complete", (tenant, status)
            assert status["result"]["digest"]
        # No duplicates: each submitted job exists exactly once, and
        # nothing extra was invented by the resume.
        listed = client.list_jobs()
        ids = [j["job"] for j in listed]
        assert sorted(ids) == sorted(set(ids))
        assert set(jobs.values()) <= set(ids)
        # All three ran the same spec: their digests agree, proving the
        # interrupted tenants converged to the uninterrupted result.
        digests = {
            j["result"]["digest"]
            for j in listed
            if j["job"] in set(jobs.values())
        }
        assert len(digests) == 1
    finally:
        resumed.send_signal(signal.SIGTERM)
        assert resumed.wait(timeout=60) == 0
        resumed.stderr.close()
