//! The durable job farm under fire: kills after every stage, worker
//! count sweeps, deadline parking, and ledger-driven crash recovery —
//! every path asserting results bit-identical to an uninterrupted
//! serial run (flow products are pure functions of design and
//! options; durability must not change a single bit).

use std::time::Duration;

use camsoc::dft::atpg::AtpgConfig;
use camsoc::flow::flow::{FlowOptions, FlowResult, FlowSupervisor};
use camsoc::flow::StageId;
use camsoc::layout::place::{PlacementConfig, PlacementMode};
use camsoc::layout::ImplementOptions;
use camsoc::serve::{
    DesignSpec, Farm, JobOutcome, JobRequest, JobState, Priority, RetentionPolicy,
};

fn quick_options() -> FlowOptions {
    FlowOptions {
        atpg: AtpgConfig { fault_sample: Some(400), max_random_blocks: 16, ..AtpgConfig::default() },
        layout: ImplementOptions {
            placement: PlacementConfig {
                mode: PlacementMode::Wirelength,
                iterations: 40_000,
                ..PlacementConfig::default()
            },
            ..ImplementOptions::default()
        },
        ..FlowOptions::default()
    }
}

fn spec(seed: u64) -> DesignSpec {
    DesignSpec::IpBlock { name: format!("farm{seed}"), target_gates: 260, seed }
}

fn request(seed: u64) -> JobRequest {
    JobRequest::new(spec(seed), quick_options())
}

/// Every externally observable figure of a flow run, timing bit-exact.
fn fingerprint(r: &FlowResult) -> (usize, usize, u64, u64, u64, usize, Vec<u8>) {
    (
        r.scan.scan_flops,
        r.atpg.detected,
        r.signoff_timing.setup.wns_ns.to_bits(),
        r.signoff_timing.setup.tns_ns.to_bits(),
        r.signoff_timing.hold.wns_ns.to_bits(),
        r.timing_ecos,
        r.gds.clone(),
    )
}

fn reference(seed: u64) -> FlowResult {
    FlowSupervisor::new(quick_options()).run(spec(seed).materialize().unwrap()).unwrap()
}

fn farm_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("camsoc-farm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The tentpole guarantee: kill the farm after EVERY stage's
/// checkpoint write (budget = k grants exactly k stages), restart from
/// disk alone, and the finished job must match an uninterrupted run
/// bit for bit — with the trace recording the resume.
#[test]
fn kill_after_every_stage_resumes_bit_identical() {
    let seed = 31;
    let expected = fingerprint(&reference(seed));
    for killed_after in 1..=StageId::ALL.len() {
        let dir = farm_dir(&format!("kill{killed_after}"));

        let mut farm = Farm::open(&dir, 1).unwrap().with_stage_budget(killed_after);
        let id = farm.submit(&request(seed)).unwrap();
        let first = farm.run_until_idle().unwrap();
        assert!(
            matches!(first.outcomes.get(&id), Some(JobOutcome::Interrupted)),
            "budget {killed_after} did not interrupt"
        );
        assert_eq!(
            farm.ledger().state(id),
            Some(JobState::Running),
            "simulated kill must freeze the ledger at running"
        );
        drop(farm); // the killed process

        let mut farm = Farm::open(&dir, 1).unwrap();
        assert_eq!(farm.queued(), 1, "running job not requeued after restart");
        let second = farm.run_until_idle().unwrap();
        let result = second.result(id).unwrap_or_else(|| {
            panic!("job not done after restart (killed after stage {killed_after})")
        });
        assert!(result.trace.resumed, "resume not recorded (killed after {killed_after})");
        assert_eq!(
            fingerprint(result),
            expected,
            "result diverged when killed after stage {killed_after}"
        );
        assert_eq!(farm.ledger().state(id), Some(JobState::Done));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Worker-count sweep: the same four jobs through 1 and 2 workers must
/// produce identical results job for job (no cross-job state exists).
/// A healthy queue drains without a retry, quarantine or preemption,
/// and every job tapes out.
#[test]
fn results_are_worker_count_invariant() {
    let seeds = [41u64, 42, 43, 44];
    let mut by_workers = Vec::new();
    for workers in [1usize, 2] {
        let dir = farm_dir(&format!("det{workers}"));
        let mut farm = Farm::open(&dir, workers).unwrap();
        let ids: Vec<_> = seeds.iter().map(|&s| farm.submit(&request(s)).unwrap()).collect();
        let report = farm.run_until_idle().unwrap();
        assert!(report.all_done(), "not all jobs finished with {workers} workers");
        assert_eq!(
            (report.retries, report.quarantines, report.preemptions),
            (0, 0, 0),
            "healthy queue retried, quarantined or preempted with {workers} workers"
        );
        assert_eq!(report.outcomes.len(), seeds.len());
        for (id, outcome) in &report.outcomes {
            assert!(
                matches!(outcome, JobOutcome::Done(r) if r.tapeout_ready()),
                "job {id:?} did not tape out with {workers} workers"
            );
        }
        let prints: Vec<_> =
            ids.iter().map(|id| fingerprint(report.result(*id).unwrap())).collect();
        by_workers.push(prints);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(by_workers[0], by_workers[1], "worker count changed a job's result");
}

/// A deadline is a typed park, not a silent drop: the ledger says
/// `parked`, the checkpoint keeps the completed stages, and releasing
/// with a fresh budget finishes the job bit-identical to a straight
/// run.
#[test]
fn deadline_parks_and_release_resumes() {
    let seed = 51;
    let dir = farm_dir("deadline");
    let mut farm = Farm::open(&dir, 1).unwrap();
    // 1ns compute budget: the first stage runs (spent starts at 0),
    // then the accumulated trace time trips the deadline.
    let id = farm.submit(&request(seed).with_deadline(Duration::from_nanos(1))).unwrap();
    let report = farm.run_until_idle().unwrap();
    match report.outcomes.get(&id) {
        Some(JobOutcome::Parked(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("deadline exceeded"), "untyped park message: {msg}");
        }
        other => panic!("expected a parked job, got {other:?}"),
    }
    assert_eq!(farm.ledger().state(id), Some(JobState::Parked));

    // Survives a restart: still parked, not requeued.
    drop(farm);
    let mut farm = Farm::open(&dir, 1).unwrap();
    assert_eq!(farm.queued(), 0, "parked jobs must not be requeued implicitly");
    assert_eq!(farm.ledger().state(id), Some(JobState::Parked));

    farm.release(id, Some(Duration::from_secs(3600))).unwrap();
    let report = farm.run_until_idle().unwrap();
    let result = report.result(id).expect("released job finishes");
    assert!(result.trace.resumed, "released job must resume, not restart");
    assert_eq!(fingerprint(result), fingerprint(&reference(seed)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Releasing a job that is not parked is a typed farm error.
#[test]
fn release_of_unparked_job_is_refused() {
    let dir = farm_dir("badrelease");
    let mut farm = Farm::open(&dir, 1).unwrap();
    let id = farm.submit(&request(61)).unwrap();
    assert!(farm.release(id, None).is_err(), "released a queued job");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Queued-but-never-started jobs also survive a kill: the ledger alone
/// carries them into the next process.
#[test]
fn queued_jobs_survive_restart_in_fifo_order() {
    let dir = farm_dir("fifo");
    let mut farm = Farm::open(&dir, 1).unwrap().with_stage_budget(0);
    let a = farm.submit(&request(71)).unwrap();
    let b = farm.submit(&request(72)).unwrap();
    let report = farm.run_until_idle().unwrap();
    // budget 0: the first popped job is abandoned before any stage
    assert!(report.interrupted());
    drop(farm);

    let mut farm = Farm::open(&dir, 1).unwrap();
    assert_eq!(farm.queued(), 2, "both jobs must come back");
    let report = farm.run_until_idle().unwrap();
    assert!(report.all_done());
    for id in [a, b] {
        assert_eq!(farm.ledger().state(id), Some(JobState::Done));
    }
    // ids keep monotonically increasing across restarts
    let c = farm.submit(&request(73)).unwrap();
    assert!(c > b, "job ids must not be reused after reopen");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two farms on ONE directory, running at the same time: the locked
/// ledger transactions must hand each job to exactly one of them, and
/// every result must stay bit-identical.
#[test]
fn concurrent_farms_share_one_directory() {
    let dir = farm_dir("shared");
    let seeds = [41u64, 42, 43, 44];
    let mut submitter = Farm::open(&dir, 1).unwrap();
    let ids: Vec<_> = seeds.iter().map(|&s| submitter.submit(&request(s)).unwrap()).collect();
    drop(submitter);

    let farm_a = Farm::open(&dir, 1).unwrap();
    let farm_b = Farm::open(&dir, 1).unwrap();
    let (ra, rb) = std::thread::scope(|scope| {
        let ta = scope.spawn(move || {
            let mut farm = farm_a;
            farm.run_until_idle().unwrap()
        });
        let tb = scope.spawn(move || {
            let mut farm = farm_b;
            farm.run_until_idle().unwrap()
        });
        (ta.join().unwrap(), tb.join().unwrap())
    });
    for id in &ids {
        let a = ra.outcomes.contains_key(id);
        let b = rb.outcomes.contains_key(id);
        assert!(a ^ b, "{id} must be driven by exactly one farm (a={a}, b={b})");
    }
    for (&id, &seed) in ids.iter().zip(&seeds) {
        let result = ra.result(id).or_else(|| rb.result(id)).expect("every job finishes");
        assert_eq!(fingerprint(result), fingerprint(&reference(seed)), "seed {seed} diverged");
    }
    let check = Farm::open(&dir, 1).unwrap();
    for id in ids {
        assert_eq!(check.ledger().state(id), Some(JobState::Done));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The reclamation race, settled by proof: a live lease is untouchable
/// even by a farm that opens later; the INSTANT the owner dies the
/// lease is stale and the survivor takes over — bit-identically.
#[test]
fn stale_leases_reclaim_but_live_leases_do_not() {
    let dir = farm_dir("lease");
    let seed = 83;
    let mut alive = Farm::open(&dir, 1).unwrap().with_stage_budget(3);
    let id = alive.submit(&request(seed)).unwrap();
    let first = alive.run_until_idle().unwrap();
    assert!(first.interrupted());
    assert_eq!(alive.ledger().state(id), Some(JobState::Running));

    // A second farm opens while the first is still alive: the lease is
    // live, so nothing may be reclaimed — not at open, not at claim.
    let mut survivor = Farm::open(&dir, 1).unwrap();
    assert_eq!(survivor.reclaimed(), 0, "open must not reclaim a live lease");
    let idle = survivor.run_until_idle().unwrap();
    assert!(idle.outcomes.is_empty(), "claimed a live-leased job");
    assert_eq!(idle.reclaimed, 0);
    drop(alive); // the owner dies; its lease is now PROVABLY stale

    let second = survivor.run_until_idle().unwrap();
    assert_eq!(second.reclaimed, 1, "stale lease not reclaimed at claim time");
    let result = second.result(id).expect("survivor finishes the dead farm's job");
    assert!(result.trace.resumed, "survivor must resume from the checkpoint");
    assert_eq!(fingerprint(result), fingerprint(&reference(seed)));
    assert_eq!(survivor.reclaimed(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A deadline-critical arrival preempts the low-priority job running on
/// the only worker — at a stage boundary, onto its checkpoint — and the
/// preempted job still completes bit-identically afterwards.
#[test]
fn critical_jobs_preempt_running_low_priority_work() {
    let dir = farm_dir("preempt");
    let (low_seed, crit_seed) = (91u64, 92);
    let mut farm = Farm::open(&dir, 1).unwrap();
    let low = farm.submit(&request(low_seed).with_priority(Priority::Low)).unwrap();

    // A second farm handle submits the critical job mid-run, as soon as
    // the low job's first checkpoint proves it is being driven.
    let mut other = Farm::open(&dir, 1).unwrap();
    let ckpt = dir.join(format!("{low}.ckpt"));
    let report = std::thread::scope(|scope| {
        let runner = scope.spawn(move || {
            let mut farm = farm;
            farm.run_until_idle().unwrap()
        });
        while !ckpt.exists() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let crit = other.submit(&request(crit_seed).with_priority(Priority::Critical)).unwrap();
        (runner.join().unwrap(), crit)
    });
    let (report, crit) = report;
    assert!(report.preemptions >= 1, "critical arrival must preempt the running low job");
    let low_result = report.result(low).expect("preempted job completes");
    assert!(low_result.trace.resumed, "preempted job must resume from its checkpoint");
    assert_eq!(fingerprint(low_result), fingerprint(&reference(low_seed)));
    let crit_result = report.result(crit).expect("critical job completes");
    assert_eq!(fingerprint(crit_result), fingerprint(&reference(crit_seed)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A poison job — one that panics the moment it is materialized — must
/// be retried deterministically, quarantined at the policy budget, and
/// must never stall the other jobs or poison the farm's shared state.
#[test]
fn poison_jobs_quarantine_without_stalling_the_queue() {
    let dir = farm_dir("poison");
    let mut farm = Farm::open(&dir, 2).unwrap();
    let poison = farm
        .submit(&JobRequest::new(
            DesignSpec::Poison { message: "pathological request".into() },
            quick_options(),
        ))
        .unwrap();
    let good_a = farm.submit(&request(51)).unwrap();
    let good_b = farm.submit(&request(52)).unwrap();
    let report = farm.run_until_idle().unwrap();

    assert!(
        matches!(report.outcomes.get(&poison), Some(JobOutcome::Quarantined(_))),
        "poison job must end quarantined, got {:?}",
        report.outcomes.get(&poison)
    );
    assert_eq!(farm.ledger().state(poison), Some(JobState::Quarantined));
    let entry = farm.ledger().entry(poison).unwrap();
    assert_eq!(entry.attempts, 3, "default policy books exactly 3 transient failures");
    assert_eq!(report.retries, 2, "two retries precede the third, quarantining failure");
    assert_eq!(report.quarantines, 1);
    for (id, seed) in [(good_a, 51), (good_b, 52)] {
        let result = report.result(id).expect("healthy jobs drain normally");
        assert_eq!(fingerprint(result), fingerprint(&reference(seed)));
    }
    // The farm is not poisoned: it keeps accepting and finishing work.
    let after = farm.submit(&request(53)).unwrap();
    let report = farm.run_until_idle().unwrap();
    assert!(report.result(after).is_some(), "farm must stay usable after a quarantine");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A transiently flaky job (panics twice, then works) retries through
/// deterministic backoff and produces the exact same bits as a healthy
/// submission of the same design.
#[test]
fn flaky_jobs_retry_then_succeed_bit_identical() {
    let dir = farm_dir("flaky");
    let seed = 57;
    let mut farm = Farm::open(&dir, 1).unwrap();
    let id = farm
        .submit(&JobRequest::new(
            DesignSpec::Flaky {
                name: format!("farm{seed}"),
                target_gates: 260,
                seed,
                failures: 2,
            },
            quick_options(),
        ))
        .unwrap();
    let report = farm.run_until_idle().unwrap();
    assert_eq!(report.retries, 2, "both injected failures must be retried");
    assert_eq!(report.quarantines, 0);
    let result = report.result(id).expect("flaky job heals within the retry budget");
    assert_eq!(fingerprint(result), fingerprint(&reference(seed)));
    assert_eq!(farm.ledger().entry(id).unwrap().attempts, 2);
    assert_eq!(farm.ledger().state(id), Some(JobState::Done));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Retention prunes old done-job artifacts (keep-last-K) but never
/// touches quarantined evidence or the ledger's history.
#[test]
fn retention_prunes_done_artifacts_but_keeps_quarantine_evidence() {
    let dir = farm_dir("retain");
    let mut farm = Farm::open(&dir, 1)
        .unwrap()
        .with_retention(RetentionPolicy { keep_done: Some(1), keep_failed: None })
        .with_gds_export(true);
    let poison = farm
        .submit(&JobRequest::new(DesignSpec::Poison { message: "evidence".into() }, quick_options()))
        .unwrap();
    let ids: Vec<_> = [61u64, 62, 63].iter().map(|&s| farm.submit(&request(s)).unwrap()).collect();
    let report = farm.run_until_idle().unwrap();
    assert!(report.pruned >= 2, "two of three done jobs fall outside keep_done=1");

    let done: Vec<_> = farm.ledger().jobs_in(JobState::Done);
    assert_eq!(done.len(), 3, "pruning must not erase ledger history");
    let keep = *done.last().unwrap();
    for &id in &ids {
        let has_gds = dir.join(format!("{id}.gds")).exists();
        let has_req = dir.join(format!("{id}.req")).exists();
        if id == keep {
            assert!(has_gds && has_req, "newest done job must keep its artifacts");
        } else {
            assert!(!has_gds && !has_req, "{id} should have been pruned");
        }
    }
    assert!(dir.join(format!("{poison}.req")).exists(), "quarantined evidence must survive");
    assert_eq!(farm.ledger().state(poison), Some(JobState::Quarantined));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn final ledger line — the signature of a crash inside a
/// non-atomic rewrite — recovers to the last good prefix on open
/// instead of refusing the whole directory.
#[test]
fn torn_ledger_tail_recovers_on_open() {
    use std::io::Write as _;
    let dir = farm_dir("torn");
    let mut farm = Farm::open(&dir, 1).unwrap();
    let id = farm.submit(&request(77)).unwrap();
    let report = farm.run_until_idle().unwrap();
    assert!(report.all_done());
    drop(farm);

    let ledger_path = dir.join("ledger.txt");
    let mut f = std::fs::OpenOptions::new().append(true).open(&ledger_path).unwrap();
    f.write_all(b"999\trunning\tnor").unwrap(); // torn mid-column, no newline
    drop(f);

    let farm = Farm::open(&dir, 1).unwrap();
    assert!(farm.ledger().recovered_tail().is_some(), "recovery must be reported");
    assert_eq!(farm.ledger().state(id), Some(JobState::Done), "good prefix must survive");
    assert_eq!(farm.ledger().len(), 1, "the torn line must not invent a job");
    let _ = std::fs::remove_dir_all(&dir);
}
