//! `serve_farm`: batches of small IP-block tapeout jobs, submitted up
//! front and drained by a single-worker `Farm`.
//!
//! One unit of work is one drained batch, on a fresh farm directory.
//! Opening the farm and submitting the batch is set-up. One operation
//! is one job; its latency is the job's stage time inside the farm, as
//! its flow trace records it. The traced run also drains a few jobs on
//! a fresh farm and drives the same jobs by hand through the farm's
//! per-stage steps (advance, checkpoint write, ledger heartbeat) to
//! price each step, checking the hand-driven results against the
//! farm's.

use std::path::{Path, PathBuf};

use camsoc_core::flow::{FlowCheckpoint, FlowResult, FlowSupervisor};
use camsoc_core::resilience::StageId;
use camsoc_serve::{
    CheckpointStore, DesignSpec, Farm, JobId, JobLedger, JobOutcome, JobRequest, JobState,
    LedgerEntry, Priority,
};

use crate::common::{closed_loop, derive, quick_options, time_setups, Args, SETUPS};
use crate::flows::{flow_problem, sample_qor};
use crate::metrics::{Metrics, Outcome};
use crate::scratch_dir;
use crate::trace::Tracer;

/// Jobs per batch.
const BATCH: usize = 24;

/// Farm workers. One: on a 2-thread host shared with other tenants the
/// second thread comes and goes (see `host.effective_parallelism`), so a
/// 2-worker farm would measure the neighbours as much as the per-job
/// costs this workload exists to measure.
const WORKERS: usize = 1;

/// Jobs priced step by step in the traced run.
const HAND_DRIVEN: usize = 8;

/// Gate budget of one job's design.
const JOB_GATES: usize = 260;

fn request(seed: u64, batch: usize, i: usize) -> JobRequest {
    let job_seed = derive(seed, (1_000 * (batch + 1) + i) as u64);
    JobRequest::new(
        DesignSpec::IpBlock {
            name: format!("svc{batch}_{i}"),
            target_gates: JOB_GATES,
            seed: job_seed,
        },
        quick_options(job_seed),
    )
}

/// A fresh farm directory for one batch.
fn batch_dir(tag: &str, k: usize) -> PathBuf {
    scratch_dir().join(format!("farm-{}-{tag}-{k}", std::process::id()))
}

/// Open a farm on a fresh directory and submit a batch: the set-up.
fn open_and_submit(dir: &Path, requests: &[JobRequest]) -> Result<(Farm, Vec<JobId>), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut farm = Farm::open(dir, WORKERS).map_err(|e| format!("open farm: {e}"))?;
    let ids = requests
        .iter()
        .map(|r| farm.submit(r).map_err(|e| format!("submit: {e}")))
        .collect::<Result<_, _>>()?;
    Ok((farm, ids))
}

/// Stage time of a job as its flow trace records it, ms.
fn job_ms(r: &FlowResult) -> f64 {
    r.trace
        .attempts
        .iter()
        .map(|a| a.duration.as_secs_f64() * 1e3)
        .sum()
}

/// Drive one job by hand the way a farm worker does: materialize, then
/// per stage advance, write the checkpoint, renew the ledger lease.
fn hand_drive(
    dir: &Path,
    job: JobId,
    req: &JobRequest,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<FlowResult, String> {
    let store = CheckpointStore::open(dir.join("store")).map_err(|e| e.to_string())?;
    let mut ledger = JobLedger::open(dir.join("ledger")).map_err(|e| e.to_string())?;
    let sup = FlowSupervisor::new(req.options.clone());
    let input = req.spec.materialize().map_err(|e| e.to_string())?;
    let mut checkpoint = FlowCheckpoint::new(input);
    let (mut flow_ms, mut save_ms, mut ledger_ms) = (0.0, 0.0, 0.0);
    while let Some(stage) = StageId::ALL
        .into_iter()
        .find(|&s| !checkpoint.is_complete(s))
    {
        let (advanced, ms) = tr.time("serve.advance", || sup.advance(&mut checkpoint));
        advanced.map_err(|e| format!("stage {stage}: {e}"))?;
        flow_ms += ms;
        let (saved, ms) = tr.time("serve.save_checkpoint", || {
            store.save_checkpoint(job, &checkpoint)
        });
        saved.map_err(|e| e.to_string())?;
        save_ms += ms;
        let (beat, ms) = tr.time("serve.ledger_update", || {
            ledger.update(|t| {
                let mut e = t
                    .get(job)
                    .cloned()
                    .unwrap_or_else(|| LedgerEntry::new(JobState::Running, Priority::Normal));
                e.beat += 1;
                t.set(job, e);
            })
        });
        beat.map_err(|e| e.to_string())?;
        ledger_ms += ms;
    }
    let reloaded = store.load_checkpoint(job).map_err(|e| e.to_string())?;
    if reloaded.as_ref() != Some(&checkpoint) {
        return Err("the checkpoint read back from the store differs".into());
    }
    let result = checkpoint.finish().map_err(|e| e.to_string())?;
    m.sample("serve.direct_job_ms", flow_ms);
    m.sample("serve.save_checkpoint_ms", save_ms);
    m.sample("serve.ledger_update_ms", ledger_ms);
    Ok(result)
}

/// Price a job's steps: drain `reqs` on a fresh farm, then drive the
/// same jobs by hand. The hand-driven results must match the farm's.
fn price_job_steps(reqs: &[JobRequest], tr: &mut Tracer, m: &mut Metrics, out: &mut Outcome) {
    let dir = batch_dir("pricing", 0);
    let (mut farm, ids) = match open_and_submit(&dir, reqs) {
        Ok(x) => x,
        Err(e) => return out.check(false, || format!("pricing batch: {e}")),
    };
    let (drained, ms) = tr.time("serve.drain_pricing", || farm.run_until_idle());
    m.set("serve.job_ms", ms / reqs.len() as f64);
    let report = match drained {
        Ok(r) => r,
        Err(e) => return out.check(false, || format!("pricing batch: {e}")),
    };
    let hand_dir = batch_dir("hand", 0);
    for (i, (&id, req)) in ids.iter().zip(reqs).enumerate() {
        let span = tr.open("serve.hand_job");
        let driven = hand_drive(&hand_dir, id, req, tr, m);
        tr.close(span);
        match driven {
            Ok(r) => out.check(Some(&r.gds) == report.result(id).map(|r| &r.gds), || {
                format!("hand-driven job {i} GDSII differs from the farm's")
            }),
            Err(e) => out.check(false, || format!("hand-driven job {i}: {e}")),
        }
    }
    let direct = m.get("serve.direct_job_ms").unwrap_or(0.0);
    m.set("serve.overhead_ms", ms / reqs.len() as f64 - direct);
    drop(farm);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&hand_dir);
}

/// Run the workload.
pub fn serve_farm(args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut m = Metrics::default();
    let batch_requests = |k: usize| {
        (0..BATCH)
            .map(|i| request(args.seed, k, i))
            .collect::<Vec<_>>()
    };
    let setup_reqs = batch_requests(0);
    time_setups(&mut m, |x| {
        open_and_submit(&batch_dir("setup", x), &setup_reqs)
    });
    for x in 0..SETUPS {
        let _ = std::fs::remove_dir_all(batch_dir("setup", x));
    }
    let mut batch_ms = Vec::new();
    let mut op_ms = Vec::new();
    closed_loop(args.seconds, |k| {
        tr.set_run(k);
        let dir = batch_dir("batch", k);
        let reqs = batch_requests(k);
        let (mut farm, ids) = match open_and_submit(&dir, &reqs) {
            Ok(x) => x,
            Err(e) => {
                for _ in 0..BATCH {
                    out.operation(Some(format!("batch {k}: {e}")));
                }
                return;
            }
        };
        let (report, ms) = tr.time("serve.drain", || farm.run_until_idle());
        batch_ms.push(ms);
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                for _ in 0..BATCH {
                    out.operation(Some(format!("batch {k}: drain: {e}")));
                }
                return;
            }
        };
        for &id in &ids {
            let problem = match report.outcomes.get(&id) {
                Some(JobOutcome::Done(r)) => {
                    op_ms.push(job_ms(r));
                    sample_qor(&mut m, r);
                    flow_problem(r)
                }
                Some(other) => Some(format!("ended {other:?}")),
                None => Some("no outcome reported".into()),
            };
            out.operation(problem.map(|p| format!("batch {k} job {id}: {p}")));
        }
        out.check(report.retries == 0 && report.quarantines == 0, || {
            format!(
                "batch {k}: {} retries, {} quarantines",
                report.retries, report.quarantines
            )
        });
        // one sampled job, re-run through a bare supervisor, must give
        // the same GDSII bytes as the farm
        let sample = k % BATCH;
        let direct = reqs[sample]
            .spec
            .materialize()
            .map_err(|e| e.to_string())
            .and_then(|nl| {
                FlowSupervisor::new(reqs[sample].options.clone())
                    .run(nl)
                    .map_err(|e| e.to_string())
            });
        let served = report.result(ids[sample]).map(|r| &r.gds);
        out.check(matches!(&direct, Ok(d) if Some(&d.gds) == served), || {
            format!(
                "batch {k}: job {} GDSII differs from a direct run",
                ids[sample]
            )
        });
        if tr.enabled() {
            m.sample("serve.stages_executed", report.stages_executed as f64);
            m.sample("serve.retries", report.retries as f64);
            m.sample("serve.preemptions", report.preemptions as f64);
            m.sample("serve.quarantines", report.quarantines as f64);
        }
        drop(farm);
        let _ = std::fs::remove_dir_all(&dir);
    });
    m.set_timing(&batch_ms, &op_ms, tr.enabled());
    if tr.enabled() {
        price_job_steps(&batch_requests(0)[..HAND_DRIVEN], tr, &mut m, &mut out);
    }
    out.metrics = m;
    out
}
