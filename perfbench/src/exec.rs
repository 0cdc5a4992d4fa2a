//! In-process execution of a request line through the same public
//! functions the server's admission and worker path call, one layer at
//! a time, so each call can be timed from outside.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use fblas_core::composition::{
    execute_plan_with_recovery_backend, plan, Backend, RecoveryErrorKind, RetryPolicy,
};
use fblas_core::host::DeviceBuffer;
use fblas_hlssim::FaultHook;
use fblas_serve::protocol::{fill_value, run_seed};
use fblas_serve::{wanted_outputs, Request, Response, STATUS_FAILED, STATUS_OK};

use crate::programs::operand_len;
use crate::spans::Recorder;

/// What an in-process execution returned.
#[derive(Debug, Default)]
pub struct Executed {
    pub outputs: BTreeMap<String, Vec<f64>>,
    pub scalars: BTreeMap<String, f64>,
    /// Attempts per planned component (1.0 when nothing was retried).
    pub attempts: f64,
    pub recovered: bool,
}

/// Execute an admitted request the way a server worker does: convert
/// and plan the program, bind operands from `fill_seed`, run under the
/// recovery executor with the request's retry budget and fault arming,
/// and encode the response the server would write. Each stage runs inside a span of `rec`.
pub fn execute(req: &Request, backend: Backend, rec: &mut Recorder) -> Result<Executed, String> {
    let id = req.id;
    let _run = fblas_metrics::RunScope::seeded(run_seed(req));
    let (planned, _) = rec.time("plan", id, || {
        let program = req.program.to_program()?;
        let cfg = req.program.config.planner_config();
        let planned = plan(&program, &cfg).map_err(|e| e.to_string())?;
        Ok::<_, String>((program, cfg, planned))
    });
    let (program, cfg, planned) = planned?;

    let fill_seed = req.fill_seed.unwrap_or(0);
    let (buffers, _) = rec.time("bind", id, || {
        req.program
            .operands
            .iter()
            .filter(|od| od.kind != "scalar")
            .map(|od| {
                let data = (0..operand_len(od))
                    .map(|i| fill_value(fill_seed, &od.name, i))
                    .collect();
                (od.name.clone(), DeviceBuffer::from_vec(&od.name, data, 0))
            })
            .collect::<HashMap<String, DeviceBuffer<f64>>>()
    });

    let max_attempts = req
        .retry_max
        .unwrap_or_else(fblas_hlssim::env::retry_max)
        .max(1);
    let policy = RetryPolicy {
        max_attempts,
        deadline: req
            .deadline_ms
            .map(|ms| (Duration::from_millis(ms) / max_attempts).max(Duration::from_millis(1))),
        backoff: Duration::ZERO,
        abft: true,
    };
    let hook: Option<Arc<dyn FaultHook>> = match &req.chaos {
        Some(doc) => Some(Arc::new(doc.to_fault_plan()?)),
        None => None,
    };

    let (result, _) = rec.time("exec", id, || {
        execute_plan_with_recovery_backend::<f64>(
            &program, &planned, &cfg, &buffers, &policy, hook, None, backend,
        )
    });
    let mut out = Executed::default();
    let mut resp = match result {
        Ok((outcome, report)) => {
            out.attempts = report.attempts.len() as f64 / report.components.max(1) as f64;
            out.recovered = report.recovered > 0;
            out.scalars = outcome.scalars.into_iter().collect();
            for name in wanted_outputs(req) {
                if let Some(buf) = buffers.get(&name) {
                    out.outputs.insert(name, buf.to_host());
                }
            }
            let mut resp = Response::skeleton(id, &req.tenant, STATUS_OK, 200);
            resp.scalars = out.scalars.clone();
            resp.outputs = out.outputs.clone();
            resp.recovery = serde_json::to_value(&report).ok();
            resp
        }
        Err(err) => {
            let kind = RecoveryErrorKind::of(&err.error).as_str().to_string();
            out.attempts = err.report.attempts.len() as f64 / err.report.components.max(1) as f64;
            let mut resp = Response::skeleton(id, &req.tenant, STATUS_FAILED, 500).with_kind(kind);
            resp.recovery = serde_json::to_value(&err.report).ok();
            resp
        }
    };
    resp.run_id = fblas_metrics::current_run_id().map(|r| r.to_string());
    rec.time("encode", id, || std::hint::black_box(resp.to_line()));
    Ok(out)
}
