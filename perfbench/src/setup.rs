//! Engine and server construction — the span `setup_s` measures — and the
//! server configuration that lifts every admission quota.

use crate::workload::Inputs;
use smoqe::{Engine, EngineConfig};
use smoqe_server::{Client, Server, ServerConfig, ServerHandle, TenantQuota};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A running engine and the server in front of it.
pub struct Live {
    pub engine: Arc<Engine>,
    pub handle: ServerHandle,
    /// The durable data directory, when the engine has one.
    pub data_dir: Option<PathBuf>,
}

impl Live {
    /// Graceful drain (checkpoints a durable engine) and join.
    pub fn stop(self) {
        self.handle.shutdown();
        self.handle.join();
    }
}

/// Layer timings taken while setting up (seconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub load_document_s: f64,
    /// Mean over the registered policies.
    pub register_policy_s: f64,
    pub build_tax_s: f64,
}

/// The server configuration: every quota lifted, brownout off, so the
/// benchmark measures the system and not its admission settings.
pub fn server_config(trace_capacity: usize) -> ServerConfig {
    ServerConfig {
        queue_capacity: 4096,
        default_quota: TenantQuota::unlimited(),
        admin_quota: TenantQuota::unlimited(),
        control_quota: TenantQuota::unlimited(),
        brownout_watermark: usize::MAX,
        trace_capacity,
        ..ServerConfig::default()
    }
}

/// Builds the engine (in memory, or durable on `data_dir`, which must not
/// exist yet), loads the DTD and document, registers the policies and
/// builds the TAX index.
pub fn build_engine(
    inputs: &Inputs,
    data_dir: Option<&Path>,
) -> Result<(Arc<Engine>, SetupTimes), String> {
    if let Some(dir) = data_dir {
        if dir.exists() {
            return Err(format!("data dir {dir:?} is not fresh"));
        }
    }
    let t0 = Instant::now();
    let engine = match data_dir {
        Some(dir) => Engine::recover(EngineConfig::default(), dir).map_err(|e| e.to_string())?,
        None => Engine::new(EngineConfig::default()),
    };
    engine
        .load_dtd(smoqe::workloads::hospital::DTD)
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    engine
        .load_document(&inputs.xml)
        .map_err(|e| e.to_string())?;
    let load_document_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for (group, text) in &inputs.policies {
        engine
            .register_policy(group, text)
            .map_err(|e| e.to_string())?;
    }
    let register_policy_s = t.elapsed().as_secs_f64() / inputs.policies.len().max(1) as f64;
    let t = Instant::now();
    engine.build_tax_index().map_err(|e| e.to_string())?;
    let build_tax_s = t.elapsed().as_secs_f64();
    Ok((
        engine,
        SetupTimes {
            total_s: t0.elapsed().as_secs_f64(),
            load_document_s,
            register_policy_s,
            build_tax_s,
        },
    ))
}

/// [`build_engine`], then starts the server; returns once a client has
/// been answered. `total_s` covers all of it.
pub fn start(
    inputs: &Inputs,
    data_dir: Option<&Path>,
    trace_capacity: usize,
) -> Result<(Live, SetupTimes), String> {
    let t0 = Instant::now();
    let (engine, mut times) = build_engine(inputs, data_dir)?;
    let handle = Server::start(engine.clone(), server_config(trace_capacity))
        .map_err(|e| format!("server start: {e}"))?;
    let mut probe = Client::connect(handle.local_addr()).map_err(|e| e.to_string())?;
    probe.ping().map_err(|e| e.to_string())?;
    times.total_s = t0.elapsed().as_secs_f64();
    drop(probe);
    Ok((
        Live {
            engine,
            handle,
            data_dir: data_dir.map(Path::to_path_buf),
        },
        times,
    ))
}
