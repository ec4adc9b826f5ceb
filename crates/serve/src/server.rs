//! The serving front-end entry point: [`CimServer`] holds the resident
//! models and the active policy, and turns into running
//! [`ServeSession`]s.

use crate::config::{ConfigError, ServeConfig};
use crate::registry::ModelRegistry;
use crate::session::ServeSession;

/// A serving front-end over a set of resident frozen models: a bounded
/// request queue with admission control, [`Slo`](crate::Slo) priority
/// classes (optionally aging-weighted), per-worker batch schedulers, and
/// owned worker threads draining sweeps into the registry (see crate docs for the full
/// picture).
///
/// [`start`](CimServer::start) runs it: it consumes the server and
/// returns a [`ServeSession`] whose worker threads run until
/// [`shutdown`](ServeSession::shutdown) hands back the final
/// [`ServeStats`](crate::ServeStats) and the resident models. Nothing is
/// scoped to a closure; tickets are pollable and multiplexable.
pub struct CimServer {
    registry: ModelRegistry,
    cfg: ServeConfig,
}

impl CimServer {
    /// Creates a server over `registry`; every resident model's
    /// execution-backend chain is set to `cfg.backends` and its sweep cap
    /// to `cfg.max_batch`.
    ///
    /// # Panics
    ///
    /// Panics if the registry is empty, `cfg` is invalid (see
    /// [`ServeConfig::validate`] — [`ServeConfig::builder`] surfaces the
    /// same violations as recoverable [`ConfigError`]s instead), or the
    /// backend chain cannot execute some resident layer (e.g. a bare
    /// `int` chain over a model frozen under variation).
    pub fn new(mut registry: ModelRegistry, cfg: ServeConfig) -> Self {
        assert!(!registry.is_empty(), "registry has no models");
        cfg.validate().expect("invalid serve config");
        registry
            .set_backends(&cfg.backends)
            .expect("configured backend chain cannot execute a resident model");
        registry.set_max_batch(cfg.max_batch);
        Self { registry, cfg }
    }

    /// The resident model set.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The active policy.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Swaps the serving policy **between sessions** (e.g. a benchmark
    /// sweeping admission modes over one resident model set); resident
    /// models get the new backend chain and sweep cap. A running
    /// session owns the server ([`start`](CimServer::start) consumes it),
    /// so reconfiguring mid-session is impossible by construction.
    ///
    /// # Errors
    ///
    /// The violated invariant for an invalid `cfg`, or
    /// [`ConfigError::Backend`] when the new backend chain cannot execute
    /// some resident layer. On any error nothing changes: every model
    /// keeps its chain and sweep cap, and the server keeps its policy.
    pub fn set_config(&mut self, cfg: ServeConfig) -> Result<(), ConfigError> {
        cfg.validate()?;
        self.registry.set_backends(&cfg.backends)?;
        self.registry.set_max_batch(cfg.max_batch);
        self.cfg = cfg;
        Ok(())
    }

    /// Starts an owned serving session: spawns the worker threads and
    /// hands the whole server over to the returned [`ServeSession`].
    /// Submit with [`ServeSession::submit`]; finish with
    /// [`ServeSession::shutdown`], which drains every admitted request
    /// and returns the final stats plus the resident models.
    pub fn start(self) -> ServeSession {
        ServeSession::spawn(self.registry, self.cfg)
    }

    /// Dissolves the server, returning the resident models.
    pub fn into_models(self) -> Vec<(String, cq_core::PreparedCimModel)> {
        self.registry.into_models()
    }
}
