//! Per-tenant admission control: session caps, in-flight caps, and a
//! token-bucket request quota.
//!
//! The gate answers one question — *may this request run right now?* —
//! and answers it before any work is done. Over-budget requests are
//! never queued server-side; they get an explicit [`Shed`] response
//! with a retry hint, so backpressure is visible to the client instead
//! of manifesting as unbounded latency. One tenant flooding its quota
//! therefore cannot starve another: the flood is refused at the door,
//! and the per-tenant in-flight cap bounds how many connection threads a
//! single tenant can occupy.
//!
//! The token bucket is refilled by the server's ticker thread at a
//! fixed cadence (no clock reads on the request path — the refill
//! *interval* is the time source, which keeps the serve crate inside
//! the vet determinism rule).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::lock;

/// Why a request was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// The tenant is at its open-session cap.
    SessionCap,
    /// The tenant has too many requests in flight.
    Inflight,
    /// The tenant's token bucket is empty.
    Quota,
}

impl Shed {
    /// Stable wire spelling (the `Shed` response's first body line).
    pub fn reason(self) -> &'static str {
        match self {
            Shed::SessionCap => "session-cap",
            Shed::Inflight => "inflight-cap",
            Shed::Quota => "quota",
        }
    }

    /// Client retry hint in milliseconds. Quota sheds resolve on the
    /// next refill tick; capacity sheds resolve when work completes,
    /// which is usually sooner.
    pub fn retry_after_ms(self, refill_ms: u64) -> u64 {
        match self {
            Shed::Quota => refill_ms.max(1),
            Shed::SessionCap | Shed::Inflight => (refill_ms / 4).max(1),
        }
    }
}

/// Admission limits applied to every tenant.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Max concurrently open sessions per tenant.
    pub max_sessions: usize,
    /// Max in-flight requests per tenant.
    pub max_inflight: usize,
    /// Token-bucket capacity (burst size).
    pub quota_burst: i64,
    /// Tokens added per refill tick.
    pub quota_refill: i64,
    /// Refill tick cadence in milliseconds.
    pub refill_ms: u64,
}

/// One tenant's live admission state.
pub struct TenantGate {
    sessions: AtomicUsize,
    inflight: AtomicUsize,
    tokens: AtomicI64,
}

impl TenantGate {
    fn new(cfg: &AdmissionConfig) -> TenantGate {
        TenantGate {
            sessions: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            tokens: AtomicI64::new(cfg.quota_burst),
        }
    }

    /// Takes one quota token and one in-flight slot, or refuses. On
    /// success the returned guard releases the slot when dropped.
    fn try_request(self: &Arc<Self>, cfg: &AdmissionConfig) -> Result<InflightGuard, Shed> {
        if self.tokens.fetch_sub(1, Ordering::AcqRel) <= 0 {
            self.tokens.fetch_add(1, Ordering::AcqRel);
            return Err(Shed::Quota);
        }
        if self.inflight.fetch_add(1, Ordering::AcqRel) >= cfg.max_inflight {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            // An inflight-shed request did no work: refund the token so
            // capacity pressure does not also drain the quota.
            self.tokens.fetch_add(1, Ordering::AcqRel);
            return Err(Shed::Inflight);
        }
        Ok(InflightGuard {
            gate: Arc::clone(self),
        })
    }

    /// Reserves a session slot (on `Open` of a not-yet-known session).
    pub fn try_open_session(&self, cfg: &AdmissionConfig) -> Result<(), Shed> {
        if self.sessions.fetch_add(1, Ordering::AcqRel) >= cfg.max_sessions {
            self.sessions.fetch_sub(1, Ordering::AcqRel);
            return Err(Shed::SessionCap);
        }
        Ok(())
    }

    /// Adopts a session slot unconditionally — used when restart
    /// recovery re-registers journaled sessions that were admitted in
    /// a previous life (recovery must never drop durable state to an
    /// admission cap).
    pub fn adopt_session(&self) {
        self.sessions.fetch_add(1, Ordering::AcqRel);
    }

    /// Releases a session slot (on `Close`).
    pub fn release_session(&self) {
        let prev = self.sessions.fetch_sub(1, Ordering::AcqRel);
        if prev == 0 {
            // Underflow guard (double close); restore zero.
            self.sessions.store(0, Ordering::Release);
        }
    }

    fn refill(&self, cfg: &AdmissionConfig) {
        let mut cur = self.tokens.load(Ordering::Acquire);
        loop {
            let next = (cur + cfg.quota_refill).min(cfg.quota_burst);
            match self
                .tokens
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current open-session count (stats).
    pub fn sessions_now(&self) -> usize {
        self.sessions.load(Ordering::Acquire)
    }

    /// Current in-flight count (stats).
    pub fn inflight_now(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    /// Current token balance (stats).
    pub fn tokens_now(&self) -> i64 {
        self.tokens.load(Ordering::Acquire)
    }
}

/// RAII in-flight slot; dropping it re-admits the next request.
pub struct InflightGuard {
    gate: Arc<TenantGate>,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.gate.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The fleet-wide tenant registry. Gates are created on first contact
/// and live for the server's lifetime (tenants are few; sessions are
/// many).
pub struct Admission {
    cfg: AdmissionConfig,
    gates: Mutex<BTreeMap<String, Arc<TenantGate>>>,
}

impl Admission {
    /// Creates an empty registry with the given limits.
    pub fn new(cfg: AdmissionConfig) -> Admission {
        Admission {
            cfg,
            gates: Mutex::new(BTreeMap::new()),
        }
    }

    /// The limits in force.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// The gate for `tenant`, created on demand.
    pub fn gate(&self, tenant: &str) -> Arc<TenantGate> {
        let mut gates = lock(&self.gates);
        if let Some(g) = gates.get(tenant) {
            return Arc::clone(g);
        }
        let g = Arc::new(TenantGate::new(&self.cfg));
        gates.insert(tenant.to_string(), Arc::clone(&g));
        g
    }

    /// Admission check for one request on `gate`.
    pub fn try_request(&self, gate: &Arc<TenantGate>) -> Result<InflightGuard, Shed> {
        gate.try_request(&self.cfg)
    }

    /// One refill tick across all tenants (called by the ticker
    /// thread every `refill_ms`).
    pub fn refill_all(&self) {
        let gates = lock(&self.gates);
        for gate in gates.values() {
            gate.refill(&self.cfg);
        }
    }

    /// Per-tenant snapshot for `--stats`: `(name, sessions, inflight,
    /// tokens)` in name order.
    pub fn snapshot(&self) -> Vec<(String, usize, usize, i64)> {
        let gates = lock(&self.gates);
        gates
            .iter()
            .map(|(name, g)| {
                (
                    name.clone(),
                    g.sessions_now(),
                    g.inflight_now(),
                    g.tokens_now(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdmissionConfig {
        AdmissionConfig {
            max_sessions: 2,
            max_inflight: 2,
            quota_burst: 3,
            quota_refill: 3,
            refill_ms: 10,
        }
    }

    #[test]
    fn quota_exhausts_and_refills() {
        let adm = Admission::new(cfg());
        let gate = adm.gate("t");
        let g1 = adm.try_request(&gate).unwrap();
        drop(g1);
        let g2 = adm.try_request(&gate).unwrap();
        drop(g2);
        let g3 = adm.try_request(&gate).unwrap();
        drop(g3);
        assert_eq!(adm.try_request(&gate).err(), Some(Shed::Quota));
        adm.refill_all();
        assert!(adm.try_request(&gate).is_ok());
    }

    #[test]
    fn inflight_cap_binds_concurrent_holders() {
        let adm = Admission::new(cfg());
        let gate = adm.gate("t");
        let _a = adm.try_request(&gate).unwrap();
        let _b = adm.try_request(&gate).unwrap();
        assert_eq!(adm.try_request(&gate).err(), Some(Shed::Inflight));
        drop(_a);
        assert!(adm.try_request(&gate).is_ok());
    }

    #[test]
    fn session_cap_and_release() {
        let adm = Admission::new(cfg());
        let gate = adm.gate("t");
        gate.try_open_session(adm.config()).unwrap();
        gate.try_open_session(adm.config()).unwrap();
        assert_eq!(
            gate.try_open_session(adm.config()).err(),
            Some(Shed::SessionCap)
        );
        gate.release_session();
        assert!(gate.try_open_session(adm.config()).is_ok());
    }

    #[test]
    fn tenants_are_isolated() {
        let adm = Admission::new(cfg());
        let a = adm.gate("a");
        let b = adm.gate("b");
        // Drain a's quota entirely.
        while adm.try_request(&a).is_ok() {}
        assert_eq!(adm.try_request(&a).err(), Some(Shed::Quota));
        // b is unaffected.
        assert!(adm.try_request(&b).is_ok());
    }
}
