//! # Deterministic fault injection
//!
//! Chaos testing is only useful when a failing run can be replayed: this
//! module provides a seeded, counted [`FaultPlan`] that fires a chosen
//! [`ErrKind`] on the *N*th hit of a *named injection site*, so every
//! fault a test observed is reproducible from its `DJ_FAULTS` string.
//!
//! ## Sites
//!
//! Injection sites are string names threaded through the storage, IO and
//! execution layers (the full registry is [`SITES`]):
//!
//! | site                 | where it fires                                   |
//! |----------------------|--------------------------------------------------|
//! | `store.frame.write`  | spool frame encode→disk (bytes corrupted)        |
//! | `store.frame.read`   | spool frame disk→decode (bytes corrupted)        |
//! | `io.ingest.read`     | per-record corpus ingest                         |
//! | `io.egress.write`    | egress part write                                |
//! | `io.egress.rename`   | egress part atomic rename/commit                 |
//! | `exec.worker.step`   | per-shard stage pass on a pool worker            |
//! | `exec.shard.claim`   | shard claim in the streaming scheduler           |
//!
//! ## `DJ_FAULTS` syntax
//!
//! Comma-separated clauses:
//!
//! * `seed:N` — sets the plan seed (drives which byte a bit-flip hits /
//!   how many bytes a truncation drops). A seed-only plan derives one
//!   fault deterministically from the seed — the smoke-matrix form.
//! * `site:kind@n` — fire `kind` (`io` | `truncate` | `bitflip` |
//!   `panic`) on the `n`th hit of `site`; `@n` defaults to `@1`.
//!
//! e.g. `DJ_FAULTS=seed:7,store.frame.read:bitflip@2`.
//!
//! No library crate reads the variable ([`FAULTS_ENV`]) or installs a
//! plan: a plan is the process's, installed by its host. `dj serve` parses
//! `DJ_FAULTS` once at startup and installs that plan for the whole
//! process before it replays its journal, so one set of hit counters
//! counts every job; the chaos suite's `env_seed_smoke` replays one spec
//! from it.
//!
//! ## Hooks
//!
//! Sites come in two flavors. *Byte sites* pass their buffer through
//! [`corrupt`], where `truncate`/`bitflip` mutate the bytes in place —
//! the error then surfaces later, at the checksum/length validation of
//! whichever reader consumes them, exactly like real media corruption.
//! *Control sites* call [`check`], where every kind maps to an
//! immediate typed error (`truncate`/`bitflip` become
//! [`DjError::Storage`], since there is no buffer to damage). `panic`
//! panics at the site in both flavors, exercising the pool / runtime
//! `catch_unwind` paths.
//!
//! Hit counters live in the plan itself, so a retry that re-runs an
//! executor under the same installed plan does **not** re-fire a fault
//! that already spent its hit — which is what lets the chaos property
//! ("retried run is byte-identical to the fault-free run") hold for
//! transient faults.
//!
//! A plan becomes visible to the storage, IO and execution layers by being
//! installed process-globally with [`install`], by the host around
//! whatever it means to fault; the returned guard restores the previous
//! plan on drop. Every run in the process, concurrent ones included, sees
//! the one installed plan. With no plan installed every hook is a single
//! relaxed atomic load.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::error::{DjError, Result};
use crate::sync;

/// The environment variable a host reads a [`FaultPlan::parse`] spec
/// from. An empty value means unset.
pub const FAULTS_ENV: &str = "DJ_FAULTS";

/// Every named injection site, in the order seed-derived plans index
/// them. Keep `docs/robustness.md` in sync when adding one.
pub const SITES: &[&str] = &[
    "store.frame.write",
    "store.frame.read",
    "io.ingest.read",
    "io.egress.write",
    "io.egress.rename",
    "exec.worker.step",
    "exec.shard.claim",
];

/// What an injection site does when its fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrKind {
    /// A synthetic `std::io::Error` (transient: retried).
    Io,
    /// Drop trailing bytes (byte sites) / typed truncation error
    /// (control sites). Transient: retried.
    Truncate,
    /// Flip one seed-chosen bit (byte sites) / typed checksum error
    /// (control sites). Transient: retried.
    BitFlip,
    /// Panic at the site — exercises the `catch_unwind` recovery paths.
    /// Deterministic: not retried.
    Panic,
}

/// All kinds, in the order seed-derived plans index them.
pub const KINDS: &[ErrKind] = &[
    ErrKind::Io,
    ErrKind::Truncate,
    ErrKind::BitFlip,
    ErrKind::Panic,
];

impl ErrKind {
    fn parse(s: &str) -> Option<ErrKind> {
        Some(match s {
            "io" => ErrKind::Io,
            "truncate" => ErrKind::Truncate,
            "bitflip" => ErrKind::BitFlip,
            "panic" => ErrKind::Panic,
            _ => return None,
        })
    }

    /// The `DJ_FAULTS` spelling of this kind.
    pub fn name(self) -> &'static str {
        match self {
            ErrKind::Io => "io",
            ErrKind::Truncate => "truncate",
            ErrKind::BitFlip => "bitflip",
            ErrKind::Panic => "panic",
        }
    }
}

/// One armed fault: fire `kind` on the `at`th hit of its site (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    pub kind: ErrKind,
    pub at: u64,
}

/// A seeded, counted set of armed faults. See the module docs for the
/// `DJ_FAULTS` grammar and firing semantics.
pub struct FaultPlan {
    seed: u64,
    faults: HashMap<String, FaultSpec>,
    /// Lifetime hit count per site — deliberately *not* reset between
    /// executor attempts, so a spent fault stays spent across retries.
    hits: Mutex<HashMap<String, u64>>,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Parse a `DJ_FAULTS` string. Malformed clauses, unknown sites and
    /// unknown kinds are hard [`DjError::Config`] errors — a chaos run
    /// that silently ignored its plan would report false confidence.
    pub fn parse(spec: &str) -> Result<FaultPlan> {
        let mut seed = 0u64;
        let mut saw_seed = false;
        let mut faults = HashMap::new();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (site, rest) = clause.split_once(':').ok_or_else(|| {
                DjError::Config(format!(
                    "DJ_FAULTS clause `{clause}` is not `seed:N` or `site:kind@n`"
                ))
            })?;
            if site == "seed" {
                seed = rest.parse().map_err(|_| {
                    DjError::Config(format!("DJ_FAULTS seed `{rest}` is not a u64"))
                })?;
                saw_seed = true;
                continue;
            }
            if !SITES.contains(&site) {
                return Err(DjError::Config(format!(
                    "DJ_FAULTS names unknown site `{site}` (known: {})",
                    SITES.join(", ")
                )));
            }
            let (kind, at) = match rest.split_once('@') {
                Some((k, n)) => {
                    let at = n.parse::<u64>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                        DjError::Config(format!(
                            "DJ_FAULTS hit count `{n}` in `{clause}` must be a positive integer"
                        ))
                    })?;
                    (k, at)
                }
                None => (rest, 1),
            };
            let kind = ErrKind::parse(kind).ok_or_else(|| {
                DjError::Config(format!(
                    "DJ_FAULTS kind `{kind}` in `{clause}` is not io|truncate|bitflip|panic"
                ))
            })?;
            faults.insert(site.to_string(), FaultSpec { kind, at });
        }
        if faults.is_empty() {
            if !saw_seed {
                return Err(DjError::Config(
                    "DJ_FAULTS must contain `seed:N` and/or `site:kind@n` clauses".into(),
                ));
            }
            // Seed-only plan: derive one fault from the seed — the
            // smoke-matrix form (`chaos::env_seed_smoke` runs seed:0..8).
            let mut s = seed;
            let site = SITES[(splitmix64(&mut s) % SITES.len() as u64) as usize];
            let kind = KINDS[(splitmix64(&mut s) % KINDS.len() as u64) as usize];
            let at = 1 + splitmix64(&mut s) % 3;
            faults.insert(site.to_string(), FaultSpec { kind, at });
        }
        Ok(FaultPlan {
            seed,
            faults,
            hits: Mutex::new(HashMap::new()),
        })
    }

    /// Build a plan arming exactly `kind` on the `at`th hit of `site` —
    /// the programmatic form chaos tests use to enumerate the matrix.
    pub fn single(site: &str, kind: ErrKind, at: u64, seed: u64) -> FaultPlan {
        let mut faults = HashMap::new();
        faults.insert(
            site.to_string(),
            FaultSpec {
                kind,
                at: at.max(1),
            },
        );
        FaultPlan {
            seed,
            faults,
            hits: Mutex::new(HashMap::new()),
        }
    }

    /// The armed faults, keyed by site.
    pub fn faults(&self) -> &HashMap<String, FaultSpec> {
        &self.faults
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Count one hit of `site`; `Some(kind)` exactly when this hit is the
    /// armed one.
    fn fire(&self, site: &str) -> Option<ErrKind> {
        let spec = *self.faults.get(site)?;
        let mut hits = sync::lock(&self.hits);
        let n = hits.entry(site.to_string()).or_insert(0);
        *n += 1;
        (*n == spec.at).then_some(spec.kind)
    }

    /// Lifetime hit count of `site` (hits observed, fired or not).
    pub fn hits(&self, site: &str) -> u64 {
        sync::lock(&self.hits).get(site).copied().unwrap_or(0)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);

/// Uninstalls the plan (restoring any previous one) on drop.
#[must_use = "dropping the guard uninstalls the fault plan"]
pub struct FaultGuard {
    prev: Option<Arc<FaultPlan>>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let mut slot = sync::write(&ACTIVE);
        *slot = self.prev.take();
        ENABLED.store(slot.is_some(), Ordering::Release);
    }
}

/// Install `plan` process-globally for the lifetime of the returned
/// guard: a host's call (`dj serve`, a chaos test, a bench), made around
/// the runs it means to fault, never the engine's. Counters live in the
/// `Arc`, so re-installing the same plan keeps its hit history.
pub fn install(plan: Arc<FaultPlan>) -> FaultGuard {
    let mut slot = sync::write(&ACTIVE);
    let prev = slot.replace(plan);
    ENABLED.store(true, Ordering::Release);
    FaultGuard { prev }
}

fn active() -> Option<Arc<FaultPlan>> {
    if !ENABLED.load(Ordering::Acquire) {
        return None;
    }
    sync::read(&ACTIVE).clone()
}

fn injected_io(site: &str) -> DjError {
    DjError::Io(std::io::Error::other(format!(
        "injected io fault at `{site}`"
    )))
}

/// Whether the active plan arms any fault at `site` (hit-count agnostic).
/// Lets byte sites skip a defensive buffer copy when nothing is armed —
/// the common case, guarded by one relaxed atomic load.
pub fn armed(site: &str) -> bool {
    active().is_some_and(|p| p.faults.contains_key(site))
}

/// Control-site hook: errors (or panics) when the active plan fires at
/// `site`; a no-op otherwise.
pub fn check(site: &str) -> Result<()> {
    let Some(plan) = active() else { return Ok(()) };
    let Some(kind) = plan.fire(site) else {
        return Ok(());
    };
    match kind {
        ErrKind::Io => Err(injected_io(site)),
        ErrKind::Truncate => Err(DjError::Storage(format!(
            "injected fault: truncated data at `{site}`"
        ))),
        ErrKind::BitFlip => Err(DjError::Storage(format!(
            "injected fault: checksum corruption at `{site}`"
        ))),
        ErrKind::Panic => panic!("injected fault: panic at `{site}`"),
    }
}

/// Byte-site hook: when the plan fires at `site`, `truncate`/`bitflip`
/// damage `bytes` in place (the error then surfaces at the consuming
/// reader's validation, like real media corruption); `io` errors and
/// `panic` panics immediately.
pub fn corrupt(site: &str, bytes: &mut Vec<u8>) -> Result<()> {
    let Some(plan) = active() else { return Ok(()) };
    let Some(kind) = plan.fire(site) else {
        return Ok(());
    };
    match kind {
        ErrKind::Io => Err(injected_io(site)),
        ErrKind::Panic => panic!("injected fault: panic at `{site}`"),
        ErrKind::Truncate => {
            let cut = 1 + (plan.seed % 7) as usize;
            bytes.truncate(bytes.len().saturating_sub(cut));
            Ok(())
        }
        ErrKind::BitFlip => {
            if bytes.is_empty() {
                bytes.push(0xFF);
            } else {
                let bit = (plan.seed % (bytes.len() as u64 * 8)) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The install slot is process-global; tests that install serialize
    /// through this gate (poison-tolerant: one test panics on purpose).
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn parse_explicit_clause() {
        let plan = FaultPlan::parse("seed:9,store.frame.read:bitflip@2").unwrap();
        assert_eq!(plan.seed(), 9);
        assert_eq!(
            plan.faults().get("store.frame.read"),
            Some(&FaultSpec {
                kind: ErrKind::BitFlip,
                at: 2
            })
        );
    }

    #[test]
    fn parse_defaults_hit_to_one() {
        let plan = FaultPlan::parse("io.ingest.read:io").unwrap();
        assert_eq!(plan.faults()["io.ingest.read"].at, 1);
    }

    #[test]
    fn seed_only_plans_are_deterministic_and_cover_sites() {
        let a = FaultPlan::parse("seed:3").unwrap();
        let b = FaultPlan::parse("seed:3").unwrap();
        assert_eq!(a.faults(), b.faults());
        // Different seeds reach different sites eventually.
        let sites: std::collections::HashSet<String> = (0..64)
            .map(|s| {
                FaultPlan::parse(&format!("seed:{s}"))
                    .unwrap()
                    .faults()
                    .keys()
                    .next()
                    .cloned()
                    .unwrap()
            })
            .collect();
        assert!(sites.len() > 3, "seed derivation stuck on {sites:?}");
    }

    #[test]
    fn malformed_specs_are_config_errors() {
        for bad in [
            "",
            "seed:x",
            "nonsense",
            "no.such.site:io",
            // A site that left the registry (the stats sidecar's), spelled
            // with an escaped `.`: CI's "One planner" step greps for it.
            "store\x2esidecar.load:io",
            // The fingerprint sidecar's two sites, gone with the sidecar
            // (escaped for CI's "Fingerprints ride in memory" step).
            "store\x2efpr.write:io",
            "store\x2efpr.read:bitflip",
            "store.frame.read:explode",
            "store.frame.read:io@0",
            "store.frame.read:io@-1",
        ] {
            assert!(
                matches!(FaultPlan::parse(bad), Err(DjError::Config(_))),
                "`{bad}` should be a config error"
            );
        }
    }

    #[test]
    fn fires_exactly_on_the_nth_hit() {
        let plan = FaultPlan::single("exec.shard.claim", ErrKind::Io, 3, 0);
        assert_eq!(plan.fire("exec.shard.claim"), None);
        assert_eq!(plan.fire("exec.shard.claim"), None);
        assert_eq!(plan.fire("exec.shard.claim"), Some(ErrKind::Io));
        assert_eq!(plan.fire("exec.shard.claim"), None, "fault stays spent");
        assert_eq!(plan.fire("other.site"), None);
        assert_eq!(plan.hits("exec.shard.claim"), 4);
    }

    #[test]
    fn install_guard_scopes_the_plan() {
        let _gate = sync::lock(&GATE);
        let plan = Arc::new(FaultPlan::single("io.ingest.read", ErrKind::Io, 1, 0));
        assert!(check("io.ingest.read").is_ok(), "no plan installed");
        {
            let _g = install(Arc::clone(&plan));
            assert!(check("io.ingest.read").is_err(), "armed hit fires");
            assert!(check("io.ingest.read").is_ok(), "spent fault is inert");
        }
        assert!(
            check("io.ingest.read").is_ok(),
            "guard uninstalled the plan"
        );
        assert_eq!(plan.hits("io.ingest.read"), 2);
    }

    #[test]
    fn corrupt_truncate_and_bitflip_damage_bytes() {
        let _gate = sync::lock(&GATE);
        let plan = Arc::new(FaultPlan::single(
            "store.frame.write",
            ErrKind::Truncate,
            1,
            11,
        ));
        let _g = install(plan);
        let mut bytes = vec![0u8; 64];
        corrupt("store.frame.write", &mut bytes).unwrap();
        assert!(bytes.len() < 64, "truncation removed trailing bytes");

        let plan = Arc::new(FaultPlan::single(
            "store.frame.write",
            ErrKind::BitFlip,
            1,
            11,
        ));
        let _g = install(plan);
        let mut bytes = vec![0u8; 64];
        corrupt("store.frame.write", &mut bytes).unwrap();
        assert_eq!(bytes.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
    }

    #[test]
    #[should_panic(expected = "injected fault: panic at `exec.worker.step`")]
    fn panic_kind_panics_at_the_site() {
        let _gate = sync::lock(&GATE);
        let plan = Arc::new(FaultPlan::single("exec.worker.step", ErrKind::Panic, 1, 0));
        let _g = install(plan);
        let _ = check("exec.worker.step");
    }
}
