//! Process-wide failpoint registry for crash-consistency torture.
//!
//! A *failpoint* is a named site in crash-critical code — a segment
//! append about to hit the disk, a snapshot about to rename over its
//! predecessor, a reply about to be written to a socket. Production
//! code calls [`hit`] at the site; when nothing is armed that call is a
//! single relaxed atomic load and a never-taken branch, so the
//! instrumented binary is the shipped binary. A torture harness arms
//! sites with an [`Action`] — return an injected [`std::io::Error`],
//! sleep, unwind with an [`InjectedPanic`], or hard-abort the process at
//! that exact instruction — and the same binary now fails exactly where
//! the schedule says it must.
//!
//! Arms are scoped three ways:
//!
//! * **by site name** — `persist.append.mid-write`;
//! * **by context filter** — sites report a context string (a tier's
//!   directory, a server's port) via [`hit_with`]; an arm with a
//!   non-empty filter only fires when the filter is a substring of that
//!   context. This is what lets concurrent tests in one process arm the
//!   same site without tripping each other: each filters on its own
//!   unique temp dir or port.
//! * **by trigger** — `@N` fires on exactly the Nth hit, `@N+` on
//!   every hit from the Nth on, and `%RATE/SEED` on each hit with
//!   probability `RATE`, drawn from a SplitMix64 stream seeded with
//!   `SEED` ([`Trigger`]). The count is how a schedule says "crash on the
//!   *third* append", the `+` form is how a flapping shard keeps crashing
//!   after every respawn, and the rate is how a server injects a steady,
//!   reproducible fraction of faults into live traffic.
//!
//! Cross-process arming uses the [`ENV_VAR`] environment variable: a
//! supervisor sets `REVEL_FAILPOINTS=persist.append.mid-write=abort@2`
//! on a spawned shard and the shard's [`init_from_env`] arms it at
//! startup. The spec grammar is
//! `site[#filter]=action[@N[+] | %RATE/SEED] [; more]` with actions
//! `err`, `abort`, `panic`, and `delay:MS` ([`ArmSpec`]).
//!
//! [`FailPlan::from_seed`] derives a deterministic crash schedule from a
//! seed — same seed, same site, same action, same trigger — which is
//! what makes torture-harness reports reproducible.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Environment variable read by [`init_from_env`]; a supervisor sets it
/// on a spawned shard to arm failpoints in that process.
pub const ENV_VAR: &str = "REVEL_FAILPOINTS";

/// What an armed failpoint does when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Return an injected `io::Error` (kind `Other`) from [`hit`].
    InjectError,
    /// Sleep for the given number of milliseconds, then succeed.
    Delay(u64),
    /// Hard-abort the process at the site — no destructors, no flush;
    /// the closest safe stand-in for power loss at that instruction.
    Abort,
    /// Unwind from the site with an [`InjectedPanic`] payload, so a
    /// `catch_unwind` fence can tell an injected panic from a real bug.
    Panic,
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::InjectError => write!(f, "err"),
            Action::Delay(ms) => write!(f, "delay:{ms}"),
            Action::Abort => write!(f, "abort"),
            Action::Panic => write!(f, "panic"),
        }
    }
}

/// The payload an [`Action::Panic`] failpoint unwinds with. A
/// `catch_unwind` fence downcasts to it to answer a retryable fault
/// instead of reporting an internal error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedPanic {
    /// The site that fired.
    pub site: String,
}

/// When an armed failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// `@N`: on exactly the Nth hit (1-based).
    Nth(u64),
    /// `@N+`: on every hit from the Nth on. A spec clause without a
    /// trigger means `@1+`.
    From(u64),
    /// `%RATE/SEED`: on each hit independently with probability `rate`
    /// in [0, 1], drawn from a SplitMix64 stream seeded with `seed` —
    /// the same seed fires on the same hit numbers.
    Rate {
        /// Firing probability per hit.
        rate: f64,
        /// Seed of the arm's draw stream.
        seed: u64,
    },
}

impl std::fmt::Display for Trigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trigger::Nth(n) => write!(f, "@{n}"),
            Trigger::From(n) => write!(f, "@{n}+"),
            Trigger::Rate { rate, seed } => write!(f, "%{rate}/{seed}"),
        }
    }
}

/// One armed failpoint.
struct Arm {
    site: String,
    /// Context substring filter; empty matches every context.
    filter: String,
    action: Action,
    trigger: Trigger,
    hits: u64,
    /// SplitMix64 state of a [`Trigger::Rate`] arm's draw stream.
    draws: u64,
}

impl Arm {
    /// Counts one hit and reports whether it fires.
    fn fires(&mut self) -> bool {
        self.hits += 1;
        match self.trigger {
            Trigger::Nth(n) => self.hits == n,
            Trigger::From(n) => self.hits >= n,
            Trigger::Rate { rate, .. } => {
                // The top 53 bits make a uniform double in [0, 1).
                let unit = (splitmix64(&mut self.draws) >> 11) as f64 / (1u64 << 53) as f64;
                unit < rate
            }
        }
    }
}

/// Fast-path gate: `false` means the registry is empty and [`hit`] is a
/// load-and-branch no-op.
static ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Vec<Arm>> = Mutex::new(Vec::new());

fn registry() -> std::sync::MutexGuard<'static, Vec<Arm>> {
    // A panic while holding the lock (can't happen today — no user code
    // runs under it) must not poison every later hit into a panic storm.
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Report that execution reached the failpoint `site`.
///
/// Returns `Ok(false)` when nothing fires (the unarmed common case is
/// one relaxed atomic load), the injected error for an armed `err`
/// action, and `Ok(true)` after sleeping for a `delay`. A `panic`
/// unwinds with an [`InjectedPanic`]; an `abort` never returns.
#[inline]
pub fn hit(site: &str) -> io::Result<bool> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(false);
    }
    slow_hit(site, "")
}

/// [`hit`] with a lazily-built context string (a tier's directory, a
/// server's port) that arms can filter on. The closure only runs when
/// at least one failpoint is armed, so the fast path stays allocation-free.
#[inline]
pub fn hit_with(site: &str, ctx: impl FnOnce() -> String) -> io::Result<bool> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(false);
    }
    let ctx = ctx();
    slow_hit(site, &ctx)
}

#[cold]
fn slow_hit(site: &str, ctx: &str) -> io::Result<bool> {
    let mut fire = None;
    {
        let mut reg = registry();
        for arm in reg.iter_mut() {
            if arm.site != site || (!arm.filter.is_empty() && !ctx.contains(&arm.filter)) {
                continue;
            }
            // Every matching arm counts the hit (and draws), fired or not,
            // so each arm's sequence depends only on its own hits.
            if arm.fires() && fire.is_none() {
                fire = Some(arm.action);
            }
        }
    }
    match fire {
        None => Ok(false),
        Some(Action::InjectError) => {
            Err(io::Error::other(format!("failpoint '{site}': injected I/O error")))
        }
        Some(Action::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(true)
        }
        Some(Action::Panic) => std::panic::panic_any(InjectedPanic { site: site.to_string() }),
        Some(Action::Abort) => {
            eprintln!("failpoint '{site}': hard abort");
            std::process::abort();
        }
    }
}

/// Arm `site` with `action` under `trigger`. A non-empty `filter`
/// restricts the arm to contexts containing it as a substring.
pub fn arm(site: &str, filter: &str, action: Action, trigger: Trigger) {
    let draws = match trigger {
        Trigger::Rate { seed, .. } => seed,
        _ => 0,
    };
    let mut reg = registry();
    reg.push(Arm {
        site: site.to_string(),
        filter: filter.to_string(),
        action,
        trigger,
        hits: 0,
        draws,
    });
    ARMED.store(true, Ordering::Relaxed);
}

/// Remove every arm for `site` whose filter equals `filter` exactly.
/// Tests disarm their own arms this way without disturbing arms other
/// concurrent tests planted on the same site.
pub fn disarm(site: &str, filter: &str) {
    let mut reg = registry();
    reg.retain(|a| !(a.site == site && a.filter == filter));
    if reg.is_empty() {
        ARMED.store(false, Ordering::Relaxed);
    }
}

/// Remove every arm in the process. Shard processes and harnesses own
/// their whole registry; concurrent tests should prefer [`disarm`].
pub fn disarm_all() {
    let mut reg = registry();
    reg.clear();
    ARMED.store(false, Ordering::Relaxed);
}

/// Total hits recorded across arms for `site` (diagnostics).
pub fn hit_count(site: &str) -> u64 {
    registry().iter().filter(|a| a.site == site).map(|a| a.hits).sum()
}

/// `true` when at least one failpoint is armed.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// One `site[#filter]=action[trigger]` clause of a spec string, parsed
/// and validated. `Display` renders the canonical clause, which parses
/// back to an equal value.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmSpec {
    /// Failpoint site.
    pub site: String,
    /// Context substring filter; empty matches every context.
    pub filter: String,
    /// What the site does when it fires.
    pub action: Action,
    /// When it fires.
    pub trigger: Trigger,
}

impl ArmSpec {
    /// Parse one clause. Rejects an empty site, an unknown action, a
    /// 0-based or malformed count, and a rate that is NaN or outside
    /// [0, 1].
    pub fn parse(clause: &str) -> Result<ArmSpec, String> {
        let part = clause.trim();
        let (lhs, rhs) =
            part.split_once('=').ok_or_else(|| format!("'{part}': missing '=action'"))?;
        let (site, filter) = match lhs.split_once('#') {
            Some((s, f)) => (s.trim(), f.trim()),
            None => (lhs.trim(), ""),
        };
        if site.is_empty() {
            return Err(format!("'{part}': empty site name"));
        }
        let split = rhs.find(['@', '%']).unwrap_or(rhs.len());
        let (action_str, trigger_str) = (rhs[..split].trim(), rhs[split..].trim());
        let action = match action_str {
            "err" => Action::InjectError,
            "abort" => Action::Abort,
            "panic" => Action::Panic,
            other => match other.strip_prefix("delay:") {
                Some(ms) => {
                    Action::Delay(ms.parse().map_err(|_| format!("'{part}': bad delay '{ms}'"))?)
                }
                None => return Err(format!("'{part}': unknown action '{other}'")),
            },
        };
        let trigger = if let Some(t) = trigger_str.strip_prefix('@') {
            let (num, every) = match t.strip_suffix('+') {
                Some(n) => (n, true),
                None => (t, false),
            };
            let n: u64 = num.parse().map_err(|_| format!("'{part}': bad trigger '{t}'"))?;
            if n == 0 {
                return Err(format!("'{part}': trigger is 1-based"));
            }
            if every {
                Trigger::From(n)
            } else {
                Trigger::Nth(n)
            }
        } else if let Some(t) = trigger_str.strip_prefix('%') {
            let (rate, seed) =
                t.split_once('/').ok_or_else(|| format!("'{part}': rate needs '/SEED'"))?;
            let rate: f64 = rate.parse().map_err(|_| format!("'{part}': bad rate '{rate}'"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("'{part}': rate {rate} is not in [0, 1]"));
            }
            let seed = seed.parse().map_err(|_| format!("'{part}': bad seed '{seed}'"))?;
            Trigger::Rate { rate, seed }
        } else {
            Trigger::From(1)
        };
        Ok(ArmSpec { site: site.to_string(), filter: filter.to_string(), action, trigger })
    }
}

impl std::fmt::Display for ArmSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.site)?;
        if !self.filter.is_empty() {
            write!(f, "#{}", self.filter)?;
        }
        write!(f, "={}{}", self.action, self.trigger)
    }
}

/// Parse and arm a `;`-separated spec string of [`ArmSpec`] clauses.
/// Every clause is parsed before any is armed, so a bad spec arms
/// nothing. Returns the number of failpoints armed.
pub fn arm_spec(spec: &str) -> Result<usize, String> {
    let clauses = spec
        .split(';')
        .filter(|c| !c.trim().is_empty())
        .map(ArmSpec::parse)
        .collect::<Result<Vec<_>, _>>()?;
    for c in &clauses {
        arm(&c.site, &c.filter, c.action, c.trigger);
    }
    Ok(clauses.len())
}

/// Arm failpoints from the [`ENV_VAR`] environment variable, if set.
/// Returns the number armed (0 when the variable is absent or empty).
pub fn init_from_env() -> Result<usize, String> {
    match std::env::var(ENV_VAR) {
        Ok(spec) if !spec.trim().is_empty() => arm_spec(&spec),
        _ => Ok(0),
    }
}

/// A deterministic, seed-derived crash schedule: which site to arm,
/// with what action, at which hit. Same seed ⇒ same plan, which is what
/// makes a torture run's per-seed report reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailPlan {
    /// Failpoint site to arm.
    pub site: String,
    /// Action the site performs when triggered.
    pub action: Action,
    /// 1-based hit index at which the action fires.
    pub trigger: u64,
    /// `true`: the action fires on every hit from `trigger` on (a
    /// *flapping* plan — the victim keeps failing after every respawn).
    pub every_hit: bool,
}

impl FailPlan {
    /// Derive a plan from `seed`. Roughly one seed in four is a
    /// *flapping* plan (repeat-abort on `flap_site`, the shape that must
    /// drive a supervisor's restart circuit to permanent eviction); one
    /// in four injects a transient `io::Error` at an `error_site` (the
    /// victim must survive it); the rest hard-abort once at a
    /// `crash_site` on hit 1–3 (the victim must respawn and recover).
    pub fn from_seed(
        seed: u64,
        crash_sites: &[&str],
        error_sites: &[&str],
        flap_site: &str,
    ) -> FailPlan {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        match splitmix64(&mut state) % 4 {
            0 => FailPlan {
                site: flap_site.to_string(),
                action: Action::Abort,
                trigger: 1,
                every_hit: true,
            },
            1 => FailPlan {
                site: error_sites[(splitmix64(&mut state) % error_sites.len() as u64) as usize]
                    .to_string(),
                action: Action::InjectError,
                trigger: 1 + splitmix64(&mut state) % 2,
                every_hit: false,
            },
            _ => FailPlan {
                site: crash_sites[(splitmix64(&mut state) % crash_sites.len() as u64) as usize]
                    .to_string(),
                action: Action::Abort,
                trigger: 1 + splitmix64(&mut state) % 3,
                every_hit: false,
            },
        }
    }

    /// Render the plan as an [`arm_spec`] string (round-trips exactly).
    pub fn spec(&self) -> String {
        format!(
            "{}={}@{}{}",
            self.site,
            self.action,
            self.trigger,
            if self.every_hit { "+" } else { "" }
        )
    }
}

/// SplitMix64 — the crate sits at the root of the dependency graph, so
/// it carries its own tiny generator instead of pulling in `revel-isa`.
/// Exported for harnesses that derive further seeded choices (a victim
/// shard) on streams independent of [`FailPlan::from_seed`]'s.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every test in this module arms under its own unique filter so the
    /// suite can run multi-threaded without cross-talk (the same
    /// discipline the rest of the workspace uses).
    fn unique_filter(tag: &str) -> String {
        format!("fp-test-{tag}-{}", std::process::id())
    }

    #[test]
    fn unarmed_hit_is_ok_and_armed_flag_tracks_registry() {
        assert!(hit("test.nothing.armed").is_ok());
        let f = unique_filter("flag");
        arm("test.flag.site", &f, Action::InjectError, Trigger::Nth(1));
        assert!(armed());
        disarm("test.flag.site", &f);
        assert!(hit("test.flag.site").is_ok());
    }

    #[test]
    fn trigger_counts_hits_and_fires_exactly_once_without_plus() {
        let f = unique_filter("once");
        arm("test.once.site", &f, Action::InjectError, Trigger::Nth(3));
        let ctx = || f.clone();
        assert!(hit_with("test.once.site", ctx).is_ok(), "hit 1 passes");
        assert!(hit_with("test.once.site", ctx).is_ok(), "hit 2 passes");
        assert!(hit_with("test.once.site", ctx).is_err(), "hit 3 fires");
        assert!(hit_with("test.once.site", ctx).is_ok(), "hit 4 passes again");
        disarm("test.once.site", &f);
    }

    #[test]
    fn every_hit_mode_keeps_firing_from_the_trigger_on() {
        let f = unique_filter("every");
        arm("test.every.site", &f, Action::InjectError, Trigger::From(2));
        let ctx = || f.clone();
        assert!(hit_with("test.every.site", ctx).is_ok());
        assert!(hit_with("test.every.site", ctx).is_err());
        assert!(hit_with("test.every.site", ctx).is_err());
        disarm("test.every.site", &f);
    }

    #[test]
    fn context_filter_scopes_an_arm_to_matching_contexts() {
        let f = unique_filter("scope");
        arm("test.scope.site", &f, Action::InjectError, Trigger::From(1));
        assert!(hit_with("test.scope.site", || "unrelated-ctx".to_string()).is_ok());
        assert!(hit_with("test.scope.site", || format!("/tmp/{f}/segment")).is_err());
        assert!(hit("test.scope.site").is_ok(), "empty ctx never matches a filtered arm");
        disarm("test.scope.site", &f);
    }

    #[test]
    fn delay_action_sleeps_then_succeeds() {
        let f = unique_filter("delay");
        arm("test.delay.site", &f, Action::Delay(20), Trigger::Nth(1));
        let t0 = std::time::Instant::now();
        assert!(hit_with("test.delay.site", || f.clone()).expect("delay passes"), "delay fired");
        assert!(t0.elapsed() >= std::time::Duration::from_millis(20));
        assert!(!hit_with("test.delay.site", || f.clone()).expect("passes"), "@1 fires once");
        disarm("test.delay.site", &f);
    }

    #[test]
    fn spec_grammar_parses_actions_filters_and_triggers() {
        let f = unique_filter("spec");
        let n = arm_spec(&format!(
            "test.spec.a#{f}=err@2; test.spec.b#{f}=delay:5; test.spec.c#{f}=abort@4+"
        ))
        .expect("valid spec");
        assert_eq!(n, 3);
        let ctx = || f.clone();
        assert!(hit_with("test.spec.a", ctx).is_ok());
        assert!(hit_with("test.spec.a", ctx).is_err(), "err fires at hit 2");
        assert!(hit_with("test.spec.b", ctx).is_ok(), "delay with default @1+ fires and passes");
        // test.spec.c is abort@4 — do NOT hit it four times here.
        for site in ["test.spec.a", "test.spec.b", "test.spec.c"] {
            disarm(site, &f);
        }
    }

    #[test]
    fn bad_specs_are_rejected_with_a_reason() {
        for bad in [
            "noequals",
            "site=frobnicate",
            "site=err@0",
            "site=err@x",
            "site=delay:y",
            "=err",
            "site=err%0.5",
            "site=err%x/1",
            "site=err%0.5/x",
            "site=err%NaN/1",
            "site=err%-0.1/1",
            "site=err%1.5/1",
            "site=err%inf/1",
        ] {
            assert!(arm_spec(bad).is_err(), "spec '{bad}' must be rejected");
        }
        // A bad clause anywhere arms nothing, not even the good ones.
        let f = unique_filter("atomic");
        assert!(arm_spec(&format!("test.atomic.site#{f}=err; site=bogus")).is_err());
        assert!(hit_with("test.atomic.site", || f.clone()).is_ok());
    }

    #[test]
    fn spec_clauses_round_trip_through_parsing() {
        for clause in [
            "a.site=err@2",
            "a.site#7411=abort@4+",
            "a.site=delay:5@1+",
            "a.site=panic%0.034/7",
            "a.site#ctx=err%1/0",
            "a.site=delay:5%0/18446744073709551615",
        ] {
            let parsed = ArmSpec::parse(clause).expect("valid clause");
            assert_eq!(parsed.to_string(), clause, "canonical clause renders back unchanged");
            assert_eq!(ArmSpec::parse(&parsed.to_string()), Ok(parsed));
        }
        // A clause without a trigger means every hit.
        let bare = ArmSpec::parse(" a.site = err ").expect("valid clause");
        assert_eq!(bare.trigger, Trigger::From(1));
        assert_eq!(bare.to_string(), "a.site=err@1+");
    }

    #[test]
    fn panic_action_unwinds_with_the_typed_payload() {
        let f = unique_filter("panic");
        arm("test.panic.site", &f, Action::Panic, Trigger::Nth(1));
        let caught = std::panic::catch_unwind(|| hit_with("test.panic.site", || f.clone()));
        disarm("test.panic.site", &f);
        let payload = caught.expect_err("an armed panic unwinds");
        assert_eq!(
            payload.downcast_ref::<InjectedPanic>(),
            Some(&InjectedPanic { site: "test.panic.site".to_string() })
        );
    }

    /// Fires `n` hits on a fresh `%rate/seed` arm and returns which fired.
    fn rate_sequence(tag: &str, rate: f64, seed: u64, n: usize) -> Vec<bool> {
        let f = unique_filter(tag);
        let site = format!("test.rate.{tag}");
        arm(&site, &f, Action::InjectError, Trigger::Rate { rate, seed });
        let fired = (0..n).map(|_| hit_with(&site, || f.clone()).is_err()).collect();
        disarm(&site, &f);
        fired
    }

    #[test]
    fn rate_trigger_replays_the_same_hits_for_the_same_seed() {
        let a = rate_sequence("same-a", 0.3, 7, 500);
        let b = rate_sequence("same-b", 0.3, 7, 500);
        assert_eq!(a, b, "same seed, same hit sequence");
        assert_ne!(a, rate_sequence("other", 0.3, 8, 500), "another seed, another sequence");
        assert!(rate_sequence("never", 0.0, 7, 500).iter().all(|f| !f), "rate 0 never fires");
        assert!(rate_sequence("always", 1.0, 7, 500).iter().all(|f| *f), "rate 1 always fires");
    }

    #[test]
    fn rate_trigger_fires_at_its_rate() {
        // 10k hits at p = 0.1: mean 1000, sigma = sqrt(10k * 0.1 * 0.9) = 30.
        // The bound is mean +- 5 sigma, which a fair generator misses with
        // probability below 1e-6.
        for seed in [1u64, 7, 42] {
            let fired = rate_sequence(&format!("rate-{seed}"), 0.1, seed, 10_000);
            let count = fired.iter().filter(|f| **f).count();
            assert!((850..=1150).contains(&count), "seed {seed}: {count} of 10000 hits fired");
        }
    }

    #[test]
    fn fail_plans_are_deterministic_and_round_trip_through_specs() {
        let crash = ["c.one", "c.two", "c.three"];
        let eio = ["e.one", "e.two"];
        let mut saw_flap = false;
        let mut saw_err = false;
        let mut saw_crash = false;
        for seed in 0..64u64 {
            let a = FailPlan::from_seed(seed, &crash, &eio, "flap.site");
            let b = FailPlan::from_seed(seed, &crash, &eio, "flap.site");
            assert_eq!(a, b, "same seed, same plan");
            assert!(a.trigger >= 1);
            match a.action {
                Action::Abort if a.every_hit => {
                    assert_eq!(a.site, "flap.site");
                    saw_flap = true;
                }
                Action::Abort => {
                    assert!(crash.contains(&a.site.as_str()));
                    saw_crash = true;
                }
                Action::InjectError => {
                    assert!(eio.contains(&a.site.as_str()));
                    saw_err = true;
                }
                Action::Delay(_) | Action::Panic => panic!("from_seed never emits {}", a.action),
            }
            // spec() round-trips through the grammar.
            let spec = a.spec();
            let (lhs, _) = spec.split_once('=').expect("spec has an action");
            assert_eq!(lhs, a.site);
        }
        assert!(saw_flap && saw_err && saw_crash, "64 seeds cover all three plan shapes");
    }
}
