//! A minimal property-testing harness with a `proptest`-compatible surface.
//!
//! Provides seeded case generation, an iteration budget, greedy input
//! shrinking on failure, and failure-seed reporting. The macro surface
//! mirrors the subset of `proptest` the workspace uses — [`proptest!`],
//! [`prop_oneof!`], [`prop_assert!`], [`prop_assert_eq!`], [`vec`],
//! [`any`], [`Just`], and [`StrategyExt::prop_map`] — so tests port with
//! only an import change.
//!
//! ## Seeding and reproduction
//!
//! Each property derives a stable base seed from its fully qualified name
//! (FNV-1a), so CI runs are reproducible run-over-run. Case `i` draws its
//! own seed from a SplitMix64 stream over the base seed; **case 0 uses the
//! base seed itself**, so a failure report of `LLOG_PROP_SEED=<seed>`
//! replays the failing case first on the next run:
//!
//! ```text
//! LLOG_PROP_SEED=12345 cargo test -q failing_property
//! ```
//!
//! `LLOG_PROP_CASES=<n>` overrides the per-property case budget.
//!
//! ## Shrinking
//!
//! On the first failing case the harness shrinks greedily: it asks the
//! strategy for simpler candidate inputs, re-runs the property on each,
//! and restarts from the first candidate that still fails, until no
//! candidate fails or the shrink-step budget is exhausted. Collection
//! strategies shrink by dropping elements and shrinking elements in
//! place; numeric ranges shrink toward their lower bound. Mapped
//! ([`StrategyExt::prop_map`]) and [`OneOf`] values cannot be inverted
//! through the mapping, so they only shrink via their containers (e.g. a
//! `vec(shape_strategy(), ..)` still shrinks by dropping shapes).

use std::cell::Cell;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::rng::{SplitMix64, TestRng};

/// Per-property configuration (alias [`ProptestConfig`] for drop-in use).
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Upper bound on accepted shrink steps (guarantees termination).
    pub max_shrink_steps: u32,
}

/// `proptest`-compatible name for [`Config`].
pub type ProptestConfig = Config;

impl Config {
    /// A config running `cases` generated inputs.
    pub fn with_cases(cases: u32) -> Config {
        Config {
            cases,
            ..Config::default()
        }
    }
}

impl Default for Config {
    fn default() -> Config {
        Config {
            cases: 64,
            max_shrink_steps: 4096,
        }
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A generator of test inputs plus a shrinker toward "simpler" inputs.
pub trait Strategy {
    /// The generated input type.
    type Value: Clone + Debug;

    /// Draw one value from the seeded stream.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Candidate simplifications of `value`, most aggressive first.
    /// An empty vector means fully shrunk (the default).
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }
}

impl<V: Clone + Debug> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &V) -> Vec<V> {
        (**self).shrink(value)
    }
}

/// Combinators available on every [`Strategy`].
pub trait StrategyExt: Strategy + Sized {
    /// Map generated values through `f` (shrinking does not see through
    /// the mapping; containers of mapped values still shrink).
    fn prop_map<T: Clone + Debug, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F, T> {
        Map {
            inner: self,
            f,
            _marker: PhantomData,
        }
    }

    /// Erase the concrete type (used by [`prop_oneof!`]).
    fn boxed(self) -> Box<dyn Strategy<Value = Self::Value>>
    where
        Self: 'static,
    {
        Box::new(self)
    }
}

impl<S: Strategy + Sized> StrategyExt for S {}

/// See [`StrategyExt::prop_map`].
pub struct Map<S, F, T> {
    inner: S,
    f: F,
    _marker: PhantomData<fn() -> T>,
}

impl<S, F, T> Strategy for Map<S, F, T>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
    T: Clone + Debug,
{
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields the given value (mirrors `proptest::Just`).
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// Numeric ranges are strategies, shrinking toward their lower bound.
fn shrink_toward<T>(low: u64, v: u64, back: impl Fn(u64) -> T) -> Vec<T> {
    if v <= low {
        return Vec::new();
    }
    let mut out: Vec<u64> = Vec::new();
    for cand in [low, low + (v - low) / 2, v - 1] {
        if cand < v && !out.contains(&cand) {
            out.push(cand);
        }
    }
    out.into_iter().map(back).collect()
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_toward(self.start as u64, *value as u64, |x| x as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_toward(*self.start() as u64, *value as u64, |x| x as $t)
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.random_range(self.clone())
    }
    fn shrink(&self, value: &f64) -> Vec<f64> {
        // Toward the lower bound; the runner's shrink-step budget bounds
        // the bisection.
        if *value <= self.start {
            return Vec::new();
        }
        let mid = self.start + (value - self.start) / 2.0;
        let mut out = vec![self.start];
        if mid < *value {
            out.push(mid);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// any::<T>()
// ---------------------------------------------------------------------------

/// Types with a canonical full-domain strategy (see [`any`]).
pub trait Arbitrary: Clone + Debug + 'static {
    /// Draw a uniform value over the whole domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
    /// Candidate simplifications (toward `false` / zero).
    fn shrink_value(&self) -> Vec<Self> {
        Vec::new()
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.bool()
    }
    fn shrink_value(&self) -> Vec<bool> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
            fn shrink_value(&self) -> Vec<$t> {
                shrink_toward(0, *self as u64, |x| x as $t)
            }
        }
    )*};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize);

/// The full-domain strategy for `T` (mirrors `proptest::arbitrary::any`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// See [`any`].
#[derive(Debug)]
pub struct Any<T>(PhantomData<fn() -> T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        value.shrink_value()
    }
}

// ---------------------------------------------------------------------------
// Collections and tuples
// ---------------------------------------------------------------------------

/// A vector strategy with a length range (mirrors
/// `proptest::collection::vec`).
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range");
    VecStrategy { element, len }
}

/// See [`vec`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = rng.random_range(self.len.clone());
        (0..n).map(|_| self.element.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let min = self.len.start;
        let mut out: Vec<Vec<S::Value>> = Vec::new();
        // 1. Structural shrinks: halves first (aggressive), then each
        //    single-element removal.
        if value.len() > min {
            let half = value.len() / 2;
            if half >= min && half < value.len() {
                out.push(value[..half].to_vec());
                out.push(value[half..].to_vec());
            }
            if value.len() > min {
                for i in 0..value.len() {
                    let mut v = value.clone();
                    v.remove(i);
                    out.push(v);
                }
            }
        }
        // 2. Element-wise shrinks, one position at a time.
        for i in 0..value.len() {
            for cand in self.element.shrink(&value[i]) {
                let mut v = value.clone();
                v[i] = cand;
                out.push(v);
            }
        }
        out
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut v = value.clone();
                        v.$idx = cand;
                        out.push(v);
                    }
                )+
                out
            }
        }
    )+};
}

impl_tuple_strategy!(
    (A / 0),
    (A / 0, B / 1),
    (A / 0, B / 1, C / 2),
    (A / 0, B / 1, C / 2, D / 3),
    (A / 0, B / 1, C / 2, D / 3, E / 4),
    (A / 0, B / 1, C / 2, D / 3, E / 4, F / 5),
);

/// Weighted union of boxed strategies; built by [`prop_oneof!`].
pub struct OneOf<V> {
    branches: Vec<(u32, Box<dyn Strategy<Value = V>>)>,
    total: u32,
}

impl<V: Clone + Debug> OneOf<V> {
    /// Create a new instance from `(weight, strategy)` branches.
    pub fn new(branches: Vec<(u32, Box<dyn Strategy<Value = V>>)>) -> OneOf<V> {
        let total = branches.iter().map(|(w, _)| *w).sum();
        assert!(total > 0, "prop_oneof! needs positive total weight");
        OneOf { branches, total }
    }
}

impl<V: Clone + Debug> Strategy for OneOf<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let mut pick = rng.random_range(0..self.total);
        for (w, s) in &self.branches {
            if pick < *w {
                return s.generate(rng);
            }
            pick -= w;
        }
        unreachable!("weighted pick out of range")
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Install (once, process-wide) a panic hook that suppresses backtraces
/// for panics the harness is catching on purpose; other threads print
/// through the previous hook unchanged.
fn install_quiet_hook() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_case<V, F>(test: &F, value: &V) -> Result<(), String>
where
    V: Clone + Debug,
    F: Fn(V) -> Result<(), String>,
{
    QUIET_PANICS.with(|q| q.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| test(value.clone())));
    QUIET_PANICS.with(|q| q.set(false));
    match outcome {
        Ok(Ok(())) => Ok(()),
        Ok(Err(msg)) => Err(msg),
        Err(payload) => Err(format!("panic: {}", panic_message(payload))),
    }
}

/// FNV-1a over the property name: a stable default base seed.
fn name_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// The outcome of [`run_property_result`]; `Err` carries the report the
/// [`proptest!`] expansion panics with.
pub fn run_property_result<S, F>(
    name: &str,
    config: &Config,
    strategy: &S,
    test: F,
) -> Result<(), String>
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), String>,
{
    install_quiet_hook();
    let base_seed = env_u64("LLOG_PROP_SEED").unwrap_or_else(|| name_seed(name));
    let cases = env_u64("LLOG_PROP_CASES")
        .map(|c| c as u32)
        .unwrap_or(config.cases)
        .max(1);

    let mut seeder = SplitMix64::new(base_seed);
    for case in 0..cases {
        // Case 0 uses the base seed itself so a reported failure seed
        // replays first when fed back through LLOG_PROP_SEED.
        let case_seed = if case == 0 {
            base_seed
        } else {
            seeder.next_u64()
        };
        let mut rng = TestRng::seed_from_u64(case_seed);
        let value = strategy.generate(&mut rng);
        let Err(original_failure) = run_case(&test, &value) else {
            continue;
        };

        // Greedy shrink: restart from the first still-failing candidate.
        let mut current = value;
        let mut last_failure = original_failure.clone();
        let mut steps = 0u32;
        'outer: while steps < config.max_shrink_steps {
            for cand in strategy.shrink(&current) {
                steps += 1;
                if steps >= config.max_shrink_steps {
                    break 'outer;
                }
                if let Err(msg) = run_case(&test, &cand) {
                    current = cand;
                    last_failure = msg;
                    continue 'outer;
                }
            }
            break; // no candidate fails: fully shrunk
        }

        return Err(format!(
            "property '{name}' failed at case {case}/{cases} \
             (case seed {case_seed}).\n\
             minimal counterexample after {steps} shrink steps:\n  \
             {current:?}\n\
             failure: {last_failure}\n\
             reproduce with: LLOG_PROP_SEED={case_seed} cargo test -q"
        ));
    }
    Ok(())
}

/// Run a property, panicking with a seed-bearing report on failure.
/// This is what [`proptest!`] expands to.
pub fn run_property<S, F>(name: &str, config: &Config, strategy: &S, test: F)
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), String>,
{
    if let Err(report) = run_property_result(name, config, strategy, test) {
        panic!("{report}");
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Declare property tests: a drop-in for `proptest::proptest!` over the
/// subset this workspace uses (named args bound with `in`, optional
/// `#![proptest_config(...)]` header).
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_items! { ($crate::prop::Config::default()) $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($config:expr) ) => {};
    (
        ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $config;
            let strategy = ($($strat,)+);
            $crate::prop::run_property(
                concat!(module_path!(), "::", stringify!($name)),
                &config,
                &strategy,
                |($($arg,)+)| {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                },
            );
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

/// Assert inside a property; failure becomes a shrinkable counterexample.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond), file!(), line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Assert equality inside a property (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err(format!(
                "assertion failed: `left == right` ({}:{})\n  left: {:?}\n right: {:?}",
                file!(), line!(), left, right
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err(format!($($fmt)+));
        }
    }};
}

/// Weighted or unweighted union of strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ( $($weight:expr => $strat:expr),+ $(,)? ) => {
        $crate::prop::OneOf::new(vec![
            $(($weight as u32, $crate::prop::StrategyExt::boxed($strat))),+
        ])
    };
    ( $($strat:expr),+ $(,)? ) => {
        $crate::prop::OneOf::new(vec![
            $((1u32, $crate::prop::StrategyExt::boxed($strat))),+
        ])
    };
}

// Make `use llog_testkit::prop::*` bring the macros along, mirroring
// `use proptest::prelude::*`.
pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU8, Ordering};

    #[test]
    fn generation_is_deterministic_per_seed() {
        let strat = vec(0u32..1000, 1..20);
        let mut a = TestRng::seed_from_u64(7);
        let mut b = TestRng::seed_from_u64(7);
        assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
    }

    #[test]
    fn passing_property_passes() {
        run_property_result(
            "passing",
            &Config::with_cases(50),
            &vec(0u8..10, 1..8),
            |v: Vec<u8>| {
                if v.iter().all(|&x| x < 10) {
                    Ok(())
                } else {
                    Err("out of range".into())
                }
            },
        )
        .unwrap();
    }

    #[test]
    fn shrinking_reaches_minimal_counterexample() {
        // Fails whenever any element is >= 10. The minimal counterexample
        // is a single-element vector containing exactly 10.
        let report = run_property_result(
            "shrink_to_minimal",
            &Config::with_cases(200),
            &vec(0u32..1000, 1..30),
            |v: Vec<u32>| {
                if v.iter().any(|&x| x >= 10) {
                    Err("element >= 10".into())
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
        assert!(
            report.contains("[10]"),
            "expected minimal counterexample [10] in report:\n{report}"
        );
        assert!(
            report.contains("LLOG_PROP_SEED="),
            "report lacks seed:\n{report}"
        );
    }

    #[test]
    fn shrinking_respects_min_length() {
        let report = run_property_result(
            "min_len",
            &Config::with_cases(10),
            &vec(0u8..=255u8, 3..10),
            |_v: Vec<u8>| Err("always fails".into()),
        )
        .unwrap_err();
        assert!(
            report.contains("[0, 0, 0]"),
            "expected 3-element all-zero counterexample in report:\n{report}"
        );
    }

    #[test]
    fn failure_seed_reproduces_the_counterexample() {
        // Extract the failing case seed from the report, regenerate from
        // it directly, and check the pre-shrink input matches.
        let strat = (0u64..1_000_000,);
        let property = |(x,): (u64,)| {
            if x >= 500_000 {
                Err("too big".into())
            } else {
                Ok(())
            }
        };
        let report = run_property_result("seed_repro", &Config::with_cases(500), &strat, property)
            .unwrap_err();
        let seed: u64 = report
            .split("case seed ")
            .nth(1)
            .and_then(|s| s.split(')').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("report carries a case seed");
        let mut rng = TestRng::seed_from_u64(seed);
        let (x,) = strat.generate(&mut rng);
        assert!(
            x >= 500_000,
            "reported seed regenerates a failing input, got {x}"
        );
    }

    #[test]
    fn panics_are_caught_and_shrunk() {
        let report = run_property_result(
            "panicking",
            &Config::with_cases(50),
            &(0u32..100,),
            |(x,): (u32,)| {
                assert!(x < 1, "boom at {x}");
                Ok(())
            },
        )
        .unwrap_err();
        assert!(report.contains("panic"), "panic not reported:\n{report}");
        assert!(report.contains("(1,)"), "expected shrink to 1:\n{report}");
    }

    #[test]
    fn oneof_respects_weights_roughly() {
        let strat: OneOf<u8> = OneOf::new(vec![(9, Just(0u8).boxed()), (1, Just(1u8).boxed())]);
        let mut rng = TestRng::seed_from_u64(40);
        let ones = (0..10_000)
            .filter(|_| strat.generate(&mut rng) == 1)
            .count();
        assert!((700..1300).contains(&ones), "ones {ones}");
    }

    #[test]
    fn bool_and_uint_arbitraries_shrink_toward_zero() {
        assert_eq!(true.shrink_value(), vec![false]);
        assert!(false.shrink_value().is_empty());
        assert!(0u8.shrink_value().is_empty());
        assert!(200u64.shrink_value().contains(&0));
    }

    #[test]
    fn tuple_shrinks_componentwise() {
        let strat = (0u8..10, 0u8..10);
        let shrinks = strat.shrink(&(4, 6));
        assert!(shrinks.contains(&(0, 6)));
        assert!(shrinks.contains(&(4, 0)));
        assert!(!shrinks.contains(&(0, 0)), "one component at a time");
    }

    /// Which `flip` values `macro_property` has drawn (bit 0 = false, 1 = true).
    static FLIPS_DRAWN: AtomicU8 = AtomicU8::new(0);

    proptest! {
        #![proptest_config(Config::with_cases(32))]

        fn macro_property(
            xs in vec(0u16..100, 1..10),
            flip in any::<bool>(),
            pick in prop_oneof![2 => Just(7u8), 1 => 0u8..5],
        ) {
            prop_assert!(xs.iter().all(|&x| x < 100));
            FLIPS_DRAWN.fetch_or(1 << u8::from(flip), Ordering::Relaxed);
            prop_assert!(pick == 7 || pick < 5, "pick {pick}");
        }
    }

    /// The macro surface itself works end to end: every named argument is
    /// bound to a drawn value, and the cases are not all the same draw.
    #[test]
    fn macro_roundtrip() {
        macro_property();
        assert_eq!(
            FLIPS_DRAWN.load(Ordering::Relaxed),
            0b11,
            "32 cases of any::<bool>() must draw both values"
        );
    }
}
